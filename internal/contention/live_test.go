package contention

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"e2efair/internal/flow"
	"e2efair/internal/routing"
	"e2efair/internal/topology"
)

// TestLiveMatchesFromScratch drives a Live graph through random churn —
// runs of subflows joining at the end and leaving from anywhere, sizes
// straddling the incidence cutoff and 64-vertex word boundaries — and
// after every step demands the snapshot equal a from-scratch NewGraph
// plus MaximalCliques over the surviving subflow list, byte for byte.
// The dense case churns whole shortest-path flows on the 100-node
// serving shape, whose maximal cliques are few and large.
func TestLiveMatchesFromScratch(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nodes := 10 + rng.Intn(60)
		side := 250 * (1 + rng.Float64()*6)
		topo, pool := randomGeoInstance(t, rng, nodes, 400, side)
		checkLiveChurn(t, fmt.Sprintf("seed %d", seed), rng, topo, geoRuns(rng, pool), 30)
	}
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		topo, runs := denseFlowRuns(t, rng, 120)
		checkLiveChurn(t, fmt.Sprintf("dense seed %d", seed), rng, topo, runs, 30)
	}
}

// FuzzLiveMatchesFromScratch is TestLiveMatchesFromScratch's churn on
// fuzzed shapes: the node count, the square's side and the churn rates
// come from the input, and the rest from a generator seeded by it.
func FuzzLiveMatchesFromScratch(f *testing.F) {
	f.Add(int64(1), uint8(30), uint8(4), uint8(3), uint8(12))
	f.Add(int64(7), uint8(100), uint8(20), uint8(1), uint8(3))
	f.Add(int64(3), uint8(5), uint8(0), uint8(0), uint8(40))
	f.Fuzz(func(t *testing.T, seed int64, nodes, side, dropRate, addMax uint8) {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + int(nodes)%120
		topo, pool := randomGeoInstance(t, rng, n, 160, 250*(1+float64(side%32)/4))
		runs := geoRuns(rng, pool)
		l := NewLive(topo)
		var live [][]flow.Subflow
		for step := 0; step < 10; step++ {
			live = churnStep(t, rng, l, live, &runs, 2+int(dropRate)%6, 1+int(addMax)%48)
			compareLive(t, topo, l, live, fmt.Sprintf("step %d", step))
		}
	})
}

// geoRuns cuts pool into runs of 1–4 subflows, each run renamed as one
// flow, as a flow's hops join and leave together.
func geoRuns(rng *rand.Rand, pool []flow.Subflow) [][]flow.Subflow {
	var runs [][]flow.Subflow
	for next := 0; next < len(pool); {
		n := min(1+rng.Intn(4), len(pool)-next)
		run := make([]flow.Subflow, n)
		for h := range run {
			run[h] = pool[next+h]
			run[h].ID = flow.SubflowID{Flow: flow.ID(fmt.Sprintf("L%d", next)), Hop: h}
		}
		next += n
		runs = append(runs, run)
	}
	return runs
}

// denseFlowRuns routes count shortest-path flows of at most six hops
// across a connected random 100-node topology in a 1300 m square, the
// dense serving shape, and returns each flow's subflows as one run.
func denseFlowRuns(tb testing.TB, rng *rand.Rand, count int) (*topology.Topology, [][]flow.Subflow) {
	tb.Helper()
	topo, err := topology.Random(topology.RandomConfig{Nodes: 100, Width: 1300, Height: 1300, Connect: true}, rng)
	if err != nil {
		tb.Fatal(err)
	}
	tbl := routing.BuildTable(topo)
	var runs [][]flow.Subflow
	for len(runs) < count {
		path, err := tbl.Route(topology.NodeID(rng.Intn(100)), topology.NodeID(rng.Intn(100)))
		if err != nil || len(path) < 2 || len(path) > 7 {
			continue
		}
		f, err := flow.New(flow.ID(fmt.Sprintf("D%d", len(runs))), 1, path)
		if err != nil {
			tb.Fatal(err)
		}
		runs = append(runs, f.Subflows())
	}
	return topo, runs
}

// checkLiveChurn runs steps churn steps over runs on one Live graph,
// comparing it with a from-scratch build after each.
func checkLiveChurn(t *testing.T, name string, rng *rand.Rand, topo *topology.Topology, runs [][]flow.Subflow, steps int) {
	t.Helper()
	l := NewLive(topo)
	var live [][]flow.Subflow
	for step := 0; step < steps; step++ {
		live = churnStep(t, rng, l, live, &runs, 4, 12)
		compareLive(t, topo, l, live, fmt.Sprintf("%s step %d", name, step))
	}
}

// churnStep removes each live run with probability 1/dropOdds, then
// appends up to addMax−1 runs taken from the front of *runs, on l and
// on the returned run list alike.
func churnStep(t *testing.T, rng *rand.Rand, l *Live, live [][]flow.Subflow, runs *[][]flow.Subflow, dropOdds, addMax int) [][]flow.Subflow {
	t.Helper()
	var drop []int
	kept := live[:0]
	v := 0
	for _, run := range live {
		if rng.Intn(dropOdds) == 0 {
			for h := range run {
				drop = append(drop, v+h)
			}
		} else {
			kept = append(kept, run)
		}
		v += len(run)
	}
	live = kept
	l.Remove(drop)
	var add []flow.Subflow
	for k := rng.Intn(addMax); k > 0 && len(*runs) > 0; k-- {
		run := (*runs)[0]
		*runs = (*runs)[1:]
		live = append(live, run)
		add = append(add, run...)
	}
	l.Add(add)
	return live
}

// compareLive fails unless l's snapshot equals a from-scratch NewGraph
// plus MaximalCliques over the live runs' subflows.
func compareLive(t *testing.T, topo *topology.Topology, l *Live, live [][]flow.Subflow, at string) {
	t.Helper()
	var subs []flow.Subflow
	for _, run := range live {
		subs = append(subs, run...)
	}
	want := NewGraph(topo, subs)
	got, cliques := l.Snapshot()
	if !sameGraph(got, want) {
		t.Fatalf("%s: live graph differs from scratch (%d vertices)", at, len(subs))
	}
	if wc := want.MaximalCliques(); len(cliques)+len(wc) > 0 && !reflect.DeepEqual(cliques, wc) {
		t.Fatalf("%s: live cliques\n%v\nwant\n%v", at, cliques, wc)
	}
}

// sameGraph compares vertices, adjacency rows and degrees, treating nil
// and empty slices alike.
func sameGraph(a, b *Graph) bool {
	if a.NumVertices() != b.NumVertices() {
		return false
	}
	if a.NumVertices() == 0 {
		return true
	}
	return reflect.DeepEqual(a.subflows, b.subflows) && reflect.DeepEqual(a.rows, b.rows) &&
		reflect.DeepEqual(a.degrees, b.degrees)
}

func TestBitsetCut(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(200)
		s := newBitset(n)
		var members []int
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				s.set(i)
				members = append(members, i)
			}
		}
		a := rng.Intn(n)
		b := a + rng.Intn(n-a+1)
		s.cut(a, b)
		var want []int
		for _, m := range members {
			switch {
			case m < a:
				want = append(want, m)
			case m >= b:
				want = append(want, m-(b-a))
			}
		}
		if got := s.appendMembers(nil); !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d cut(%d,%d): got %v want %v", n, a, b, got, want)
		}
	}
}
