package core_test

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"e2efair/internal/contention"
	"e2efair/internal/core"
	"e2efair/internal/flow"
	"e2efair/internal/scenario"
	"e2efair/internal/topology"
)

// describeInstance serializes everything an allocation reads from an
// instance — graph vertices, degrees and adjacency, the maximal cliques
// in order, and every group LP with exact float bits — so two
// instances agree byte for byte exactly when their strings do.
func describeInstance(inst *core.Instance) string {
	var b strings.Builder
	g := inst.Graph
	for v := 0; v < g.NumVertices(); v++ {
		s := g.Subflow(v)
		fmt.Fprintf(&b, "v%d %s %d>%d w=%b deg=%d n=%v\n", v, s.ID, s.Src, s.Dst, s.Weight, g.Degree(v), g.Neighbors(v))
	}
	fmt.Fprintf(&b, "cliques %v\n", inst.Cliques)
	bits := func(xs []float64) string {
		parts := make([]string, len(xs))
		for i, x := range xs {
			parts[i] = strconv.FormatUint(math.Float64bits(x), 16)
		}
		return strings.Join(parts, ",")
	}
	for _, lp := range core.GroupLPs(inst) {
		fmt.Fprintf(&b, "group %v basic=%s weights=%s key=%x\n", lp.IDs, bits(lp.Basic), bits(lp.Weights), lp.Key)
		for _, r := range lp.Rows {
			fmt.Fprintf(&b, "  row %s\n", bits(r))
		}
	}
	return b.String()
}

// churnShape is a topology plus path templates for registrations.
type churnShape struct {
	name  string
	topo  *topology.Topology
	paths [][]topology.NodeID
}

// denseShape is the dense serving component: scenario.Random's
// 100-node 1300 m square with shortest-path templates, plus single-hop
// templates over random links.
func denseShape(tb testing.TB, rng *rand.Rand) churnShape {
	sc, err := scenario.Random(scenario.RandomConfig{
		Nodes: 100, Flows: 30, Width: 1300, Height: 1300, MaxHops: 6,
	}, rng)
	if err != nil {
		tb.Fatal(err)
	}
	s := churnShape{name: "dense", topo: sc.Topo}
	for _, f := range sc.Flows.Flows() {
		s.paths = append(s.paths, f.Path())
	}
	for len(s.paths) < 40 {
		u := topology.NodeID(rng.Intn(sc.Topo.NumNodes()))
		if nb := sc.Topo.Neighbors(u); len(nb) > 0 {
			s.paths = append(s.paths, []topology.NodeID{u, nb[rng.Intn(len(nb))]})
		}
	}
	return s
}

// componentShape is several disjoint clusters (a 4-hop chain crossed
// by three single-hop flows each), so churn empties and refills whole
// contending groups and often leaves a single-hop flow alone.
func componentShape(tb testing.TB, rng *rand.Rand) churnShape {
	_, topo, flows := clusteredInstance(tb, 2+rng.Intn(4), rng.Int63())
	s := churnShape{name: "components", topo: topo}
	for _, f := range flows {
		s.paths = append(s.paths, f.Path())
	}
	return s
}

// TestLiveChurnMatchesNewInstance is the live instance's byte-identity
// oracle: 100 seeds of random register/remove batches — removals from
// the middle, flows registered and removed in one batch, IDs re-used
// with a new path in one batch, batches that empty the set, single-hop
// flows — each run on the dense shape and on a multi-component
// topology. After
// every batch the live Instance must describe identically to a
// from-scratch NewInstance and price to bit-identical shares against a
// fresh Allocator, and the instance returned one batch earlier must be
// unchanged (the live state aliases nothing it hands out).
func TestLiveChurnMatchesNewInstance(t *testing.T) {
	opts := core.CentralizedOptions{Refine: true}
	for run := 0; run < 200; run++ {
		seed := run / 2
		rng := rand.New(rand.NewSource(int64(seed)))
		var shape churnShape
		if run%2 == 0 {
			shape = denseShape(t, rng)
		} else {
			shape = componentShape(t, rng)
		}
		live := core.NewLive(shape.topo)
		alloc := core.NewAllocatorWorkers(1)
		var flows []*flow.Flow
		next := 0
		newFlow := func(id flow.ID) *flow.Flow {
			f, err := flow.New(id, float64(1+rng.Intn(3)), shape.paths[rng.Intn(len(shape.paths))])
			if err != nil {
				t.Fatal(err)
			}
			return f
		}
		remove := func(i int) { flows = append(flows[:i], flows[i+1:]...) }
		var prev *core.Instance
		var prevDesc string
		for batch := 0; batch < 14; batch++ {
			switch {
			case batch == 9 || rng.Intn(12) == 0:
				flows = flows[:0] // empty the set
			default:
				for k := rng.Intn(4); k > 0 && len(flows) > 0; k-- {
					remove(rng.Intn(len(flows)))
				}
				if rng.Intn(3) == 0 && len(flows) > 0 {
					// Re-use a live ID with a fresh path in this batch.
					i := rng.Intn(len(flows))
					id := flows[i].ID()
					remove(i)
					flows = append(flows, newFlow(id))
				}
				if rng.Intn(3) == 0 {
					// Registered and removed in the same batch.
					flows = append(flows, newFlow(flow.ID(fmt.Sprintf("x%d", next))))
					next++
					remove(len(flows) - 1)
				}
				for k := 1 + rng.Intn(6); k > 0 && len(flows) < 24; k-- {
					flows = append(flows, newFlow(flow.ID(fmt.Sprintf("f%d", next))))
					next++
				}
			}
			label := fmt.Sprintf("seed %d (%s) batch %d (%d flows)", seed, shape.name, batch, len(flows))
			if len(flows) == 0 {
				continue // an emptied shard prices nothing
			}
			set, err := flow.NewSet(flows...)
			if err != nil {
				t.Fatal(err)
			}
			got := live.Update(set)
			want, err := core.NewInstance(shape.topo, set)
			if err != nil {
				t.Fatal(err)
			}
			if gd, wd := describeInstance(got), describeInstance(want); gd != wd {
				t.Fatalf("%s: live instance differs from NewInstance\nlive:\n%s\nscratch:\n%s", label, gd, wd)
			}
			gotShares, err := alloc.Centralized(got, opts)
			if err != nil {
				t.Fatal(err)
			}
			wantShares, err := core.NewAllocatorWorkers(1).Centralized(want, opts)
			if err != nil {
				t.Fatal(err)
			}
			requireSameBits(t, label, wantShares, gotShares)
			if prev != nil && describeInstance(prev) != prevDesc {
				t.Fatalf("%s: the previous batch's instance changed", label)
			}
			prev, prevDesc = got, describeInstance(got)
		}
	}
}

// TestInstanceSharedAcrossGoroutines reads one fresh instance from
// several goroutines at once — the lazily built groups and the clique
// rows decoded from the LP keys — as sweeps sharing an instance do. Under -race this pins the lazy state as
// safely published; every goroutine must see the sequential bits.
func TestInstanceSharedAcrossGoroutines(t *testing.T) {
	topo, bg, _ := denseChurn(t)
	set, err := flow.NewSet(bg[:20]...)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.CentralizedOptions{Refine: true}
	build := func() *core.Instance {
		inst, err := core.NewInstance(topo, set)
		if err != nil {
			t.Fatal(err)
		}
		return inst
	}
	seq := build()
	wantLP, err := core.NewAllocatorWorkers(1).Centralized(seq, opts)
	if err != nil {
		t.Fatal(err)
	}
	wantFair, wantMaxMin := core.FairnessConstrained(seq), core.MaxMinAllocate(seq)

	shared := build()
	const readers = 8
	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		go func() {
			got, err := core.NewAllocatorWorkers(1).Centralized(shared, opts)
			if err == nil {
				for _, pair := range [][2]core.FlowAllocation{
					{wantLP, got}, {wantFair, core.FairnessConstrained(shared)}, {wantMaxMin, core.MaxMinAllocate(shared)},
				} {
					for id, w := range pair[0] {
						if math.Float64bits(pair[1][id]) != math.Float64bits(w) {
							err = fmt.Errorf("flow %s: %v, want %v", id, pair[1][id], w)
						}
					}
				}
			}
			errs <- err
		}()
	}
	for r := 0; r < readers; r++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

// TestGroupKeyCountsCompact: a group LP key carries the clique counts
// n_{i,k} as one-byte uvarints (the counts are small), and the rows
// decoded from it are the instance's cliques counted per flow, in
// clique order with repeated rows dropped.
func TestGroupKeyCountsCompact(t *testing.T) {
	inst := denseArrivals(t, 1)[0]
	lps := core.GroupLPs(inst)
	if len(lps) != 1 {
		t.Fatalf("dense arrival shape has %d groups, want 1", len(lps))
	}
	g := lps[0]
	pos := make(map[flow.ID]int, len(g.IDs))
	for i, id := range g.IDs {
		pos[id] = i
	}
	var want [][]float64
	seen := make(map[string]bool)
	for _, c := range inst.Cliques {
		row := make([]float64, len(g.IDs))
		for _, v := range c {
			row[pos[inst.Graph.Subflow(v).ID.Flow]]++
		}
		if k := fmt.Sprint(row); !seen[k] {
			seen[k] = true
			want = append(want, row)
		}
	}
	if fmt.Sprint(g.Rows) != fmt.Sprint(want) {
		t.Fatalf("decoded rows %v, want %v", g.Rows, want)
	}
	// Header (row count, width), one byte per count, then the floors
	// and weights as float64 bits.
	width := len(g.IDs)
	if got, wantLen := len(g.Key), 16+len(want)*width+16*width; got != wantLen {
		t.Errorf("key is %d bytes, want %d", got, wantLen)
	}
}

// TestGroupKeyWideCounts: a clique holding 128 or more subflows of one
// flow writes that count as a multi-byte uvarint, and the row decodes
// back to the counts.
func TestGroupKeyWideCounts(t *testing.T) {
	path := make([]topology.NodeID, 131)
	for i := range path {
		path[i] = topology.NodeID(i)
	}
	long, err := flow.New("F1", 1, path)
	if err != nil {
		t.Fatal(err)
	}
	short, err := flow.New("F2", 1, []topology.NodeID{200, 201})
	if err != nil {
		t.Fatal(err)
	}
	set, err := flow.NewSet(long, short)
	if err != nil {
		t.Fatal(err)
	}
	n := len(set.Subflows())
	var edges [][2]int
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			edges = append(edges, [2]int{i, j})
		}
	}
	g, err := contention.NewGraphFromEdges(set.Subflows(), edges)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := core.NewInstanceFromGraph(set, g)
	if err != nil {
		t.Fatal(err)
	}
	lps := core.GroupLPs(inst)
	if got := fmt.Sprint(lps[0].Rows); got != "[[130 1]]" {
		t.Fatalf("decoded rows %s, want [[130 1]]", got)
	}
	if got, want := len(lps[0].Key), 16+2+1+16*2; got != want {
		t.Errorf("key is %d bytes, want %d", got, want)
	}
}
