package contention

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"e2efair/internal/flow"
)

// TestLiveMatchesFromScratch drives a Live graph through random churn —
// runs of subflows joining at the end and leaving from anywhere, sizes
// straddling the incidence cutoff and 64-vertex word boundaries — and
// after every step demands the snapshot equal a from-scratch NewGraph
// plus MaximalCliques over the surviving subflow list, byte for byte.
func TestLiveMatchesFromScratch(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nodes := 10 + rng.Intn(60)
		side := 250 * (1 + rng.Float64()*6)
		topo, pool := randomGeoInstance(t, rng, nodes, 400, side)
		l := NewLive(topo)
		var live [][]flow.Subflow // runs in vertex order
		next := 0
		for step := 0; step < 30; step++ {
			var drop []int
			kept := live[:0]
			v := 0
			for _, run := range live {
				if rng.Intn(4) == 0 {
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
			for k := rng.Intn(12); k > 0 && next < len(pool); k-- {
				n := min(1+rng.Intn(4), len(pool)-next)
				run := make([]flow.Subflow, n)
				for h := range run {
					run[h] = pool[next+h]
					run[h].ID = flow.SubflowID{Flow: flow.ID(fmt.Sprintf("L%d", next)), Hop: h}
				}
				next += n
				live = append(live, run)
				add = append(add, run...)
			}
			l.Add(add)

			var subs []flow.Subflow
			for _, run := range live {
				subs = append(subs, run...)
			}
			want := NewGraph(topo, subs)
			got, cliques := l.Snapshot()
			if !sameGraph(got, want) {
				t.Fatalf("seed %d step %d: live graph differs from scratch (%d vertices)", seed, step, len(subs))
			}
			if wc := want.MaximalCliques(); len(cliques)+len(wc) > 0 && !reflect.DeepEqual(cliques, wc) {
				t.Fatalf("seed %d step %d: live cliques\n%v\nwant\n%v", seed, step, cliques, wc)
			}
		}
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
