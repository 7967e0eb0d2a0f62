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

// randomGeoInstance builds a random topology plus a random subflow list
// over it. Endpoints are arbitrary node pairs — Contend places no link
// requirement on a subflow — so the cross-check also covers endpoint
// patterns richer than routed paths, including shared endpoints.
func randomGeoInstance(tb testing.TB, rng *rand.Rand, nodes, subCount int, side float64) (*topology.Topology, []flow.Subflow) {
	tb.Helper()
	b := topology.NewBuilder(topology.DefaultRange, 0)
	for i := 0; i < nodes; i++ {
		b.Add(fmt.Sprintf("n%d", i), rng.Float64()*side, rng.Float64()*side)
	}
	t, err := b.Build()
	if err != nil {
		tb.Fatal(err)
	}
	subs := make([]flow.Subflow, 0, subCount)
	for i := 0; i < subCount; i++ {
		src := topology.NodeID(rng.Intn(nodes))
		dst := topology.NodeID(rng.Intn(nodes))
		for dst == src {
			dst = topology.NodeID(rng.Intn(nodes))
		}
		subs = append(subs, flow.Subflow{
			ID:     flow.SubflowID{Flow: flow.ID(fmt.Sprintf("F%d", i)), Hop: i % 4},
			Src:    src,
			Dst:    dst,
			Weight: 1,
		})
	}
	return t, subs
}

// TestNewGraphMatchesPairwiseReference pins the incidence-index build
// to the retained pairwise oracle across ≥200 randomized trials whose
// sizes straddle the incidence cutoff and whose densities range from
// sparse to near-complete contention.
func TestNewGraphMatchesPairwiseReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 220; trial++ {
		nodes := 2 + rng.Intn(80)
		subCount := 2 + rng.Intn(110)
		side := topology.DefaultRange * (0.4 + rng.Float64()*9.6)
		topo, subs := randomGeoInstance(t, rng, nodes, subCount, side)

		got := NewGraph(topo, subs)
		want := newGraphShell(subs)
		want.buildEdgesPairwise(topo)

		if !reflect.DeepEqual(got.rows, want.rows) || !reflect.DeepEqual(got.degrees, want.degrees) {
			t.Fatalf("trial %d (nodes=%d subs=%d side=%.0f): incidence build differs from pairwise reference",
				trial, nodes, subCount, side)
		}
	}
}

// buildEdgesPairwise is the seed's all-pairs Contend sweep, the
// reference oracle for the incremental incidence build.
func (g *Graph) buildEdgesPairwise(t *topology.Topology) {
	for i := 0; i < len(g.subflows); i++ {
		for j := i + 1; j < len(g.subflows); j++ {
			if Contend(t, g.subflows[i], g.subflows[j]) {
				g.addEdge(i, j)
			}
		}
	}
}

// forcedIncidence returns an index already built, so addVertices takes
// the incidence path below incidenceCutoff.
func forcedIncidence(topo *topology.Topology) *incidence {
	x := &incidence{head: make([]int32, topo.NumNodes())}
	for u := range x.head {
		x.head[u] = -1
	}
	return x
}

// TestNewGraphForcedIncidenceSmall covers sizes the cutoff would send
// to the pairwise path, forcing the incidence build directly.
func TestNewGraphForcedIncidenceSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 100; trial++ {
		nodes := 2 + rng.Intn(12)
		subCount := 1 + rng.Intn(incidenceCutoff-1)
		topo, subs := randomGeoInstance(t, rng, nodes, subCount, topology.DefaultRange*(0.5+rng.Float64()*3))
		got := &Graph{}
		got.addVertices(topo, subs, forcedIncidence(topo))
		want := newGraphShell(subs)
		want.buildEdgesPairwise(topo)
		if !reflect.DeepEqual(got.rows, want.rows) || !reflect.DeepEqual(got.degrees, want.degrees) {
			t.Fatalf("trial %d: forced incidence build differs from pairwise", trial)
		}
	}
}

// benchScenario1k routes flows across a 1000-node random connected
// topology, mirroring the large-scenario shape the allocation pipeline
// sees: subflows are consecutive hops of shortest paths.
func benchScenario1k(tb testing.TB) (*topology.Topology, []flow.Subflow) {
	tb.Helper()
	rng := rand.New(rand.NewSource(3))
	topo, err := topology.Random(topology.RandomConfig{
		Nodes: 1000, Width: 4400, Height: 4400, Connect: true,
	}, rng)
	if err != nil {
		tb.Fatal(err)
	}
	var subs []flow.Subflow
	var bt routing.BFSTree
	for added := 0; added < 60; {
		src := topology.NodeID(rng.Intn(topo.NumNodes()))
		dst := topology.NodeID(rng.Intn(topo.NumNodes()))
		if src == dst || bt.Build(topo, src) != nil || !bt.Reached(dst) {
			continue
		}
		path, err := bt.PathTo(dst)
		if err != nil {
			continue
		}
		f, err := flow.New(flow.ID(fmt.Sprintf("F%d", added)), 1, path)
		if err != nil {
			continue
		}
		subs = append(subs, f.Subflows()...)
		added++
	}
	return topo, subs
}

func BenchmarkContentionBuild(b *testing.B) {
	topo, subs := benchScenario1k(b)
	b.Logf("1k-node scenario: %d subflows", len(subs))
	b.Run("incidence", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g := NewGraph(topo, subs)
			if g.NumVertices() != len(subs) {
				b.Fatal("bad graph")
			}
		}
	})
	b.Run("pairwise", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g := newGraphShell(subs)
			g.buildEdgesPairwise(topo)
			if g.NumVertices() != len(subs) {
				b.Fatal("bad graph")
			}
		}
	})
}
