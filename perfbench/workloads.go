package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"e2efair"
	"e2efair/internal/flow"
	"e2efair/internal/routing"
	"e2efair/internal/scenario"
	"e2efair/internal/serve"
	"e2efair/internal/topology"
)

// world is a workload's generated network: the radio topology, the
// long-lived background flows registered during set-up, and whatever
// the session generator draws from.
type world struct {
	topo       *topology.Topology
	background []*flow.Flow
	templates  [][]topology.NodeID // session paths to clone (nil: fresh paths)
	table      *routing.Table      // shortest paths for fresh arrivals
}

// workload is one traffic mix. Every workload runs the same pipeline —
// set-up, an open-loop phase of register→remove sessions beside share
// reads, a closed-loop saturation phase, a crash and recovery, and a
// sharded packet simulation of the Fig. 6 tiles — and differs in
// network shape, host and rates, which decides the layer on top.
type workload struct {
	name   string
	daemon bool // fairallocd subprocess (durable) instead of an in-process engine

	build   func(seed int64) (*world, error)
	session func(rng *rand.Rand, w *world) []topology.NodeID

	sessRate, readRate float64 // open-loop nominal rates, per second
	hold               func(rng *rand.Rand) time.Duration

	// satRate sizes the saturation phase: it commits a fixed number of
	// sessions, satRate per second of its nominal share of --seconds,
	// and is timed, so its work (and the WAL it leaves for recovery)
	// does not depend on the machine's speed.
	satRate float64

	openFrac, satFrac, simFrac float64 // nominal shares of --seconds
}

var workloads = []*workload{
	{
		name:     "daemon-sparse",
		daemon:   true,
		build:    buildClustered,
		session:  cloneAny,
		sessRate: 400,
		readRate: 800,
		hold:     fixedHold(10 * time.Millisecond),
		satRate:  1500,
		openFrac: 0.45, satFrac: 0.15, simFrac: 0.2,
	},
	{
		name:     "engine-dense-sessions",
		build:    buildDense(2),
		session:  cloneTemplate,
		sessRate: 180,
		readRate: 1000,
		hold:     fixedHold(time.Millisecond),
		satRate:  300,
		openFrac: 0.45, satFrac: 0.15, simFrac: 0.2,
	},
	{
		name:     "engine-dense-arrivals",
		build:    buildDense(0),
		session:  freshPath,
		sessRate: 150,
		readRate: 1000,
		hold:     expHold(20 * time.Millisecond),
		satRate:  100,
		openFrac: 0.45, satFrac: 0.15, simFrac: 0.2,
	},
}

func workloadByName(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

func fixedHold(d time.Duration) func(*rand.Rand) time.Duration {
	return func(*rand.Rand) time.Duration { return d }
}

func expHold(mean time.Duration) func(*rand.Rand) time.Duration {
	return func(rng *rand.Rand) time.Duration {
		return time.Duration(rng.ExpFloat64() * float64(mean))
	}
}

// buildClustered is the 32-disjoint-cluster layout of the serving
// benchmarks: per cluster a 4-hop chain crossed by three one-hop flows,
// 2000 m apart so clusters never contend. Weights come from the seed.
func buildClustered(seed int64) (*world, error) {
	rng := rand.New(rand.NewSource(seed))
	const clusters = 32
	b := topology.NewBuilder(topology.DefaultRange, 0)
	type spec struct {
		id     string
		weight float64
		path   []string
	}
	var specs []spec
	for c := 0; c < clusters; c++ {
		n := func(s string) string { return fmt.Sprintf("c%d%s", c, s) }
		x0 := float64(c) * 2000
		chain := []string{n("n0"), n("n1"), n("n2"), n("n3"), n("n4")}
		for i, name := range chain {
			b.Add(name, x0+float64(i)*200, 0)
		}
		b.Add(n("ta"), x0+300, 150)
		b.Add(n("tb"), x0+500, 150)
		b.Add(n("ba"), x0+100, -150)
		b.Add(n("bb"), x0+300, -150)
		b.Add(n("bc"), x0+500, -150)
		b.Add(n("bd"), x0+700, -150)
		w := func() float64 { return float64(1 + rng.Intn(3)) }
		specs = append(specs,
			spec{n("F-chain"), w(), chain},
			spec{n("F-top"), w(), []string{n("ta"), n("tb")}},
			spec{n("F-bot1"), w(), []string{n("ba"), n("bb")}},
			spec{n("F-bot2"), w(), []string{n("bc"), n("bd")}},
		)
	}
	topo, err := b.Build()
	if err != nil {
		return nil, err
	}
	w := &world{topo: topo}
	for _, sp := range specs {
		path := make([]topology.NodeID, len(sp.path))
		for i, name := range sp.path {
			if path[i], err = topo.Lookup(name); err != nil {
				return nil, err
			}
		}
		f, err := flow.New(flow.ID(sp.id), sp.weight, path)
		if err != nil {
			return nil, err
		}
		w.background = append(w.background, f)
	}
	return w, nil
}

// denseTopoSeed fixes the dense component. Drawn per run seed, the
// group-LP cost of the 40-flow background varied from 3.6 to 27 ms
// over 40 seeds, a spread no run length averages out; with the
// component fixed, the run seed draws everything that flows through
// it: session templates, arrival paths, holds and timing.
const denseTopoSeed = 14

// buildDense is one connected 100-node radio component from
// scenario.Random with 40 shortest-path background flows. templates > 0
// draws that many session paths from the run seed.
func buildDense(templates int) func(seed int64) (*world, error) {
	return func(seed int64) (*world, error) {
		sc, err := scenario.Random(scenario.RandomConfig{
			Nodes: 100, Flows: 40, Width: 1300, Height: 1300, MaxHops: 6,
		}, rand.New(rand.NewSource(denseTopoSeed)))
		if err != nil {
			return nil, err
		}
		w := &world{topo: sc.Topo, background: sc.Flows.Flows(), table: routing.BuildTable(sc.Topo)}
		rng := rand.New(rand.NewSource(seed ^ 0x5e55))
		for len(w.templates) < templates {
			w.templates = append(w.templates, randomPath(rng, w, 3, 4))
		}
		return w, nil
	}
}

// randomPath draws a shortest path with minHops..maxHops hops between
// random endpoints.
func randomPath(rng *rand.Rand, w *world, minHops, maxHops int) []topology.NodeID {
	n := w.topo.NumNodes()
	for {
		src, dst := topology.NodeID(rng.Intn(n)), topology.NodeID(rng.Intn(n))
		if src == dst {
			continue
		}
		path, err := w.table.Route(src, dst)
		if err != nil || len(path)-1 < minHops || len(path)-1 > maxHops {
			continue
		}
		if routing.ValidatePath(w.topo, path) != nil {
			continue
		}
		return path
	}
}

// cloneAny sessions copy the path of a random background flow.
func cloneAny(rng *rand.Rand, w *world) []topology.NodeID {
	return w.background[rng.Intn(len(w.background))].Path()
}

// cloneTemplate sessions copy one of a few template paths, so the live
// flow sets repeat and the group-share cache hits.
func cloneTemplate(rng *rand.Rand, w *world) []topology.NodeID {
	return w.templates[rng.Intn(len(w.templates))]
}

// freshPath sessions take a new random routable path each, so the live
// flow set almost never repeats.
func freshPath(rng *rand.Rand, w *world) []topology.NodeID {
	return randomPath(rng, w, 3, 4)
}

// plan is the seed-determined input of one run: the open-loop sessions
// and operations, and the session specs the saturation phase cycles.
type plan struct {
	sessions []serve.FlowSpec
	ops      []op
	sat      []serve.FlowSpec
}

// makePlan draws a run's operations from its seed: sessions arrive as
// a Poisson process at the nominal rate and are removed after their
// hold; reads of random background flows arrive as a second Poisson
// process. The same seed gives the same plan.
func makePlan(wl *workload, w *world, seed int64, openDur time.Duration, prefix string) plan {
	rng := rand.New(rand.NewSource(seed))
	nSess := max(int(math.Ceil(wl.sessRate*openDur.Seconds())), 1)
	nRead := max(int(math.Ceil(wl.readRate*openDur.Seconds())), 1)
	var p plan
	t := 0.0
	for i := 0; i < nSess; i++ {
		t += rng.ExpFloat64() / wl.sessRate
		due := time.Duration(t * float64(time.Second))
		p.sessions = append(p.sessions, serve.FlowSpec{
			ID: flow.ID(fmt.Sprintf("%s%d", prefix, i)), Weight: 1, Path: wl.session(rng, w),
		})
		p.ops = append(p.ops,
			op{kind: opRegister, due: due, sess: int32(i)},
			op{kind: opRemove, due: due + wl.hold(rng), sess: int32(i)})
	}
	t = 0
	for i := 0; i < nRead; i++ {
		t += rng.ExpFloat64() / wl.readRate
		p.ops = append(p.ops, op{
			kind: opRead, due: time.Duration(t * float64(time.Second)),
			sess: -1, id: w.background[rng.Intn(len(w.background))].ID(),
		})
	}
	sort.SliceStable(p.ops, func(i, j int) bool { return p.ops[i].due < p.ops[j].due })
	for i := 0; i < 256; i++ {
		p.sat = append(p.sat, serve.FlowSpec{Weight: 1, Path: wl.session(rng, w)})
	}
	return p
}

// networkSpec renders the topology's node layout as the JSON spec
// fairallocd loads with -spec.
func networkSpec(topo *topology.Topology) e2efair.NetworkSpec {
	spec := e2efair.NetworkSpec{TxRange: topo.TxRange(), InterferenceRange: topo.InterferenceRange()}
	for i, name := range topo.Names() {
		p := topo.Position(topology.NodeID(i))
		spec.Nodes = append(spec.Nodes, e2efair.NodeSpec{Name: name, X: p.X, Y: p.Y})
	}
	return spec
}

// specOf converts a flow to the engine's registration form.
func specOf(f *flow.Flow) serve.FlowSpec {
	return serve.FlowSpec{ID: f.ID(), Weight: f.Weight(), Path: f.Path()}
}
