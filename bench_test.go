package e2efair_test

// Benchmark harness: one benchmark per table and figure of the paper,
// plus ablations for the design choices called out in DESIGN.md.
// Simulation benchmarks run a fixed simulated duration per iteration
// and report the paper's metrics (total effective throughput in
// packets/s, loss ratio) via b.ReportMetric; run the full-length
// experiments with cmd/benchtables -duration 1000.

import (
	"fmt"
	"math/rand"
	"testing"

	"e2efair/internal/contention"
	"e2efair/internal/core"
	"e2efair/internal/dsr"
	"e2efair/internal/flow"
	"e2efair/internal/mac"
	"e2efair/internal/mobility"
	"e2efair/internal/netsim"
	"e2efair/internal/scenario"
	"e2efair/internal/sim"
	"e2efair/internal/tdma"
	"e2efair/internal/topology"
	"e2efair/internal/transport"
)

// benchSimDur is the simulated time per benchmark iteration.
const benchSimDur = 30 * sim.Second

func mustScenario(b *testing.B, build func() (*scenario.Scenario, error)) *scenario.Scenario {
	b.Helper()
	sc, err := build()
	if err != nil {
		b.Fatal(err)
	}
	return sc
}

// BenchmarkFig1Allocations regenerates the Fig. 1 worked example:
// fairness-constrained, basic-fairness LP, and two-tier allocations.
func BenchmarkFig1Allocations(b *testing.B) {
	sc := mustScenario(b, scenario.Figure1)
	var total float64
	for i := 0; i < b.N; i++ {
		alloc, err := core.CentralizedAllocate(sc.Inst, core.CentralizedOptions{Refine: true})
		if err != nil {
			b.Fatal(err)
		}
		_ = core.FairnessConstrained(sc.Inst)
		_ = core.TwoTierAllocate(sc.Inst)
		total = alloc.TotalEffectiveThroughput()
	}
	b.ReportMetric(total, "totalB") // paper: 3/4
}

// BenchmarkFig2Fairness regenerates the Fig. 2 fairness comparison.
func BenchmarkFig2Fairness(b *testing.B) {
	single := mustScenario(b, scenario.Figure2Single)
	multi := mustScenario(b, scenario.Figure2Multi)
	var u2 float64
	for i := 0; i < b.N; i++ {
		_ = core.FairnessConstrained(single.Inst)
		alloc, err := core.CentralizedAllocate(multi.Inst, core.CentralizedOptions{Refine: true})
		if err != nil {
			b.Fatal(err)
		}
		u2 = alloc["F2"]
	}
	b.ReportMetric(u2, "F2shareB") // paper: 1/5
}

// BenchmarkChainColoring regenerates Fig. 3: colouring the 6-hop chain
// into three concurrent transmission sets.
func BenchmarkChainColoring(b *testing.B) {
	sc := mustScenario(b, func() (*scenario.Scenario, error) { return scenario.Chain(6) })
	colors := 0
	for i := 0; i < b.N; i++ {
		_, colors = sc.Inst.Graph.GreedyColoring()
	}
	b.ReportMetric(float64(colors), "colors") // paper: 3
}

// BenchmarkFig4LP regenerates the Fig. 4 weighted LP.
func BenchmarkFig4LP(b *testing.B) {
	sc := mustScenario(b, scenario.Figure4)
	var total float64
	for i := 0; i < b.N; i++ {
		alloc, err := core.CentralizedAllocate(sc.Inst, core.CentralizedOptions{Refine: true})
		if err != nil {
			b.Fatal(err)
		}
		total = alloc.TotalEffectiveThroughput()
	}
	b.ReportMetric(total, "totalB") // paper: 3/2
}

// BenchmarkPentagon regenerates Fig. 5: the Prop. 1 bound, its
// non-schedulability, and the true symmetric optimum.
func BenchmarkPentagon(b *testing.B) {
	sc := mustScenario(b, scenario.Pentagon)
	rates := make([]float64, sc.Inst.Graph.NumVertices())
	for i := range rates {
		rates[i] = 0.5
	}
	var tMax float64
	for i := 0; i < b.N; i++ {
		s, err := core.CheckSchedulable(sc.Inst.Graph, rates)
		if err != nil {
			b.Fatal(err)
		}
		if s.Feasible {
			b.Fatal("pentagon B/2 must not be schedulable")
		}
		tMax, err = core.MaxSchedulableFairRate(sc.Inst.Graph)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(tMax, "maxFairRateB") // 2/5
}

// BenchmarkFig6LP regenerates the Fig. 6 centralized first phase.
func BenchmarkFig6LP(b *testing.B) {
	sc := mustScenario(b, scenario.Figure6)
	var total float64
	for i := 0; i < b.N; i++ {
		alloc, err := core.CentralizedAllocate(sc.Inst, core.CentralizedOptions{Refine: true})
		if err != nil {
			b.Fatal(err)
		}
		total = alloc.TotalEffectiveThroughput()
	}
	b.ReportMetric(total, "totalB") // 53/24 ≈ 2.2083
}

// BenchmarkTableI regenerates the distributed local optimizations of
// Table I.
func BenchmarkTableI(b *testing.B) {
	sc := mustScenario(b, scenario.Figure6)
	var total float64
	for i := 0; i < b.N; i++ {
		res, err := core.DistributedAllocate(sc.Inst)
		if err != nil {
			b.Fatal(err)
		}
		total = res.Shares.TotalEffectiveThroughput()
	}
	b.ReportMetric(total, "totalB")
}

// simBench runs one protocol over a scenario per iteration and reports
// the paper's metrics.
func simBench(b *testing.B, sc *scenario.Scenario, p netsim.Protocol) {
	b.Helper()
	b.ReportAllocs()
	var last *netsim.Result
	for i := 0; i < b.N; i++ {
		r, err := netsim.Run(sc.Inst, netsim.Config{
			Protocol: p, Duration: benchSimDur, Seed: int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(float64(last.Stats.TotalEndToEnd())/benchSimDur.Seconds(), "pkt/s")
	b.ReportMetric(last.Stats.LossRatio(), "lossRatio")
}

// BenchmarkTableII regenerates Table II (Fig. 1 topology) per
// protocol.
func BenchmarkTableII(b *testing.B) {
	sc := mustScenario(b, scenario.Figure1)
	for _, p := range []netsim.Protocol{netsim.Protocol80211, netsim.ProtocolTwoTier, netsim.Protocol2PAC} {
		b.Run(p.String(), func(b *testing.B) { simBench(b, sc, p) })
	}
}

// BenchmarkTableIII regenerates Table III (Fig. 6 topology) per
// protocol.
func BenchmarkTableIII(b *testing.B) {
	sc := mustScenario(b, scenario.Figure6)
	for _, p := range []netsim.Protocol{
		netsim.Protocol80211, netsim.ProtocolTwoTier, netsim.Protocol2PAC, netsim.Protocol2PAD,
	} {
		b.Run(p.String(), func(b *testing.B) { simBench(b, sc, p) })
	}
}

// BenchmarkAblationVirtualLength quantifies the value of the virtual
// length cap v = min(l, 3): the basic share of long chains under the
// capped rule versus the naive per-length rule (Eq. 2).
func BenchmarkAblationVirtualLength(b *testing.B) {
	for _, hops := range []int{3, 6, 12} {
		b.Run(fmt.Sprintf("hops=%d", hops), func(b *testing.B) {
			sc := mustScenario(b, func() (*scenario.Scenario, error) { return scenario.Chain(hops) })
			var capped, naive float64
			for i := 0; i < b.N; i++ {
				capped = core.BasicShares(sc.Inst)["F1"]
				naive = core.SingleHopShares(sc.Inst)["F1"]
			}
			b.ReportMetric(capped, "cappedShareB")
			b.ReportMetric(naive, "naiveShareB")
			b.ReportMetric(capped/naive, "gain")
		})
	}
}

// BenchmarkAblationObjective compares the end-to-end objective (2PA)
// against the single-hop-maximizing two-tier baseline across random
// topologies: the paper's core claim is that maximizing single-hop
// throughput sacrifices end-to-end throughput.
func BenchmarkAblationObjective(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	scs := make([]*scenario.Scenario, 8)
	for i := range scs {
		sc, err := scenario.Random(scenario.RandomConfig{
			Nodes: 20, Width: 900, Height: 900, Flows: 4, MaxHops: 5,
		}, rng)
		if err != nil {
			b.Fatal(err)
		}
		scs[i] = sc
	}
	var gain float64
	for i := 0; i < b.N; i++ {
		var sum2pa, sumTT float64
		for _, sc := range scs {
			alloc, err := core.CentralizedAllocate(sc.Inst, core.CentralizedOptions{Refine: true})
			if err != nil {
				b.Fatal(err)
			}
			sum2pa += alloc.TotalEffectiveThroughput()
			sumTT += core.TwoTierAllocate(sc.Inst).EndToEnd(sc.Flows).TotalEffectiveThroughput()
		}
		gain = sum2pa / sumTT
	}
	b.ReportMetric(gain, "e2eGainVsTwoTier")
}

// BenchmarkAblationDistributedGap measures the optimality gap of the
// distributed first phase against the centralized one on random
// topologies.
func BenchmarkAblationDistributedGap(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	scs := make([]*scenario.Scenario, 8)
	for i := range scs {
		sc, err := scenario.Random(scenario.RandomConfig{
			Nodes: 20, Width: 900, Height: 900, Flows: 4, MaxHops: 5,
		}, rng)
		if err != nil {
			b.Fatal(err)
		}
		scs[i] = sc
	}
	var ratio float64
	for i := 0; i < b.N; i++ {
		var cent, dist float64
		for _, sc := range scs {
			c, err := core.CentralizedAllocate(sc.Inst, core.CentralizedOptions{Refine: true})
			if err != nil {
				b.Fatal(err)
			}
			d, err := core.DistributedAllocate(sc.Inst)
			if err != nil {
				b.Fatal(err)
			}
			cent += c.TotalEffectiveThroughput()
			dist += d.Shares.TotalEffectiveThroughput()
		}
		ratio = dist / cent
	}
	b.ReportMetric(ratio, "distOverCent")
}

// BenchmarkDistributedAllocate measures the distributed first phase —
// one local LP per source node — on the paper's Fig. 6 topology and on
// a 30-node random network, each on one reused Allocator.
func BenchmarkDistributedAllocate(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	random30 := mustScenario(b, func() (*scenario.Scenario, error) {
		return scenario.Random(scenario.RandomConfig{
			Nodes: 30, Width: 1100, Height: 1100, Flows: 8, MaxHops: 6,
		}, rng)
	})
	for _, bc := range []struct {
		name string
		sc   *scenario.Scenario
	}{
		{"fig6", mustScenario(b, scenario.Figure6)},
		{"random30", random30},
	} {
		a := core.NewAllocatorWorkers(1)
		b.Run(bc.name, func(b *testing.B) {
			var total float64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := a.Distributed(bc.sc.Inst)
				if err != nil {
					b.Fatal(err)
				}
				total = res.Shares.TotalEffectiveThroughput()
			}
			b.ReportMetric(total, "totalB")
		})
	}
}

// BenchmarkAblationAlpha sweeps the phase-2 strictness parameter α on
// the Table II scenario: larger α enforces shares more aggressively.
func BenchmarkAblationAlpha(b *testing.B) {
	sc := mustScenario(b, scenario.Figure1)
	for _, alpha := range []float64{0.00001, 0.0001, 0.001} {
		b.Run(fmt.Sprintf("alpha=%g", alpha), func(b *testing.B) {
			var last *netsim.Result
			for i := 0; i < b.N; i++ {
				r, err := netsim.Run(sc.Inst, netsim.Config{
					Protocol: netsim.Protocol2PAC, Duration: benchSimDur,
					Seed: int64(i + 1), Alpha: alpha,
				})
				if err != nil {
					b.Fatal(err)
				}
				last = r
			}
			b.ReportMetric(float64(last.Stats.TotalEndToEnd())/benchSimDur.Seconds(), "pkt/s")
			b.ReportMetric(last.Stats.LossRatio(), "lossRatio")
		})
	}
}

// BenchmarkAblationQueueCap sweeps forwarding queue capacity: larger
// queues absorb short-term imbalance but cannot fix a mismatched
// allocation.
func BenchmarkAblationQueueCap(b *testing.B) {
	sc := mustScenario(b, scenario.Figure1)
	for _, cap := range []int{10, 50, 200} {
		b.Run(fmt.Sprintf("cap=%d", cap), func(b *testing.B) {
			for _, p := range []netsim.Protocol{netsim.ProtocolTwoTier, netsim.Protocol2PAC} {
				b.Run(p.String(), func(b *testing.B) {
					var last *netsim.Result
					for i := 0; i < b.N; i++ {
						r, err := netsim.Run(sc.Inst, netsim.Config{
							Protocol: p, Duration: benchSimDur,
							Seed: int64(i + 1), QueueCap: cap,
						})
						if err != nil {
							b.Fatal(err)
						}
						last = r
					}
					b.ReportMetric(last.Stats.LossRatio(), "lossRatio")
				})
			}
		})
	}
}

// randomContentionGraph builds a seeded Erdős–Rényi contention graph
// with n single-hop flows as vertices, the shape of a dense subflow
// contention structure far beyond the paper's scenarios.
func randomContentionGraph(b *testing.B, n int, p float64, seed int64) *contention.Graph {
	b.Helper()
	rng := rand.New(rand.NewSource(seed))
	var subs []flow.Subflow
	for i := 0; i < n; i++ {
		f, err := flow.New(flow.ID(fmt.Sprintf("F%d", i)), 1,
			[]topology.NodeID{topology.NodeID(2 * i), topology.NodeID(2*i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		subs = append(subs, f.Subflows()...)
	}
	var edges [][2]int
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				edges = append(edges, [2]int{i, j})
			}
		}
	}
	g, err := contention.NewGraphFromEdges(subs, edges)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// benchCliques enumerates maximal cliques of an n-vertex random graph
// per iteration: the Phase-1 hot path at sizes the bitset rewrite
// targets.
func benchCliques(b *testing.B, n int, p float64) {
	g := randomContentionGraph(b, n, p, 9)
	b.ReportAllocs()
	b.ResetTimer()
	cliques := 0
	for i := 0; i < b.N; i++ {
		cliques = len(g.MaximalCliques())
	}
	b.ReportMetric(float64(cliques), "cliques")
}

func BenchmarkCliques64(b *testing.B)  { benchCliques(b, 64, 0.15) }
func BenchmarkCliques128(b *testing.B) { benchCliques(b, 128, 0.15) }
func BenchmarkCliques256(b *testing.B) { benchCliques(b, 256, 0.10) }

// BenchmarkParallelSweep compares a (scenario × protocol × seed) sweep
// run sequentially against the RunParallel worker pool. On a
// multi-core host the parallel variant approaches linear scaling; the
// determinism test in internal/netsim pins both to identical results.
func BenchmarkParallelSweep(b *testing.B) {
	sc1 := mustScenario(b, scenario.Figure1)
	sc6 := mustScenario(b, scenario.Figure6)
	jobs := netsim.SweepJobs(
		[]*core.Instance{sc1.Inst, sc6.Inst},
		netsim.Config{Duration: 2 * sim.Second},
		[]netsim.Protocol{netsim.Protocol80211, netsim.ProtocolTwoTier, netsim.Protocol2PAC},
		[]int64{1, 2},
	)
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := netsim.RunParallel(jobs, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := netsim.RunParallel(jobs, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSimulatorEventRate measures raw simulator performance:
// simulated seconds per wall second on the Fig. 6 scenario.
func BenchmarkSimulatorEventRate(b *testing.B) {
	sc := mustScenario(b, scenario.Figure6)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := netsim.Run(sc.Inst, netsim.Config{
			Protocol: netsim.Protocol2PAC, Duration: benchSimDur, Seed: 1,
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(benchSimDur.Seconds()*float64(b.N)/b.Elapsed().Seconds(), "simSec/s")
}

// benchShardTiles is the component count of the sharding benchmark
// scenario: eight disjoint Figure 6 tiles, so an 8-way worker pool can
// run every radio component concurrently.
const benchShardTiles = 8

// mustTiled builds the multi-component sharding workload: disjoint
// copies of Figure 6 spaced beyond interference range.
func mustTiled(b *testing.B, copies int) *scenario.Scenario {
	b.Helper()
	base := mustScenario(b, scenario.Figure6)
	sc, err := scenario.Tiled(base, copies)
	if err != nil {
		b.Fatal(err)
	}
	return sc
}

// benchSimShardDur keeps the tiled runs (8× the Figure 6 event volume)
// at roughly the single-tile benchmark's wall-clock per iteration.
const benchSimShardDur = 10 * sim.Second

func benchSimulatorSharded(b *testing.B, workers int) {
	sc := mustTiled(b, benchShardTiles)
	b.ReportAllocs()
	b.ResetTimer()
	var delivered int64
	for i := 0; i < b.N; i++ {
		r, err := netsim.Run(sc.Inst, netsim.Config{
			Protocol: netsim.Protocol2PAC, Duration: benchSimShardDur, Seed: 1,
			ShardSim: workers > 0, ShardWorkers: workers,
		})
		if err != nil {
			b.Fatal(err)
		}
		delivered = r.Stats.TotalEndToEnd()
	}
	b.ReportMetric(benchSimShardDur.Seconds()*float64(b.N)/b.Elapsed().Seconds(), "simSec/s")
	b.ReportMetric(float64(delivered), "pkt/run")
}

// BenchmarkSimulatorEventRateMulti is the single-engine baseline on
// the eight-component tiled scenario; the Sharded variants below run
// the identical workload (byte-identical results) on 1, 4, and 8
// worker engines.
func BenchmarkSimulatorEventRateMulti(b *testing.B)    { benchSimulatorSharded(b, 0) }
func BenchmarkSimulatorEventRateSharded1(b *testing.B) { benchSimulatorSharded(b, 1) }
func BenchmarkSimulatorEventRateSharded4(b *testing.B) { benchSimulatorSharded(b, 4) }
func BenchmarkSimulatorEventRateSharded8(b *testing.B) { benchSimulatorSharded(b, 8) }

// benchMACNodes is the dense random topology size for the MAC
// micro-benchmarks: large enough that interference rows span multiple
// words and neighborhoods overlap heavily.
const benchMACNodes = 30

// benchMACMedium assembles a bare MAC over a dense random topology
// (600 m × 600 m, 250 m tx / 500 m interference range) with FIFO
// schedulers — the contention hot path with no allocator or traffic
// machinery around it.
func benchMACMedium(b *testing.B, hooks mac.Hooks) (*sim.Engine, *mac.Medium, *topology.Topology) {
	b.Helper()
	rng := rand.New(rand.NewSource(99))
	tb := topology.NewBuilder(250, 500)
	for i := 0; i < benchMACNodes; i++ {
		tb.Add(fmt.Sprintf("n%d", i), rng.Float64()*600, rng.Float64()*600)
	}
	topo, err := tb.Build()
	if err != nil {
		b.Fatal(err)
	}
	eng := sim.NewEngine()
	medium, err := mac.NewMedium(eng, topo, mac.Config{Seed: 1}, hooks)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < benchMACNodes; i++ {
		if err := medium.Attach(topology.NodeID(i), mac.NewFIFO(64, 31, 1023)); err != nil {
			b.Fatal(err)
		}
	}
	return eng, medium, topo
}

// drainMAC injects the packet set and runs the engine until the burst
// resolves (every packet delivered or retry-dropped).
func drainMAC(b *testing.B, eng *sim.Engine, medium *mac.Medium, pkts []*mac.Packet) {
	for _, p := range pkts {
		if _, err := medium.Inject(p); err != nil {
			b.Fatal(err)
		}
	}
	eng.Run(eng.Now() + 10*sim.Second)
}

// BenchmarkMediumResolve measures the unicast contention hot path:
// every node bursts one packet to its nearest neighbor and the medium
// resolves the resulting collision storm. Steady state must not
// allocate — the scratch sets, event free list and queue buffers all
// warm up on the first drain.
func BenchmarkMediumResolve(b *testing.B) {
	delivered := 0
	hooks := mac.Hooks{OnDelivered: func(_ *mac.Packet, _ sim.Time) { delivered++ }}
	eng, medium, topo := benchMACMedium(b, hooks)
	var pkts []*mac.Packet
	for i := 0; i < benchMACNodes; i++ {
		nbrs := topo.Neighbors(topology.NodeID(i))
		if len(nbrs) == 0 {
			continue
		}
		pkts = append(pkts, &mac.Packet{
			Path:         []topology.NodeID{topology.NodeID(i), nbrs[0]},
			PayloadBytes: 512,
		})
	}
	drainMAC(b, eng, medium, pkts) // warm scratch and free lists
	b.ReportAllocs()
	b.ResetTimer()
	delivered = 0
	for i := 0; i < b.N; i++ {
		drainMAC(b, eng, medium, pkts)
	}
	b.ReportMetric(float64(delivered)/float64(b.N), "delivered/op")
}

// BenchmarkBroadcastFanout measures the broadcast reception path: the
// jam-set union and per-neighbor delivery that route discovery leans
// on, again allocation-free in steady state.
func BenchmarkBroadcastFanout(b *testing.B) {
	received := 0
	hooks := mac.Hooks{OnBroadcast: func(_ *mac.Packet, _ topology.NodeID, _ sim.Time) { received++ }}
	eng, medium, _ := benchMACMedium(b, hooks)
	var pkts []*mac.Packet
	for i := 0; i < benchMACNodes; i++ {
		pkts = append(pkts, &mac.Packet{
			Path:         []topology.NodeID{topology.NodeID(i)},
			PayloadBytes: 512,
			Broadcast:    true,
		})
	}
	drainMAC(b, eng, medium, pkts)
	b.ReportAllocs()
	b.ResetTimer()
	received = 0
	for i := 0; i < b.N; i++ {
		drainMAC(b, eng, medium, pkts)
	}
	b.ReportMetric(float64(received)/float64(b.N), "rx/op")
}

// BenchmarkIdealTDMA runs the Sec. III ideal estimator over the Fig. 6
// scenario: the upper bound the practical schedulers are judged
// against.
func BenchmarkIdealTDMA(b *testing.B) {
	sc := mustScenario(b, scenario.Figure6)
	var rate float64
	for i := 0; i < b.N; i++ {
		res, err := tdma.RunIdeal2PA(sc.Inst, tdma.Config{Duration: benchSimDur})
		if err != nil {
			b.Fatal(err)
		}
		rate = float64(res.Stats.TotalEndToEnd()) / benchSimDur.Seconds()
	}
	b.ReportMetric(rate, "pkt/s")
}

// BenchmarkTransportGoodput measures reliable-transport goodput and
// retransmission waste per protocol on the Fig. 1 scenario — the
// paper's "wasted bandwidth" argument made concrete.
func BenchmarkTransportGoodput(b *testing.B) {
	sc := mustScenario(b, scenario.Figure1)
	for _, p := range []netsim.Protocol{netsim.Protocol80211, netsim.ProtocolTwoTier, netsim.Protocol2PAC} {
		b.Run(p.String(), func(b *testing.B) {
			var last *transport.Result
			for i := 0; i < b.N; i++ {
				r, err := transport.Run(sc.Inst, transport.Config{
					Net: netsim.Config{Protocol: p, Duration: benchSimDur, Seed: int64(i + 1)},
				})
				if err != nil {
					b.Fatal(err)
				}
				last = r
			}
			b.ReportMetric(float64(last.TotalGoodput())/benchSimDur.Seconds(), "goodput/s")
			b.ReportMetric(last.RetransmissionOverhead(), "retxOverhead")
		})
	}
}

// BenchmarkDSRDiscovery measures route-discovery cost on random
// connected networks.
func BenchmarkDSRDiscovery(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	topo, err := topology.Random(topology.RandomConfig{
		Nodes: 30, Width: 1000, Height: 1000, Connect: true,
	}, rng)
	if err != nil {
		b.Fatal(err)
	}
	pairs := [][2]topology.NodeID{{0, 29}, {5, 25}, {10, 20}}
	var bcasts int64
	for i := 0; i < b.N; i++ {
		res, err := dsr.Discover(topo, pairs, dsr.Config{Seed: int64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		bcasts = res.Metrics.Broadcasts
	}
	b.ReportMetric(float64(bcasts), "broadcasts")
}

// BenchmarkDynamicChurn measures the cost of reallocation-on-churn:
// flows toggling every 10 simulated seconds on the Fig. 6 scenario.
func BenchmarkDynamicChurn(b *testing.B) {
	sc := mustScenario(b, scenario.Figure6)
	events := []netsim.FlowEvent{
		{At: 0, Start: []flow.ID{"F1", "F2", "F3", "F4", "F5"}},
		{At: 10 * sim.Second, Stop: []flow.ID{"F3"}},
		{At: 20 * sim.Second, Start: []flow.ID{"F3"}, Stop: []flow.ID{"F5"}},
	}
	var reallocs int
	for i := 0; i < b.N; i++ {
		res, err := netsim.RunDynamic(sc.Inst, netsim.Config{
			Protocol: netsim.Protocol2PAC, Duration: benchSimDur, Seed: int64(i + 1),
		}, events)
		if err != nil {
			b.Fatal(err)
		}
		reallocs = res.Reallocations
	}
	b.ReportMetric(float64(reallocs), "reallocations")
}

// BenchmarkMobility measures the epochal mobile pipeline: waypoint
// movement, per-epoch rerouting, reallocation and simulation.
func BenchmarkMobility(b *testing.B) {
	cfg := mobility.Config{
		Nodes: 20,
		Waypoint: mobility.WaypointConfig{
			Width: 1000, Height: 800, MinSpeed: 1, MaxSpeed: 10,
			MaxPause: 2 * sim.Second,
		},
		Flows: []mobility.FlowSpec{
			{ID: "F1", Src: 0, Dst: 15},
			{ID: "F2", Src: 4, Dst: 19},
		},
		Protocol: netsim.Protocol2PAC,
		Epoch:    5 * sim.Second,
		Duration: benchSimDur,
	}
	var breaks int
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		res, err := mobility.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		breaks = res.RouteBreaks
	}
	b.ReportMetric(float64(breaks), "routeBreaks")
}
