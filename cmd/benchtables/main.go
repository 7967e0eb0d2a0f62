// Command benchtables regenerates every table and figure of the
// paper's analysis and evaluation sections: the worked allocation
// examples of Figs. 1, 2, 4, 5 and 6, the per-node local optimizations
// of Table I, and the packet-level simulations of Tables II and III.
// Paper-reported values are printed alongside for comparison; see
// EXPERIMENTS.md for the expected correspondences.
//
// Independent simulations (the protocol rows of Tables II/III and the
// random-network sweep) fan out across a netsim.RunParallel worker
// pool; results and printed tables are bit-identical to sequential
// runs.
//
// Usage:
//
//	benchtables                  # everything, 200 simulated seconds
//	benchtables -duration 1000   # full paper-length simulations
//	benchtables -only tableII
//	benchtables -json BENCH_tables.json   # machine-readable metrics + timings
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"time"

	"e2efair/internal/benchreport"
	"e2efair/internal/core"
	"e2efair/internal/fault"
	"e2efair/internal/flow"
	"e2efair/internal/mobility"
	"e2efair/internal/netsim"
	"e2efair/internal/scenario"
	"e2efair/internal/sim"
	"e2efair/internal/stats"
	"e2efair/internal/tdma"
	"e2efair/internal/transport"
)

func main() {
	duration := flag.Float64("duration", 200, "simulated seconds for Tables II/III (paper: 1000)")
	seed := flag.Int64("seed", 1, "simulation seed")
	only := flag.String("only", "", "run one section: fig1, fig2, fig4, fig5, fig6, tableI, tableII, tableIII, ideal, transport, random, mobility, resilience")
	jsonPath := flag.String("json", "", "write machine-readable metrics and wall-clock timings to this file")
	flag.Parse()
	if err := run(*duration, *seed, *only, *jsonPath); err != nil {
		fmt.Fprintln(os.Stderr, "benchtables:", err)
		os.Exit(1)
	}
}

func run(durationSec float64, seed int64, only, jsonPath string) error {
	sections := []struct {
		name string
		fn   func(float64, int64, *benchreport.Section) error
	}{
		{"fig1", fig1}, {"fig2", fig2}, {"fig4", fig4}, {"fig5", fig5},
		{"fig6", fig6}, {"tableI", tableI}, {"tableII", tableII}, {"tableIII", tableIII},
		{"ideal", ideal}, {"transport", reliableTransport}, {"random", randomSweep},
		{"mobility", mobilitySection}, {"resilience", resilienceSection},
	}
	report := &benchreport.Report{
		DurationSec: durationSec, Seed: seed,
		GoMaxProcs: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), GitSHA: benchreport.GitSHA(),
	}
	start := time.Now()
	ran := false
	for _, s := range sections {
		if only != "" && only != s.name {
			continue
		}
		ran = true
		sec := &benchreport.Section{Name: s.name}
		secStart := time.Now()
		if err := s.fn(durationSec, seed, sec); err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
		sec.WallSecs = time.Since(secStart).Seconds()
		report.Sections = append(report.Sections, sec)
		fmt.Println()
	}
	if !ran {
		return fmt.Errorf("unknown section %q", only)
	}
	report.TotalWallSecs = time.Since(start).Seconds()
	if jsonPath != "" {
		if err := benchreport.Write(jsonPath, report); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d sections, %.2fs wall)\n", jsonPath, len(report.Sections), report.TotalWallSecs)
	}
	return nil
}

func flows(alloc core.FlowAllocation) string {
	ids := make([]string, 0, len(alloc))
	for id := range alloc {
		ids = append(ids, string(id))
	}
	sort.Strings(ids)
	out := ""
	for _, id := range ids {
		out += fmt.Sprintf(" %s=%.4f", id, alloc[flow.ID(id)])
	}
	return out
}

func recordAlloc(sec *benchreport.Section, label string, alloc core.FlowAllocation) {
	values := map[string]float64{"totalB": alloc.TotalEffectiveThroughput()}
	for id, r := range alloc {
		values[string(id)] = r
	}
	sec.Add(label, values)
}

func fig1(_ float64, _ int64, sec *benchreport.Section) error {
	fmt.Println("== Fig. 1 worked example (Secs. I, III-B) ==")
	sc, err := scenario.Figure1()
	if err != nil {
		return err
	}
	fair := core.FairnessConstrained(sc.Inst)
	fmt.Printf("fairness constraint:  %s   (paper: F1=1/3 F2=1/3, total 2B/3)\n", flows(fair))
	recordAlloc(sec, "fairness", fair)
	opt, err := core.CentralizedAllocate(sc.Inst, core.CentralizedOptions{Refine: true})
	if err != nil {
		return err
	}
	fmt.Printf("basic-fairness LP:    %s   (paper: F1=1/2 F2=1/4, total 3B/4)\n", flows(opt))
	recordAlloc(sec, "2pa-c", opt)
	tt := core.TwoTierAllocate(sc.Inst)
	fmt.Printf("two-tier subflows:    F1.1=%.4f F1.2=%.4f F2.1=%.4f F2.2=%.4f (paper: 3/4, 1/4, 3/8, 3/8)\n",
		tt[sf("F1", 0)], tt[sf("F1", 1)], tt[sf("F2", 0)], tt[sf("F2", 1)])
	e2e := tt.EndToEnd(sc.Flows)
	fmt.Printf("two-tier end-to-end:  %s   total %.4f (paper: 5B/8)\n", flows(e2e), e2e.TotalEffectiveThroughput())
	recordAlloc(sec, "two-tier", e2e)
	return nil
}

func fig2(_ float64, _ int64, sec *benchreport.Section) error {
	fmt.Println("== Fig. 2 fairness definitions (Sec. II-C) ==")
	single, err := scenario.Figure2Single()
	if err != nil {
		return err
	}
	fair := core.FairnessConstrained(single.Inst)
	fmt.Printf("(a) single-hop, weights (2,1): %s   (paper: 2B/3, B/3)\n", flows(fair))
	recordAlloc(sec, "single-hop", fair)
	multi, err := scenario.Figure2Multi()
	if err != nil {
		return err
	}
	naive := core.SingleHopShares(multi.Inst)
	fmt.Printf("(b) naive per-length split:    %s   (paper: end-to-end B/9 for the 3-hop flow)\n", flows(naive))
	recordAlloc(sec, "naive", naive)
	opt, err := core.CentralizedAllocate(multi.Inst, core.CentralizedOptions{Refine: true})
	if err != nil {
		return err
	}
	fmt.Printf("(c) end-to-end fair:           %s   (paper: 2B/5, B/5)\n", flows(opt))
	recordAlloc(sec, "e2e-fair", opt)
	return nil
}

func fig4(_ float64, _ int64, sec *benchreport.Section) error {
	fmt.Println("== Fig. 4 weighted contention graph (Secs. III, IV-C) ==")
	sc, err := scenario.Figure4()
	if err != nil {
		return err
	}
	basic := core.BasicShares(sc.Inst)
	fmt.Printf("basic shares: %s   (paper: B/10, B/5, 3B/10, B/5)\n", flows(basic))
	recordAlloc(sec, "basic", basic)
	opt, err := core.CentralizedAllocate(sc.Inst, core.CentralizedOptions{Refine: true})
	if err != nil {
		return err
	}
	fmt.Printf("LP optimum:   %s   (paper: 3B/10, B/5, 3B/10, 7B/10; total 3B/2)\n", flows(opt))
	recordAlloc(sec, "lp", opt)
	return nil
}

func fig5(_ float64, _ int64, sec *benchreport.Section) error {
	fmt.Println("== Fig. 5 pentagon (Sec. III-A) ==")
	sc, err := scenario.Pentagon()
	if err != nil {
		return err
	}
	omega := core.WeightedCliqueNumber(sc.Inst)
	fmt.Printf("ω_Ω = %.0f, Prop. 1 upper bound = %.2f·B total (paper: 5B/2)\n", omega, core.UpperBoundTotal(sc.Inst))
	rates := make([]float64, sc.Inst.Graph.NumVertices())
	for i := range rates {
		rates[i] = 0.5
	}
	s, err := core.CheckSchedulable(sc.Inst.Graph, rates)
	if err != nil {
		return err
	}
	fmt.Printf("B/2 per flow schedulable: %v (load %.3f; paper: impossible to achieve)\n", s.Feasible, s.Load)
	tMax, err := core.MaxSchedulableFairRate(sc.Inst.Graph)
	if err != nil {
		return err
	}
	fmt.Printf("max schedulable symmetric rate: %.4f·B\n", tMax)
	sec.Add("pentagon", map[string]float64{"omega": omega, "maxFairRateB": tMax})
	return nil
}

func fig6(_ float64, _ int64, sec *benchreport.Section) error {
	fmt.Println("== Fig. 6 centralized first phase (Sec. IV-B) ==")
	sc, err := scenario.Figure6()
	if err != nil {
		return err
	}
	opt, err := core.CentralizedAllocate(sc.Inst, core.CentralizedOptions{Refine: true})
	if err != nil {
		return err
	}
	fmt.Printf("2PA-C: %s   (paper: 1/3, 1/3, 2/3, 1/8, 3/4)\n", flows(opt))
	recordAlloc(sec, "2pa-c", opt)
	return nil
}

func tableI(_ float64, _ int64, sec *benchreport.Section) error {
	fmt.Println("== Table I: distributed local optimization ==")
	sc, err := scenario.Figure6()
	if err != nil {
		return err
	}
	res, err := core.DistributedAllocate(sc.Inst)
	if err != nil {
		return err
	}
	for _, lp := range res.Locals {
		fmt.Printf("node %-2s vars=%v basic=%.4f cliques=%d solution=[",
			sc.Topo.Name(lp.Node), lp.FlowIDs, lp.Basic[0], len(lp.Cliques))
		for i, v := range lp.Solution {
			if i > 0 {
				fmt.Print(" ")
			}
			fmt.Printf("%.4f", v)
		}
		fmt.Println("]")
	}
	fmt.Printf("adopted 2PA-D shares: %s\n", flows(res.Shares))
	fmt.Println("(paper: 1/3, 1/5, 1/4, 1/4, 1/2 — see EXPERIMENTS.md on r̂5)")
	recordAlloc(sec, "2pa-d", res.Shares)
	return nil
}

func sf(id flow.ID, hop int) flow.SubflowID { return flow.SubflowID{Flow: id, Hop: hop} }

// ideal runs the Sec. III estimation algorithm: the 2PA allocation
// executed by a perfectly coordinated TDMA schedule, the upper bound
// the contention MAC is judged against.
func ideal(durationSec float64, seed int64, sec *benchreport.Section) error {
	fmt.Println("== Ideal estimator (Sec. III): 2PA shares under coordination-free TDMA ==")
	for _, build := range []func() (*scenario.Scenario, error){scenario.Figure1, scenario.Figure6} {
		sc, err := build()
		if err != nil {
			return err
		}
		res, err := tdma.RunIdeal2PA(sc.Inst, tdma.Config{Duration: sim.Time(durationSec * float64(sim.Second))})
		if err != nil {
			return err
		}
		mac, err := netsim.Run(sc.Inst, netsim.Config{
			Protocol: netsim.Protocol2PAC,
			Duration: sim.Time(durationSec * float64(sim.Second)),
			Seed:     seed,
		})
		if err != nil {
			return err
		}
		eff := float64(mac.Stats.TotalEndToEnd()) / float64(res.Stats.TotalEndToEnd())
		fmt.Printf("%-8s ideal total=%8d pkt  2PA-C total=%8d pkt  MAC efficiency=%.2f  util=%.2f coll=%.3f\n",
			sc.Name, res.Stats.TotalEndToEnd(), mac.Stats.TotalEndToEnd(),
			eff, mac.Airtime.Utilization(), mac.Airtime.CollisionOverhead())
		sec.Add(sc.Name, map[string]float64{
			"idealTotalPkt": float64(res.Stats.TotalEndToEnd()),
			"macTotalPkt":   float64(mac.Stats.TotalEndToEnd()),
			"macEfficiency": eff,
			"utilization":   mac.Airtime.Utilization(),
		})
	}
	return nil
}

// randomSweep evaluates the allocation strategies across random
// connected topologies of growing size, reporting the mean total
// effective throughput and the optimality gap of the distributed form,
// then packet-simulates the largest topology across protocols × seeds
// on the parallel worker pool.
func randomSweep(durationSec float64, seed int64, sec *benchreport.Section) error {
	fmt.Println("== Random-topology sweep: mean total effective throughput (fraction of B) ==")
	fmt.Printf("%8s%8s%10s%10s%10s%10s%10s%12s\n",
		"nodes", "flows", "basic", "fairness", "2pa-c", "2pa-d", "two-tier", "distGap")
	rng := rand.New(rand.NewSource(seed))
	var last *scenario.Scenario
	for _, size := range []struct{ nodes, flows int }{{12, 3}, {20, 4}, {30, 6}} {
		const trials = 10
		var sums [5]float64
		var gap float64
		done := 0
		for trial := 0; trial < trials; trial++ {
			sc, err := scenario.Random(scenario.RandomConfig{
				Nodes: size.nodes, Width: 900, Height: 900,
				Flows: size.flows, MaxHops: 6,
			}, rng)
			if err != nil {
				continue
			}
			cent, err := core.CentralizedAllocate(sc.Inst, core.CentralizedOptions{Refine: true})
			if err != nil {
				continue
			}
			dist, err := core.DistributedAllocate(sc.Inst)
			if err != nil {
				continue
			}
			last = sc
			sums[0] += totalOf(core.BasicShares(sc.Inst))
			sums[1] += totalOf(core.FairnessConstrained(sc.Inst))
			sums[2] += cent.TotalEffectiveThroughput()
			sums[3] += dist.Shares.TotalEffectiveThroughput()
			sums[4] += totalOf(core.TwoTierAllocate(sc.Inst).EndToEnd(sc.Flows))
			gap += dist.Shares.TotalEffectiveThroughput() / cent.TotalEffectiveThroughput()
			done++
		}
		if done == 0 {
			continue
		}
		d := float64(done)
		fmt.Printf("%8d%8d%10.3f%10.3f%10.3f%10.3f%10.3f%12.3f\n",
			size.nodes, size.flows, sums[0]/d, sums[1]/d, sums[2]/d, sums[3]/d, sums[4]/d, gap/d)
		sec.Add(fmt.Sprintf("alloc-n%d", size.nodes), map[string]float64{
			"basic": sums[0] / d, "fairness": sums[1] / d, "2pa-c": sums[2] / d,
			"2pa-d": sums[3] / d, "two-tier": sums[4] / d, "distGap": gap / d,
		})
	}
	fmt.Println("(2pa-c dominates two-tier end-to-end and never falls below basic; distGap = 2pa-d / 2pa-c)")
	if last == nil {
		return nil
	}
	// Packet-level sweep over the last random topology: protocols ×
	// seeds fanned across the worker pool, a fraction of the table
	// duration per run.
	simDur := sim.Time(durationSec / 10 * float64(sim.Second))
	if simDur < sim.Second {
		simDur = sim.Second
	}
	protocols := []netsim.Protocol{netsim.Protocol80211, netsim.ProtocolTwoTier, netsim.Protocol2PAC}
	seeds := []int64{seed, seed + 1, seed + 2, seed + 3}
	jobs := netsim.SweepJobs([]*core.Instance{last.Inst}, netsim.Config{Duration: simDur}, protocols, seeds)
	results, err := netsim.RunParallel(jobs, 0)
	if err != nil {
		return err
	}
	fmt.Printf("packet-level sweep on last topology (%d runs of %gs, parallel):\n", len(jobs), simDur.Seconds())
	for pi, p := range protocols {
		var pkt, loss float64
		for si := range seeds {
			r := results[pi*len(seeds)+si]
			pkt += float64(r.Stats.TotalEndToEnd()) / simDur.Seconds()
			loss += r.Stats.LossRatio()
		}
		n := float64(len(seeds))
		fmt.Printf("  %-9s mean %8.1f pkt/s  loss %.4f over %d seeds\n", p, pkt/n, loss/n, len(seeds))
		sec.Add("sim-"+p.String(), map[string]float64{"pktPerS": pkt / n, "lossRatio": loss / n})
	}
	return nil
}

func totalOf(a core.FlowAllocation) float64 { return a.TotalEffectiveThroughput() }

// mobilitySection runs the epochal mobility extension at two speeds.
func mobilitySection(durationSec float64, seed int64, sec *benchreport.Section) error {
	fmt.Println("== Mobility extension: epochal rerouting and reallocation (25 nodes, 3 flows) ==")
	for _, speed := range []float64{2, 20} {
		res, err := mobility.Run(mobility.Config{
			Nodes: 25,
			Waypoint: mobility.WaypointConfig{
				Width: 1200, Height: 900, MinSpeed: 1, MaxSpeed: speed,
				MaxPause: 2 * sim.Second,
			},
			Flows: []mobility.FlowSpec{
				{ID: "F1", Src: 0, Dst: 20}, {ID: "F2", Src: 3, Dst: 17}, {ID: "F3", Src: 7, Dst: 22},
			},
			Protocol: netsim.Protocol2PAC,
			Epoch:    10 * sim.Second,
			Duration: sim.Time(durationSec * float64(sim.Second)),
			Seed:     seed,
		})
		if err != nil {
			return err
		}
		fmt.Printf("maxSpeed=%4.0f m/s: delivered=%d lost=%d routeBreaks=%d unreachable-epochs=%d\n",
			speed, res.TotalDelivered, res.TotalLost, res.RouteBreaks, res.Unreachable)
		sec.Add(fmt.Sprintf("speed%.0f", speed), map[string]float64{
			"delivered": float64(res.TotalDelivered), "lost": float64(res.TotalLost),
			"routeBreaks": float64(res.RouteBreaks),
		})
	}
	return nil
}

// reliableTransport measures end-to-end goodput and retransmission
// waste under a sliding-window reliable transport: the paper's wasted
// bandwidth argument.
func reliableTransport(durationSec float64, seed int64, sec *benchreport.Section) error {
	fmt.Println("== Reliable transport: goodput and retransmission waste (Fig. 1) ==")
	sc, err := scenario.Figure1()
	if err != nil {
		return err
	}
	fmt.Printf("%-9s%10s%10s%12s%10s"+"\n", "protocol", "goodput", "retx", "overhead", "abandoned")
	for _, p := range []netsim.Protocol{netsim.Protocol80211, netsim.ProtocolTwoTier, netsim.Protocol2PAC} {
		res, err := transport.Run(sc.Inst, transport.Config{
			Net: netsim.Config{Protocol: p, Duration: sim.Time(durationSec * float64(sim.Second)), Seed: seed},
		})
		if err != nil {
			return err
		}
		var retx, abandoned int64
		for _, fr := range res.PerFlow {
			retx += fr.Retransmissions
			abandoned += fr.Abandoned
		}
		fmt.Printf("%-9s%10d%10d%12.4f%10d"+"\n", p, res.TotalGoodput(), retx, res.RetransmissionOverhead(), abandoned)
		sec.Add(p.String(), map[string]float64{
			"goodputPkt":   float64(res.TotalGoodput()),
			"retx":         float64(retx),
			"retxOverhead": res.RetransmissionOverhead(),
		})
	}
	return nil
}

// simTable runs one protocol table with every row fanned across the
// worker pool, then prints rows in protocol order.
func simTable(title string, sc *scenario.Scenario, protocols []netsim.Protocol, durationSec float64, seed int64, paperNote string, sec *benchreport.Section) error {
	fmt.Printf("== %s (%g simulated seconds, seed %d) ==\n", title, durationSec, seed)
	var subs []flow.SubflowID
	for _, f := range sc.Flows.Flows() {
		for _, s := range f.Subflows() {
			subs = append(subs, s.ID)
		}
	}
	fmt.Printf("%-9s", "protocol")
	for _, s := range subs {
		fmt.Printf("%9s", s.String())
	}
	fmt.Printf("%10s%8s%8s%7s\n", "totalE2E", "lost", "ratio", "jain")
	results, err := netsim.RunAllParallel(sc.Inst, netsim.Config{
		Duration: sim.Time(durationSec * float64(sim.Second)),
		Seed:     seed,
	}, protocols...)
	if err != nil {
		return err
	}
	for i, p := range protocols {
		r := results[i]
		fmt.Printf("%-9s", p)
		for _, s := range subs {
			fmt.Printf("%9d", r.Stats.Subflow(s))
		}
		var norm []float64
		for _, f := range sc.Flows.Flows() {
			norm = append(norm, float64(r.Stats.EndToEnd(f.ID()))/f.Weight())
		}
		jain := stats.JainIndex(norm)
		fmt.Printf("%10d%8d%8.4f%7.3f\n",
			r.Stats.TotalEndToEnd(), r.Stats.Lost(), r.Stats.LossRatio(), jain)
		sec.Add(p.String(), map[string]float64{
			"totalE2EPkt": float64(r.Stats.TotalEndToEnd()),
			"pktPerS":     float64(r.Stats.TotalEndToEnd()) / durationSec,
			"lost":        float64(r.Stats.Lost()),
			"lossRatio":   r.Stats.LossRatio(),
			"jain":        jain,
		})
	}
	fmt.Println(paperNote)
	return nil
}

func tableII(durationSec float64, seed int64, sec *benchreport.Section) error {
	sc, err := scenario.Figure1()
	if err != nil {
		return err
	}
	return simTable("Table II: scenario 1 (Fig. 1)", sc,
		[]netsim.Protocol{netsim.Protocol80211, netsim.ProtocolTwoTier, netsim.Protocol2PAC, netsim.ProtocolDFS},
		durationSec, seed,
		"paper @1000s: totals 152485 / 126499 / 167488; loss ratios 0.132 / 0.045 / 0.004\n"+
			"expected shape: 2PA highest total, near-zero loss, subflows ≈ ½:½:¼:¼", sec)
}

func tableIII(durationSec float64, seed int64, sec *benchreport.Section) error {
	sc, err := scenario.Figure6()
	if err != nil {
		return err
	}
	return simTable("Table III: scenario 2 (Fig. 6)", sc,
		[]netsim.Protocol{netsim.Protocol80211, netsim.ProtocolTwoTier, netsim.Protocol2PAC, netsim.Protocol2PAD},
		durationSec, seed,
		"paper @1000s: totals 443204 / 394125 / 422162 / 352341; loss ratios 0.100 / 0.027 / 0.006 / 0.004\n"+
			"expected shape: loss 2PA-D ≤ 2PA-C ≪ two-tier ≪ 802.11; 2PA-C > two-tier on total;\n"+
			"2PA-C flow throughputs ∝ (1/3, 1/3, 2/3, 1/8, 3/4)", sec)
}

// resilienceSection exercises the fault-injection layer end to end: a
// lossy-channel sweep over the Fig. 6 scenario under 2PA-C, then a
// mid-run link cut on a diamond detour topology showing RERR-style
// repair, salvage and share reallocation, all with the invariant
// watchdog on.
func resilienceSection(durationSec float64, seed int64, sec *benchreport.Section) error {
	fmt.Println("== Resilience: lossy channels & link-cut recovery ==")
	dur := sim.Time(durationSec * float64(sim.Second))

	sc, err := scenario.Figure6()
	if err != nil {
		return err
	}
	for _, rate := range []float64{0, 0.01, 0.05} {
		cfg := netsim.Config{
			Protocol: netsim.Protocol2PAC, Duration: dur, Seed: seed, Watchdog: true,
		}
		if rate > 0 {
			cfg.Fault = &fault.Plan{Seed: seed, DefaultLoss: rate}
		}
		r, err := netsim.Run(sc.Inst, cfg)
		if err != nil {
			return err
		}
		rep := r.Resilience
		fmt.Printf("fig6 2PA-C loss=%-4.2f  delivered %6d  corrupt %6d  retryDrop %5d  queueDrop %5d  violations %d\n",
			rate, rep.Delivered, rep.CorruptFrames, rep.RetryDrops, rep.QueueDrops, len(rep.Violations))
		sec.Add(fmt.Sprintf("fig6-loss-%g", rate), map[string]float64{
			"lossRate":       rate,
			"delivered":      float64(rep.Delivered),
			"corruptFrames":  float64(rep.CorruptFrames),
			"injectedLosses": float64(rep.InjectedLosses),
			"retryDrops":     float64(rep.RetryDrops),
			"queueDrops":     float64(rep.QueueDrops),
			"violations":     float64(len(rep.Violations)),
		})
	}

	// Mid-run link cut: a diamond A-B-C with detour A-D-C. The primary
	// route uses the cut link, so delivery depends on the full repair
	// pipeline (link-dead detection, RERR back-propagation, reroute,
	// salvage, reallocation).
	diamond, err := scenario.Build("diamond", scenario.NetworkSpec{
		Nodes: []scenario.NodeSpec{{Name: "A", X: 0, Y: 0}, {Name: "B", X: 200, Y: 0}, {Name: "C", X: 400, Y: 0}, {Name: "D", X: 200, Y: 140}},
		Flows: []scenario.FlowSpec{{ID: "F1", Path: []string{"A", "B", "C"}}},
	})
	if err != nil {
		return err
	}
	// Cut the second hop so the RERR notification has one hop to
	// travel back: MTTR then shows the propagation delay.
	plan := &fault.Plan{
		Seed:       seed,
		LinkFaults: []fault.LinkFault{{A: 1, B: 2, Down: dur / 2}},
	}
	r, err := netsim.Run(diamond.Inst, netsim.Config{
		Protocol: netsim.Protocol2PAC, Duration: dur, Seed: seed,
		PacketsPerS: 100, Fault: plan, Watchdog: true,
	})
	if err != nil {
		return err
	}
	rep := r.Resilience
	fmt.Printf("diamond link-cut at t=%.1fs: delivered %d/%d  reroutes %d  salvaged %d  reallocs %d (degraded %d)  MTTR %.0f µs  violations %d\n",
		(dur / 2).Seconds(), rep.Delivered, rep.Injected, rep.Reroutes,
		rep.Salvaged, rep.Reallocations, rep.DegradedAllocs,
		rep.MeanTimeToRepair().Seconds()*1e6, len(rep.Violations))
	sec.Add("diamond-linkcut", map[string]float64{
		"delivered":      float64(rep.Delivered),
		"injected":       float64(rep.Injected),
		"reroutes":       float64(rep.Reroutes),
		"routeErrors":    float64(rep.RouteErrors),
		"salvaged":       float64(rep.Salvaged),
		"retryDrops":     float64(rep.RetryDrops),
		"noRouteDrops":   float64(rep.NoRouteDrops),
		"reallocations":  float64(rep.Reallocations),
		"degradedAllocs": float64(rep.DegradedAllocs),
		"mttrUs":         rep.MeanTimeToRepair().Seconds() * 1e6,
		"violations":     float64(len(rep.Violations)),
	})
	return nil
}
