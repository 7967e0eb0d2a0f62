package netsim_test

// Shape tests for the paper's Tables II and III: the absolute packet
// counts depend on the substituted simulator's PHY timings, but the
// qualitative relations the paper reports must hold. Durations are
// shortened from the paper's 1000 s to keep tests fast; the bench
// harness (bench_test.go at the module root) runs the full-length
// experiments.

import (
	"math/rand"
	"slices"
	"testing"

	"e2efair/internal/flow"
	"e2efair/internal/mac"
	"e2efair/internal/netsim"
	"e2efair/internal/scenario"
	"e2efair/internal/sim"
)

// newRand builds a seeded source for random-instance tests.
func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func sub(f flow.ID, h int) flow.SubflowID { return flow.SubflowID{Flow: f, Hop: h} }

const testDur = 50 * sim.Second

func runProto(t *testing.T, sc *scenario.Scenario, p netsim.Protocol) *netsim.Result {
	t.Helper()
	r, err := netsim.Run(sc.Inst, netsim.Config{Protocol: p, Duration: testDur, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestTableIIShape(t *testing.T) {
	sc, err := scenario.Figure1()
	if err != nil {
		t.Fatal(err)
	}
	r80211 := runProto(t, sc, netsim.Protocol80211)
	rTT := runProto(t, sc, netsim.ProtocolTwoTier)
	r2PA := runProto(t, sc, netsim.Protocol2PAC)

	// (1) Loss ratio ordering: 2PA ≪ two-tier < 802.11.
	if !(r2PA.Stats.LossRatio() < rTT.Stats.LossRatio()) {
		t.Errorf("loss ratio: 2PA %.4f should be below two-tier %.4f",
			r2PA.Stats.LossRatio(), rTT.Stats.LossRatio())
	}
	if !(rTT.Stats.LossRatio() < r80211.Stats.LossRatio()) {
		t.Errorf("loss ratio: two-tier %.4f should be below 802.11 %.4f",
			rTT.Stats.LossRatio(), r80211.Stats.LossRatio())
	}
	if r2PA.Stats.LossRatio() > 0.15 {
		t.Errorf("2PA loss ratio %.4f should be small", r2PA.Stats.LossRatio())
	}

	// (2) 2PA achieves the highest total effective throughput.
	if !(r2PA.Stats.TotalEndToEnd() > r80211.Stats.TotalEndToEnd()) {
		t.Errorf("total effective: 2PA %d should beat 802.11 %d",
			r2PA.Stats.TotalEndToEnd(), r80211.Stats.TotalEndToEnd())
	}
	if !(r2PA.Stats.TotalEndToEnd() > rTT.Stats.TotalEndToEnd()) {
		t.Errorf("total effective: 2PA %d should beat two-tier %d",
			r2PA.Stats.TotalEndToEnd(), rTT.Stats.TotalEndToEnd())
	}

	// (3) Under 2PA the subflow throughput ratio approximates the
	// allocated shares 1/2 : 1/2 : 1/4 : 1/4.
	d11 := float64(r2PA.Stats.Subflow(sub("F1", 0)))
	d12 := float64(r2PA.Stats.Subflow(sub("F1", 1)))
	d21 := float64(r2PA.Stats.Subflow(sub("F2", 0)))
	if d12 == 0 || d21 == 0 {
		t.Fatal("2PA starved a subflow")
	}
	if r := d11 / d12; r < 0.9 || r > 1.25 {
		t.Errorf("2PA F1 hop balance %.2f, want ≈1", r)
	}
	if r := d12 / d21; r < 1.4 || r > 2.6 {
		t.Errorf("2PA share ratio F1:F2 = %.2f, want ≈2", r)
	}

	// (4) 802.11 starves F1's downstream hop (the hidden-receiver
	// pathology the paper reports).
	if got := r80211.Stats.Subflow(sub("F1", 1)); got*5 > r80211.Stats.Subflow(sub("F2", 0)) {
		t.Errorf("802.11 should starve F1.2: got %d vs F2.1 %d", got, r80211.Stats.Subflow(sub("F2", 0)))
	}

	// (5) two-tier's upstream/downstream imbalance on F1 causes
	// buffer overflow at node B: r1.1 well above r1.2.
	if !(rTT.Stats.Subflow(sub("F1", 0)) > 2*rTT.Stats.Subflow(sub("F1", 1))) {
		t.Errorf("two-tier should overdrive F1.1: %d vs %d",
			rTT.Stats.Subflow(sub("F1", 0)), rTT.Stats.Subflow(sub("F1", 1)))
	}
}

func TestTableIIIShape(t *testing.T) {
	sc, err := scenario.Figure6()
	if err != nil {
		t.Fatal(err)
	}
	r80211 := runProto(t, sc, netsim.Protocol80211)
	rTT := runProto(t, sc, netsim.ProtocolTwoTier)
	rC := runProto(t, sc, netsim.Protocol2PAC)
	rD := runProto(t, sc, netsim.Protocol2PAD)

	// (1) Loss ratios: both 2PA variants far below two-tier and
	// 802.11; 802.11 worst.
	if !(rC.Stats.LossRatio() < rTT.Stats.LossRatio() && rD.Stats.LossRatio() < rTT.Stats.LossRatio()) {
		t.Errorf("2PA loss ratios (%.4f, %.4f) should be below two-tier %.4f",
			rC.Stats.LossRatio(), rD.Stats.LossRatio(), rTT.Stats.LossRatio())
	}
	if !(rTT.Stats.LossRatio() < r80211.Stats.LossRatio()) {
		t.Errorf("two-tier %.4f should lose less than 802.11 %.4f",
			rTT.Stats.LossRatio(), r80211.Stats.LossRatio())
	}

	// (2) Centralized 2PA beats two-tier on total effective
	// throughput; the distributed form trails the centralized one.
	if !(rC.Stats.TotalEndToEnd() > rTT.Stats.TotalEndToEnd()) {
		t.Errorf("2PA-C total %d should beat two-tier %d",
			rC.Stats.TotalEndToEnd(), rTT.Stats.TotalEndToEnd())
	}
	if !(rD.Stats.TotalEndToEnd() < rC.Stats.TotalEndToEnd()) {
		t.Errorf("2PA-D total %d should trail 2PA-C %d",
			rD.Stats.TotalEndToEnd(), rC.Stats.TotalEndToEnd())
	}

	// (3) Under 2PA-C the per-flow throughputs are proportional to
	// the allocated shares (1/3, 1/3, 2/3, 1/8, 3/4).
	shares := []struct {
		id    flow.ID
		share float64
	}{
		{"F1", 1.0 / 3}, {"F2", 1.0 / 3}, {"F3", 2.0 / 3}, {"F4", 1.0 / 8}, {"F5", 3.0 / 4},
	}
	var scale float64
	for _, s := range shares {
		scale += float64(rC.Stats.EndToEnd(s.id))
	}
	var shareSum float64
	for _, s := range shares {
		shareSum += s.share
	}
	for _, s := range shares {
		got := float64(rC.Stats.EndToEnd(s.id))
		want := scale * s.share / shareSum
		if got < 0.75*want || got > 1.3*want {
			t.Errorf("2PA-C %s delivered %0.f, want ≈%0.f (share %.3f)", s.id, got, want, s.share)
		}
	}

	// (4) F2.1 obtains a fair share under 2PA while 802.11 suppresses
	// it relative to its 2PA level.
	if !(rC.Stats.Subflow(sub("F2", 0)) > r80211.Stats.Subflow(sub("F2", 0))) {
		t.Errorf("2PA-C should protect F2.1: %d vs 802.11 %d",
			rC.Stats.Subflow(sub("F2", 0)), r80211.Stats.Subflow(sub("F2", 0)))
	}

	// (5) F1's hops stay balanced under both 2PA variants.
	for _, r := range []*netsim.Result{rC, rD} {
		up := float64(r.Stats.Subflow(sub("F1", 0)))
		down := float64(r.Stats.Subflow(sub("F1", 3)))
		if down == 0 || up/down > 1.25 {
			t.Errorf("%s F1 imbalance: %0.f vs %0.f", r.Protocol, up, down)
		}
	}
}

func TestRunAll(t *testing.T) {
	sc, err := scenario.Figure1()
	if err != nil {
		t.Fatal(err)
	}
	rs, err := netsim.RunAll(sc.Inst, netsim.Config{Duration: 2 * sim.Second, Seed: 3},
		netsim.Protocol80211, netsim.Protocol2PAC)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 || rs[0].Protocol != netsim.Protocol80211 || rs[1].Protocol != netsim.Protocol2PAC {
		t.Errorf("RunAll results wrong: %v", rs)
	}
}

func TestDeterminism(t *testing.T) {
	sc, err := scenario.Figure1()
	if err != nil {
		t.Fatal(err)
	}
	run := func() int64 {
		r, err := netsim.Run(sc.Inst, netsim.Config{Protocol: netsim.Protocol2PAC, Duration: 5 * sim.Second, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		return r.Stats.TotalEndToEnd()*1000003 + r.Stats.Lost()
	}
	if run() != run() {
		t.Error("same seed must reproduce identical results")
	}
}

func TestSeedSensitivity(t *testing.T) {
	sc, err := scenario.Figure1()
	if err != nil {
		t.Fatal(err)
	}
	r1, err := netsim.Run(sc.Inst, netsim.Config{Protocol: netsim.Protocol80211, Duration: 5 * sim.Second, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := netsim.Run(sc.Inst, netsim.Config{Protocol: netsim.Protocol80211, Duration: 5 * sim.Second, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Stats.TotalEndToEnd() == r2.Stats.TotalEndToEnd() && r1.Stats.Collisions() == r2.Stats.Collisions() {
		t.Error("different seeds should perturb the run")
	}
}

func TestAbstractInstanceRejected(t *testing.T) {
	sc, err := scenario.Pentagon()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := netsim.Run(sc.Inst, netsim.Config{Protocol: netsim.Protocol80211, Duration: sim.Second}); err == nil {
		t.Error("abstract scenario should not simulate")
	}
}

func TestUnknownProtocol(t *testing.T) {
	sc, err := scenario.Figure1()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := netsim.Run(sc.Inst, netsim.Config{Protocol: netsim.Protocol(99), Duration: sim.Second}); err == nil {
		t.Error("unknown protocol should fail")
	}
}

func TestProtocolString(t *testing.T) {
	names := map[netsim.Protocol]string{
		netsim.Protocol80211:   "802.11",
		netsim.ProtocolTwoTier: "two-tier",
		netsim.Protocol2PAC:    "2PA-C",
		netsim.Protocol2PAD:    "2PA-D",
	}
	for p, want := range names {
		if p.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(p), p.String(), want)
		}
	}
}

func TestSharesReported(t *testing.T) {
	sc, err := scenario.Figure1()
	if err != nil {
		t.Fatal(err)
	}
	r, err := netsim.Run(sc.Inst, netsim.Config{Protocol: netsim.Protocol2PAC, Duration: sim.Second, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.Shares == nil {
		t.Fatal("2PA-C should report shares")
	}
	if got := r.Shares[sub("F1", 0)]; got < 0.49 || got > 0.51 {
		t.Errorf("F1.1 share = %g, want 0.5", got)
	}
	r80211, err := netsim.Run(sc.Inst, netsim.Config{Protocol: netsim.Protocol80211, Duration: sim.Second, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r80211.Shares != nil {
		t.Error("802.11 reports no shares")
	}
}

// TestPhase2AblationDFS pins the value of the paper's tag scheduler:
// the same centralized shares realized by naive weighted backoff (DFS)
// lose the allocation — F1 starves and in-flight loss explodes.
func TestPhase2AblationDFS(t *testing.T) {
	sc, err := scenario.Figure1()
	if err != nil {
		t.Fatal(err)
	}
	tags := runProto(t, sc, netsim.Protocol2PAC)
	dfs := runProto(t, sc, netsim.ProtocolDFS)
	if !(tags.Stats.LossRatio() < dfs.Stats.LossRatio()/5) {
		t.Errorf("tag scheduler loss %.4f should be far below DFS %.4f",
			tags.Stats.LossRatio(), dfs.Stats.LossRatio())
	}
	if !(tags.Stats.EndToEnd("F1") > dfs.Stats.EndToEnd("F1")) {
		t.Errorf("tags should protect F1: %d vs DFS %d",
			tags.Stats.EndToEnd("F1"), dfs.Stats.EndToEnd("F1"))
	}
}

// delayTracer records each packet's end-to-end delay. TraceExchangeEnd
// fires before OnDelivered frees the packet, so on a packet's last hop
// now − Born is its delay.
type delayTracer map[flow.ID][]sim.Time

func (d delayTracer) Trace(ev mac.TraceEvent) {
	if ev.Kind == mac.TraceExchangeEnd && ev.Pkt.LastHop() {
		d[ev.Pkt.Flow] = append(d[ev.Pkt.Flow], ev.At-ev.Pkt.Born)
	}
}

// traceDelays runs Figure 1 under p for testDur and returns F1's
// delays, sorted.
func traceDelays(t *testing.T, sc *scenario.Scenario, p netsim.Protocol) []sim.Time {
	t.Helper()
	d := delayTracer{}
	if _, err := netsim.Run(sc.Inst, netsim.Config{Protocol: p, Duration: testDur, Seed: 1, Tracer: d}); err != nil {
		t.Fatal(err)
	}
	slices.Sort(d["F1"])
	return d["F1"]
}

func meanDelay(s []sim.Time) sim.Time {
	var sum sim.Time
	for _, v := range s {
		sum += v
	}
	return sum / sim.Time(len(s))
}

// TestLatencyTracked checks end-to-end delays and that 2PA's balanced
// queues keep delays below the DFS ablation's.
func TestLatencyTracked(t *testing.T) {
	sc, err := scenario.Figure1()
	if err != nil {
		t.Fatal(err)
	}
	tags := traceDelays(t, sc, netsim.Protocol2PAC)
	if len(tags) == 0 {
		t.Fatal("no latency samples")
	}
	mean := meanDelay(tags)
	if mean <= 0 {
		t.Fatalf("mean delay = %d", mean)
	}
	quantile := func(q float64) sim.Time { return tags[int(q*float64(len(tags)-1))] }
	if p95, p50 := quantile(0.95), quantile(0.5); p95 < p50 {
		t.Errorf("p95 %d below p50 %d", p95, p50)
	}
	dfs := traceDelays(t, sc, netsim.ProtocolDFS)
	if len(dfs) > 0 && meanDelay(dfs) < mean {
		t.Errorf("DFS mean delay %d should exceed tag scheduler %d", meanDelay(dfs), mean)
	}
}

// TestWeightedFlowsSimulation validates that preassigned weights carry
// through to the packet level: two contending single-hop flows with
// weights 2:1 split the channel ≈2:1 under the fairness allocation.
func TestWeightedFlowsSimulation(t *testing.T) {
	sc, err := scenario.Figure2Single()
	if err != nil {
		t.Fatal(err)
	}
	r, err := netsim.Run(sc.Inst, netsim.Config{
		Protocol: netsim.Protocol2PAC, Duration: 40 * sim.Second, Seed: 2,
		PacketsPerS: 400, // keep both flows backlogged
	})
	if err != nil {
		t.Fatal(err)
	}
	f1 := float64(r.Stats.EndToEnd("F1"))
	f2 := float64(r.Stats.EndToEnd("F2"))
	if f2 == 0 {
		t.Fatal("F2 starved")
	}
	if ratio := f1 / f2; ratio < 1.5 || ratio > 2.6 {
		t.Errorf("weighted throughput ratio = %.2f, want ≈2", ratio)
	}
}

// TestChainThroughputPlateau validates intra-flow spatial reuse at the
// packet level (Fig. 3's claim): a lone chain flow's end-to-end
// throughput flattens once hops exceed the virtual length 3, because
// hops three apart pipeline concurrently.
func TestChainThroughputPlateau(t *testing.T) {
	rate := func(hops int) float64 {
		sc, err := scenario.Chain(hops)
		if err != nil {
			t.Fatal(err)
		}
		r, err := netsim.Run(sc.Inst, netsim.Config{
			Protocol: netsim.Protocol2PAC, Duration: 30 * sim.Second, Seed: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		return float64(r.Stats.EndToEnd("F1")) / 30
	}
	r1, r3, r6, r9 := rate(1), rate(3), rate(6), rate(9)
	if !(r1 > r3) {
		t.Errorf("1-hop rate %.1f should exceed 3-hop %.1f", r1, r3)
	}
	// Plateau: 6- and 9-hop rates within 35% of the 3-hop rate, not
	// collapsing as 3/l would predict without pipelining.
	for _, r := range []float64{r6, r9} {
		if r < 0.65*r3 {
			t.Errorf("long-chain rate %.1f collapsed below plateau (3-hop %.1f)", r, r3)
		}
	}
	if r9 < 0.5*r6 {
		t.Errorf("9-hop %.1f should not halve 6-hop %.1f", r9, r6)
	}
}

// TestShareTrackingRandom: on random topologies, 2PA-C measured
// per-flow throughput correlates with the allocated shares — the
// phase-2 scheduler approximates phase 1's intent in general, not just
// on the paper's hand-built scenarios.
func TestShareTrackingRandom(t *testing.T) {
	rng := newRand(43)
	good, total := 0, 0
	for trial := 0; trial < 4; trial++ {
		sc, err := scenario.Random(scenario.RandomConfig{
			Nodes: 16, Width: 800, Height: 800, Flows: 3, MaxHops: 4,
		}, rng)
		if err != nil {
			t.Fatal(err)
		}
		r, err := netsim.Run(sc.Inst, netsim.Config{
			Protocol: netsim.Protocol2PAC, Duration: 30 * sim.Second, Seed: int64(trial),
		})
		if err != nil {
			t.Fatal(err)
		}
		// Compare pairwise ordering of measured throughput with the
		// allocated shares (hop-0 share = flow share).
		flows := sc.Flows.Flows()
		for i := 0; i < len(flows); i++ {
			for j := i + 1; j < len(flows); j++ {
				si := r.Shares[sub(flows[i].ID(), 0)]
				sj := r.Shares[sub(flows[j].ID(), 0)]
				mi := float64(r.Stats.EndToEnd(flows[i].ID()))
				mj := float64(r.Stats.EndToEnd(flows[j].ID()))
				if si == sj || mi == 0 || mj == 0 {
					continue
				}
				total++
				// Require orderings to agree unless shares are within
				// 20% of each other (measurement noise zone).
				ratio := si / sj
				if ratio > 0.8 && ratio < 1.25 {
					good++
					continue
				}
				if (si > sj) == (mi > mj) {
					good++
				}
			}
		}
	}
	if total == 0 {
		t.Skip("no comparable flow pairs generated")
	}
	if float64(good)/float64(total) < 0.7 {
		t.Errorf("share/throughput ordering agreement %d/%d below 70%%", good, total)
	}
}

// TestLossAttribution checks that in-flight losses are attributed to
// the subflows that dropped them and sum to the aggregate Lost count.
func TestLossAttribution(t *testing.T) {
	sc, err := scenario.Figure1()
	if err != nil {
		t.Fatal(err)
	}
	r := runProto(t, sc, netsim.ProtocolTwoTier)
	// flowLost sums the in-flight losses attributed to a flow's hops.
	flowLost := func(id flow.ID) int64 {
		f, err := sc.Flows.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		var sum int64
		for hop := 0; hop < f.Length(); hop++ {
			sum += r.Stats.DroppedAt(sub(id, hop))
		}
		return sum
	}
	var attributed int64
	for _, f := range sc.Flows.Flows() {
		attributed += flowLost(f.ID())
	}
	if attributed != r.Stats.Lost() {
		t.Errorf("attributed %d != lost %d", attributed, r.Stats.Lost())
	}
	// two-tier's overdriven F1 upstream concentrates the losses at
	// F1's second hop (node B's queue).
	if got := r.Stats.DroppedAt(sub("F1", 1)); got == 0 {
		t.Error("expected drops attributed to F1.2")
	}
	if flowLost("F1") < flowLost("F2") {
		t.Errorf("two-tier losses should concentrate on F1: %d vs %d",
			flowLost("F1"), flowLost("F2"))
	}
}

// TestOfferedLoadSweep: the classic saturation figure. Delivered
// end-to-end throughput grows with offered load until the allocation
// saturates, then stays flat (and lossless) under 2PA rather than
// collapsing.
func TestOfferedLoadSweep(t *testing.T) {
	sc, err := scenario.Figure1()
	if err != nil {
		t.Fatal(err)
	}
	rateAt := func(pps float64) (float64, float64) {
		r, err := netsim.Run(sc.Inst, netsim.Config{
			Protocol: netsim.Protocol2PAC, Duration: 20 * sim.Second, Seed: 4,
			PacketsPerS: pps,
		})
		if err != nil {
			t.Fatal(err)
		}
		return float64(r.Stats.TotalEndToEnd()) / 20, r.Stats.LossRatio()
	}
	low, _ := rateAt(40)          // under-loaded: everything delivered
	mid, _ := rateAt(120)         // near the knee
	high, lossHigh := rateAt(400) // saturated
	if low < 75 || low > 85 {
		t.Errorf("under-load delivered %.1f pkt/s, want ≈80 (2 flows × 40)", low)
	}
	if mid <= low {
		t.Errorf("throughput should grow with load: %.1f then %.1f", low, mid)
	}
	if high < mid*0.9 {
		t.Errorf("saturated throughput %.1f collapsed below knee %.1f", high, mid)
	}
	if lossHigh > 0.2 {
		t.Errorf("2PA saturated loss ratio %.3f should stay small", lossHigh)
	}
}

// TestFailureInjection exercises harsh configurations: tiny queues,
// a retry limit of one, and a minimal contention window must degrade
// throughput but never deadlock, violate conservation, or crash.
func TestFailureInjection(t *testing.T) {
	sc, err := scenario.Figure6()
	if err != nil {
		t.Fatal(err)
	}
	cases := []netsim.Config{
		{Protocol: netsim.Protocol2PAC, Duration: 10 * sim.Second, Seed: 1, QueueCap: 1},
		{Protocol: netsim.Protocol2PAC, Duration: 10 * sim.Second, Seed: 1, RetryLimit: 1},
		{Protocol: netsim.Protocol80211, Duration: 10 * sim.Second, Seed: 1, CWMax: 31},
		{Protocol: netsim.ProtocolTwoTier, Duration: 10 * sim.Second, Seed: 1, QueueCap: 2, RetryLimit: 1},
		{Protocol: netsim.Protocol2PAD, Duration: 10 * sim.Second, Seed: 1, Alpha: 1},
	}
	for i, cfg := range cases {
		r, err := netsim.Run(sc.Inst, cfg)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if r.Stats.TotalEndToEnd() == 0 {
			t.Errorf("case %d: network deadlocked (nothing delivered)", i)
		}
		checkConservation(t, sc, r, max(cfg.QueueCap, 50))
	}
}
