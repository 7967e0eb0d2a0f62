package netsim_test

// Determinism regression tests for the MAC/PHY fast path: the packet
// simulator must be a pure function of (instance, config, seed). Two
// safeguards live here. First, back-to-back runs of the same
// configuration must agree exactly — catching any hidden shared state
// (scratch buffers, packet recycling, map iteration) introduced by the
// allocation-free datapath. Second, the per-subflow packet counts of
// the Figure 1 and Figure 6 scenarios at seed 1 are pinned to golden
// values captured before that datapath was rewritten, so the
// optimizations provably did not change a single simulated outcome.

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"testing"

	"e2efair/internal/flow"
	"e2efair/internal/netsim"
	"e2efair/internal/scenario"
	"e2efair/internal/sim"
)

// goldenDuration keeps the pinned runs short enough for the test
// suite while still covering thousands of exchanges per protocol.
const goldenDuration = 10 * sim.Second

var allProtocols = []netsim.Protocol{
	netsim.Protocol80211,
	netsim.ProtocolTwoTier,
	netsim.Protocol2PAC,
	netsim.Protocol2PAD,
	netsim.ProtocolDFS,
}

// renderRun flattens a run's observable counters into one canonical
// string, so runs can be compared (and pinned) wholesale.
func renderRun(s *scenario.Scenario, r *netsim.Result) string {
	var subs []string
	for _, f := range s.Flows.Flows() {
		for _, sf := range f.Subflows() {
			subs = append(subs, fmt.Sprintf("%q: %d", sf.ID.String(), r.Stats.Subflow(sf.ID)))
		}
	}
	sort.Strings(subs)
	out := "subflows={"
	for i, sub := range subs {
		if i > 0 {
			out += ", "
		}
		out += sub
	}
	return out + fmt.Sprintf("} e2e=%d lost=%d collisions=%d sourceDrops=%d",
		r.Stats.TotalEndToEnd(), r.Stats.Lost(), r.Stats.Collisions(), r.Stats.SourceDrops())
}

// goldenRuns pins every protocol stack's counts on the paper's two
// scenarios at seed 1. Any divergence means the simulated system
// changed, not just its implementation. Regenerated when the RNG moved
// from one engine-order-dependent stream to per-node streams keyed by
// global node ID (the scheme that makes sharded execution
// byte-identical to single-engine execution); the sharded/single
// equivalence tests hold these same values fixed across shard counts.
var goldenRuns = map[string]string{
	"fig1/802.11":   `subflows={"F1.1": 2000, "F1.2": 161, "F2.1": 1556, "F2.2": 1551} e2e=1712 lost=1789 collisions=1082 sourceDrops=395`,
	"fig1/two-tier": `subflows={"F1.1": 2000, "F1.2": 593, "F2.1": 1109, "F2.2": 1108} e2e=1701 lost=1357 collisions=1068 sourceDrops=842`,
	"fig1/2PA-C":    `subflows={"F1.1": 1474, "F1.2": 1113, "F2.1": 796, "F2.2": 796} e2e=1909 lost=329 collisions=1223 sourceDrops=1631`,
	"fig1/2PA-D":    `subflows={"F1.1": 1474, "F1.2": 1113, "F2.1": 796, "F2.2": 796} e2e=1909 lost=329 collisions=1223 sourceDrops=1631`,
	"fig1/2PA-DFS":  `subflows={"F1.1": 2000, "F1.2": 248, "F2.1": 1428, "F2.2": 1427} e2e=1675 lost=1702 collisions=1261 sourceDrops=523`,
	"fig6/802.11":   `subflows={"F1.1": 1434, "F1.2": 862, "F1.3": 654, "F1.4": 654, "F2.1": 762, "F3.1": 1996, "F4.1": 335, "F4.2": 335, "F5.1": 2000} e2e=5747 lost=727 collisions=3894 sourceDrops=3328`,
	"fig6/two-tier": `subflows={"F1.1": 1222, "F1.2": 840, "F1.3": 683, "F1.4": 683, "F2.1": 843, "F3.1": 1487, "F4.1": 772, "F4.2": 771, "F5.1": 1072} e2e=4856 lost=472 collisions=3192 sourceDrops=4356`,
	"fig6/2PA-C":    `subflows={"F1.1": 952, "F1.2": 896, "F1.3": 801, "F1.4": 800, "F2.1": 755, "F3.1": 1777, "F4.1": 328, "F4.2": 328, "F5.1": 1998} e2e=5658 lost=114 collisions=3426 sourceDrops=4005`,
	"fig6/2PA-D":    `subflows={"F1.1": 963, "F1.2": 883, "F1.3": 820, "F1.4": 820, "F2.1": 639, "F3.1": 1093, "F4.1": 829, "F4.2": 828, "F5.1": 1199} e2e=4579 lost=108 collisions=3148 sourceDrops=5029`,
	"fig6/2PA-DFS":  `subflows={"F1.1": 1419, "F1.2": 718, "F1.3": 697, "F1.4": 696, "F2.1": 529, "F3.1": 2000, "F4.1": 361, "F4.2": 360, "F5.1": 1999} e2e=5584 lost=653 collisions=5013 sourceDrops=3541`,
}

// TestRunRepeatable runs every protocol stack twice on Figure 1 with
// an identical config and demands byte-identical counters: packet
// recycling and scratch reuse must not leak state between events, let
// alone between runs.
func TestRunRepeatable(t *testing.T) {
	s, err := scenario.Figure1()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range allProtocols {
		t.Run(p.String(), func(t *testing.T) {
			cfg := netsim.Config{Protocol: p, Duration: goldenDuration, Seed: 7}
			r1, err := netsim.Run(s.Inst, cfg)
			if err != nil {
				t.Fatal(err)
			}
			r2, err := netsim.Run(s.Inst, cfg)
			if err != nil {
				t.Fatal(err)
			}
			a, b := renderRun(s, r1), renderRun(s, r2)
			if a != b {
				t.Errorf("runs diverged:\n first: %s\nsecond: %s", a, b)
			}
		})
	}
}

// TestGoldenCounts pins the simulation outcomes at seed 1 to the
// counts captured before the zero-allocation datapath rewrite.
func TestGoldenCounts(t *testing.T) {
	for _, fig := range []struct {
		name  string
		build func() (*scenario.Scenario, error)
	}{{"fig1", scenario.Figure1}, {"fig6", scenario.Figure6}} {
		s, err := fig.build()
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range allProtocols {
			key := fig.name + "/" + p.String()
			t.Run(key, func(t *testing.T) {
				r, err := netsim.Run(s.Inst, netsim.Config{Protocol: p, Duration: goldenDuration, Seed: 1})
				if err != nil {
					t.Fatal(err)
				}
				if got := renderRun(s, r); got != goldenRuns[key] {
					t.Errorf("golden mismatch:\n got: %s\nwant: %s", got, goldenRuns[key])
				}
				// The sharded engine must reproduce the same goldens
				// byte-for-byte: component partitioning and per-node
				// RNG streams may not perturb a single counter.
				rs, err := netsim.Run(s.Inst, netsim.Config{Protocol: p, Duration: goldenDuration, Seed: 1, ShardSim: true})
				if err != nil {
					t.Fatal(err)
				}
				if got := renderRun(s, rs); got != goldenRuns[key] {
					t.Errorf("sharded golden mismatch:\n got: %s\nwant: %s", got, goldenRuns[key])
				}
			})
		}
	}
}

// churnProtocols are the stacks the churn golden pins.
var churnProtocols = []netsim.Protocol{
	netsim.Protocol80211,
	netsim.ProtocolTwoTier,
	netsim.Protocol2PAC,
	netsim.Protocol2PAD,
}

// churnSchedule is the Fig. 6 churn schedule applied to every copy of
// a (possibly tiled) Figure 6 scenario: all flows start at 0, F3 stops
// at 3 s, and at 6 s F3 rejoins while F5 leaves.
func churnSchedule(s *scenario.Scenario) []netsim.FlowEvent {
	evs := []netsim.FlowEvent{{At: 0}, {At: 3 * sim.Second}, {At: 6 * sim.Second}}
	for _, f := range s.Flows.Flows() {
		id := f.ID()
		evs[0].Start = append(evs[0].Start, id)
		switch {
		case strings.HasSuffix(string(id), "F3"):
			evs[1].Stop = append(evs[1].Stop, id)
			evs[2].Start = append(evs[2].Start, id)
		case strings.HasSuffix(string(id), "F5"):
			evs[2].Stop = append(evs[2].Stop, id)
		}
	}
	return evs
}

// renderChurn flattens a churn run's observables: per-subflow and
// per-flow deliveries, losses, collisions, airtime, series windows,
// the reallocation count and the final shares.
func renderChurn(s *scenario.Scenario, r *netsim.DynamicResult) string {
	var b strings.Builder
	b.WriteString(renderRun(s, &r.Result))
	fmt.Fprintf(&b, " lostQueue=%d lostRetry=%d", r.Stats.LostQueue(), r.Stats.LostRetry())
	b.WriteString(" e2e={")
	for _, f := range s.Flows.Flows() {
		fmt.Fprintf(&b, "%s:%d ", f.ID(), r.Stats.EndToEnd(f.ID()))
	}
	a := r.Airtime
	fmt.Fprintf(&b, "} air={tx=%d coll=%d exch=%d collN=%d} series={", a.TxTime, a.CollisionTime, a.Exchanges, a.Collisions)
	for _, f := range s.Flows.Flows() {
		fmt.Fprintf(&b, "%s:%v ", f.ID(), r.Series.Windows(f.ID()))
	}
	fmt.Fprintf(&b, "} reallocs=%d final={", r.Reallocations)
	var ids []flow.SubflowID
	for id := range r.FinalShares {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i].String() < ids[j].String() })
	for _, id := range ids {
		fmt.Fprintf(&b, "%s:%s ", id, strconv.FormatFloat(r.FinalShares[id], 'g', -1, 64))
	}
	return b.String() + "}"
}

// churnGolden pins RunDynamic on the Fig. 6 churn schedule (10 s,
// seed 1, 1 s windows): "fig6/<stack>" single-engine on Figure 6,
// "fig6x2/<stack>" with ShardSim on a two-copy tiling.
var churnGolden = map[string]string{
	"fig6/802.11":     `subflows={"F1.1": 1596, "F1.2": 1338, "F1.3": 240, "F1.4": 240, "F2.1": 1676, "F3.1": 852, "F4.1": 868, "F4.2": 867, "F5.1": 1200} e2e=4835 lost=1279 collisions=2766 sourceDrops=2258 lostQueue=1276 lostRetry=3 e2e={F1:240 F2:1676 F3:852 F4:867 F5:1200 } air={tx=24695814 coll=580860 exch=8877 collN=2766} series={F1:[63 66 47 3 10 7 17 5 4 18] F2:[75 88 69 246 200 200 191 209 197 201] F3:[198 193 202 7 0 0 61 63 65 63] F4:[37 37 30 44 44 57 153 154 156 155] F5:[199 201 198 202 197 198 5 0 0 0] } reallocs=0 final={}`,
	"fig6x2/802.11":   `subflows={"T0:F1.1": 1596, "T0:F1.2": 1338, "T0:F1.3": 240, "T0:F1.4": 240, "T0:F2.1": 1676, "T0:F3.1": 852, "T0:F4.1": 868, "T0:F4.2": 867, "T0:F5.1": 1200, "T1:F1.1": 1540, "T1:F1.2": 1259, "T1:F1.3": 332, "T1:F1.4": 332, "T1:F2.1": 1652, "T1:F3.1": 883, "T1:F4.1": 855, "T1:F4.2": 853, "T1:F5.1": 1200} e2e=9755 lost=2409 collisions=5600 sourceDrops=4564 lostQueue=2403 lostRetry=6 e2e={T0:F1:240 T0:F2:1676 T0:F3:852 T0:F4:867 T0:F5:1200 T1:F1:332 T1:F2:1652 T1:F3:883 T1:F4:853 T1:F5:1200 } air={tx=49472306 coll=1176000 exch=17783 collN=5600} series={T0:F1:[63 66 47 3 10 7 17 5 4 18] T0:F2:[75 88 69 246 200 200 191 209 197 201] T0:F3:[198 193 202 7 0 0 61 63 65 63] T0:F4:[37 37 30 44 44 57 153 154 156 155] T0:F5:[199 201 198 202 197 198 5 0 0 0] T1:F1:[65 69 60 13 6 14 20 35 16 34] T1:F2:[91 87 67 248 200 200 176 197 194 192] T1:F3:[200 185 215 0 0 0 79 76 59 69] T1:F4:[29 32 31 52 49 56 147 147 157 153] T1:F5:[199 199 202 198 202 198 2 0 0 0] } reallocs=0 final={}`,
	"fig6/two-tier":   `subflows={"F1.1": 1311, "F1.2": 809, "F1.3": 609, "F1.4": 609, "F2.1": 1037, "F3.1": 969, "F4.1": 1003, "F4.2": 1003, "F5.1": 702} e2e=4320 lost=623 collisions=3029 sourceDrops=3380 lostQueue=620 lostRetry=3 e2e={F1:609 F2:1037 F3:969 F4:1003 F5:702 } air={tx=22400664 coll=636090 exch=8052 collN=3029} series={F1:[51 81 72 41 49 51 74 72 65 53] F2:[93 75 105 174 151 143 70 79 64 83] F3:[169 151 140 49 0 0 122 107 115 116] F4:[49 76 86 91 106 108 116 133 119 119] F5:[176 118 97 98 82 81 50 0 0 0] } reallocs=3 final={F1.1:0.43750000000000006 F1.2:0.3125 F1.3:0.24999999999999997 F1.4:0.3125 F2.1:0.33333333333333337 F3.1:0.45833333333333337 F4.1:0.4375 F4.2:0.5625 }`,
	"fig6x2/two-tier": `subflows={"T0:F1.1": 1311, "T0:F1.2": 809, "T0:F1.3": 609, "T0:F1.4": 609, "T0:F2.1": 1037, "T0:F3.1": 969, "T0:F4.1": 1003, "T0:F4.2": 1003, "T0:F5.1": 702, "T1:F1.1": 1292, "T1:F1.2": 793, "T1:F1.3": 621, "T1:F1.4": 621, "T1:F2.1": 1021, "T1:F3.1": 986, "T1:F4.1": 996, "T1:F4.2": 995, "T1:F5.1": 715} e2e=8658 lost=1202 collisions=5939 sourceDrops=6775 lostQueue=1195 lostRetry=7 e2e={T0:F1:609 T0:F2:1037 T0:F3:969 T0:F4:1003 T0:F5:702 T1:F1:621 T1:F2:1021 T1:F3:986 T1:F4:995 T1:F5:715 } air={tx=44767944 coll=1247190 exch=16092 collN=5939} series={T0:F1:[51 81 72 41 49 51 74 72 65 53] T0:F2:[93 75 105 174 151 143 70 79 64 83] T0:F3:[169 151 140 49 0 0 122 107 115 116] T0:F4:[49 76 86 91 106 108 116 133 119 119] T0:F5:[176 118 97 98 82 81 50 0 0 0] T1:F1:[71 64 76 27 58 58 66 63 75 63] T1:F2:[77 104 95 188 140 136 68 89 54 70] T1:F3:[199 146 124 48 0 0 121 92 142 114] T1:F4:[39 82 107 99 95 98 115 131 110 119] T1:F5:[188 109 83 94 101 92 48 0 0 0] } reallocs=6 final={T0:F1.1:0.43750000000000006 T0:F1.2:0.3125 T0:F1.3:0.24999999999999997 T0:F1.4:0.3125 T0:F2.1:0.33333333333333337 T0:F3.1:0.45833333333333337 T0:F4.1:0.4375 T0:F4.2:0.5625 T1:F1.1:0.43750000000000006 T1:F1.2:0.3125 T1:F1.3:0.24999999999999997 T1:F1.4:0.3125 T1:F2.1:0.33333333333333337 T1:F3.1:0.45833333333333337 T1:F4.1:0.4375 T1:F4.2:0.5625 }`,
	"fig6/2PA-C":      `subflows={"F1.1": 939, "F1.2": 876, "F1.3": 686, "F1.4": 686, "F2.1": 1137, "F3.1": 1011, "F4.1": 911, "F4.2": 910, "F5.1": 1002} e2e=4746 lost=204 collisions=3010 sourceDrops=3406 lostQueue=193 lostRetry=11 e2e={F1:686 F2:1137 F3:1011 F4:910 F5:1002 } air={tx=22695556 coll=632100 exch=8158 collN=3010} series={F1:[67 93 88 16 43 66 92 66 80 75] F2:[82 63 75 237 149 117 78 95 102 139] F3:[193 198 202 7 0 0 111 105 103 92] F4:[35 35 29 76 101 101 121 144 137 131] F5:[200 198 202 145 104 103 50 0 0 0] } reallocs=3 final={F1.1:0.25000010000000006 F1.2:0.25000010000000006 F1.3:0.25000010000000006 F1.4:0.25000010000000006 F2.1:0.4999997999999999 F3.1:0.5 F4.1:0.5 F4.2:0.5 }`,
	"fig6x2/2PA-C":    `subflows={"T0:F1.1": 939, "T0:F1.2": 876, "T0:F1.3": 686, "T0:F1.4": 686, "T0:F2.1": 1137, "T0:F3.1": 1011, "T0:F4.1": 911, "T0:F4.2": 910, "T0:F5.1": 1002, "T1:F1.1": 958, "T1:F1.2": 893, "T1:F1.3": 707, "T1:F1.4": 705, "T1:F2.1": 1148, "T1:F3.1": 1013, "T1:F4.1": 906, "T1:F4.2": 905, "T1:F5.1": 989} e2e=9506 lost=405 collisions=5974 sourceDrops=6794 lostQueue=386 lostRetry=19 e2e={T0:F1:686 T0:F2:1137 T0:F3:1011 T0:F4:910 T0:F5:1002 T1:F1:705 T1:F2:1148 T1:F3:1013 T1:F4:905 T1:F5:989 } air={tx=45574724 coll=1254540 exch=16382 collN=5974} series={T0:F1:[67 93 88 16 43 66 92 66 80 75] T0:F2:[82 63 75 237 149 117 78 95 102 139] T0:F3:[193 198 202 7 0 0 111 105 103 92] T0:F4:[35 35 29 76 101 101 121 144 137 131] T0:F5:[200 198 202 145 104 103 50 0 0 0] T1:F1:[68 82 72 53 57 55 86 67 92 73] T1:F2:[77 57 125 154 157 146 84 120 92 136] T1:F3:[185 210 149 47 0 0 115 102 105 100] T1:F4:[34 23 45 64 103 107 121 143 134 131] T1:F5:[199 201 192 162 91 95 49 0 0 0] } reallocs=6 final={T0:F1.1:0.25000010000000006 T0:F1.2:0.25000010000000006 T0:F1.3:0.25000010000000006 T0:F1.4:0.25000010000000006 T0:F2.1:0.4999997999999999 T0:F3.1:0.5 T0:F4.1:0.5 T0:F4.2:0.5 T1:F1.1:0.25000010000000006 T1:F1.2:0.25000010000000006 T1:F1.3:0.25000010000000006 T1:F1.4:0.25000010000000006 T1:F2.1:0.4999997999999999 T1:F3.1:0.5 T1:F4.1:0.5 T1:F4.2:0.5 }`,
	"fig6/2PA-D":      `subflows={"F1.1": 963, "F1.2": 882, "F1.3": 802, "F1.4": 800, "F2.1": 801, "F3.1": 816, "F4.1": 1122, "F4.2": 1121, "F5.1": 730} e2e=4268 lost=121 collisions=3008 sourceDrops=3969 lostQueue=113 lostRetry=8 e2e={F1:800 F2:801 F3:816 F4:1121 F5:730 } air={tx=22358934 coll=631680 exch=8037 collN=3008} series={F1:[72 88 66 82 74 77 88 73 103 77] F2:[73 78 81 90 113 112 59 69 52 74] F3:[165 121 105 50 0 0 133 82 84 76] F4:[51 84 89 102 108 109 118 152 154 154] F5:[180 116 105 93 94 93 49 0 0 0] } reallocs=3 final={F1.1:0.3333333333333333 F1.2:0.3333333333333333 F1.3:0.3333333333333333 F1.4:0.3333333333333333 F2.1:0.20000020000000013 F3.1:0.25000010000000006 F4.1:0.5 F4.2:0.5 }`,
	"fig6x2/2PA-D":    `subflows={"T0:F1.1": 963, "T0:F1.2": 882, "T0:F1.3": 802, "T0:F1.4": 800, "T0:F2.1": 801, "T0:F3.1": 816, "T0:F4.1": 1122, "T0:F4.2": 1121, "T0:F5.1": 730, "T1:F1.1": 961, "T1:F1.2": 875, "T1:F1.3": 763, "T1:F1.4": 762, "T1:F2.1": 798, "T1:F3.1": 808, "T1:F4.1": 1124, "T1:F4.2": 1122, "T1:F5.1": 741} e2e=8499 lost=306 collisions=5985 sourceDrops=7938 lostQueue=292 lostRetry=14 e2e={T0:F1:800 T0:F2:801 T0:F3:816 T0:F4:1121 T0:F5:730 T1:F1:762 T1:F2:798 T1:F3:808 T1:F4:1122 T1:F5:741 } air={tx=44486962 coll=1256850 exch=15991 collN=5985} series={T0:F1:[72 88 66 82 74 77 88 73 103 77] T0:F2:[73 78 81 90 113 112 59 69 52 74] T0:F3:[165 121 105 50 0 0 133 82 84 76] T0:F4:[51 84 89 102 108 109 118 152 154 154] T0:F5:[180 116 105 93 94 93 49 0 0 0] T1:F1:[63 86 83 68 53 59 96 86 87 81] T1:F2:[90 72 63 101 129 116 45 55 66 61] T1:F3:[163 116 105 49 0 0 110 91 82 92] T1:F4:[54 77 90 103 117 97 123 154 156 151] T1:F5:[168 126 114 98 76 111 48 0 0 0] } reallocs=6 final={T0:F1.1:0.3333333333333333 T0:F1.2:0.3333333333333333 T0:F1.3:0.3333333333333333 T0:F1.4:0.3333333333333333 T0:F2.1:0.20000020000000013 T0:F3.1:0.25000010000000006 T0:F4.1:0.5 T0:F4.2:0.5 T1:F1.1:0.3333333333333333 T1:F1.2:0.3333333333333333 T1:F1.3:0.3333333333333333 T1:F1.4:0.3333333333333333 T1:F2.1:0.20000020000000013 T1:F3.1:0.25000010000000006 T1:F4.1:0.5 T1:F4.2:0.5 }`,
}

// TestChurnGolden pins the churn run — sources switching on and off,
// shares re-solved at every event — single-engine and sharded.
func TestChurnGolden(t *testing.T) {
	base, err := scenario.Figure6()
	if err != nil {
		t.Fatal(err)
	}
	tiled := tiledFig6(t, 2)
	for _, p := range churnProtocols {
		for _, tc := range []struct {
			name  string
			s     *scenario.Scenario
			shard bool
		}{{"fig6", base, false}, {"fig6x2", tiled, true}} {
			key := tc.name + "/" + p.String()
			t.Run(key, func(t *testing.T) {
				r, err := netsim.RunDynamic(tc.s.Inst, netsim.Config{
					Protocol:    p,
					Duration:    goldenDuration,
					Seed:        1,
					SampleEvery: sim.Second,
					ShardSim:    tc.shard,
				}, churnSchedule(tc.s))
				if err != nil {
					t.Fatal(err)
				}
				if got := renderChurn(tc.s, r); got != churnGolden[key] {
					t.Errorf("churn golden mismatch:\n got: %s\nwant: %s", got, churnGolden[key])
				}
			})
		}
	}
}
