package netsim_test

import (
	"runtime"
	"testing"

	"e2efair/internal/netsim"
	"e2efair/internal/scenario"
	"e2efair/internal/sim"
)

// maxAllocsPerDelivered bounds steady-state heap allocations per
// delivered packet. The packet datapath (bitset interference sets,
// the event free list, reused scratch) allocates nothing per packet
// once warm; the small remainder is state that grows with
// simulated time, not with packets.
const maxAllocsPerDelivered = 0.01

// TestSteadyStateAllocsPerDelivered gates the datapath's allocation
// rate: a 5 s and a 25 s run differ only in simulated traffic, so the
// identical per-run construction cancels out of their malloc-count
// difference, which is then divided by the difference in delivered
// packets. A warm-up run first takes one-time allocations (package
// caches, the sharder's sub-topologies) off the count. Not parallel:
// Mallocs counts every goroutine's allocations.
func TestSteadyStateAllocsPerDelivered(t *testing.T) {
	fig6, err := scenario.Figure6()
	if err != nil {
		t.Fatal(err)
	}
	tiled, err := scenario.Tiled(fig6, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		sc   *scenario.Scenario
		cfg  netsim.Config
	}{
		{"fig6-single", fig6, netsim.Config{}},
		{"fig6x8-sharded-4w", tiled, netsim.Config{ShardSim: true, ShardWorkers: 4}},
	} {
		t.Run(c.name, func(t *testing.T) {
			measure := func(dur sim.Time) (mallocs, delivered float64) {
				cfg := c.cfg
				cfg.Protocol, cfg.Duration, cfg.Seed = netsim.Protocol2PAC, dur, 1
				var before, after runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&before)
				r, err := netsim.Run(c.sc.Inst, cfg)
				runtime.ReadMemStats(&after)
				if err != nil {
					t.Fatal(err)
				}
				return float64(after.Mallocs - before.Mallocs), float64(r.Stats.TotalEndToEnd())
			}
			measure(5 * sim.Second) // warm one-time state off the count
			mShort, pShort := measure(5 * sim.Second)
			mLong, pLong := measure(25 * sim.Second)
			if pLong <= pShort {
				t.Fatalf("delivered %v packets in 25 s, %v in 5 s", pLong, pShort)
			}
			perPkt := (mLong - mShort) / (pLong - pShort)
			t.Logf("%.4f allocs per delivered packet (%v more packets)", perPkt, pLong-pShort)
			if perPkt > maxAllocsPerDelivered {
				t.Errorf("%.4f allocs per delivered packet, want at most %v", perPkt, maxAllocsPerDelivered)
			}
		})
	}
}
