// Package netsim assembles complete protocol stacks — traffic, queues,
// scheduler, MAC, channel — over a topology and runs the packet-level
// experiments of the paper's Sec. V. Four stacks are provided: plain
// IEEE 802.11, the two-tier fair scheduling baseline, and 2PA with the
// centralized (2PA-C) or distributed (2PA-D) first phase.
package netsim

import (
	"errors"
	"fmt"

	"e2efair/internal/core"
	"e2efair/internal/fault"
	"e2efair/internal/flow"
	"e2efair/internal/mac"
	"e2efair/internal/phy"
	"e2efair/internal/sim"
	"e2efair/internal/stats"
	"e2efair/internal/topology"
)

// Protocol selects the protocol stack under test.
type Protocol int

// Protocol stacks from the paper's evaluation.
const (
	Protocol80211 Protocol = iota + 1
	ProtocolTwoTier
	Protocol2PAC
	Protocol2PAD
	// ProtocolDFS drives the centralized 2PA shares through the
	// Distributed Fair Scheduling backoff of Vaidya et al. instead of
	// the paper's tag scheduler — the phase-2 ablation.
	ProtocolDFS
)

// String names the protocol as in the paper's tables.
func (p Protocol) String() string {
	switch p {
	case Protocol80211:
		return "802.11"
	case ProtocolTwoTier:
		return "two-tier"
	case Protocol2PAC:
		return "2PA-C"
	case Protocol2PAD:
		return "2PA-D"
	case ProtocolDFS:
		return "2PA-DFS"
	default:
		return fmt.Sprintf("protocol(%d)", int(p))
	}
}

// ErrNeedTopology is returned when simulating an abstract instance.
var ErrNeedTopology = errors.New("netsim: instance has no geometric topology")

// Config parameterizes a simulation run. Zero fields take the paper's
// defaults.
type Config struct {
	Protocol     Protocol
	Duration     sim.Time // simulated time; default 1000 s
	Seed         int64
	PacketsPerS  float64 // CBR rate per flow; default 200
	PayloadBytes int     // default 512
	BitRate      int64   // channel capacity; default 2 Mbps
	CWMin        int     // default 31
	CWMax        int     // default 1023
	Alpha        float64 // tag scheduler strictness; default 0.0001
	QueueCap     int     // packets per queue; default 50
	RetryLimit   int     // default 7
	// SampleEvery enables windowed throughput sampling at the given
	// period (zero disables it).
	SampleEvery sim.Time
	// Tracer, when set, receives every MAC-level event.
	Tracer mac.Tracer
	// Shares, when non-nil, installs the given first-phase allocation
	// directly instead of solving for it. The solver is deterministic
	// per (instance, protocol), so callers that re-run one instance —
	// the mobility epoch loop — can cache its output across runs. Nil
	// solves as usual.
	Shares core.SubflowAllocation
	// Fault, when non-nil, compiles and arms the deterministic fault
	// plan: per-link loss, node crash/recover schedules and link flaps
	// flow into the MAC, and the run gains RERR-style route repair,
	// packet salvage and graceful allocation degradation. Nil keeps
	// the exact fault-free datapath (byte-identical goldens).
	Fault *fault.Plan
	// Watchdog enables opt-in invariant checking (packet conservation
	// under drops, per-node queue bounds, share floors); violations
	// are reported in Result.Resilience, never panicked.
	Watchdog bool
	// DeadAfterDrops forwards to mac.Config: consecutive
	// retry-exhaustion drops toward one receiver before the MAC
	// declares the link dead (default mac.DefaultDeadAfterDrops).
	DeadAfterDrops int
	// RERRHopDelay models route-error propagation: the repair of a
	// break i hops from the flow's source starts i·RERRHopDelay after
	// the link-dead signal (default 1 ms).
	RERRHopDelay sim.Time
	// ShardSim partitions the topology into interference-disjoint radio
	// components and simulates each on its own event engine over a
	// worker pool; Run and RunDynamic both honour it, with or without a
	// fault plan. Per-node RNG streams are derived from the run seed
	// and the node's global ID, so the sharded run is byte-identical to
	// the single-engine run. Runs with fewer than shardMinComponents
	// components — and traced runs, whose tracer would interleave
	// events from concurrent engines — run the whole instance on one
	// engine instead.
	ShardSim bool
	// ShardWorkers bounds the shard worker pool; <= 0 selects
	// GOMAXPROCS. Results are merged in component order, so the worker
	// count never changes the outcome.
	ShardWorkers int

	// eng, when non-nil, is an engine recycled via Reset instead of
	// allocating a fresh one — set by the worker pool.
	eng *sim.Engine
	// nodeIDs maps this run's local node indices to global node IDs
	// when the instance is an induced shard; nil means local IDs are
	// global.
	nodeIDs []int32
}

func (c Config) withDefaults() Config {
	if c.Duration == 0 {
		c.Duration = 1000 * sim.Second
	}
	if c.PacketsPerS == 0 {
		c.PacketsPerS = 200
	}
	if c.PayloadBytes == 0 {
		c.PayloadBytes = phy.PayloadBytes
	}
	if c.BitRate == 0 {
		c.BitRate = phy.DefaultBitsPS
	}
	if c.CWMin == 0 {
		c.CWMin = phy.DefaultCWMin
	}
	if c.CWMax == 0 {
		c.CWMax = phy.DefaultCWMax
	}
	if c.Alpha == 0 {
		c.Alpha = mac.DefaultAlpha
	}
	if c.QueueCap == 0 {
		c.QueueCap = 50
	}
	if c.RetryLimit == 0 {
		c.RetryLimit = phy.DefaultRetryLimit
	}
	if c.RERRHopDelay == 0 {
		c.RERRHopDelay = sim.Millisecond
	}
	return c
}

// Result reports one run's metrics alongside the allocation that drove
// the scheduler (empty for 802.11).
type Result struct {
	Protocol Protocol
	Duration sim.Time
	Stats    *stats.Collector
	// Shares is the per-subflow allocation installed in the phase-2
	// scheduler, as fractions of B.
	Shares core.SubflowAllocation
	// Airtime accounts for channel occupancy (spatial reuse and
	// collision overhead).
	Airtime *mac.AirtimeReport
	// Series holds windowed per-flow throughput samples when
	// Config.SampleEvery is set.
	Series *stats.Series
	// Latency tracks end-to-end packet delays per flow.
	Latency *stats.LatencyTracker
	// Resilience reports fault/recovery metrics; nil unless the run
	// had a fault plan or the watchdog enabled.
	Resilience *ResilienceReport
}

// Run executes one simulation.
func Run(inst *core.Instance, cfg Config) (*Result, error) {
	return RunWith(nil, inst, cfg)
}

// RunWith is Run with a caller-held core.Allocator for the first-phase
// shares, letting epoch loops (mobility.Run) reuse one allocator's
// solver scratch and group share cache across many runs. A nil
// allocator behaves exactly like Run.
func RunWith(a *core.Allocator, inst *core.Instance, cfg Config) (*Result, error) {
	res, err := run(a, inst, cfg, nil, false)
	if err != nil {
		return nil, err
	}
	return &res.Result, nil
}

// solveShares computes the per-subflow allocation each protocol's
// scheduler enforces, on a caller-held core.Allocator so that repeated
// solves — churn and route-repair re-solves, mobility epochs — reuse
// solver scratch and serve unchanged contention groups from the
// allocator's share cache. A nil allocator solves on fresh state. A
// degradable LP failure falls back to the closed-form basic shares
// (reported as degraded) instead of failing. The delta counts the
// group LPs solved versus copied from the cache; it is meaningful for
// the centralized stacks (2PA-C, 2PA-DFS) and zero otherwise.
func solveShares(a *core.Allocator, inst *core.Instance, p Protocol) (core.SubflowAllocation, core.Delta, bool, error) {
	if a == nil {
		a = core.NewAllocatorWorkers(1)
	}
	switch p {
	case Protocol80211:
		return nil, core.Delta{}, false, nil
	case ProtocolTwoTier:
		return core.TwoTierAllocate(inst), core.Delta{}, false, nil
	case Protocol2PAC, ProtocolDFS:
		alloc, delta, degraded, err := a.GracefulCentralizedDelta(inst, core.CentralizedOptions{Refine: true})
		if err != nil {
			return nil, core.Delta{}, false, err
		}
		return alloc.Uniform(inst.Flows), delta, degraded, nil
	case Protocol2PAD:
		alloc, degraded, err := a.GracefulDistributed(inst)
		if err != nil {
			return nil, core.Delta{}, false, err
		}
		return alloc.Uniform(inst.Flows), core.Delta{}, degraded, nil
	default:
		return nil, core.Delta{}, false, fmt.Errorf("netsim: unknown protocol %d", int(p))
	}
}

// attachSchedulers installs a scheduler on every node: FIFO for
// 802.11, tag schedulers (with the subflows each node transmits)
// otherwise. Pure receivers get an empty tag scheduler so they can
// maintain neighbor tables and return ACK advice.
func attachSchedulers(medium *mac.Medium, inst *core.Instance, cfg Config, shares core.SubflowAllocation) error {
	n := inst.Topo.NumNodes()
	if shares == nil {
		for i := 0; i < n; i++ {
			if err := medium.Attach(topology.NodeID(i), mac.NewFIFO(cfg.QueueCap, cfg.CWMin, cfg.CWMax)); err != nil {
				return err
			}
		}
		return nil
	}
	bySrc := make(map[topology.NodeID][]flow.Subflow)
	for _, f := range inst.Flows.Flows() {
		for _, s := range f.Subflows() {
			bySrc[s.Src] = append(bySrc[s.Src], s)
		}
	}
	bitsUS := float64(cfg.BitRate) / 1e6
	for i := 0; i < n; i++ {
		node := topology.NodeID(i)
		var sched mac.Scheduler
		if cfg.Protocol == ProtocolDFS {
			ds, err := mac.NewDFS(mac.DFSConfig{
				Capacity:     cfg.QueueCap,
				BitsPerMicro: bitsUS,
				CWMin:        cfg.CWMin,
				CWMax:        cfg.CWMax,
			})
			if err != nil {
				return err
			}
			for _, s := range bySrc[node] {
				if err := ds.AddSubflow(s.ID, shares[s.ID]); err != nil {
					return err
				}
			}
			sched = ds
		} else {
			ts, err := mac.NewTagScheduler(mac.TagSchedulerConfig{
				Node:         node,
				BitsPerMicro: bitsUS,
				Alpha:        cfg.Alpha,
				CWMin:        cfg.CWMin,
				CWMax:        cfg.CWMax,
				QueueCap:     cfg.QueueCap,
			})
			if err != nil {
				return err
			}
			for _, s := range bySrc[node] {
				if err := ts.AddSubflow(s.ID, shares[s.ID]); err != nil {
					return err
				}
			}
			sched = ts
		}
		if err := medium.Attach(node, sched); err != nil {
			return err
		}
	}
	return nil
}

// RunAll executes the run for each protocol with the same config and
// returns results keyed by protocol, in the given order.
func RunAll(inst *core.Instance, cfg Config, protocols ...Protocol) ([]*Result, error) {
	out := make([]*Result, 0, len(protocols))
	for _, p := range protocols {
		c := cfg
		c.Protocol = p
		r, err := Run(inst, c)
		if err != nil {
			return nil, fmt.Errorf("netsim: %s: %w", p, err)
		}
		out = append(out, r)
	}
	return out, nil
}
