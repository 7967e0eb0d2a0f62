package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"time"

	"e2efair/internal/core"
	"e2efair/internal/mac"
	"e2efair/internal/netsim"
	"e2efair/internal/scenario"
	"e2efair/internal/sim"
	"e2efair/internal/stats"
	"e2efair/internal/topology"
	"e2efair/internal/traffic"
)

// simDur is the simulated time of one repetition of the simulation.
const simDur = 10 * sim.Second

// simConfig is the packet simulation every workload runs: 2PA-C over
// the radio-component-sharded engine with one worker, so the phase
// keeps one CPU busy and another tenant on the second one does not
// set its pace.
func simConfig(seed int64) netsim.Config {
	return netsim.Config{
		Protocol:     netsim.Protocol2PAC,
		Duration:     simDur,
		Seed:         seed,
		ShardSim:     true,
		ShardWorkers: 1,
	}
}

// fig6Instance is the instance every workload simulates: eight
// disjoint copies of the paper's Fig. 6 topology with its five flows
// each (scenario.Tiled). It does not depend on the seed; the seed
// drives the simulation's random streams.
func fig6Instance() (*core.Instance, error) {
	base, err := scenario.Figure6()
	if err != nil {
		return nil, err
	}
	sc, err := scenario.Tiled(base, 8)
	if err != nil {
		return nil, err
	}
	return sc.Inst, nil
}

// delivered lists end-to-end delivered packets per flow, in instance
// flow order.
func delivered(inst *core.Instance, col *stats.Collector) []int64 {
	out := make([]int64, inst.Flows.Len())
	for i, f := range inst.Flows.Flows() {
		out[i] = col.EndToEnd(f.ID())
	}
	return out
}

// simReplayResult is what the single-engine replay of a simulation saw.
type simReplayResult struct {
	delivered  []int64
	events     int
	runWall    time.Duration
	stackWall  time.Duration
	retryDrops int64
	queueDrops int64
	air        *mac.AirtimeReport
}

// simReplay runs the instance on one event engine through the public
// layers — netsim.NewStack, traffic.StartCBR per flow, sim.Engine.Run
// — with the MAC hooks of netsim's single-engine run, so it delivers
// exactly the packets the sharded run delivers. rec gets one span per
// stage (nil records nothing).
func simReplay(inst *core.Instance, cfg netsim.Config, rec *recorder) (*simReplayResult, error) {
	cfg.ShardSim = false
	col := stats.NewCollector()
	res := &simReplayResult{}
	var stack *netsim.Stack
	hooks := mac.Hooks{
		OnDelivered: func(p *mac.Packet, _ sim.Time) {
			col.HopDelivered(p.SubflowID(), p.LastHop())
			if p.LastHop() {
				stack.Medium.FreePacket(p)
				return
			}
			p.Hop++
			ok, err := stack.Medium.Inject(p)
			if err == nil && !ok {
				col.QueueDrop(true)
				col.DropAt(p.SubflowID())
				res.queueDrops++
				stack.Medium.FreePacket(p)
			}
		},
		OnRetryDrop: func(p *mac.Packet, _ sim.Time) {
			col.RetryDrop(p.Hop >= 1)
			if p.Hop >= 1 {
				col.DropAt(p.SubflowID())
			}
			res.retryDrops++
			stack.Medium.FreePacket(p)
		},
		OnCollision: func(topology.NodeID, sim.Time) { col.Collision() },
	}
	root := rec.begin("sim.replay", noParent, 0)
	sp := rec.begin("netsim.stack", root, 0)
	t0 := time.Now()
	var err error
	stack, err = netsim.NewStack(inst, cfg, hooks)
	res.stackWall = time.Since(t0)
	rec.end(sp)
	if err != nil {
		return nil, fmt.Errorf("sim replay: %w", err)
	}
	sc := stack.Config // defaults applied
	sp = rec.begin("traffic.start", root, 0)
	for i, f := range inst.Flows.Flows() {
		err := traffic.StartCBR(stack.Engine, stack.Medium, traffic.CBRConfig{
			Flow:         f,
			PacketsPerS:  sc.PacketsPerS,
			PayloadBytes: sc.PayloadBytes,
			Offset:       sim.Time(i) * 137 * sim.Microsecond, // netsim's per-flow stagger
			Until:        sc.Duration,
			OnSourceDrop: func(*mac.Packet, sim.Time) { col.QueueDrop(false); res.queueDrops++ },
		})
		if err != nil {
			rec.end(sp)
			rec.end(root)
			return nil, fmt.Errorf("sim replay: %w", err)
		}
	}
	rec.end(sp)
	sp = rec.begin("sim.run", root, 0)
	t0 = time.Now()
	res.events = stack.Engine.Run(sc.Duration)
	res.runWall = time.Since(t0)
	rec.end(sp)
	rec.end(root)
	res.air = stack.Medium.Airtime()
	res.delivered = delivered(inst, col)
	return res, nil
}

// goldenSim holds delivered-packet counts recorded for (seed, simulated
// duration); see -record-golden.
//
//go:embed golden_sim.json
var goldenSimJSON []byte

func goldenKey(seed int64, dur sim.Time) string {
	return fmt.Sprintf("fig6x8/%d/%d", seed, int64(dur))
}

func loadGolden() (map[string][]int64, error) {
	g := make(map[string][]int64)
	if err := json.Unmarshal(goldenSimJSON, &g); err != nil {
		return nil, fmt.Errorf("golden_sim.json: %w", err)
	}
	return g, nil
}

// checkDelivered compares per-flow delivered counts with the recorded
// values when the seed has them, else with a single-engine replay of
// the same instance. It reports which oracle it used.
func checkDelivered(inst *core.Instance, cfg netsim.Config, got []int64) (string, error) {
	golden, err := loadGolden()
	if err != nil {
		return "", err
	}
	if want, ok := golden[goldenKey(cfg.Seed, cfg.Duration)]; ok {
		return "recorded", sameCounts(inst, got, want)
	}
	rep, err := simReplay(inst, cfg, nil)
	if err != nil {
		return "", err
	}
	return "replay", sameCounts(inst, got, rep.delivered)
}

func sameCounts(inst *core.Instance, got, want []int64) error {
	if len(got) != len(want) {
		return fmt.Errorf("delivered counts for %d flows, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("flow %s delivered %d packets, want %d", inst.Flows.Flows()[i].ID(), got[i], want[i])
		}
	}
	return nil
}
