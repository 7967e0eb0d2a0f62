package e2efair

import (
	"fmt"

	"e2efair/internal/flow"
	"e2efair/internal/netsim"
	"e2efair/internal/sim"
)

// ChurnEvent starts and stops flows at a point in simulated time.
type ChurnEvent struct {
	AtSec float64  `json:"atSec"`
	Start []string `json:"start,omitempty"`
	Stop  []string `json:"stop,omitempty"`
}

// DynamicResult reports a churn simulation.
type DynamicResult struct {
	SimResult
	// Reallocations counts first-phase recomputations triggered by
	// churn events.
	Reallocations int `json:"reallocations"`
	// WindowedPerFlow maps flow ID to per-window end-to-end delivery
	// counts (window length = SampleEverySec).
	WindowedPerFlow map[string][]int64 `json:"windowedPerFlow,omitempty"`
	// WindowTimesSec lists the sampling instants.
	WindowTimesSec []float64 `json:"windowTimesSec,omitempty"`
}

// SimulateDynamic runs the packet simulator under flow churn: at each
// event the set of backlogged flows changes and — for the
// allocation-driven protocols — the first phase re-runs over the
// active flows, installing new shares into the running schedulers.
// sampleEverySec > 0 additionally records windowed per-flow throughput
// so adaptation is visible.
func (n *Network) SimulateDynamic(cfg SimConfig, events []ChurnEvent, sampleEverySec float64) (*DynamicResult, error) {
	proto, err := cfg.Protocol.internal()
	if err != nil {
		return nil, err
	}
	duration := sim.Time(cfg.DurationSec * float64(sim.Second))
	if cfg.DurationSec == 0 {
		duration = 0
	}
	netEvents := make([]netsim.FlowEvent, len(events))
	for i, ev := range events {
		ne := netsim.FlowEvent{At: sim.Time(ev.AtSec * float64(sim.Second))}
		for _, id := range ev.Start {
			ne.Start = append(ne.Start, flow.ID(id))
		}
		for _, id := range ev.Stop {
			ne.Stop = append(ne.Stop, flow.ID(id))
		}
		netEvents[i] = ne
	}
	res, err := netsim.RunDynamic(n.inst, netsim.Config{
		Protocol:     proto,
		Duration:     duration,
		Seed:         cfg.Seed,
		PacketsPerS:  cfg.PacketsPerS,
		PayloadBytes: cfg.PayloadBytes,
		BitRate:      cfg.BitRate,
		CWMin:        cfg.CWMin,
		CWMax:        cfg.CWMax,
		Alpha:        cfg.Alpha,
		QueueCap:     cfg.QueueCap,
		RetryLimit:   cfg.RetryLimit,
		SampleEvery:  sim.Time(sampleEverySec * float64(sim.Second)),
	}, netEvents)
	if err != nil {
		return nil, fmt.Errorf("e2efair: simulate dynamic: %w", err)
	}
	out := &DynamicResult{
		SimResult: SimResult{
			Protocol:            cfg.Protocol,
			DurationSec:         res.Duration.Seconds(),
			PerSubflowDelivered: make(map[string]int64),
			PerFlowDelivered:    make(map[string]int64),
			TotalDelivered:      res.Stats.TotalEndToEnd(),
			Lost:                res.Stats.Lost(),
			LossRatio:           res.Stats.LossRatio(),
			SourceDrops:         res.Stats.SourceDrops(),
			Collisions:          res.Stats.Collisions(),
		},
		Reallocations: res.Reallocations,
	}
	for _, f := range n.inst.Flows.Flows() {
		out.PerFlowDelivered[string(f.ID())] = res.Stats.EndToEnd(f.ID())
		for _, s := range f.Subflows() {
			out.PerSubflowDelivered[s.ID.String()] = res.Stats.Subflow(s.ID)
		}
	}
	if res.Series != nil {
		out.WindowedPerFlow = make(map[string][]int64)
		for _, id := range res.Series.Flows() {
			out.WindowedPerFlow[string(id)] = res.Series.Windows(id)
		}
		for _, ts := range res.Series.Times() {
			out.WindowTimesSec = append(out.WindowTimesSec, ts.Seconds())
		}
	}
	return out, nil
}
