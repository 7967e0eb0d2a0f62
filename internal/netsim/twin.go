package netsim

import (
	"e2efair/internal/core"
	"e2efair/internal/twin"
)

// DefaultTwinEvery is the drift-control cadence of twin screening: a
// full packet simulation is forced every Nth epoch even when the twin
// is confident, anchoring the analytical predictions against drift.
const DefaultTwinEvery = 16

// TwinConfig enables analytical-twin screening of mobility epochs:
// mobility.Run consults the closed-form twin first and only falls back
// to full packet simulation when the twin's self-reported confidence
// is low or the drift-control cadence demands a real run. The zero
// value takes the defaults.
type TwinConfig struct {
	// Every forces a full simulation on every Nth epoch (mobility
	// sweeps); <=0 selects DefaultTwinEvery. Epoch 0 always simulates.
	Every int
	// MaxUtil and MinConfidence forward to twin.Params when positive.
	MaxUtil       float64
	MinConfidence float64
}

// Cadence returns the drift-control cadence: epoch loops simulate
// every Cadence()-th epoch regardless of twin confidence.
func (tc *TwinConfig) Cadence() int {
	if tc == nil || tc.Every <= 0 {
		return DefaultTwinEvery
	}
	return tc.Every
}

// TwinEstimate prices one run analytically: the twin predicts per-flow
// throughput, per-hop utilization and loss from the instance's
// contention structure and the given first-phase shares, under this
// config's channel and workload parameters. A nil shares map models
// the unscheduled 802.11 MAC (low confidence by construction).
func TwinEstimate(inst *core.Instance, cfg Config, shares core.SubflowAllocation) (*twin.Estimate, error) {
	cfg = cfg.withDefaults()
	p := twin.Params{
		BitRate:      cfg.BitRate,
		PayloadBytes: cfg.PayloadBytes,
		PacketsPerS:  cfg.PacketsPerS,
		Duration:     cfg.Duration,
		QueueCap:     cfg.QueueCap,
		CWMin:        cfg.CWMin,
		Shares:       shares,
	}
	if cfg.Fault != nil {
		p.Lossy = true
		p.LossRate = cfg.Fault.DefaultLoss
	}
	if cfg.Twin != nil {
		p.MaxUtil = cfg.Twin.MaxUtil
		p.MinConfidence = cfg.Twin.MinConfidence
	}
	return twin.EstimateInstance(inst, p)
}

// SolveShares computes the first-phase per-subflow allocation exactly
// as Run would install it — same allocator seam, same solver order —
// without running the packet simulator. Twin-screened epoch loops use
// it so that their allocator and share-cache state evolve identically
// to an unscreened run, keeping the epochs that do simulate
// byte-identical.
func SolveShares(a *core.Allocator, inst *core.Instance, p Protocol) (core.SubflowAllocation, error) {
	shares, _, _, err := solveShares(a, inst, p)
	return shares, err
}
