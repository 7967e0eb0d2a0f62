package netsim

import (
	"e2efair/internal/core"
	"e2efair/internal/mac"
	"e2efair/internal/phy"
	"e2efair/internal/sim"
)

// Stack bundles a ready-to-run protocol stack: engine, medium with
// schedulers attached per the configured protocol, and the allocation
// driving them. It lets alternative harnesses (reliable transport,
// dynamic churn) reuse the exact stack the Table II/III experiments
// run on.
type Stack struct {
	Engine *sim.Engine
	Medium *mac.Medium
	Shares core.SubflowAllocation
	Config Config
}

// NewStack builds engine, channel, medium and per-node schedulers for
// the instance under the given config, with the caller's MAC hooks.
func NewStack(inst *core.Instance, cfg Config, hooks mac.Hooks) (*Stack, error) {
	cfg = cfg.withDefaults()
	if inst.Topo == nil {
		return nil, ErrNeedTopology
	}
	shares := cfg.Shares
	if shares == nil {
		var err error
		shares, _, _, err = solveShares(nil, inst, cfg.Protocol)
		if err != nil {
			return nil, err
		}
	}
	eng := cfg.eng
	if eng == nil {
		eng = sim.NewEngine()
	} else {
		eng.Reset()
	}
	ch, err := phy.NewChannel(cfg.BitRate)
	if err != nil {
		return nil, err
	}
	medium, err := mac.NewMedium(eng, inst.Topo, mac.Config{
		Channel:        ch,
		RetryLimit:     cfg.RetryLimit,
		Seed:           cfg.Seed,
		NodeIDs:        cfg.nodeIDs,
		Tracer:         cfg.Tracer,
		DeadAfterDrops: cfg.DeadAfterDrops,
	}, hooks)
	if err != nil {
		return nil, err
	}
	if err := attachSchedulers(medium, inst, cfg, shares); err != nil {
		return nil, err
	}
	return &Stack{Engine: eng, Medium: medium, Shares: shares, Config: cfg}, nil
}
