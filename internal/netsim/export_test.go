package netsim

import (
	"fmt"

	"e2efair/internal/core"
)

// RunAll executes the run for each protocol with the same config, one
// after another, and returns the results in protocol order: the
// sequential reference for RunAllParallel.
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
