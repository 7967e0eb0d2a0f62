package core

import "e2efair/internal/flow"

// GroupLP is a test view of one contending flow group's LP as the
// allocator sees it.
type GroupLP struct {
	IDs     []flow.ID
	Rows    [][]float64
	Basic   []float64
	Weights []float64
	Key     string
}

// GroupLPs returns the instance's group LPs in allocation order.
func GroupLPs(inst *Instance) []GroupLP {
	var out []GroupLP
	for _, g := range inst.groups() {
		out = append(out, GroupLP{IDs: g.ids, Rows: g.lpRows(), Basic: g.basic, Weights: g.weights, Key: g.key})
	}
	return out
}
