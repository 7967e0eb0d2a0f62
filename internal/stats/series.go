package stats

import (
	"e2efair/internal/flow"
	"e2efair/internal/sim"
)

// Series collects windowed throughput samples: at each sampling
// instant the per-flow end-to-end deliveries within the window are
// recorded. It supports convergence analysis of the phase-2
// scheduler's short-term fairness (the role of α in Sec. V).
type Series struct {
	period  sim.Time
	times   []sim.Time
	perFlow map[flow.ID][]int64
	last    map[flow.ID]int64
}

// NewSeries creates a series with the given sampling period.
func NewSeries(period sim.Time) *Series {
	return &Series{
		period:  period,
		perFlow: make(map[flow.ID][]int64),
		last:    make(map[flow.ID]int64),
	}
}

// Sample appends one window: for every flow seen so far, the
// deliveries since the previous sample.
func (s *Series) Sample(now sim.Time, c *Collector) {
	s.times = append(s.times, now)
	n := len(s.times)
	for _, id := range c.FlowIDs() {
		cur := c.EndToEnd(id)
		col, ok := s.perFlow[id]
		if !ok {
			// Backfill zero windows for a flow first seen now.
			col = make([]int64, n-1)
		}
		col = append(col, cur-s.last[id])
		s.perFlow[id] = col
		s.last[id] = cur
	}
	// Flows with no new deliveries still get a zero window.
	for id, col := range s.perFlow {
		if len(col) < n {
			s.perFlow[id] = append(col, 0)
		}
	}
}

// Len returns the number of samples taken.
func (s *Series) Len() int { return len(s.times) }

// Times returns the sampling instants.
func (s *Series) Times() []sim.Time {
	out := make([]sim.Time, len(s.times))
	copy(out, s.times)
	return out
}

// Windows returns the per-window delivery counts for one flow.
func (s *Series) Windows(id flow.ID) []int64 {
	col := s.perFlow[id]
	out := make([]int64, len(col))
	copy(out, col)
	return out
}

// Flows returns the flows present in the series.
func (s *Series) Flows() []flow.ID {
	ids := make([]flow.ID, 0, len(s.perFlow))
	for id := range s.perFlow {
		ids = append(ids, id)
	}
	sortFlowIDs(ids)
	return ids
}

func sortFlowIDs(ids []flow.ID) {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
}
