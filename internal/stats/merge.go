package stats

import (
	"errors"
	"slices"
)

// ErrSeriesMismatch is returned when merging series whose sampling
// schedules disagree.
var ErrSeriesMismatch = errors.New("stats: series sampling schedules differ")

// Merge folds another collector's counts into c. The sharded simulator
// uses it to combine per-component collectors: component flow sets are
// disjoint, so map entries union cleanly, and the scalar counters sum.
// Overlapping keys (not produced by sharding, but legal) also sum.
func (c *Collector) Merge(o *Collector) {
	if o == nil {
		return
	}
	for id, n := range o.perSubflow {
		c.perSubflow[id] += n
	}
	for id, n := range o.e2e {
		c.e2e[id] += n
	}
	for id, n := range o.dropsAt {
		c.dropsAt[id] += n
	}
	c.lostQueue += o.lostQueue
	c.lostRetry += o.lostRetry
	c.sourceQueue += o.sourceQueue
	c.sourceRetry += o.sourceRetry
	c.collisions += o.collisions
}

// Merge folds another series sampled on the identical schedule into s:
// same period, same sampling instants. Per-flow window columns union
// (summing element-wise on overlap), so merging the per-component
// series of a sharded run reproduces the single-engine series exactly.
func (s *Series) Merge(o *Series) error {
	if o == nil {
		return nil
	}
	if s.period != o.period || !slices.Equal(s.times, o.times) {
		return ErrSeriesMismatch
	}
	for id, col := range o.perFlow {
		dst, ok := s.perFlow[id]
		if !ok {
			dst = make([]int64, len(col))
			copy(dst, col)
			s.perFlow[id] = dst
			s.last[id] += o.last[id]
			continue
		}
		for i := range col {
			dst[i] += col[i]
		}
		s.last[id] += o.last[id]
	}
	return nil
}
