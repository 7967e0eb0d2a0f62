// Package stats accumulates the evaluation metrics of the paper's
// Sec. V: per-subflow delivered packet counts, end-to-end deliveries,
// in-flight packet losses, the loss ratio, and the Jain fairness
// index.
package stats

import (
	"math"
	"sort"

	"e2efair/internal/flow"
)

// Collector accumulates per-run metrics. The zero value is not ready;
// use NewCollector.
type Collector struct {
	perSubflow map[flow.SubflowID]int64
	e2e        map[flow.ID]int64
	dropsAt    map[flow.SubflowID]int64

	lostQueue   int64 // in-flight drops at intermediate queues
	lostRetry   int64 // in-flight drops at the MAC retry limit
	sourceQueue int64 // drops of packets that never left their source
	sourceRetry int64
	collisions  int64
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{
		perSubflow: make(map[flow.SubflowID]int64),
		e2e:        make(map[flow.ID]int64),
		dropsAt:    make(map[flow.SubflowID]int64),
	}
}

// HopDelivered records a packet crossing one hop; final marks arrival
// at the flow destination.
func (c *Collector) HopDelivered(id flow.SubflowID, final bool) {
	c.perSubflow[id]++
	if final {
		c.e2e[id.Flow]++
	}
}

// QueueDrop records a packet dropped at a full queue. inFlight marks
// packets that had already crossed at least one hop: only those count
// as lost bandwidth in the paper's sense (delivered upstream, dropped
// downstream).
func (c *Collector) QueueDrop(inFlight bool) {
	if inFlight {
		c.lostQueue++
	} else {
		c.sourceQueue++
	}
}

// RetryDrop records a packet abandoned by the MAC after its retry
// limit.
func (c *Collector) RetryDrop(inFlight bool) {
	if inFlight {
		c.lostRetry++
	} else {
		c.sourceRetry++
	}
}

// DropAt attributes an in-flight loss to the subflow whose queue (or
// MAC retry limit) discarded the packet, in addition to the aggregate
// QueueDrop/RetryDrop accounting.
func (c *Collector) DropAt(id flow.SubflowID) { c.dropsAt[id]++ }

// DroppedAt returns the in-flight losses attributed to a subflow.
func (c *Collector) DroppedAt(id flow.SubflowID) int64 { return c.dropsAt[id] }

// FlowLost sums in-flight losses across a flow's subflows.
func (c *Collector) FlowLost(id flow.ID) int64 {
	var sum int64
	for sf, n := range c.dropsAt {
		if sf.Flow == id {
			sum += n
		}
	}
	return sum
}

// Collision records one failed floor acquisition.
func (c *Collector) Collision() { c.collisions++ }

// Subflow returns packets delivered over the given subflow.
func (c *Collector) Subflow(id flow.SubflowID) int64 { return c.perSubflow[id] }

// EndToEnd returns packets delivered end-to-end for the given flow.
func (c *Collector) EndToEnd(id flow.ID) int64 { return c.e2e[id] }

// TotalEndToEnd returns Σ_i r̂_i·T — the total effective throughput in
// packets over the whole run.
func (c *Collector) TotalEndToEnd() int64 {
	var sum int64
	for _, v := range c.e2e {
		sum += v
	}
	return sum
}

// Lost returns in-flight packets lost (queue overflow downstream plus
// MAC retry drops after the first hop).
func (c *Collector) Lost() int64 { return c.lostQueue + c.lostRetry }

// LostQueue returns the queue-overflow component of Lost.
func (c *Collector) LostQueue() int64 { return c.lostQueue }

// LostRetry returns the retry-limit component of Lost.
func (c *Collector) LostRetry() int64 { return c.lostRetry }

// SourceDrops returns packets that were dropped before ever being
// transmitted (full source queue or retry limit at hop 0). They do
// not waste channel bandwidth and are excluded from the loss ratio,
// matching the paper's accounting.
func (c *Collector) SourceDrops() int64 { return c.sourceQueue + c.sourceRetry }

// Collisions returns the number of failed floor acquisitions.
func (c *Collector) Collisions() int64 { return c.collisions }

// LossRatio returns lost / total end-to-end delivered, the ratio
// reported in Tables II and III (e.g. 689/167488 ≈ 0.004).
func (c *Collector) LossRatio() float64 {
	total := c.TotalEndToEnd()
	if total == 0 {
		if c.Lost() == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return float64(c.Lost()) / float64(total)
}

// FlowIDs returns the flows with recorded end-to-end deliveries,
// sorted.
func (c *Collector) FlowIDs() []flow.ID {
	ids := make([]flow.ID, 0, len(c.e2e))
	for id := range c.e2e {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	return ids
}

// JainIndex computes the Jain fairness index of the values:
// (Σx)² / (n·Σx²). It is 1 for perfectly equal values and approaches
// 1/n under total unfairness. Weighted comparisons should pass
// x_i = u_i/w_i.
func JainIndex(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	var sum, sq float64
	for _, v := range values {
		sum += v
		sq += v * v
	}
	if sq == 0 {
		return 0
	}
	return sum * sum / (float64(len(values)) * sq)
}
