package stats

import (
	"testing"

	"e2efair/internal/flow"
	"e2efair/internal/sim"
)

// Period returns the sampling period.
func (s *Series) Period() sim.Time { return s.period }

// WindowJain returns the Jain fairness index of the given flows'
// throughput in each window, normalized by the supplied weights; a
// value near 1 in late windows indicates the scheduler has converged
// to weighted fairness. Flows missing a weight default to 1.
func (s *Series) WindowJain(weights map[flow.ID]float64) []float64 {
	ids := s.Flows()
	out := make([]float64, s.Len())
	for w := 0; w < s.Len(); w++ {
		vals := make([]float64, 0, len(ids))
		for _, id := range ids {
			wt := weights[id]
			if wt == 0 {
				wt = 1
			}
			vals = append(vals, float64(s.perFlow[id][w])/wt)
		}
		out[w] = JainIndex(vals)
	}
	return out
}

func TestSeriesWindows(t *testing.T) {
	c := NewCollector()
	s := NewSeries(sim.Second)
	// Window 1: 3 deliveries for F1.
	for i := 0; i < 3; i++ {
		c.HopDelivered(sf("F1", 0), true)
	}
	s.Sample(sim.Second, c)
	// Window 2: 2 more for F1, first 4 for F2.
	c.HopDelivered(sf("F1", 0), true)
	c.HopDelivered(sf("F1", 0), true)
	for i := 0; i < 4; i++ {
		c.HopDelivered(sf("F2", 0), true)
	}
	s.Sample(2*sim.Second, c)
	if s.Len() != 2 {
		t.Fatalf("len = %d", s.Len())
	}
	if got := s.Windows("F1"); len(got) != 2 || got[0] != 3 || got[1] != 2 {
		t.Errorf("F1 windows = %v", got)
	}
	// F2 first appeared in window 2: backfilled zero then 4.
	if got := s.Windows("F2"); len(got) != 2 || got[0] != 0 || got[1] != 4 {
		t.Errorf("F2 windows = %v", got)
	}
	if got := s.Flows(); len(got) != 2 || got[0] != "F1" || got[1] != "F2" {
		t.Errorf("flows = %v", got)
	}
	times := s.Times()
	if len(times) != 2 || times[1] != 2*sim.Second {
		t.Errorf("times = %v", times)
	}
	if s.Period() != sim.Second {
		t.Errorf("period = %v", s.Period())
	}
}

func TestSeriesZeroWindow(t *testing.T) {
	c := NewCollector()
	s := NewSeries(sim.Second)
	c.HopDelivered(sf("F1", 0), true)
	s.Sample(sim.Second, c)
	s.Sample(2*sim.Second, c) // no new deliveries
	if got := s.Windows("F1"); got[1] != 0 {
		t.Errorf("idle window = %v", got)
	}
}

func TestWindowJain(t *testing.T) {
	c := NewCollector()
	s := NewSeries(sim.Second)
	// Equal throughput: Jain = 1.
	c.HopDelivered(sf("F1", 0), true)
	c.HopDelivered(sf("F2", 0), true)
	s.Sample(sim.Second, c)
	jain := s.WindowJain(map[flow.ID]float64{})
	if len(jain) != 1 || jain[0] < 0.999 {
		t.Errorf("equal-throughput Jain = %v", jain)
	}
	// Weighted: F1 twice F2's rate with weight 2 is perfectly fair.
	c.HopDelivered(sf("F1", 0), true)
	c.HopDelivered(sf("F1", 0), true)
	c.HopDelivered(sf("F2", 0), true)
	s.Sample(2*sim.Second, c)
	jain = s.WindowJain(map[flow.ID]float64{"F1": 2, "F2": 1})
	if jain[1] < 0.999 {
		t.Errorf("weighted Jain = %v", jain)
	}
}
