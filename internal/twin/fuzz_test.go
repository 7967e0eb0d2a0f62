package twin_test

// FuzzTwinEstimate drives the estimator with random instances and
// adversarial parameters: bit-pattern floats (NaN, ±Inf, subnormals,
// negatives), loss rates at and past 1, share vectors poisoned with
// the same patterns, nil-share (clique-fair) mode, and degenerate
// channel parameters. The estimator must never panic, every error
// must be classified (ErrNilInstance / ErrBadParams / ErrBadShare /
// ErrDegenerate), and every successful estimate must be entirely
// finite. Zero-weight flows and empty routes are unreachable through
// flow.New's constructor validation — the guards inside the estimator
// for those shapes are exercised by the nil/degenerate unit tests.

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"e2efair/internal/core"
	"e2efair/internal/scenario"
	"e2efair/internal/sim"
	"e2efair/internal/twin"
)

func classified(err error) bool {
	return errors.Is(err, twin.ErrNilInstance) || errors.Is(err, twin.ErrBadParams) ||
		errors.Is(err, twin.ErrBadShare) || errors.Is(err, twin.ErrDegenerate)
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

func FuzzTwinEstimate(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(3), uint64(0x4069000000000000), uint64(0), uint64(0x3FD0000000000000), int64(2_000_000), false)
	f.Add(int64(2), uint8(2), uint8(1), uint64(0x7FF8000000000000), uint64(0), uint64(0), int64(0), true)                                             // NaN rate
	f.Add(int64(3), uint8(16), uint8(4), uint64(0x4059000000000000), uint64(0x3FB999999999999A), uint64(0x7FF0000000000000), int64(1_000_000), false) // +Inf share
	f.Add(int64(4), uint8(5), uint8(2), uint64(0x4069000000000000), uint64(0x3FF0000000000000), uint64(0x3FE0000000000000), int64(-1), false)         // loss = 1, bad bitrate
	f.Add(int64(5), uint8(30), uint8(7), uint64(0xC069000000000000), uint64(0), uint64(0x8000000000000001), int64(11_000_000), false)                 // negative rate, -0 share

	f.Fuzz(func(t *testing.T, seed int64, nodes, nflows uint8, rateBits, lossBits, shareBits uint64, bitRate int64, nilShares bool) {
		rng := rand.New(rand.NewSource(seed))
		s, err := scenario.Random(scenario.RandomConfig{
			Nodes: int(nodes%32) + 2,
			Flows: int(nflows%8) + 1,
			Width: 1200, Height: 900,
		}, rng)
		if err != nil {
			t.Skip() // unroutable random draw
		}
		p := twin.Params{
			BitRate:     bitRate,
			PacketsPerS: math.Float64frombits(rateBits),
			LossRate:    math.Float64frombits(lossBits),
			Lossy:       lossBits != 0,
			Duration:    sim.Time(seed % 2_000_000_000),
		}
		if !nilShares {
			shares := make(core.SubflowAllocation)
			poison := math.Float64frombits(shareBits)
			for _, fl := range s.Flows.Flows() {
				for _, sf := range fl.Subflows() {
					// Mix the poisoned value with plausible shares so both
					// validation and the cascade see fuzz-driven inputs.
					if sf.ID.Hop == 0 {
						shares[sf.ID] = poison
					} else {
						shares[sf.ID] = rng.Float64()
					}
				}
			}
			p.Shares = shares
		}
		est, err := twin.EstimateInstance(s.Inst, p)
		if err != nil {
			if !classified(err) {
				t.Fatalf("unclassified error: %v", err)
			}
			return
		}
		for _, v := range []float64{est.TotalPPS, est.TotalPkt, est.LossPPS, est.LossPkt, est.LossRatio, est.MaxCliqueUtil, est.PacketTime, est.Confidence} {
			if !finite(v) {
				t.Fatalf("non-finite aggregate in accepted estimate: %+v", est)
			}
		}
		if est.Confidence < 0 || est.Confidence > 1 {
			t.Fatalf("confidence %g outside [0,1]", est.Confidence)
		}
		for _, fe := range est.Flows {
			if !finite(fe.ThroughputPPS) || !finite(fe.Packets) || !finite(fe.LossPPS) || !finite(fe.LossPkt) {
				t.Fatalf("non-finite flow estimate: %+v", fe)
			}
			if fe.ThroughputPPS < 0 || fe.LossPPS < -1e-9 {
				t.Fatalf("negative rate in estimate: %+v", fe)
			}
			for _, he := range fe.Hops {
				if !finite(he.OfferedPPS) || !finite(he.ServicePPS) || !finite(he.ServedPPS) || !finite(he.Share) {
					t.Fatalf("non-finite hop estimate: %+v", he)
				}
			}
		}
	})
}
