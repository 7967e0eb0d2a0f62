package phy

import (
	"errors"
	"testing"

	"e2efair/internal/sim"
)

// RTSTime returns the airtime of an RTS frame.
func (c *Channel) RTSTime() sim.Time { return c.rts }

// CTSTime returns the airtime of a CTS frame.
func (c *Channel) CTSTime() sim.Time { return c.cts }

// PacketRate returns the maximum single-link packet throughput in
// packets per second for the given payload, ignoring backoff: a
// convenient upper bound when sizing workloads.
func (c *Channel) PacketRate(payloadBytes int) float64 {
	per := c.ExchangeTime(payloadBytes) + DIFS
	return float64(sim.Second) / float64(per)
}

func TestNewChannelDefaults(t *testing.T) {
	ch, err := NewChannel(0)
	if err != nil {
		t.Fatal(err)
	}
	if ch.BitRate != DefaultBitsPS {
		t.Errorf("default rate = %d", ch.BitRate)
	}
	if _, err := NewChannel(-1); !errors.Is(err, ErrBadRate) {
		t.Errorf("negative rate err = %v", err)
	}
}

func TestAirtime(t *testing.T) {
	ch, _ := NewChannel(2_000_000)
	// 512 bytes = 4096 bits at 2 Mbps = 2048 µs.
	if got := ch.Airtime(512); got != 2048*sim.Microsecond {
		t.Errorf("Airtime(512) = %d", got)
	}
	// Rounding up: 1 byte = 8 bits = 4 µs exactly at 2 Mbps.
	if got := ch.Airtime(1); got != 4 {
		t.Errorf("Airtime(1) = %d", got)
	}
	ch3, _ := NewChannel(3_000_000)
	// 1 byte = 8 bits at 3 Mbps = 2.67 µs → rounds up to 3.
	if got := ch3.Airtime(1); got != 3 {
		t.Errorf("Airtime(1)@3Mbps = %d", got)
	}
}

func TestExchangeTime(t *testing.T) {
	ch, _ := NewChannel(0)
	want := ch.RTSTime() + SIFS + ch.CTSTime() + SIFS + ch.DataTime(512) + SIFS + ch.ACKTime()
	if got := ch.ExchangeTime(512); got != want {
		t.Errorf("ExchangeTime = %d, want %d", got, want)
	}
	if ch.ExchangeTime(512) <= ch.DataTime(512) {
		t.Error("exchange must cost more than the data frame alone")
	}
}

// TestCachedFrameTimes pins the construction-time airtime cache
// against direct computation at the rates of 802.11 DSSS (1, 2 and
// 11 Mbps): the MAC hot path reads the cached values, so they must
// match Airtime exactly.
func TestCachedFrameTimes(t *testing.T) {
	for _, rate := range []int64{1_000_000, 2_000_000, 11_000_000} {
		ch, err := NewChannel(rate)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := ch.RTSTime(), ch.Airtime(RTSBytes); got != want {
			t.Errorf("rate %d: RTSTime = %d, want %d", rate, got, want)
		}
		if got, want := ch.CTSTime(), ch.Airtime(CTSBytes); got != want {
			t.Errorf("rate %d: CTSTime = %d, want %d", rate, got, want)
		}
		if got, want := ch.ACKTime(), ch.Airtime(ACKBytes); got != want {
			t.Errorf("rate %d: ACKTime = %d, want %d", rate, got, want)
		}
		if got, want := ch.CollisionTime(), ch.Airtime(RTSBytes)+DIFS; got != want {
			t.Errorf("rate %d: CollisionTime = %d, want %d", rate, got, want)
		}
		// The data memo must track payload-size changes, not stick to
		// the first size seen.
		for _, payload := range []int{512, 512, 1000, 512} {
			if got, want := ch.DataTime(payload), ch.Airtime(payload+DataOverhead); got != want {
				t.Errorf("rate %d: DataTime(%d) = %d, want %d", rate, payload, got, want)
			}
			want := ch.Airtime(RTSBytes) + SIFS + ch.Airtime(CTSBytes) + SIFS +
				ch.Airtime(payload+DataOverhead) + SIFS + ch.Airtime(ACKBytes)
			if got := ch.ExchangeTime(payload); got != want {
				t.Errorf("rate %d: ExchangeTime(%d) = %d, want %d", rate, payload, got, want)
			}
		}
	}
}

func TestPacketRate(t *testing.T) {
	ch, _ := NewChannel(0)
	rate := ch.PacketRate(512)
	// ~2.8 ms per packet with handshake → roughly 350 packets/s; the
	// paper's 200 packets/s CBR per flow therefore saturates a shared
	// neighborhood, keeping sources greedy.
	if rate < 250 || rate > 450 {
		t.Errorf("PacketRate(512) = %g, expected a few hundred", rate)
	}
}

func TestTimingConstants(t *testing.T) {
	if SIFS >= DIFS {
		t.Error("SIFS must be shorter than DIFS")
	}
	if SlotTime <= 0 {
		t.Error("slot must be positive")
	}
}
