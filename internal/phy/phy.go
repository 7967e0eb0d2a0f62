// Package phy models the radio channel: frame airtimes at the channel
// bit rate and the 802.11 interframe timing constants used by the MAC.
// The paper's evaluation configures a 2 Mbps channel with Two Ray
// Ground propagation and equal 250 m transmission and interference
// ranges, under which propagation reduces to the deterministic disk
// model implemented by the topology package.
package phy

import (
	"errors"

	"e2efair/internal/sim"
)

// 802.11 DSSS timing constants (microseconds).
const (
	SlotTime = 20 * sim.Microsecond
	SIFS     = 10 * sim.Microsecond
	DIFS     = 50 * sim.Microsecond
)

// Default contention window bounds (slots), CWmin matching the paper.
const (
	DefaultCWMin = 31
	DefaultCWMax = 1023
)

// DefaultRetryLimit is the number of failed floor acquisitions after
// which the MAC drops the head-of-line packet (802.11 long retry
// limit).
const DefaultRetryLimit = 7

// Frame sizes in bytes. Control frames follow 802.11; the data
// overhead covers MAC and IP headers on the paper's 512-byte payload.
const (
	RTSBytes      = 40
	CTSBytes      = 39
	ACKBytes      = 39
	DataOverhead  = 58
	PayloadBytes  = 512
	DefaultBitsPS = 2_000_000 // paper: 2 Mbps channel capacity
)

// ErrBadRate is returned for non-positive channel rates.
var ErrBadRate = errors.New("phy: channel rate must be positive")

// LossModel injects frame corruption into the channel: Corrupted
// reports whether a frame of the given size from tx to rx is lost in
// transit. Implementations own their random state and must be
// deterministic for a given seed; the fault injector is the canonical
// implementation. A nil model is the lossless channel of the paper.
type LossModel interface {
	Corrupted(tx, rx int, bytes int) bool
}

// Channel captures the physical-layer parameters of the shared medium.
// Control-frame airtimes are fixed by the bit rate, so NewChannel
// precomputes them once; the per-packet MAC hot path then reads cached
// values instead of repeating a 64-bit division per frame.
type Channel struct {
	// BitRate is the channel capacity in bits per second.
	BitRate int64

	rts       sim.Time // RTS airtime
	cts       sim.Time // CTS airtime
	ack       sim.Time // ACK airtime
	ctrl      sim.Time // RTS + SIFS + CTS + SIFS + SIFS + ACK
	collision sim.Time // RTS + DIFS

	// One-entry data-frame memo: simulations send a single payload
	// size, so the division in Airtime runs once per run, not per
	// packet. Channels are per-engine and single-threaded.
	memoPayload int
	memoData    sim.Time

	loss LossModel
}

// SetLossModel installs (or clears, with nil) the channel's frame
// corruption model.
func (c *Channel) SetLossModel(m LossModel) { c.loss = m }

// Lossy reports whether a loss model is installed, letting the MAC
// skip corruption draws entirely on the lossless fast path.
func (c *Channel) Lossy() bool { return c.loss != nil }

// Corrupted asks the loss model whether a frame from tx to rx of the
// given payload size is lost. Lossless channels always return false.
func (c *Channel) Corrupted(tx, rx, bytes int) bool {
	if c.loss == nil {
		return false
	}
	return c.loss.Corrupted(tx, rx, bytes)
}

// NewChannel returns a channel at the given bit rate; rate 0 selects
// the paper's 2 Mbps default.
func NewChannel(bitRate int64) (*Channel, error) {
	if bitRate == 0 {
		bitRate = DefaultBitsPS
	}
	if bitRate < 0 {
		return nil, ErrBadRate
	}
	c := &Channel{BitRate: bitRate}
	c.rts = c.Airtime(RTSBytes)
	c.cts = c.Airtime(CTSBytes)
	c.ack = c.Airtime(ACKBytes)
	c.ctrl = c.rts + SIFS + c.cts + SIFS + SIFS + c.ack
	c.collision = c.rts + DIFS
	return c, nil
}

// Airtime returns the time to transmit the given number of bytes,
// rounded up to a whole microsecond.
func (c *Channel) Airtime(bytes int) sim.Time {
	bits := int64(bytes) * 8
	us := (bits*1_000_000 + c.BitRate - 1) / c.BitRate
	return sim.Time(us)
}

// ACKTime returns the airtime of an ACK frame.
func (c *Channel) ACKTime() sim.Time { return c.ack }

// DataTime returns the airtime of a data frame carrying the given
// payload.
func (c *Channel) DataTime(payloadBytes int) sim.Time {
	if payloadBytes == c.memoPayload && c.memoData != 0 {
		return c.memoData
	}
	t := c.Airtime(payloadBytes + DataOverhead)
	c.memoPayload, c.memoData = payloadBytes, t
	return t
}

// ExchangeTime returns the full floor-acquisition duration for one
// data packet: RTS + SIFS + CTS + SIFS + DATA + SIFS + ACK.
func (c *Channel) ExchangeTime(payloadBytes int) sim.Time {
	return c.ctrl + c.DataTime(payloadBytes)
}

// CollisionTime returns the airtime wasted by a failed RTS (the RTS
// itself plus a DIFS of recovery).
func (c *Channel) CollisionTime() sim.Time {
	return c.collision
}
