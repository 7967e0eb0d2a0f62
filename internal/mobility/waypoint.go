// Package mobility adds node movement to the evaluation: a random
// waypoint model and an epochal runner that re-derives topology,
// routes and 2PA allocations as the network changes. The paper
// evaluates static topologies only; mobility is the natural extension
// for the ad hoc setting it targets, exercising route breakage and
// online reallocation.
package mobility

import (
	"errors"
	"math/rand"

	"e2efair/internal/geom"
	"e2efair/internal/sim"
)

// WaypointConfig parameterizes the random waypoint model.
type WaypointConfig struct {
	Width  float64 // area width, meters
	Height float64 // area height, meters
	// MinSpeed and MaxSpeed bound node speed in m/s. The classic
	// model's speed-decay pathology is avoided by keeping MinSpeed
	// strictly positive.
	MinSpeed float64
	MaxSpeed float64
	// MaxPause bounds the pause at each waypoint.
	MaxPause sim.Time
}

// ErrBadArea is returned for non-positive areas or speeds.
var ErrBadArea = errors.New("mobility: bad waypoint configuration")

type wpNode struct {
	pos        geom.Point
	dest       geom.Point
	speed      float64 // m/s
	pauseUntil sim.Time
}

// Waypoint is a random waypoint mobility model over a fixed node set.
type Waypoint struct {
	cfg   WaypointConfig
	rng   *rand.Rand
	nodes []wpNode
	now   sim.Time
}

// NewWaypoint places n nodes uniformly at random and assigns initial
// waypoints.
func NewWaypoint(n int, cfg WaypointConfig, rng *rand.Rand) (*Waypoint, error) {
	if n <= 0 || cfg.Width <= 0 || cfg.Height <= 0 {
		return nil, ErrBadArea
	}
	if cfg.MinSpeed <= 0 || cfg.MaxSpeed < cfg.MinSpeed {
		return nil, ErrBadArea
	}
	w := &Waypoint{cfg: cfg, rng: rng, nodes: make([]wpNode, n)}
	for i := range w.nodes {
		w.nodes[i].pos = geom.Point{X: rng.Float64() * cfg.Width, Y: rng.Float64() * cfg.Height}
		w.retarget(i)
	}
	return w, nil
}

// retarget picks a fresh waypoint and speed for node i.
func (w *Waypoint) retarget(i int) {
	n := &w.nodes[i]
	n.dest = geom.Point{X: w.rng.Float64() * w.cfg.Width, Y: w.rng.Float64() * w.cfg.Height}
	n.speed = w.cfg.MinSpeed + w.rng.Float64()*(w.cfg.MaxSpeed-w.cfg.MinSpeed)
	if w.cfg.MaxPause > 0 {
		n.pauseUntil = w.now + sim.Time(w.rng.Int63n(int64(w.cfg.MaxPause)+1))
	} else {
		n.pauseUntil = w.now
	}
}

// Advance moves every node dt of simulated time forward.
func (w *Waypoint) Advance(dt sim.Time) {
	target := w.now + dt
	for i := range w.nodes {
		w.advanceNode(i, target)
	}
	w.now = target
}

func (w *Waypoint) advanceNode(i int, target sim.Time) {
	n := &w.nodes[i]
	now := w.now
	for now < target {
		if n.pauseUntil > now {
			if n.pauseUntil >= target {
				return
			}
			now = n.pauseUntil
		}
		remaining := (target - now).Seconds()
		dist := n.pos.Dist(n.dest)
		travel := n.speed * remaining
		if travel < dist {
			// Move part way.
			frac := travel / dist
			n.pos = geom.Point{
				X: n.pos.X + (n.dest.X-n.pos.X)*frac,
				Y: n.pos.Y + (n.dest.Y-n.pos.Y)*frac,
			}
			return
		}
		// Arrive, pause, pick a new waypoint.
		n.pos = n.dest
		var arrive sim.Time
		if n.speed > 0 {
			arrive = now + sim.Time(dist/n.speed*float64(sim.Second))
		} else {
			arrive = target
		}
		now = arrive
		saved := w.now
		w.now = arrive
		w.retarget(i)
		w.now = saved
	}
}

// AppendPositions appends the current node positions to dst and
// returns the extended slice, letting epoch loops reuse one buffer
// instead of allocating a snapshot per epoch.
func (w *Waypoint) AppendPositions(dst []geom.Point) []geom.Point {
	for i := range w.nodes {
		dst = append(dst, w.nodes[i].pos)
	}
	return dst
}

// Now returns the model's current time.
func (w *Waypoint) Now() sim.Time { return w.now }
