// Package topology models the physical layout of a wireless ad hoc
// network: named nodes with planar positions, radio ranges and the
// connectivity graph induced by the unit-disk radio model.
package topology

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"

	"e2efair/internal/geom"
)

// DefaultRange is the transmission range used throughout the paper's
// evaluation (meters).
const DefaultRange = 250.0

var (
	// ErrDuplicateNode is returned when a node name is added twice.
	ErrDuplicateNode = errors.New("topology: duplicate node")
	// ErrUnknownNode is returned when a query names a node that does
	// not exist in the topology.
	ErrUnknownNode = errors.New("topology: unknown node")
	// ErrBadRange is returned for non-positive radio ranges.
	ErrBadRange = errors.New("topology: radio range must be positive")
)

// NodeID identifies a node within a Topology. IDs are dense indices
// assigned in insertion order.
type NodeID int

// Node is a radio node placed on the plane.
type Node struct {
	ID   NodeID
	Name string
	Pos  geom.Point
}

// Topology is an immutable-after-build set of nodes plus the radio
// parameters that induce its connectivity graph.
type Topology struct {
	nodes    []Node
	byName   map[string]NodeID
	txRange  float64
	infRange float64
	pts      []geom.Point // position mirror of nodes, grid- and query-friendly
	grid     *geom.Grid   // spatial index (cell = infRange); nil for Snapshotter builds
	// neighbors holds the adjacency within txRange, each row sorted
	// ascending. Rows are views into one flat arena.
	neighbors [][]NodeID
	nbrArena  []NodeID
	adjFP     uint64 // FNV-1a fingerprint of the adjacency lists
}

// Builder incrementally assembles a Topology.
type Builder struct {
	nodes    []Node
	byName   map[string]NodeID
	txRange  float64
	infRange float64
	err      error
}

// NewBuilder returns a Builder with the given transmission range and
// interference range. The paper configures both to 250 m; passing
// infRange <= 0 defaults it to txRange.
func NewBuilder(txRange, infRange float64) *Builder {
	b := &Builder{byName: make(map[string]NodeID)}
	if txRange <= 0 {
		b.err = fmt.Errorf("%w: tx range %g", ErrBadRange, txRange)
		return b
	}
	if infRange <= 0 {
		infRange = txRange
	}
	if infRange < txRange {
		b.err = fmt.Errorf("%w: interference range %g below tx range %g", ErrBadRange, infRange, txRange)
		return b
	}
	b.txRange = txRange
	b.infRange = infRange
	return b
}

// Add places a named node at (x, y). It returns the builder to allow
// chaining; errors are deferred to Build.
func (b *Builder) Add(name string, x, y float64) *Builder {
	if b.err != nil {
		return b
	}
	if _, ok := b.byName[name]; ok {
		b.err = fmt.Errorf("%w: %q", ErrDuplicateNode, name)
		return b
	}
	id := NodeID(len(b.nodes))
	b.nodes = append(b.nodes, Node{ID: id, Name: name, Pos: geom.Point{X: x, Y: y}})
	b.byName[name] = id
	return b
}

// Build finalizes the topology, computing the connectivity graph. The
// neighbor lists are computed through a uniform spatial grid (cell size
// = interference range) in O(n·k) rather than the seed's O(n²)
// all-pairs scan; the resulting sorted lists are byte-identical to the
// all-pairs build, pinned by the randomized cross-check tests against
// the reference scan in reference_test.go.
func (b *Builder) Build() (*Topology, error) {
	if b.err != nil {
		return nil, b.err
	}
	t := &Topology{
		nodes:    make([]Node, len(b.nodes)),
		byName:   make(map[string]NodeID, len(b.byName)),
		txRange:  b.txRange,
		infRange: b.infRange,
	}
	copy(t.nodes, b.nodes)
	for k, v := range b.byName {
		t.byName[k] = v
	}
	t.pts = make([]geom.Point, len(t.nodes))
	for i := range t.nodes {
		t.pts[i] = t.nodes[i].Pos
	}
	t.grid = geom.NewGrid()
	t.grid.Rebuild(t.pts, t.infRange)
	t.buildNeighborsGrid(t.grid, nil)
	return t, nil
}

// buildNeighborsGrid fills t.neighbors from a grid already indexing
// t.pts: one radius-txRange probe per node, self excluded, each row
// sorted ascending into a flat arena. It also computes the adjacency
// fingerprint. The scratch slice is returned for reuse across builds.
func (t *Topology) buildNeighborsGrid(g *geom.Grid, scratch []int32) []int32 {
	n := len(t.nodes)
	t.neighbors = make([][]NodeID, n)
	offs := make([]int32, n+1)
	var flat []NodeID
	for i := 0; i < n; i++ {
		scratch = g.AppendWithin(t.pts[i], t.txRange, scratch[:0])
		start := len(flat)
		for _, j := range scratch {
			if int(j) != i {
				flat = append(flat, NodeID(j))
			}
		}
		slices.Sort(flat[start:])
		offs[i+1] = int32(len(flat))
	}
	t.nbrArena = flat
	h := uint64(fnvOffset)
	for i := 0; i < n; i++ {
		row := flat[offs[i]:offs[i+1]:offs[i+1]]
		t.neighbors[i] = row
		h = (h ^ uint64(len(row))) * fnvPrime
		for _, id := range row {
			h = (h ^ uint64(id)) * fnvPrime
		}
	}
	t.adjFP = h
	return scratch
}

// FNV-1a constants for the adjacency fingerprint.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// AdjacencyFingerprint returns a hash of the transmission-range
// adjacency lists. Equal adjacency implies equal fingerprints; callers
// that key caches on it must confirm hits with EqualAdjacency.
func (t *Topology) AdjacencyFingerprint() uint64 { return t.adjFP }

// EqualAdjacency reports whether t and o have identical node counts and
// transmission-range neighbor lists. Two topologies with equal
// adjacency are interchangeable for every range predicate the
// simulator consults when their tx and interference ranges coincide.
func (t *Topology) EqualAdjacency(o *Topology) bool {
	if o == nil || len(t.neighbors) != len(o.neighbors) || t.adjFP != o.adjFP {
		return false
	}
	for i := range t.neighbors {
		if !slices.Equal(t.neighbors[i], o.neighbors[i]) {
			return false
		}
	}
	return true
}

// NumNodes returns the number of nodes in the topology.
func (t *Topology) NumNodes() int { return len(t.nodes) }

// TxRange returns the transmission range in meters.
func (t *Topology) TxRange() float64 { return t.txRange }

// InterferenceRange returns the interference range in meters.
func (t *Topology) InterferenceRange() float64 { return t.infRange }

// Node returns the node with the given ID.
func (t *Topology) Node(id NodeID) (Node, error) {
	if int(id) < 0 || int(id) >= len(t.nodes) {
		return Node{}, fmt.Errorf("%w: id %d", ErrUnknownNode, id)
	}
	return t.nodes[id], nil
}

// Lookup resolves a node name to its ID.
func (t *Topology) Lookup(name string) (NodeID, error) {
	id, ok := t.byName[name]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrUnknownNode, name)
	}
	return id, nil
}

// Name returns the name of a node; it returns a placeholder for
// out-of-range IDs so that diagnostic formatting never fails.
func (t *Topology) Name(id NodeID) string {
	if int(id) < 0 || int(id) >= len(t.nodes) {
		return fmt.Sprintf("<node %d>", id)
	}
	return t.nodes[id].Name
}

// Names returns all node names in ID order.
func (t *Topology) Names() []string {
	out := make([]string, len(t.nodes))
	for i, n := range t.nodes {
		out[i] = n.Name
	}
	return out
}

// Position returns a node's location.
func (t *Topology) Position(id NodeID) geom.Point {
	return t.nodes[id].Pos
}

// Neighbors returns the nodes within transmission range of id, in
// ascending ID order. The returned slice is shared; callers must not
// modify it.
func (t *Topology) Neighbors(id NodeID) []NodeID {
	if int(id) < 0 || int(id) >= len(t.neighbors) {
		return nil
	}
	return t.neighbors[id]
}

// NodesInRange returns the IDs of every node within radius r of point
// p (boundary inclusive), in ascending ID order. Builder-built
// topologies answer from the spatial grid; Snapshotter builds fall
// back to a linear scan.
func (t *Topology) NodesInRange(p geom.Point, r float64) []NodeID {
	return t.AppendNodesInRange(p, r, nil)
}

// AppendNodesInRange appends the IDs of every node within radius r of
// p to dst in ascending ID order and returns the extended slice.
func (t *Topology) AppendNodesInRange(p geom.Point, r float64, dst []NodeID) []NodeID {
	start := len(dst)
	if t.grid != nil {
		t.grid.VisitWithin(p, r, func(i int) { dst = append(dst, NodeID(i)) })
	} else {
		for i := range t.pts {
			if p.InRange(t.pts[i], r) {
				dst = append(dst, NodeID(i))
			}
		}
	}
	slices.Sort(dst[start:])
	return dst
}

// InTxRange reports whether nodes a and b can decode each other's
// transmissions.
func (t *Topology) InTxRange(a, b NodeID) bool {
	return t.nodes[a].Pos.InRange(t.nodes[b].Pos, t.txRange)
}

// InInterferenceRange reports whether a transmission by a can corrupt
// reception at b.
func (t *Topology) InInterferenceRange(a, b NodeID) bool {
	return t.nodes[a].Pos.InRange(t.nodes[b].Pos, t.infRange)
}

// Connected reports whether the connectivity graph is a single
// component.
func (t *Topology) Connected() bool {
	if len(t.nodes) == 0 {
		return true
	}
	seen := make([]bool, len(t.nodes))
	stack := []NodeID{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, m := range t.neighbors[n] {
			if !seen[m] {
				seen[m] = true
				count++
				stack = append(stack, m)
			}
		}
	}
	return count == len(t.nodes)
}

// RandomConfig controls random topology generation.
type RandomConfig struct {
	Nodes    int     // number of nodes to place
	Width    float64 // area width in meters
	Height   float64 // area height in meters
	TxRange  float64 // transmission range; DefaultRange if zero
	InfRange float64 // interference range; TxRange if zero
	Connect  bool    // retry placement until the graph is connected
	MaxTries int     // placement retries when Connect is set (default 100)
}

// Random generates a topology with nodes placed uniformly at random in
// the configured rectangle, using the supplied source of randomness.
func Random(cfg RandomConfig, rng *rand.Rand) (*Topology, error) {
	if cfg.Nodes <= 0 {
		return nil, errors.New("topology: random config needs at least one node")
	}
	if cfg.Width <= 0 || cfg.Height <= 0 {
		return nil, errors.New("topology: random config needs a positive area")
	}
	if cfg.TxRange == 0 {
		cfg.TxRange = DefaultRange
	}
	tries := cfg.MaxTries
	if tries <= 0 {
		tries = 100
	}
	if !cfg.Connect {
		tries = 1
	}
	for attempt := 0; attempt < tries; attempt++ {
		b := NewBuilder(cfg.TxRange, cfg.InfRange)
		for i := 0; i < cfg.Nodes; i++ {
			b.Add(fmt.Sprintf("n%d", i), rng.Float64()*cfg.Width, rng.Float64()*cfg.Height)
		}
		t, err := b.Build()
		if err != nil {
			return nil, err
		}
		if !cfg.Connect || t.Connected() {
			return t, nil
		}
	}
	return nil, errors.New("topology: could not generate a connected placement")
}
