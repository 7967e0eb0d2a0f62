// Package flow models end-to-end multi-hop flows and their per-hop
// subflows, including the paper's virtual length v_i = min(l_i, 3)
// (Sec. II-D): because each subflow of a shortcut-free flow contends
// only with its immediate upstream and downstream hops, hops three or
// more apart can transmit concurrently, so a flow longer than three
// hops consumes no more channel time in any one neighborhood than a
// three-hop flow.
package flow

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"e2efair/internal/topology"
)

// MaxVirtualLength caps the virtual length of a flow (Sec. II-D).
const MaxVirtualLength = 3

var (
	// ErrBadWeight is returned for flow weights that are not positive
	// and finite.
	ErrBadWeight = errors.New("flow: weight must be positive and finite")
	// ErrBadPath is returned for paths with fewer than two nodes.
	ErrBadPath = errors.New("flow: path must have at least one hop")
	// ErrDuplicateFlow is returned when two flows share an ID.
	ErrDuplicateFlow = errors.New("flow: duplicate flow id")
	// ErrUnknownFlow is returned by Set lookups for missing IDs.
	ErrUnknownFlow = errors.New("flow: unknown flow")
)

// ID names a flow.
type ID string

// SubflowID identifies one hop of a flow: Hop is the zero-based hop
// index counting from the source, so subflow F_{i.j} of the paper is
// SubflowID{Flow: i, Hop: j-1}.
type SubflowID struct {
	Flow ID
	Hop  int
}

// String renders the paper's F_{i.j} notation.
func (s SubflowID) String() string {
	return fmt.Sprintf("%s.%d", s.Flow, s.Hop+1)
}

// Subflow is one wireless hop of a multi-hop flow.
type Subflow struct {
	ID     SubflowID
	Src    topology.NodeID
	Dst    topology.NodeID
	Weight float64 // inherited from the parent flow: w_{i.j} = w_i
}

// Flow is an end-to-end flow along a fixed path.
type Flow struct {
	id       ID
	weight   float64
	path     []topology.NodeID
	subflows []Subflow
}

// New builds a flow over the given path with the given weight. The
// path includes both endpoints, so a path of n nodes yields n-1
// subflows.
func New(id ID, weight float64, path []topology.NodeID) (*Flow, error) {
	if !(weight > 0) || math.IsInf(weight, 1) {
		return nil, fmt.Errorf("%w: flow %s has weight %g", ErrBadWeight, id, weight)
	}
	if len(path) < 2 {
		return nil, fmt.Errorf("%w: flow %s has %d nodes", ErrBadPath, id, len(path))
	}
	f := &Flow{id: id, weight: weight, path: make([]topology.NodeID, len(path))}
	copy(f.path, path)
	f.subflows = make([]Subflow, len(path)-1)
	for i := 0; i+1 < len(path); i++ {
		f.subflows[i] = Subflow{
			ID:     SubflowID{Flow: id, Hop: i},
			Src:    path[i],
			Dst:    path[i+1],
			Weight: weight,
		}
	}
	return f, nil
}

// ID returns the flow's identifier.
func (f *Flow) ID() ID { return f.id }

// Weight returns the preassigned weight w_i.
func (f *Flow) Weight() float64 { return f.weight }

// Path returns a copy of the flow's node path.
func (f *Flow) Path() []topology.NodeID {
	out := make([]topology.NodeID, len(f.path))
	copy(out, f.path)
	return out
}

// Source returns the origin node.
func (f *Flow) Source() topology.NodeID { return f.path[0] }

// Destination returns the final node.
func (f *Flow) Destination() topology.NodeID { return f.path[len(f.path)-1] }

// Length returns l_i, the number of hops.
func (f *Flow) Length() int { return len(f.subflows) }

// VirtualLength returns v_i = min(l_i, MaxVirtualLength).
func (f *Flow) VirtualLength() int {
	return VirtualLength(f.Length())
}

// Subflows returns the flow's subflows in hop order. The slice is
// shared; callers must not modify it.
func (f *Flow) Subflows() []Subflow { return f.subflows }

// Subflow returns the subflow at the given zero-based hop index.
func (f *Flow) Subflow(hop int) (Subflow, error) {
	if hop < 0 || hop >= len(f.subflows) {
		return Subflow{}, fmt.Errorf("flow %s: hop %d out of range [0,%d)", f.id, hop, len(f.subflows))
	}
	return f.subflows[hop], nil
}

// String renders the flow as "id(w=.., a->b->c)".
func (f *Flow) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s(w=%g,", f.id, f.weight)
	for i, n := range f.path {
		if i > 0 {
			sb.WriteString("->")
		}
		fmt.Fprintf(&sb, "%d", n)
	}
	sb.WriteString(")")
	return sb.String()
}

// VirtualLength computes v = min(l, MaxVirtualLength) for a flow of
// l hops; lengths below one are reported as zero.
func VirtualLength(hops int) int {
	if hops <= 0 {
		return 0
	}
	if hops > MaxVirtualLength {
		return MaxVirtualLength
	}
	return hops
}

// Set is an ordered collection of flows with unique IDs.
type Set struct {
	flows []*Flow
	byID  map[ID]*Flow
}

// NewSet builds a set from the given flows.
func NewSet(flows ...*Flow) (*Set, error) {
	s := &Set{byID: make(map[ID]*Flow, len(flows))}
	for _, f := range flows {
		if err := s.Add(f); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Add appends a flow to the set.
func (s *Set) Add(f *Flow) error {
	if _, ok := s.byID[f.id]; ok {
		return fmt.Errorf("%w: %s", ErrDuplicateFlow, f.id)
	}
	s.flows = append(s.flows, f)
	s.byID[f.id] = f
	return nil
}

// Len returns the number of flows.
func (s *Set) Len() int { return len(s.flows) }

// Flows returns the flows in insertion order. The slice is shared;
// callers must not modify it.
func (s *Set) Flows() []*Flow { return s.flows }

// Get returns the flow with the given ID.
func (s *Set) Get(id ID) (*Flow, error) {
	f, ok := s.byID[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownFlow, id)
	}
	return f, nil
}

// Subflows returns every subflow of every flow, in flow order then hop
// order.
func (s *Set) Subflows() []Subflow {
	var out []Subflow
	for _, f := range s.flows {
		out = append(out, f.subflows...)
	}
	return out
}

// TotalWeightedVirtualLength returns Σ_j w_j·v_j over flows in the
// set, the denominator of the basic share (Sec. II-D).
func (s *Set) TotalWeightedVirtualLength() float64 {
	var sum float64
	for _, f := range s.flows {
		sum += f.weight * float64(f.VirtualLength())
	}
	return sum
}
