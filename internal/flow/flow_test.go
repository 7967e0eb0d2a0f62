package flow

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"e2efair/internal/topology"
)

// TotalWeightedVirtualLength returns Σ_j w_j·v_j over flows in the
// set, the denominator of the basic share (Sec. II-D).
func (s *Set) TotalWeightedVirtualLength() float64 {
	var sum float64
	for _, f := range s.flows {
		sum += f.weight * float64(f.VirtualLength())
	}
	return sum
}

func path(ids ...int) []topology.NodeID {
	out := make([]topology.NodeID, len(ids))
	for i, v := range ids {
		out[i] = topology.NodeID(v)
	}
	return out
}

func TestNewValidation(t *testing.T) {
	if _, err := New("F", 0, path(0, 1)); !errors.Is(err, ErrBadWeight) {
		t.Errorf("zero weight: %v", err)
	}
	if _, err := New("F", -1, path(0, 1)); !errors.Is(err, ErrBadWeight) {
		t.Errorf("negative weight: %v", err)
	}
	if _, err := New("F", math.NaN(), path(0, 1)); !errors.Is(err, ErrBadWeight) {
		t.Errorf("NaN weight: %v", err)
	}
	if _, err := New("F", math.Inf(1), path(0, 1)); !errors.Is(err, ErrBadWeight) {
		t.Errorf("+Inf weight: %v", err)
	}
	if _, err := New("F", 1, path(0)); !errors.Is(err, ErrBadPath) {
		t.Errorf("one-node path: %v", err)
	}
	if _, err := New("F", 1, nil); !errors.Is(err, ErrBadPath) {
		t.Errorf("nil path: %v", err)
	}
}

func TestSubflows(t *testing.T) {
	f, err := New("F1", 2, path(3, 7, 9, 11))
	if err != nil {
		t.Fatal(err)
	}
	if f.Length() != 3 {
		t.Fatalf("length = %d", f.Length())
	}
	subs := f.Subflows()
	wantSrc := []topology.NodeID{3, 7, 9}
	wantDst := []topology.NodeID{7, 9, 11}
	for i, s := range subs {
		if s.Src != wantSrc[i] || s.Dst != wantDst[i] {
			t.Errorf("subflow %d = %v -> %v", i, s.Src, s.Dst)
		}
		if s.Weight != 2 {
			t.Errorf("subflow %d weight = %g, want inherited 2", i, s.Weight)
		}
		if s.ID.Hop != i || s.ID.Flow != "F1" {
			t.Errorf("subflow %d id = %v", i, s.ID)
		}
	}
	if f.Source() != 3 || f.Destination() != 11 {
		t.Errorf("endpoints %d, %d", f.Source(), f.Destination())
	}
}

func TestSubflowIDNotation(t *testing.T) {
	// The paper writes F_{i.j} with j counting from 1.
	id := SubflowID{Flow: "F2", Hop: 0}
	if id.String() != "F2.1" {
		t.Errorf("String = %q, want F2.1", id.String())
	}
}

func TestSubflowOutOfRange(t *testing.T) {
	f, err := New("F", 1, path(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Subflow(1); err == nil {
		t.Error("hop 1 of a 1-hop flow should fail")
	}
	if _, err := f.Subflow(-1); err == nil {
		t.Error("negative hop should fail")
	}
}

func TestVirtualLength(t *testing.T) {
	cases := map[int]int{0: 0, -3: 0, 1: 1, 2: 2, 3: 3, 4: 3, 100: 3}
	for hops, want := range cases {
		if got := VirtualLength(hops); got != want {
			t.Errorf("VirtualLength(%d) = %d, want %d", hops, got, want)
		}
	}
}

func TestVirtualLengthProperty(t *testing.T) {
	f := func(hops uint8) bool {
		v := VirtualLength(int(hops))
		if int(hops) == 0 {
			return v == 0
		}
		return v >= 1 && v <= MaxVirtualLength && v <= int(hops)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPathIsCopied(t *testing.T) {
	p := path(0, 1, 2)
	f, err := New("F", 1, p)
	if err != nil {
		t.Fatal(err)
	}
	p[0] = 99
	if f.Source() != 0 {
		t.Error("flow aliases caller path")
	}
	got := f.Path()
	got[0] = 42
	if f.Source() != 0 {
		t.Error("Path() aliases internal state")
	}
}

func TestSet(t *testing.T) {
	f1, _ := New("F1", 1, path(0, 1))
	f2, _ := New("F2", 1, path(2, 3, 4))
	s, err := NewSet(f1, f2)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2 {
		t.Fatalf("len = %d", s.Len())
	}
	dup, _ := New("F1", 1, path(5, 6))
	if err := s.Add(dup); !errors.Is(err, ErrDuplicateFlow) {
		t.Errorf("dup add: %v", err)
	}
	if _, err := s.Get("F9"); !errors.Is(err, ErrUnknownFlow) {
		t.Errorf("missing get: %v", err)
	}
	subs := s.Subflows()
	if len(subs) != 3 {
		t.Fatalf("subflows = %d", len(subs))
	}
	if subs[0].ID.Flow != "F1" || subs[1].ID.Flow != "F2" || subs[2].ID.Hop != 1 {
		t.Errorf("subflow order wrong: %v", subs)
	}
}

func TestTotalWeightedVirtualLength(t *testing.T) {
	f1, _ := New("F1", 1, path(0, 1, 2, 3, 4)) // 4 hops, v=3
	f2, _ := New("F2", 2, path(5, 6, 7))       // 2 hops, v=2
	f3, _ := New("F3", 3, path(8, 9))          // 1 hop, v=1
	s, err := NewSet(f1, f2, f3)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.TotalWeightedVirtualLength(); got != 1*3+2*2+3*1 {
		t.Errorf("Σ w·v = %g, want 10", got)
	}
}

func TestAccessors(t *testing.T) {
	f, err := New("F1", 2.5, path(4, 5, 6))
	if err != nil {
		t.Fatal(err)
	}
	if f.ID() != "F1" {
		t.Errorf("ID = %s", f.ID())
	}
	if f.Weight() != 2.5 {
		t.Errorf("Weight = %g", f.Weight())
	}
	if got := f.String(); got != "F1(w=2.5,4->5->6)" {
		t.Errorf("String = %q", got)
	}
	if f.VirtualLength() != 2 {
		t.Errorf("VirtualLength = %d", f.VirtualLength())
	}
	s, err := NewSet(f)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Flows(); len(got) != 1 || got[0] != f {
		t.Errorf("Flows = %v", got)
	}
	got, err := s.Get("F1")
	if err != nil || got != f {
		t.Errorf("Get = %v, %v", got, err)
	}
}

func TestNewSetRejectsDuplicates(t *testing.T) {
	f1, _ := New("F", 1, path(0, 1))
	f2, _ := New("F", 1, path(2, 3))
	if _, err := NewSet(f1, f2); err == nil {
		t.Error("duplicate IDs in NewSet should fail")
	}
}
