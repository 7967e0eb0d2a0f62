package topology

// RadioComponentSet is a reusable partition of a topology's nodes into
// interference-closed components: the connected components of the
// graph whose edges join every node pair within interference range.
// Nodes in different components can never sense, jam, or receive each
// other, so the MAC evolution of one component is independent of every
// other — the datapath analog of the paper's Prop. 2 block-diagonal
// structure, and the partition the sharded simulator runs on separate
// event engines.
//
// The set holds one flat member list plus component offsets, and
// every build reuses the buffers: after the first build on a topology
// of a given size, AppendRadioComponents allocates nothing.
type RadioComponentSet struct {
	ids  []NodeID // member IDs, component by component, ascending
	offs []int    // component c = ids[offs[c]:offs[c+1]]; len = Len()+1

	// Scratch reused across builds.
	parent  []int32
	groupAt []int32 // root → component index, first-appearance order
	counts  []int32
	nbr     []int32 // grid query scratch
}

// Len returns the number of components in the last build.
func (cs *RadioComponentSet) Len() int {
	if len(cs.offs) == 0 {
		return 0
	}
	return len(cs.offs) - 1
}

// Component returns component c's member node IDs, ascending. The
// slice aliases the set's internal storage and is valid until the next
// build.
func (cs *RadioComponentSet) Component(c int) []NodeID {
	return cs.ids[cs.offs[c]:cs.offs[c+1]]
}

// AppendRadioComponents rebuilds cs as the partition of t's nodes into
// interference-range connected components. Components are ordered by
// first (smallest) member and members are ascending — both fall out of
// a single pass in node-ID order, so the build is one union-find sweep
// plus two fill passes. The cross-check tests pin it against a naive
// BFS oracle.
func (t *Topology) AppendRadioComponents(cs *RadioComponentSet) {
	n := len(t.nodes)
	cs.parent = grow32(cs.parent, n)
	for i := range cs.parent {
		cs.parent[i] = int32(i)
	}
	find := func(x int32) int32 {
		for cs.parent[x] != x {
			cs.parent[x] = cs.parent[cs.parent[x]]
			x = cs.parent[x]
		}
		return x
	}
	union := func(a, b int32) {
		ra, rb := find(a), find(b)
		if ra != rb {
			cs.parent[ra] = rb
		}
	}

	// One union sweep. When the interference range equals the tx range
	// the precomputed neighbor rows are the interference adjacency;
	// otherwise probe the spatial grid (or linear-scan for Snapshotter
	// builds without one).
	sameRange := t.infRange == t.txRange
	for i := 0; i < n; i++ {
		switch {
		case sameRange:
			for _, j := range t.neighbors[i] {
				if int32(j) > int32(i) {
					union(int32(i), int32(j))
				}
			}
		case t.grid != nil:
			cs.nbr = t.grid.AppendWithin(t.pts[i], t.infRange, cs.nbr[:0])
			for _, j := range cs.nbr {
				if j > int32(i) {
					union(int32(i), j)
				}
			}
		default:
			for j := i + 1; j < n; j++ {
				if t.pts[i].InRange(t.pts[j], t.infRange) {
					union(int32(i), int32(j))
				}
			}
		}
	}

	// Component indices in root-first-appearance order over ascending
	// node IDs: that order *is* smallest-member order, and the fill
	// pass below emits members ascending for free.
	cs.groupAt = grow32(cs.groupAt, n)
	cs.counts = grow32(cs.counts, n)
	for i := range cs.groupAt {
		cs.groupAt[i] = -1
		cs.counts[i] = 0
	}
	ncomp := 0
	for i := int32(0); int(i) < n; i++ {
		r := find(i)
		if cs.groupAt[r] < 0 {
			cs.groupAt[r] = int32(ncomp)
			ncomp++
		}
		cs.counts[cs.groupAt[r]]++
	}
	if cap(cs.offs) < ncomp+1 {
		cs.offs = make([]int, ncomp+1)
	}
	cs.offs = cs.offs[:ncomp+1]
	cs.offs[0] = 0
	for c := 0; c < ncomp; c++ {
		cs.offs[c+1] = cs.offs[c] + int(cs.counts[c])
	}
	if cap(cs.ids) < n {
		cs.ids = make([]NodeID, n)
	}
	cs.ids = cs.ids[:n]
	next := cs.counts[:ncomp]
	for c := range next {
		next[c] = int32(cs.offs[c])
	}
	for i := int32(0); int(i) < n; i++ {
		c := cs.groupAt[find(i)]
		cs.ids[next[c]] = NodeID(i)
		next[c]++
	}
}

func grow32(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	return buf[:n]
}
