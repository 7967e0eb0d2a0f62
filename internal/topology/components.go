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
//
// Each component carries an FNV-1a fingerprint covering its member
// IDs *and* their transmission- and interference-range neighbor rows:
// two builds fingerprint a component equal exactly when — hash
// collisions aside — the component has the same members with the same
// radio adjacency, which is the "did mobility touch this shard?" test
// the sharded simulator's sub-topology cache keys off.
type RadioComponentSet struct {
	ids  []NodeID // member IDs, component by component, ascending
	offs []int    // component c = ids[offs[c]:offs[c+1]]; len = Len()+1
	fps  []uint64 // per-component membership+adjacency fingerprints

	// Scratch reused across builds.
	parent  []int32
	groupAt []int32 // root → component index, first-appearance order
	counts  []int32
	rowFP   []uint64 // per-node hash of (id, tx row, inf row)
	nbr     []int32  // grid query scratch
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

// Fingerprint returns component c's fingerprint: FNV-1a over the
// ascending member IDs and each member's tx/interference neighbor
// rows.
func (cs *RadioComponentSet) Fingerprint(c int) uint64 { return cs.fps[c] }

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

	// One union sweep plus one per-node adjacency hash. When the
	// interference range equals the tx range the precomputed neighbor
	// rows are the interference adjacency; otherwise probe the spatial
	// grid (or linear-scan for Snapshotter builds without one).
	cs.rowFP = growU64(cs.rowFP, n)
	sameRange := t.infRange == t.txRange
	for i := 0; i < n; i++ {
		h := uint64(fnvOffset)
		h = (h ^ uint64(i)) * fnvPrime
		row := t.neighbors[i]
		h = (h ^ uint64(len(row))) * fnvPrime
		for _, j := range row {
			h = (h ^ uint64(j)) * fnvPrime
		}
		if sameRange {
			for _, j := range row {
				if int32(j) > int32(i) {
					union(int32(i), int32(j))
				}
			}
		} else {
			h = (h ^ 0xFF) * fnvPrime // tx/inf row separator
			if t.grid != nil {
				cs.nbr = t.grid.AppendWithin(t.pts[i], t.infRange, cs.nbr[:0])
				for _, j := range cs.nbr {
					if int(j) == i {
						continue
					}
					h = (h ^ uint64(j)) * fnvPrime
					if j > int32(i) {
						union(int32(i), j)
					}
				}
			} else {
				for j := 0; j < n; j++ {
					if j == i || !t.pts[i].InRange(t.pts[j], t.infRange) {
						continue
					}
					h = (h ^ uint64(j)) * fnvPrime
					if j > i {
						union(int32(i), int32(j))
					}
				}
			}
		}
		cs.rowFP[i] = h
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
	if cap(cs.fps) < ncomp {
		cs.fps = make([]uint64, ncomp)
	}
	cs.fps = cs.fps[:ncomp]
	next := cs.counts[:ncomp]
	for c := range next {
		next[c] = int32(cs.offs[c])
	}
	for c := range cs.fps {
		cs.fps[c] = fnvOffset
	}
	for i := int32(0); int(i) < n; i++ {
		c := cs.groupAt[find(i)]
		cs.ids[next[c]] = NodeID(i)
		next[c]++
		h := cs.fps[c]
		h = (h ^ cs.rowFP[i]) * fnvPrime
		cs.fps[c] = (h ^ 0xFF) * fnvPrime // member separator
	}
}

func grow32(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	return buf[:n]
}

func growU64(buf []uint64, n int) []uint64 {
	if cap(buf) < n {
		return make([]uint64, n)
	}
	return buf[:n]
}
