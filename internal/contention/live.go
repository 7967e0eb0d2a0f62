package contention

import (
	"math/bits"
	"slices"

	"e2efair/internal/flow"
	"e2efair/internal/topology"
)

// Live is a contention graph kept current under subflow churn together
// with its canonical maximal cliques. Joining subflows are appended as
// new vertices and leaving ones are cut out with a monotone
// renumbering, so vertex order always equals the order of a from-
// scratch NewGraph over the surviving subflow list, and Cliques equals
// that graph's MaximalCliques byte for byte. Every maximal clique
// through a vertex lies in its closed neighborhood, so each update
// rewrites only the cliques that meet the changed vertices'
// neighborhoods.
//
// A Live is not safe for concurrent use; Snapshot hands out
// independent copies that later updates never touch.
type Live struct {
	topo    *topology.Topology
	g       *Graph
	cliques []Clique
	inc     incidence

	mask  bitset // dropped-vertex scratch
	remap []int

	// The intersection update's scratch (see grow): every clique as a
	// bitset, sets[k*w : (k+1)*w], whether clique k changed, and three
	// one-set buffers.
	sets    []uint64
	changed []bool
	work    []uint64
}

// NewLive returns an empty live graph over the topology.
func NewLive(t *topology.Topology) *Live {
	return &Live{topo: t, g: &Graph{}}
}

// Add appends subflows as vertices [n, n+len(subs)), connects them, and
// updates the maximal cliques: by intersection (see grow), or, when the
// graph was empty, by enumerating them with Bron–Kerbosch, which builds
// a whole graph's cliques faster than adding its vertices one by one.
func (l *Live) Add(subs []flow.Subflow) {
	if len(subs) == 0 {
		return
	}
	first := len(l.g.subflows)
	l.g.addVertices(l.topo, subs, &l.inc)
	if first == 0 {
		l.cliques = l.g.MaximalCliques()
		return
	}
	l.grow(first)
}

// grow turns l.cliques, the canonical maximal cliques of the graph
// induced on vertices [0, first), into those of the whole graph,
// adding the vertices s = first, …, n−1 one at a time by neighbourhood
// intersection (V. Stix, "Finding all maximal cliques in dynamic
// graphs", Comput. Optim. Appl. 27, 2004). Let N = N(s) ∩ [0, s). A
// maximal clique C of the graph on [0, s) meets N in I = C ∩ N:
//
//   - if I = C, C grows to C ∪ {s};
//   - otherwise C stays maximal, and I ∪ {s} is a new maximal clique
//     when I is non-empty and no vertex of N \ I is adjacent to all
//     of I.
//
// A maximal clique K through s lies in N ∪ {s}, and K \ {s} lies in
// some C, so K = I ∪ {s} for that C's I; when N is empty, K = {s}.
// So nothing else is new, and only duplicates of one step's new
// cliques need dropping. Cliques are bitsets here, so each
// intersection is a few word operations. Re-sorting into canonical
// order makes the result byte-identical to MaximalCliques.
func (l *Live) grow(first int) {
	g := l.g
	n := len(g.subflows)
	w := wordsFor(n)
	m := len(l.cliques)
	l.sets = slices.Grow(l.sets[:0], m*w)[:m*w]
	clear(l.sets)
	l.changed = slices.Grow(l.changed[:0], m)[:m]
	clear(l.changed)
	for k, c := range l.cliques {
		set := bitset(l.sets[k*w : (k+1)*w])
		for _, v := range c {
			set.set(v)
		}
	}
	l.work = slices.Grow(l.work[:0], 3*w)[:3*w]
	nbr, inter, common := bitset(l.work[:w]), bitset(l.work[w:2*w]), bitset(l.work[2*w:])
	for s := first; s < n; s++ {
		nbr.copyFrom(g.rows[s])
		nbr.clearFrom(s)
		before := len(l.changed)
		for k := 0; k < before; k++ {
			set := bitset(l.sets[k*w : (k+1)*w])
			whole, empty := true, true
			for i, x := range set {
				y := x & nbr[i]
				inter[i] = y
				whole = whole && y == x
				empty = empty && y == 0
			}
			if whole {
				set.set(s)
				l.changed[k] = true
				continue
			}
			if empty || g.extendable(common, inter, nbr) {
				continue
			}
			inter.set(s)
			if !l.hasSet(inter, before) {
				l.addSet(inter)
			}
		}
		if nbr.empty() {
			inter.zero()
			inter.set(s)
			l.addSet(inter)
		}
	}
	size := 0
	for k, ch := range l.changed {
		if ch {
			size += bitset(l.sets[k*w : (k+1)*w]).count()
		}
	}
	flat := make([]int, 0, size)
	for k, ch := range l.changed {
		if !ch {
			continue
		}
		begin := len(flat)
		flat = bitset(l.sets[k*w : (k+1)*w]).appendMembers(flat)
		c := Clique(flat[begin:len(flat):len(flat)])
		if k < m {
			l.cliques[k] = c
		} else {
			l.cliques = append(l.cliques, c)
		}
	}
	l.cliques = canonicalCliques(l.cliques)
}

// extendable reports whether some vertex of nbr \ inter is adjacent
// to every member of inter, using common as scratch.
func (g *Graph) extendable(common, inter, nbr bitset) bool {
	common.subtract(nbr, inter)
	for wi, x := range inter {
		base := wi << 6
		for x != 0 {
			common.intersect(common, g.rows[base+bits.TrailingZeros64(x)])
			x &= x - 1
			if common.empty() {
				return false
			}
		}
	}
	return !common.empty()
}

// hasSet reports whether set equals one of the clique sets from index
// from on.
func (l *Live) hasSet(set bitset, from int) bool {
	w := len(set)
	for k := from; k < len(l.changed); k++ {
		if slices.Equal(set, l.sets[k*w:(k+1)*w]) {
			return true
		}
	}
	return false
}

// addSet appends a copy of set as a new clique.
func (l *Live) addSet(set bitset) {
	l.sets = append(l.sets, set...)
	l.changed = append(l.changed, true)
}

// Remove deletes the given vertices (ascending, distinct) and renumbers
// the rest monotonically. Cliques missing every removed vertex stay
// maximal. A clique C that loses vertices R survives as C∖R when that
// is non-empty and still maximal — no surviving vertex outside it is
// adjacent to all of it — and is not a duplicate; every maximal clique
// of the smaller graph arises this way, so nothing new is enumerated.
func (l *Live) Remove(drop []int) {
	if len(drop) == 0 {
		return
	}
	g := l.g
	n := len(g.subflows)
	w := wordsFor(n)
	if cap(l.mask) < w {
		l.mask = make(bitset, w)
	}
	mask := l.mask[:w]
	mask.zero()
	for _, v := range drop {
		mask.set(v)
	}
	sc := acquireScratch(n)
	kept := l.cliques[:0]
	for _, c := range l.cliques {
		r := c[:0]
		for _, v := range c {
			if !mask.has(v) {
				r = append(r, v)
			}
		}
		if len(r) == 0 {
			continue
		}
		if len(r) < len(c) {
			// Common neighbors of the survivors, outside the drop set.
			sc.common.copyFrom(g.rows[r[0]])
			for _, v := range r[1:] {
				sc.common.intersect(sc.common, g.rows[v])
			}
			sc.common.subtract(sc.common, mask)
			if !sc.common.empty() {
				continue
			}
		}
		kept = append(kept, r)
	}
	releaseScratch(sc)
	clear(l.cliques[len(kept):])
	if cap(l.remap) < n {
		l.remap = make([]int, n)
	}
	remap := l.remap[:n]
	g.removeVertices(drop, mask, remap, &l.inc)
	for _, c := range kept {
		for i, v := range c {
			c[i] = remap[v]
		}
	}
	l.cliques = canonicalCliques(kept)
}

// Snapshot returns independent copies of the current graph and its
// canonical maximal cliques (all cliques share one backing array).
func (l *Live) Snapshot() (*Graph, []Clique) {
	size := 0
	for _, c := range l.cliques {
		size += len(c)
	}
	flat := make([]int, 0, size)
	out := make([]Clique, len(l.cliques))
	for i, c := range l.cliques {
		flat = append(flat, c...)
		out[i] = flat[len(flat)-len(c) : len(flat) : len(flat)]
	}
	return l.g.clone(), out
}

// Detach hands the current graph and cliques to the caller without
// copying and leaves the Live empty: the one-shot form of Snapshot for
// callers that build once and discard the Live.
func (l *Live) Detach() (*Graph, []Clique) {
	g, cliques := l.g, l.cliques
	*l = Live{topo: l.topo, g: &Graph{}}
	return g, cliques
}
