package contention

import (
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
// touches only the cliques near the changed vertices.
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
}

// NewLive returns an empty live graph over the topology.
func NewLive(t *topology.Topology) *Live {
	return &Live{topo: t, g: &Graph{}}
}

// Add appends subflows as vertices [n, n+len(subs)), connects them, and
// updates the maximal cliques (see extendCliques).
func (l *Live) Add(subs []flow.Subflow) {
	if len(subs) == 0 {
		return
	}
	first := len(l.g.subflows)
	l.g.addVertices(l.topo, subs, &l.inc)
	l.cliques = l.g.extendCliques(l.cliques, first)
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
