// Package routing computes routes over a wireless topology. The paper
// uses Dynamic Source Routing only to obtain shortest paths on static
// topologies, so the substrate here is shortest-path routing (BFS in
// hop count) with stable, deterministic tie-breaking, plus the
// validation helpers the analysis relies on (the "no shortcut"
// property of Sec. II-D).
package routing

import (
	"errors"
	"fmt"

	"e2efair/internal/topology"
)

var (
	// ErrNoRoute is returned when the destination is unreachable.
	ErrNoRoute = errors.New("routing: no route")
	// ErrShortcut is returned by ValidatePath for a path where two
	// non-adjacent path nodes are within transmission range, which
	// violates the paper's shortest-path assumption.
	ErrShortcut = errors.New("routing: path has a shortcut")
	// ErrBadPath is returned for malformed paths (too short, repeated
	// nodes, or hops that are not radio links).
	ErrBadPath = errors.New("routing: malformed path")
)

// BFSTree is a reusable single-source shortest-path tree: one Build
// runs a breadth-first search whose predecessor array then answers any
// number of destination queries without re-searching. The prev and
// queue buffers are grow-only, so repeated Builds — the mobility epoch
// loop, all-pairs table construction — stop allocating after the first.
// Discovery order (a single FIFO over ascending neighbor lists) is
// identical to the seed's level-frontier search, so every path it
// returns is byte-identical to the seed's.
type BFSTree struct {
	prev  []topology.NodeID
	queue []topology.NodeID
	src   topology.NodeID
	built bool
}

// Build runs BFS from src over t, replacing any previous tree.
func (bt *BFSTree) Build(t *topology.Topology, src topology.NodeID) error {
	n := t.NumNodes()
	if int(src) < 0 || int(src) >= n {
		bt.built = false
		return fmt.Errorf("%w: bad source %d", ErrNoRoute, src)
	}
	if cap(bt.prev) < n {
		bt.prev = make([]topology.NodeID, n)
		bt.queue = make([]topology.NodeID, n)
	} else {
		bt.prev = bt.prev[:n]
		bt.queue = bt.queue[:n]
	}
	for i := range bt.prev {
		bt.prev[i] = -1
	}
	bt.prev[src] = src
	bt.queue[0] = src
	head, tail := 0, 1
	for head < tail {
		u := bt.queue[head]
		head++
		for _, v := range t.Neighbors(u) {
			if bt.prev[v] == -1 {
				bt.prev[v] = u
				bt.queue[tail] = v
				tail++
			}
		}
	}
	bt.src = src
	bt.built = true
	return nil
}

// BuildFiltered runs BFS from src over t using only the edges the keep
// predicate admits, replacing any previous tree. It is Build with a
// link mask — the route-repair search of the resilience layer, which
// must detour around administratively dead links and crashed nodes
// that the geometric topology still contains. A nil keep is Build.
func (bt *BFSTree) BuildFiltered(t *topology.Topology, src topology.NodeID, keep func(u, v topology.NodeID) bool) error {
	if keep == nil {
		return bt.Build(t, src)
	}
	n := t.NumNodes()
	if int(src) < 0 || int(src) >= n {
		bt.built = false
		return fmt.Errorf("%w: bad source %d", ErrNoRoute, src)
	}
	if cap(bt.prev) < n {
		bt.prev = make([]topology.NodeID, n)
		bt.queue = make([]topology.NodeID, n)
	} else {
		bt.prev = bt.prev[:n]
		bt.queue = bt.queue[:n]
	}
	for i := range bt.prev {
		bt.prev[i] = -1
	}
	bt.prev[src] = src
	bt.queue[0] = src
	head, tail := 0, 1
	for head < tail {
		u := bt.queue[head]
		head++
		for _, v := range t.Neighbors(u) {
			if bt.prev[v] == -1 && keep(u, v) {
				bt.prev[v] = u
				bt.queue[tail] = v
				tail++
			}
		}
	}
	bt.src = src
	bt.built = true
	return nil
}

// Source returns the root of the current tree.
func (bt *BFSTree) Source() topology.NodeID { return bt.src }

// Reached reports whether dst is reachable from the built source.
func (bt *BFSTree) Reached(dst topology.NodeID) bool {
	return bt.built && int(dst) >= 0 && int(dst) < len(bt.prev) && bt.prev[dst] != -1
}

// PathTo returns the minimum-hop path from the built source to dst,
// inclusive of both endpoints, in a freshly allocated exact-length
// slice.
func (bt *BFSTree) PathTo(dst topology.NodeID) ([]topology.NodeID, error) {
	if !bt.Reached(dst) {
		return nil, fmt.Errorf("%w: %d -> %d", ErrNoRoute, bt.src, dst)
	}
	if dst == bt.src {
		return []topology.NodeID{bt.src}, nil
	}
	hops := 1
	for at := dst; at != bt.src; at = bt.prev[at] {
		hops++
	}
	path := make([]topology.NodeID, hops)
	at := dst
	for i := hops - 1; i >= 0; i-- {
		path[i] = at
		at = bt.prev[at]
	}
	return path, nil
}

// Table holds precomputed routes between every pair of nodes, the
// static-route analogue of a converged DSR cache.
type Table struct {
	paths map[[2]topology.NodeID][]topology.NodeID
}

// BuildTable computes shortest paths between all node pairs. Pairs with
// no route are omitted from the table.
func BuildTable(t *topology.Topology) *Table {
	tbl := &Table{paths: make(map[[2]topology.NodeID][]topology.NodeID)}
	n := t.NumNodes()
	var bt BFSTree
	for s := 0; s < n; s++ {
		// One BFS per source covers all destinations; the tree's
		// buffers are reused across sources.
		src := topology.NodeID(s)
		if err := bt.Build(t, src); err != nil {
			continue
		}
		for d := 0; d < n; d++ {
			dst := topology.NodeID(d)
			if dst == src || !bt.Reached(dst) {
				continue
			}
			path, err := bt.PathTo(dst)
			if err != nil {
				continue
			}
			tbl.paths[[2]topology.NodeID{src, dst}] = path
		}
	}
	return tbl
}

// Route returns the cached path from src to dst.
func (tb *Table) Route(src, dst topology.NodeID) ([]topology.NodeID, error) {
	if src == dst {
		return []topology.NodeID{src}, nil
	}
	p, ok := tb.paths[[2]topology.NodeID{src, dst}]
	if !ok {
		return nil, fmt.Errorf("%w: %d -> %d", ErrNoRoute, src, dst)
	}
	out := make([]topology.NodeID, len(p))
	copy(out, p)
	return out, nil
}

// ValidatePath checks that the given node sequence is a usable
// multi-hop route: at least one hop, no repeated nodes, every hop a
// radio link, and — per the paper's assumption — no shortcuts (two
// path nodes more than one hop apart must be out of transmission
// range).
func ValidatePath(t *topology.Topology, path []topology.NodeID) error {
	if len(path) < 2 {
		return fmt.Errorf("%w: need at least two nodes, got %d", ErrBadPath, len(path))
	}
	seen := make(map[topology.NodeID]bool, len(path))
	for _, id := range path {
		if _, err := t.Node(id); err != nil {
			return fmt.Errorf("%w: %v", ErrBadPath, err)
		}
		if seen[id] {
			return fmt.Errorf("%w: repeated node %s", ErrBadPath, t.Name(id))
		}
		seen[id] = true
	}
	for i := 0; i+1 < len(path); i++ {
		if !t.InTxRange(path[i], path[i+1]) {
			return fmt.Errorf("%w: %s-%s is not a radio link", ErrBadPath, t.Name(path[i]), t.Name(path[i+1]))
		}
	}
	for i := 0; i < len(path); i++ {
		for j := i + 2; j < len(path); j++ {
			if t.InTxRange(path[i], path[j]) {
				return fmt.Errorf("%w: %s and %s are in range", ErrShortcut, t.Name(path[i]), t.Name(path[j]))
			}
		}
	}
	return nil
}

// PathStillValid reports whether a previously validated path remains a
// usable shortcut-free route on t: every hop still a radio link and no
// two non-adjacent path nodes within transmission range. It is the
// allocation-free revalidation the mobility epoch loop runs on kept
// routes; unlike ValidatePath it assumes structural soundness (length,
// node IDs, no repeats) from the path's first validation, checking only
// the predicates that node movement can change.
func PathStillValid(t *topology.Topology, path []topology.NodeID) bool {
	if len(path) < 2 {
		return false
	}
	for i := 0; i+1 < len(path); i++ {
		if !t.InTxRange(path[i], path[i+1]) {
			return false
		}
	}
	for i := 0; i < len(path); i++ {
		for j := i + 2; j < len(path); j++ {
			if t.InTxRange(path[i], path[j]) {
				return false
			}
		}
	}
	return true
}
