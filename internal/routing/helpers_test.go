package routing

import (
	"errors"
	"fmt"

	"e2efair/internal/topology"
)

// ShortestPath returns a minimum-hop path from src to dst, inclusive of
// both endpoints. Ties are broken toward lower node IDs so that results
// are deterministic. A src == dst query returns the single-node path.
func ShortestPath(t *topology.Topology, src, dst topology.NodeID) ([]topology.NodeID, error) {
	n := t.NumNodes()
	if int(src) < 0 || int(src) >= n || int(dst) < 0 || int(dst) >= n {
		return nil, fmt.Errorf("%w: %d -> %d", ErrNoRoute, src, dst)
	}
	if src == dst {
		return []topology.NodeID{src}, nil
	}
	var bt BFSTree
	if err := bt.Build(t, src); err != nil {
		return nil, err
	}
	if !bt.Reached(dst) {
		return nil, fmt.Errorf("%w: %s -> %s", ErrNoRoute, t.Name(src), t.Name(dst))
	}
	return bt.PathTo(dst)
}

// NumRoutes returns the number of cached source/destination pairs.
func (tb *Table) NumRoutes() int { return len(tb.paths) }

// HasShortcut reports whether the path violates the no-shortcut
// assumption while otherwise being well formed.
func HasShortcut(t *topology.Topology, path []topology.NodeID) bool {
	err := ValidatePath(t, path)
	return errors.Is(err, ErrShortcut)
}
