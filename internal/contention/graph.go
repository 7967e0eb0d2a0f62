// Package contention builds and analyzes subflow contention graphs
// (Sec. II-A of the paper): vertices are backlogged subflows, and two
// subflows contend — are connected — when the source or destination of
// one is within transmission range of the source or destination of the
// other. The package provides contending-flow-group partitioning,
// maximal-clique enumeration, the weighted clique number ω_Ω, and the
// graph colouring used to justify the virtual length.
package contention

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

	"e2efair/internal/flow"
	"e2efair/internal/topology"
)

// ErrUnknownSubflow is returned when a query names a subflow that is
// not a vertex of the graph.
var ErrUnknownSubflow = errors.New("contention: unknown subflow")

// Graph is a subflow contention graph. Vertices are indexed densely in
// the order the subflows were supplied. Adjacency is stored as one
// word-packed bitset row per vertex, which keeps the Bron–Kerbosch
// inner loops to a handful of word operations per 64 vertices. Rows
// are carved back to back from one backing array, so a whole graph
// copies with one memmove.
type Graph struct {
	subflows []flow.Subflow
	rows     []bitset // rows[i] holds the neighbors of vertex i
	words    []uint64 // rows[i] = words[i*w : (i+1)*w], w = wordsFor(len(subflows))
	degrees  []int

	indexOnce sync.Once
	index     map[flow.SubflowID]int // built on first VertexOf
}

// newGraphShell builds a graph with the given vertices and no edges.
func newGraphShell(subflows []flow.Subflow) *Graph {
	g := &Graph{
		subflows: slices.Clone(subflows),
		degrees:  make([]int, len(subflows)),
	}
	g.setVertexCount(len(subflows))
	return g
}

// setVertexCount re-carves the row storage for n vertices, keeping the
// bits of rows [0, min(n, old)) and zeroing any new rows. Rows narrow
// in place; they widen (a 64-vertex boundary crossed) or outgrow the
// backing into a fresh array with room to spare, so steady churn
// around one size reallocates nothing.
func (g *Graph) setVertexCount(n int) {
	old := len(g.rows)
	keep := min(old, n)
	nw := wordsFor(n)
	ow := nw
	if old > 0 {
		ow = len(g.rows[0])
	}
	switch {
	case nw > ow || cap(g.words) < n*nw:
		capacity := n * nw
		if old > 0 {
			capacity += capacity / 4 // headroom for churn around one size
		}
		words := make([]uint64, n*nw, capacity)
		for i := 0; i < keep; i++ {
			copy(words[i*nw:], g.rows[i])
		}
		g.words = words
	case nw < ow:
		// Row i moves to i*nw ≤ i*ow, never past row i+1's old start.
		for i := 0; i < keep; i++ {
			copy(g.words[i*nw:i*nw+nw], g.words[i*ow:i*ow+nw])
		}
		g.words = g.words[:n*nw]
	default:
		g.words = g.words[:n*nw]
		clear(g.words[keep*nw:])
	}
	g.rows = g.rows[:0]
	for i := 0; i < n; i++ {
		g.rows = append(g.rows, g.words[i*nw:(i+1)*nw:(i+1)*nw])
	}
}

// clone returns an independent copy of the graph's vertices and edges.
func (g *Graph) clone() *Graph {
	c := &Graph{
		subflows: slices.Clone(g.subflows),
		degrees:  slices.Clone(g.degrees),
		words:    slices.Clone(g.words),
		rows:     make([]bitset, len(g.rows)),
	}
	w := wordsFor(len(g.subflows))
	for i := range c.rows {
		c.rows[i] = c.words[i*w : (i+1)*w : (i+1)*w]
	}
	return c
}

// addEdge connects vertices i and j (idempotence is the caller's
// concern; NewGraphFromEdges checks first).
func (g *Graph) addEdge(i, j int) {
	g.rows[i].set(j)
	g.rows[j].set(i)
	g.degrees[i]++
	g.degrees[j]++
}

// Contend reports whether subflows a and b spatially contend under the
// paper's model: an endpoint of one within transmission range of an
// endpoint of the other. A subflow does not contend with itself.
func Contend(t *topology.Topology, a, b flow.Subflow) bool {
	if a.ID == b.ID {
		return false
	}
	ends := [2]topology.NodeID{a.Src, a.Dst}
	other := [2]topology.NodeID{b.Src, b.Dst}
	for _, u := range ends {
		for _, v := range other {
			if u == v || t.InTxRange(u, v) {
				return true
			}
		}
	}
	return false
}

// BuildGraph constructs the contention graph for every subflow of the
// given flows over the given topology.
func BuildGraph(t *topology.Topology, flows *flow.Set) *Graph {
	return NewGraph(t, flows.Subflows())
}

// incidenceCutoff is the vertex count below which testing each new
// vertex against every vertex beats building the incidence index.
const incidenceCutoff = 24

// NewGraph constructs the contention graph over an explicit subflow
// list, which lets callers build local (per-node) graphs. It is the
// incremental build of addVertices applied to an empty graph, the same
// path a Live graph takes when subflows join.
func NewGraph(t *topology.Topology, subflows []flow.Subflow) *Graph {
	g := &Graph{}
	g.addVertices(t, subflows, &incidence{})
	return g
}

// incidence is a node → vertex index: the vertices with an endpoint at
// node u are chained from head[u] through next, where slot 2v+e stands
// for endpoint e (0 = source, 1 = destination) of vertex v. head is nil
// until a graph first reaches incidenceCutoff vertices.
type incidence struct {
	head []int32 // per node; -1 = no vertex
	next []int32 // per endpoint slot
}

// push chains vertex v's endpoints into the index.
func (x *incidence) push(v int, sf *flow.Subflow) {
	for len(x.next) < 2*v+2 {
		x.next = append(x.next, -1)
	}
	x.next[2*v] = x.head[sf.Src]
	x.head[sf.Src] = int32(2 * v)
	if sf.Dst != sf.Src {
		x.next[2*v+1] = x.head[sf.Dst]
		x.head[sf.Dst] = int32(2*v + 1)
	}
}

// unchain empties the chains of every endpoint node of vs.
func (x *incidence) unchain(vs []flow.Subflow) {
	for i := range vs {
		x.head[vs[i].Src], x.head[vs[i].Dst] = -1, -1
	}
}

// addVertices appends subflows as vertices [first, n) and connects each
// to every contending vertex, old or new. Subflow j contends with i
// exactly when some endpoint of j is an endpoint u of i or one of u's
// transmission-range neighbors, so scanning the incidence chains of
// {u} ∪ Neighbors(u) enumerates i's contenders with no post-filter;
// the result is byte-identical to the all-pairs Contend sweep pinned by
// the randomized cross-check tests. Small graphs skip the index and
// test each new vertex against every earlier one.
func (g *Graph) addVertices(t *topology.Topology, subs []flow.Subflow, x *incidence) {
	first := len(g.subflows)
	g.subflows = append(g.subflows, subs...)
	n := len(g.subflows)
	for range subs {
		g.degrees = append(g.degrees, 0)
	}
	g.setVertexCount(n)
	if t == nil || (x.head == nil && n < incidenceCutoff) {
		for i := first; i < n; i++ {
			for j := 0; j < i; j++ {
				if Contend(t, g.subflows[i], g.subflows[j]) {
					g.addEdge(i, j)
				}
			}
		}
		return
	}
	if x.head == nil {
		x.head = make([]int32, t.NumNodes())
		for u := range x.head {
			x.head[u] = -1
		}
		first = 0 // index and connect every vertex
	}
	for i := first; i < n; i++ {
		x.push(i, &g.subflows[i])
	}
	for i := first; i < n; i++ {
		sf := &g.subflows[i]
		ends := [2]topology.NodeID{sf.Src, sf.Dst}
		for e, u := range ends {
			if e == 1 && ends[0] == ends[1] {
				break
			}
			g.connectChain(i, x, u)
			for _, v := range t.Neighbors(u) {
				g.connectChain(i, x, v)
			}
		}
	}
}

// connectChain adds an edge from vertex i to every vertex on node u's
// incidence chain not already connected. Each is a true contender by
// construction; only Contend's self/duplicate-ID exclusion applies.
func (g *Graph) connectChain(i int, x *incidence, u topology.NodeID) {
	row := g.rows[i]
	for s := x.head[u]; s >= 0; s = x.next[s] {
		j := int(s >> 1)
		if j == i || row.has(j) || g.subflows[j].ID == g.subflows[i].ID {
			continue
		}
		g.addEdge(i, j)
	}
}

// removeVertices deletes the vertices marked in drop (ascending, one
// entry per vertex, mask holding the same set) and renumbers the rest
// monotonically, so surviving vertices keep their relative order.
// remap receives each old vertex's new index (−1 for dropped ones).
// The incidence index, when built, is rebuilt over the survivors.
func (g *Graph) removeVertices(drop []int, mask bitset, remap []int, x *incidence) {
	n := len(g.subflows)
	if x.head != nil {
		x.unchain(g.subflows)
	}
	for i := 0; i < n; i++ {
		if !mask.has(i) {
			g.degrees[i] -= intersectCount(g.rows[i], mask)
		}
	}
	w := 0
	for i := 0; i < n; i++ {
		if mask.has(i) {
			remap[i] = -1
			continue
		}
		row := g.rows[i]
		// Cut dropped runs from the top down so lower run bounds stay
		// valid as indices shift.
		for hi := len(drop); hi > 0; {
			lo := hi - 1
			for lo > 0 && drop[lo-1] == drop[lo]-1 {
				lo--
			}
			row.cut(drop[lo], drop[hi-1]+1)
			hi = lo
		}
		if w != i {
			copy(g.rows[w], row)
			g.subflows[w] = g.subflows[i]
			g.degrees[w] = g.degrees[i]
		}
		remap[i] = w
		w++
	}
	clear(g.subflows[w:])
	g.subflows = g.subflows[:w]
	g.degrees = g.degrees[:w]
	g.setVertexCount(w)
	if x.head != nil {
		for i := range g.subflows {
			x.push(i, &g.subflows[i])
		}
	}
}

// NewGraphFromEdges builds a contention graph directly from an
// adjacency list keyed by vertex index. It exists for synthetic
// contention structures — such as the paper's pentagon example — that
// are specified abstractly rather than geometrically.
func NewGraphFromEdges(subflows []flow.Subflow, edges [][2]int) (*Graph, error) {
	g := newGraphShell(subflows)
	for _, e := range edges {
		i, j := e[0], e[1]
		if i < 0 || j < 0 || i >= len(subflows) || j >= len(subflows) || i == j {
			return nil, fmt.Errorf("contention: bad edge (%d,%d) for %d vertices", i, j, len(subflows))
		}
		if !g.rows[i].has(j) {
			g.addEdge(i, j)
		}
	}
	return g, nil
}

// NumVertices returns the number of subflows in the graph.
func (g *Graph) NumVertices() int { return len(g.subflows) }

// Subflow returns the subflow at vertex index i.
func (g *Graph) Subflow(i int) flow.Subflow { return g.subflows[i] }

// Subflows returns all vertices in index order. The slice is shared;
// callers must not modify it.
func (g *Graph) Subflows() []flow.Subflow { return g.subflows }

// VertexOf returns the vertex index of a subflow ID.
func (g *Graph) VertexOf(id flow.SubflowID) (int, error) {
	g.indexOnce.Do(func() {
		g.index = make(map[flow.SubflowID]int, len(g.subflows))
		for i, s := range g.subflows {
			g.index[s.ID] = i
		}
	})
	i, ok := g.index[id]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrUnknownSubflow, id)
	}
	return i, nil
}

// Adjacent reports whether vertices i and j contend.
func (g *Graph) Adjacent(i, j int) bool { return g.rows[i].has(j) }

// Degree returns the number of contenders of vertex i.
func (g *Graph) Degree(i int) int { return g.degrees[i] }

// NumEdges returns the number of contention edges.
func (g *Graph) NumEdges() int {
	sum := 0
	for _, d := range g.degrees {
		sum += d
	}
	return sum / 2
}

// Neighbors returns the vertex indices adjacent to i, ascending. It
// allocates a fresh slice per call; hot paths should use
// AppendNeighbors.
func (g *Graph) Neighbors(i int) []int {
	return g.rows[i].appendMembers(make([]int, 0, g.degrees[i]))
}

// AppendNeighbors appends the vertex indices adjacent to i to buf in
// ascending order and returns the extended slice — the zero-allocation
// form of Neighbors for reused buffers.
func (g *Graph) AppendNeighbors(i int, buf []int) []int {
	return g.rows[i].appendMembers(buf)
}

// Components partitions the vertices into connected components, each
// sorted ascending, ordered by smallest member. Components correspond
// to the paper's contending flow groups at subflow granularity.
func (g *Graph) Components() [][]int {
	seen := make([]bool, len(g.subflows))
	var comps [][]int
	var scratch []int
	for v := range g.subflows {
		if seen[v] {
			continue
		}
		var comp []int
		stack := []int{v}
		seen[v] = true
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, u)
			scratch = g.rows[u].appendMembers(scratch[:0])
			for _, w := range scratch {
				if !seen[w] {
					seen[w] = true
					stack = append(stack, w)
				}
			}
		}
		sort.Ints(comp)
		comps = append(comps, comp)
	}
	return comps
}

// FlowGroups partitions flows into contending flow groups (Sec. II-A):
// two flows are grouped when any of their subflows contend, closed
// transitively. Groups are returned as sorted lists of flow IDs,
// ordered by first member.
func (g *Graph) FlowGroups() [][]flow.ID {
	groupOf := make(map[flow.ID]int)
	next := 0
	parent := make([]int, 0)
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	idOf := func(f flow.ID) int {
		if id, ok := groupOf[f]; ok {
			return id
		}
		groupOf[f] = next
		parent = append(parent, next)
		next++
		return groupOf[f]
	}
	// Subflows of the same flow always share a group even when the
	// flow's own hops were filtered out of contention (single-hop
	// flows trivially so).
	for _, s := range g.subflows {
		idOf(s.ID.Flow)
	}
	var scratch []int
	for i := 0; i < len(g.subflows); i++ {
		scratch = g.rows[i].appendMembers(scratch[:0])
		for _, j := range scratch {
			if j > i {
				union(idOf(g.subflows[i].ID.Flow), idOf(g.subflows[j].ID.Flow))
			}
		}
	}
	byRoot := make(map[int][]flow.ID)
	for f, id := range groupOf {
		r := find(id)
		byRoot[r] = append(byRoot[r], f)
	}
	var groups [][]flow.ID
	for _, members := range byRoot {
		sort.Slice(members, func(a, b int) bool { return members[a] < members[b] })
		groups = append(groups, members)
	}
	sort.Slice(groups, func(a, b int) bool { return groups[a][0] < groups[b][0] })
	return groups
}

// InducedSubgraph returns the subgraph over the given vertex indices.
// The returned graph re-indexes vertices densely in the order given.
func (g *Graph) InducedSubgraph(vertices []int) *Graph {
	subs := make([]flow.Subflow, len(vertices))
	for i, v := range vertices {
		subs[i] = g.subflows[v]
	}
	sg := newGraphShell(subs)
	for i := range vertices {
		for j := i + 1; j < len(vertices); j++ {
			if g.rows[vertices[i]].has(vertices[j]) {
				sg.addEdge(i, j)
			}
		}
	}
	return sg
}

// IsIndependentSet reports whether no two of the given vertices are
// adjacent.
func (g *Graph) IsIndependentSet(vertices []int) bool {
	for i := 0; i < len(vertices); i++ {
		for j := i + 1; j < len(vertices); j++ {
			if g.rows[vertices[i]].has(vertices[j]) {
				return false
			}
		}
	}
	return true
}

// IsClique reports whether all the given vertices are pairwise
// adjacent.
func (g *Graph) IsClique(vertices []int) bool {
	for i := 0; i < len(vertices); i++ {
		for j := i + 1; j < len(vertices); j++ {
			if !g.rows[vertices[i]].has(vertices[j]) {
				return false
			}
		}
	}
	return true
}
