// Package core implements the paper's primary contribution: optimal
// and near-optimal end-to-end fair bandwidth allocation strategies for
// multi-hop flows in wireless ad hoc networks (Sec. II–IV).
//
// All shares produced by this package are expressed as fractions of
// the effective channel capacity B, so a share of 0.25 means B/4.
// Allocation is computed independently per contending flow group,
// since distinct groups can transmit concurrently without contention.
package core

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"e2efair/internal/contention"
	"e2efair/internal/flow"
	"e2efair/internal/routing"
	"e2efair/internal/topology"
)

var (
	// ErrNoFlows is returned when an instance has no flows.
	ErrNoFlows = errors.New("core: no flows")
	// ErrInvalidPath wraps path validation failures.
	ErrInvalidPath = errors.New("core: invalid flow path")
)

// Instance is an allocation problem: a topology, a set of multi-hop
// flows over it, and the derived contention structure.
//
// An Instance is immutable after construction; the group partition the
// allocation algorithms walk is derived lazily once and memoized, so
// repeated allocations over one instance (churn re-solves on an
// instance-cache hit, strategy comparisons) never rebuild it. Use the
// New* constructors; the zero groupsOnce of a literal construction is
// also valid.
type Instance struct {
	Topo    *topology.Topology
	Flows   *flow.Set
	Graph   *contention.Graph
	Cliques []contention.Clique

	groupsOnce sync.Once
	groupsVal  []*group
}

// NewInstance validates the flows against the topology (every hop a
// radio link, no shortcuts) and derives the subflow contention graph
// and its maximal cliques. It is a Live instance built once from
// empty, so every instance shares the one incremental builder.
func NewInstance(topo *topology.Topology, flows *flow.Set) (*Instance, error) {
	if flows.Len() == 0 {
		return nil, ErrNoFlows
	}
	for _, f := range flows.Flows() {
		if err := routing.ValidatePath(topo, f.Path()); err != nil {
			return nil, fmt.Errorf("%w: flow %s: %v", ErrInvalidPath, f.ID(), err)
		}
	}
	return buildOnce(topo, flows), nil
}

// NewInstanceFromGraph builds an instance from a pre-built contention
// graph (used for abstract structures such as the pentagon example
// where no geometric topology exists). Topo may be nil; allocation
// algorithms do not consult it.
func NewInstanceFromGraph(flows *flow.Set, g *contention.Graph) (*Instance, error) {
	if flows.Len() == 0 {
		return nil, ErrNoFlows
	}
	return &Instance{Flows: flows, Graph: g, Cliques: g.MaximalCliques()}, nil
}

// FlowAllocation maps each flow to its per-subflow channel share r̂_i
// as a fraction of B. Because every subflow of a flow receives the
// same share, r̂_i is also the flow's end-to-end throughput u_i.
type FlowAllocation map[flow.ID]float64

// SubflowAllocation maps individual subflows to channel shares, used
// by strategies (such as the two-tier baseline) that allocate per
// subflow rather than per flow.
type SubflowAllocation map[flow.SubflowID]float64

// TotalEffectiveThroughput returns Σ_i u_i, the paper's objective
// (Sec. II-B), for a per-flow allocation.
func (a FlowAllocation) TotalEffectiveThroughput() float64 {
	var sum float64
	for _, r := range a {
		sum += r
	}
	return sum
}

// EndToEnd converts a per-subflow allocation into end-to-end flow
// throughputs u_i = min_j r_{i.j} (Sec. II-B).
func (a SubflowAllocation) EndToEnd(flows *flow.Set) FlowAllocation {
	out := make(FlowAllocation, flows.Len())
	for _, f := range flows.Flows() {
		u := -1.0
		for _, s := range f.Subflows() {
			r := a[s.ID]
			if u < 0 || r < u {
				u = r
			}
		}
		if u < 0 {
			u = 0
		}
		out[f.ID()] = u
	}
	return out
}

// TotalSingleHop returns Σ over subflows of their shares, the
// single-hop objective maximized by previous work.
func (a SubflowAllocation) TotalSingleHop() float64 {
	var sum float64
	for _, r := range a {
		sum += r
	}
	return sum
}

// Uniform expands a per-flow allocation into the per-subflow
// allocation in which every subflow of flow i carries r̂_i.
func (a FlowAllocation) Uniform(flows *flow.Set) SubflowAllocation {
	out := make(SubflowAllocation)
	for _, f := range flows.Flows() {
		for _, s := range f.Subflows() {
			out[s.ID] = a[f.ID()]
		}
	}
	return out
}

// group is one contending flow group with its local clique structure,
// flattened to LP-ready slices: ids orders the group's flows (instance
// insertion order), and basic, weights and the deduplicated clique
// rows are aligned with it. key serializes the group's LP exactly —
// row count and width, clique rows as uvarint counts, basic floors and
// weights as float64 bits — and is what the Allocator's churn-delta
// share cache is keyed by: equal keys imply identical LPs and
// therefore identical solutions.
// Flow IDs are deliberately excluded: the solution vector is
// positional, so isomorphic groups (same structure, renamed flows)
// share one cache entry.
type group struct {
	flows   []*flow.Flow // insertion order
	ids     []flow.ID    // flow IDs aligned with flows
	basic   []float64    // basic share w_i/Σ w_j v_j within the group
	weights []float64    // w_i
	key     string
	nrows   int // deduplicated clique rows serialized in key

	rowsOnce sync.Once
	rows     [][]float64 // see lpRows
}

// groups returns the instance's contending flow groups with their
// clique rows and basic shares, built once and memoized: every
// allocation strategy and every repeated solve over this instance
// shares one partition instead of rebuilding it per call.
func (inst *Instance) groups() []*group {
	inst.groupsOnce.Do(func() { inst.groupsVal = inst.buildGroups() })
	return inst.groupsVal
}

// vertexFlows maps each graph vertex to the ordinal of its flow in
// inst.Flows, or −1 when the flow is not in the set. Graphs built from
// the set list its subflows in flow order, which the walk confirms
// with one ID comparison per vertex; any other graph falls back to an
// ID lookup.
func (inst *Instance) vertexFlows() []int32 {
	flows := inst.Flows.Flows()
	n := inst.Graph.NumVertices()
	out := make([]int32, n)
	k := 0
	for v := 0; v < n; v++ {
		id := inst.Graph.Subflow(v).ID.Flow
		if k < len(flows) && flows[k].ID() != id {
			k++
		}
		if k >= len(flows) || flows[k].ID() != id {
			return inst.vertexFlowsByID(out)
		}
		out[v] = int32(k)
	}
	return out
}

func (inst *Instance) vertexFlowsByID(out []int32) []int32 {
	ord := make(map[flow.ID]int32, inst.Flows.Len())
	for k, f := range inst.Flows.Flows() {
		ord[f.ID()] = int32(k)
	}
	for v := range out {
		k, ok := ord[inst.Graph.Subflow(v).ID.Flow]
		if !ok {
			k = -1
		}
		out[v] = k
	}
	return out
}

// buildGroups partitions the flows into contending flow groups and
// flattens each group's LP, indexing everything by dense flow ordinal.
// Every contention edge lies in some maximal clique and every vertex in
// at least one, so uniting the flows of each clique yields exactly the
// edge-closure partition (Sec. II-A). Groups are ordered by smallest
// member ID; each group's flows keep instance order; clique rows follow
// instance clique order with duplicates (same flows, same counts — the
// same constraint) dropped after their first occurrence.
func (inst *Instance) buildGroups() []*group {
	flows := inst.Flows.Flows()
	vflow := inst.vertexFlows()
	parent := make([]int32, len(flows))
	for k := range parent {
		parent[k] = -1 // not in the graph
	}
	for _, k := range vflow {
		if k >= 0 {
			parent[k] = k
		}
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, c := range inst.Cliques {
		a, last := int32(-1), int32(-1)
		for _, v := range c {
			k := vflow[v]
			if k < 0 || k == last {
				continue // set-built graphs number a flow's subflows consecutively
			}
			last = k
			if a < 0 {
				a = find(k)
			} else if b := find(k); b != a {
				parent[b] = a
			}
		}
	}

	// Groups in root-first-appearance order; gof maps a flow ordinal
	// to its group and pos to its index within the group.
	gof := make([]int32, len(flows))
	pos := make([]int32, len(flows))
	rootGroup := make([]int32, len(flows))
	for k := range rootGroup {
		rootGroup[k] = -1
	}
	var out []*group
	for k := range flows {
		gof[k] = -1
		if parent[k] < 0 {
			continue
		}
		r := find(int32(k))
		if rootGroup[r] < 0 {
			rootGroup[r] = int32(len(out))
			out = append(out, &group{})
		}
		gi := rootGroup[r]
		g := out[gi]
		gof[k], pos[k] = gi, int32(len(g.flows))
		g.flows = append(g.flows, flows[k])
		g.ids = append(g.ids, flows[k].ID())
	}

	for _, g := range out {
		g.basic = make([]float64, len(g.flows))
		g.weights = make([]float64, len(g.flows))
		var denom float64
		for _, f := range g.flows {
			denom += f.Weight() * float64(f.VirtualLength())
		}
		for i, f := range g.flows {
			g.weights[i] = f.Weight()
			if denom > 0 {
				g.basic[i] = f.Weight() / denom
			}
		}
	}

	// Clique rows, deduplicated per group in instance clique order,
	// serialize straight into each group's LP key: a row is dropped when
	// an earlier row of its group has the same hash and the same bytes.
	// The counts n_{i,k} are small non-negative integers, written as
	// uvarints; every row holds exactly width of them, so the
	// concatenation decodes one way and the key stays injective.
	sc := keyScratch.Get().(*groupKeyScratch)
	defer keyScratch.Put(sc)
	sc.reset(len(out))
	for _, c := range inst.Cliques {
		if len(c) == 0 || vflow[c[0]] < 0 {
			continue
		}
		gi := gof[vflow[c[0]]]
		width := len(out[gi].flows)
		sc.row = slices.Grow(sc.row[:0], width)[:width]
		clear(sc.row)
		for _, v := range c {
			if k := vflow[v]; k >= 0 {
				sc.row[pos[k]]++
			}
		}
		h := uint64(14695981039346656037)
		for _, x := range sc.row {
			h = h*0x100000001b3 ^ math.Float64bits(x)
		}
		sc.enc = sc.enc[:0]
		for _, x := range sc.row {
			sc.enc = binary.AppendUvarint(sc.enc, uint64(x))
		}
		key, ends := sc.keys[gi], sc.ends[gi]
		dup := false
		for r, rh := range sc.hashes[gi] {
			if rh != h {
				continue
			}
			begin := keyHeader
			if r > 0 {
				begin = ends[r-1]
			}
			if bytes.Equal(key[begin:ends[r]], sc.enc) {
				dup = true
				break
			}
		}
		if !dup {
			sc.keys[gi] = append(key, sc.enc...)
			sc.hashes[gi] = append(sc.hashes[gi], h)
			sc.ends[gi] = append(ends, len(sc.keys[gi]))
		}
	}
	for gi, g := range out {
		key := sc.keys[gi]
		g.nrows = len(sc.hashes[gi])
		binary.LittleEndian.PutUint64(key[0:], uint64(g.nrows))
		binary.LittleEndian.PutUint64(key[8:], uint64(len(g.flows)))
		key = appendFloats(key, g.basic)
		key = appendFloats(key, g.weights)
		g.key = string(key)
		sc.keys[gi] = key
	}
	if len(out) > 1 {
		slices.SortFunc(out, func(a, b *group) int { return cmp.Compare(minID(a.ids), minID(b.ids)) })
	}
	return out
}

// minID returns the smallest of ids.
func minID(ids []flow.ID) flow.ID {
	m := ids[0]
	for _, id := range ids[1:] {
		if id < m {
			m = id
		}
	}
	return m
}

// appendFloats serializes the exact bits of xs onto buf.
func appendFloats(buf []byte, xs []float64) []byte {
	for _, v := range xs {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	return buf
}

// keyHeader is the byte length of an LP key's header: the row count
// and the row width, 8 bytes each.
const keyHeader = 16

// groupKeyScratch holds buildGroups' per-group key buffers, row
// hashes and row end offsets, pooled so that building a group's key
// allocates only the key string itself.
type groupKeyScratch struct {
	keys   [][]byte
	hashes [][]uint64
	ends   [][]int
	row    []float64
	enc    []byte
}

var keyScratch = sync.Pool{New: func() any { return new(groupKeyScratch) }}

// reset readies the scratch for n groups, each key holding just a
// zeroed header.
func (sc *groupKeyScratch) reset(n int) {
	for len(sc.keys) < n {
		sc.keys = append(sc.keys, nil)
		sc.hashes = append(sc.hashes, nil)
		sc.ends = append(sc.ends, nil)
	}
	for gi := 0; gi < n; gi++ {
		sc.keys[gi] = append(sc.keys[gi][:0], make([]byte, keyHeader)...)
		sc.hashes[gi] = sc.hashes[gi][:0]
		sc.ends[gi] = sc.ends[gi][:0]
	}
}

// lpRows returns the group's deduplicated clique rows n_{i,k}, decoded
// from the LP key's uvarint counts on first use: a solve served from
// the share cache never needs them.
func (g *group) lpRows() [][]float64 {
	g.rowsOnce.Do(func() {
		w := len(g.ids)
		flat := make([]float64, g.nrows*w)
		enc := []byte(g.key[keyHeader:])
		for i := range flat {
			v, n := binary.Uvarint(enc)
			flat[i] = float64(v)
			enc = enc[n:]
		}
		g.rows = make([][]float64, g.nrows)
		for r := range g.rows {
			g.rows[r] = flat[r*w : (r+1)*w : (r+1)*w]
		}
	})
	return g.rows
}

// BasicShares returns each flow's basic share
// r̂_i = w_i / Σ_j w_j·v_j computed within its contending flow group
// (Sec. II-D).
func BasicShares(inst *Instance) FlowAllocation {
	out := make(FlowAllocation, inst.Flows.Len())
	for _, g := range inst.groups() {
		for i, id := range g.ids {
			out[id] = g.basic[i]
		}
	}
	return out
}

// SingleHopShares returns the allocation that treats subflows as
// independent single-hop flows and divides B across all of them
// (Eq. 2): r̂_i = w_i / Σ_j w_j·l_j per group. It is the strawman the
// paper improves on: flows are penalized for their full length rather
// than their virtual length.
func SingleHopShares(inst *Instance) FlowAllocation {
	out := make(FlowAllocation, inst.Flows.Len())
	for _, g := range inst.groups() {
		var denom float64
		for _, f := range g.flows {
			denom += f.Weight() * float64(f.Length())
		}
		for _, f := range g.flows {
			if denom > 0 {
				out[f.ID()] = f.Weight() / denom
			}
		}
	}
	return out
}

// FairnessConstrained returns the allocation meeting the strict
// fairness constraint |r̂_i/w_i − r̂_j/w_j| < ε at the Prop. 1 upper
// bound: r̂_i = w_i·B/ω_Ω per group, where ω_Ω is the group's weighted
// clique number. As the pentagon example shows, this bound is not
// always schedulable; see Schedulable.
func FairnessConstrained(inst *Instance) FlowAllocation {
	out := make(FlowAllocation, inst.Flows.Len())
	for _, g := range inst.groups() {
		omega := g.weightedCliqueNumber()
		for _, f := range g.flows {
			if omega > 0 {
				out[f.ID()] = f.Weight() / omega
			}
		}
	}
	return out
}

// weightedCliqueNumber computes ω_Ω over the group's cliques using
// flow weights: Σ_i n_{i,k}·w_i maximized over k. Row deduplication
// only drops identical rows, so the maximum is unchanged.
func (g *group) weightedCliqueNumber() float64 {
	var best float64
	for _, row := range g.lpRows() {
		var size float64
		for i, n := range row {
			size += n * g.weights[i]
		}
		if size > best {
			best = size
		}
	}
	return best
}

// UpperBoundTotal returns the Prop. 1 upper bound of total effective
// throughput, Σ_i w_i·B/ω_Ω summed over groups.
func UpperBoundTotal(inst *Instance) float64 {
	var total float64
	for _, g := range inst.groups() {
		omega := g.weightedCliqueNumber()
		if omega <= 0 {
			continue
		}
		var wsum float64
		for _, f := range g.flows {
			wsum += f.Weight()
		}
		total += wsum / omega
	}
	return total
}

// sortIDs sorts flow IDs lexicographically; used for deterministic
// map traversal in diagnostics.
func sortIDs(ids []flow.ID) {
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
}
