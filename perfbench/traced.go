package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"e2efair/internal/contention"
	"e2efair/internal/core"
	"e2efair/internal/durable"
	"e2efair/internal/flow"
	"e2efair/internal/netsim"
	"e2efair/internal/routing"
	"e2efair/internal/serve"
	"e2efair/internal/topology"
)

// runTraced is the traced run. It replays the workload through the
// public functions of each layer, recording spans around every call,
// and derives the per-layer metrics from span self times and counts.
// Its own timings are never reported as end-to-end numbers.
func runTraced(c runConfig, spansPath string) (*report, error) {
	r := newReport()
	rec := newRecorder(true)
	w, err := c.wl.build(c.seed)
	if err != nil {
		return nil, err
	}
	if err := traceTopology(w, rec, r); err != nil {
		return nil, err
	}

	srv, err := startServer(c, w, "main")
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer func() {
		if srv != nil {
			srv.close()
		}
	}()
	warmUp(c, w, srv)
	p := makePlan(c.wl, w, c.seed, c.phase(c.wl.openFrac), "s")
	st0, err := srv.stats()
	if err != nil {
		return nil, err
	}
	open := openLoop(srv, p.sessions, p.ops, c.inflight(), rec, clock{})
	st1, err := srv.stats()
	if err != nil {
		return nil, err
	}
	r.tally.merge(open.tally)
	r.notes["open_loop"] = open.tally
	regLat := sortedMs(open.regLat)
	regP50, _ := percentile(regLat, 0.5)
	r.notes["traced_register_p50_ms"] = regP50
	lag, _ := percentile(sortedMs(open.lag), 0.99)
	r.metrics["loadgen.lag_p99_ms"] = lag
	putServeStats(r, st0, st1)

	final, err := srv.shares()
	if err != nil {
		return nil, err
	}
	want, err := expectedShares(w.topo, w.background)
	if err != nil {
		return nil, err
	}
	r.fail(wrap("published shares", sameShares(final, want)))

	var readEng *serve.Engine
	if ds, ok := srv.(*daemonServer); ok {
		r.metrics["edge.http_429"] = float64(ds.refusals(429))
		r.metrics["edge.http_503"] = float64(ds.refusals(503))
		ds.httpHost.close()
		ds.proc.kill()
		if err := traceRecovery(c, w, ds.dataDir, final, rec, r); err != nil {
			return nil, err
		}
		srv = nil
		// The same schedule against an in-process durable engine: the
		// HTTP/JSON edge is the difference.
		eng, inproc, err := inProcessRun(c, w, p)
		if err != nil {
			return nil, err
		}
		defer eng.Close()
		inP50, _ := percentile(sortedMs(inproc.regLat), 0.5)
		r.notes["inprocess_register_p50_ms"] = inP50
		r.metrics["edge.register_overhead_ms"] = regP50 - inP50
		readEng = eng
	} else {
		eh := srv.(*engineServer)
		readEng = eh.eng
		if err := edgeProbe(c, w, p, eh, r); err != nil {
			return nil, err
		}
	}
	r.metrics["serve.read_ns"] = getShareNs(readEng, w.background[0].ID())

	batch := max(1, int(math.Round(r.metrics["serve.events_per_batch"])))
	churn := churnOps(p, open)
	// Untraced and traced passes alternate twice so warm-up favours
	// neither side; only the last traced pass's spans are kept.
	var plain, traced time.Duration
	var last *churnReplay
	for pass := 0; pass < 4; pass++ {
		tr := pass%2 == 1
		var pr *recorder
		if tr {
			pr = newRecorder(true)
		}
		res, err := replayChurn(c, w, churn, batch, pr, fmt.Sprintf("replay%d", pass))
		if err != nil {
			return nil, err
		}
		r.fail(wrap("replayed shares", sameShares(res.shares, final)))
		if !tr {
			plain += res.wall
			continue
		}
		traced += res.wall
		last = res
		if pass == 3 {
			rec.adopt(pr)
		}
	}
	r.metrics["trace.overhead_frac"] = traced.Seconds()/plain.Seconds() - 1
	r.notes["replay_batches"] = last.batches
	r.notes["replay_batch_size"] = batch
	putReplayLayers(r, rec.snapshot(), last, c.wl.daemon, regP50)
	if !c.wl.daemon {
		if err := traceWAL(c, w, last.wal, final, rec, r); err != nil {
			return nil, err
		}
	}

	if err := traceSim(c, w, rec, r); err != nil {
		return nil, err
	}
	if err := rec.writeJSONL(spansPath); err != nil {
		return nil, err
	}
	r.notes["spans"] = spansPath
	return r, nil
}

// traceTopology times rebuilding the workload topology from its node
// layout (topology.Builder) and radio-component extraction.
func traceTopology(w *world, rec *recorder, r *report) error {
	var builds, comps []float64
	for i := 0; i < 5; i++ {
		sp := rec.begin("topology.build", noParent, int64(i))
		t0 := time.Now()
		b := topology.NewBuilder(w.topo.TxRange(), w.topo.InterferenceRange())
		for id, name := range w.topo.Names() {
			p := w.topo.Position(topology.NodeID(id))
			b.Add(name, p.X, p.Y)
		}
		t, err := b.Build()
		builds = append(builds, ms(time.Since(t0)))
		rec.end(sp)
		if err != nil {
			return err
		}
		if t.AdjacencyFingerprint() != w.topo.AdjacencyFingerprint() {
			r.fail(fmt.Errorf("rebuilt topology differs"))
		}
	}
	var cs topology.RadioComponentSet
	for i := 0; i < 200; i++ {
		sp := rec.begin("topology.components", noParent, int64(i))
		t0 := time.Now()
		w.topo.AppendRadioComponents(&cs)
		comps = append(comps, float64(time.Since(t0).Nanoseconds())/1e3)
		rec.end(sp)
	}
	r.metrics["topology.build_ms"] = median(builds)
	r.metrics["topology.components_us"] = median(comps)
	r.metrics["netsim.components"] = float64(cs.Len())
	return nil
}

// putServeStats derives the serve and cache metrics from the engine's
// own counters over the open-loop phase.
func putServeStats(r *report, a, b serve.Stats) {
	batches := float64(b.Batches - a.Batches)
	rebuilds := float64(b.Rebuilds - a.Rebuilds)
	solved, reused := float64(b.GroupsSolved-a.GroupsSolved), float64(b.GroupsReused-a.GroupsReused)
	r.metrics["serve.events_per_batch"] = float64(b.Events-a.Events) / math.Max(batches, 1)
	r.metrics["serve.rebuilds"] = rebuilds
	r.metrics["serve.rejected"] = float64(b.Rejected - a.Rejected)
	r.metrics["core.groups_solved_per_batch"] = solved / math.Max(rebuilds, 1)
	r.metrics["core.groups_reused_per_batch"] = reused / math.Max(rebuilds, 1)
	r.metrics["core.cache_hit_frac"] = reused / math.Max(solved+reused, 1)
	r.metrics["core.cache_evictions"] = float64(b.CacheEvictions - a.CacheEvictions)
}

// inProcessRun runs the open-loop plan against an in-process engine
// configured like the daemon (durable, batch fsync, no periodic
// snapshots) with the same concurrency.
func inProcessRun(c runConfig, w *world, p plan) (*serve.Engine, *openResult, error) {
	store, err := openStore(filepath.Join(c.dir, "inprocess-data"))
	if err != nil {
		return nil, nil, err
	}
	eng, err := serve.New(serve.Config{Topo: w.topo, Workers: 1, Durable: store})
	if err != nil {
		return nil, nil, err
	}
	if err := registerInOrder(eng, w.background); err != nil {
		eng.Close()
		return nil, nil, err
	}
	h := &engineHost{eng}
	warmUp(c, w, h)
	return eng, openLoop(h, p.sessions, p.ops, c.inflight(), nil, clock{}), nil
}

// edgeProbe measures the HTTP/JSON edge for a workload whose host is
// in-process: the same sessions, one at a time, registered with a
// volatile fairallocd over the same topology and with the engine; the
// p50 difference is the edge's cost per register at zero load.
func edgeProbe(c runConfig, w *world, p plan, eh *engineServer, r *report) error {
	dir := filepath.Join(c.dir, "edge")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	ds, err := startDaemonServer(c.fairallocd, dir, w.topo, w.background, c.conns(), false)
	if err != nil {
		return err
	}
	defer ds.close()
	probe := func(h host) (float64, error) {
		var lat []time.Duration
		for i, s := range p.sat[:min(len(p.sat), 100)] {
			s.ID = flow.ID(fmt.Sprintf("edge%d", i))
			t0 := time.Now()
			if out, err := h.register(s); out != outOK {
				return 0, fmt.Errorf("edge probe register: %v", err)
			}
			lat = append(lat, time.Since(t0))
			if out, err := h.remove(s.ID); out != outOK {
				return 0, fmt.Errorf("edge probe remove: %v", err)
			}
		}
		v, _ := percentile(sortedMs(lat), 0.5)
		return v, nil
	}
	httpP50, err := probe(ds)
	if err != nil {
		return err
	}
	inP50, err := probe(eh)
	if err != nil {
		return err
	}
	r.notes["edge_probe_p50_ms"] = map[string]float64{"http": httpP50, "inprocess": inP50}
	r.metrics["edge.register_overhead_ms"] = httpP50 - inP50
	r.metrics["edge.http_429"] = float64(ds.refusals(429))
	r.metrics["edge.http_503"] = float64(ds.refusals(503))
	return nil
}

// walBatch is one replayed batch's events for a shard's WAL.
type walBatch struct {
	shard int
	evs   []durable.Event
}

// traceWAL gives a volatile workload's durable metrics: its replayed
// batches appended through durable.ShardLog.AppendBatch to a
// benchmark-owned store with the daemon's fsync policy — what the same
// churn would cost durable — then recovery timed on that store.
func traceWAL(c runConfig, w *world, batches []walBatch, final core.FlowAllocation, rec *recorder, r *report) error {
	var cs topology.RadioComponentSet
	w.topo.AppendRadioComponents(&cs)
	dir := filepath.Join(c.dir, "wal")
	st, err := openStore(dir)
	if err != nil {
		return err
	}
	logs, err := st.Attach(cs.Len(), w.topo.AdjacencyFingerprint())
	if err != nil {
		return err
	}
	var before int64
	for _, l := range logs {
		l.Recovered()
		before -= l.Size()
	}
	epochs := make([]uint64, len(logs))
	var total time.Duration
	for i, b := range batches {
		epochs[b.shard]++
		sp := rec.begin("durable.append", noParent, int64(i))
		t0 := time.Now()
		err := logs[b.shard].AppendBatch(&durable.BatchRecord{Epoch: epochs[b.shard], Events: b.evs})
		total += time.Since(t0)
		rec.end(sp)
		if err != nil {
			return err
		}
	}
	for _, l := range logs {
		before += l.Size()
		if err := l.Close(); err != nil {
			return err
		}
	}
	st.Detach()
	n := math.Max(float64(len(batches)), 1)
	r.metrics["durable.append_us"] = float64(total.Microseconds()) / n
	r.metrics["durable.bytes_per_batch"] = float64(before) / n
	return traceRecovery(c, w, dir, final, rec, r)
}

// getShareNs times Engine.GetShare on a live engine, median of five
// rounds of 200k reads.
func getShareNs(eng *serve.Engine, id flow.ID) float64 {
	const n = 200_000
	var rounds []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		for j := 0; j < n; j++ {
			eng.GetShare(id)
		}
		rounds = append(rounds, float64(time.Since(t0).Nanoseconds())/n)
	}
	return median(rounds)
}

// traceRecovery times the durable layer's recovery on copies of a data
// directory (the killed daemon's, or traceWAL's): durable.Open + Attach
// + Recovered, and serve.New over the store, whose shares must equal
// those published before.
func traceRecovery(c runConfig, w *world, dataDir string, before core.FlowAllocation, rec *recorder, r *report) error {
	var cs topology.RadioComponentSet
	w.topo.AppendRadioComponents(&cs)
	var replays, recovers []float64
	for i := 0; i < 3; i++ {
		cp := filepath.Join(c.dir, "killed-copy-"+strconv.Itoa(i))
		if err := copyDir(dataDir, cp); err != nil {
			return err
		}
		sp := rec.begin("durable.replay", noParent, int64(i))
		t0 := time.Now()
		st, err := openStore(cp)
		if err != nil {
			return err
		}
		logs, err := st.Attach(cs.Len(), w.topo.AdjacencyFingerprint())
		if err != nil {
			return err
		}
		for _, l := range logs {
			l.Recovered()
		}
		replays = append(replays, time.Since(t0).Seconds())
		rec.end(sp)
		for _, l := range logs {
			l.Close()
		}
		st.Detach()

		cp2 := cp + "-engine"
		if err := copyDir(dataDir, cp2); err != nil {
			return err
		}
		st2, err := openStore(cp2)
		if err != nil {
			return err
		}
		sp = rec.begin("serve.recover", noParent, int64(i))
		t0 = time.Now()
		eng, err := serve.New(serve.Config{Topo: w.topo, Workers: 1, Durable: st2})
		recovers = append(recovers, time.Since(t0).Seconds())
		rec.end(sp)
		if err != nil {
			return err
		}
		got, _ := eng.Shares()
		r.fail(wrap("recovered shares", sameShares(got, before)))
		eng.Close()
	}
	r.metrics["durable.replay_s"] = median(replays)
	r.metrics["serve.recover_s"] = median(recovers)
	return nil
}

// churnOp is one committed register or remove of the open loop.
type churnOp struct {
	remove bool
	spec   serve.FlowSpec
}

// churnOps lists the open loop's register and remove operations in
// issue order, leaving out sessions whose register did not succeed.
func churnOps(p plan, open *openResult) []churnOp {
	var out []churnOp
	for _, o := range p.ops {
		switch o.kind {
		case opRegister:
			out = append(out, churnOp{spec: p.sessions[o.sess]})
		case opRemove:
			out = append(out, churnOp{remove: true, spec: p.sessions[o.sess]})
		}
	}
	if open.Refused+open.Failed > 0 {
		// A failed register leaves no flow to remove; replaying it
		// would diverge from the engine, so keep only clean sessions.
		return nil
	}
	return out
}

// replayState is one shard of the replay: its live flows in
// registration order, its allocator and its WAL.
type replayState struct {
	id    int
	live  []*flow.Flow
	alloc *core.Allocator
	log   *durable.ShardLog
	epoch uint64
	ops   []churnOp
}

type churnReplay struct {
	shares    core.FlowAllocation
	wall      time.Duration
	batches   int
	solved    int           // group LPs solved (cache misses)
	solveTime time.Duration // CentralizedDelta time of batches that solved any
	walBytes  int64
	wal       []walBatch // every batch's events, for traceWAL
	// Contention structure summed over priced churn batches.
	edges, cliques, priced int
}

// replayChurn re-applies the open loop's churn shard by shard in
// batches of batchSize events through the public functions the
// serving engine calls — routing.ValidatePath and flow.New per op;
// flow.NewSet, the core.NewInstance stages (path validation,
// contention.BuildGraph, maximal cliques via core.NewInstanceFromGraph),
// core.Allocator.CentralizedDelta and, for the durable daemon,
// durable.ShardLog.AppendBatch per batch. It starts from the
// background flows and ends with the live set's shares.
func replayChurn(c runConfig, w *world, churn []churnOp, batchSize int, rec *recorder, name string) (*churnReplay, error) {
	var cs topology.RadioComponentSet
	w.topo.AppendRadioComponents(&cs)
	shardOf := make([]int, w.topo.NumNodes())
	for s := 0; s < cs.Len(); s++ {
		for _, n := range cs.Component(s) {
			shardOf[n] = s
		}
	}
	shards := make([]*replayState, cs.Len())
	for i := range shards {
		shards[i] = &replayState{id: i, alloc: core.NewAllocatorWorkers(1)}
	}
	res := &churnReplay{shares: make(core.FlowAllocation)}
	if c.wl.daemon {
		st, err := openStore(filepath.Join(c.dir, name))
		if err != nil {
			return nil, err
		}
		logs, err := st.Attach(cs.Len(), w.topo.AdjacencyFingerprint())
		if err != nil {
			return nil, err
		}
		for i, l := range logs {
			l.Recovered()
			shards[i].log = l
		}
		defer func() {
			for _, l := range logs {
				l.Close()
			}
			st.Detach()
		}()
	}
	opts := core.CentralizedOptions{Refine: true}
	start := time.Now()
	// Background registration is set-up, not churn: one batch per shard.
	for _, f := range w.background {
		s := shards[shardOf[f.Path()[0]]]
		s.live = append(s.live, f)
	}
	for _, s := range shards {
		if len(s.live) > 0 {
			if err := replayPrice(w.topo, s, nil, opts, nil, -1, res); err != nil {
				return nil, err
			}
		}
		if s.log != nil {
			res.walBytes -= s.log.Size() // count churn batches only
		}
	}
	for i, o := range churn {
		if !o.remove {
			sp := rec.begin("routing.validate", noParent, int64(i))
			err := routing.ValidatePath(w.topo, o.spec.Path)
			rec.end(sp)
			if err != nil {
				return nil, err
			}
		}
		s := shards[shardOf[o.spec.Path[0]]]
		s.ops = append(s.ops, o)
	}
	for _, s := range shards {
		for start := 0; start < len(s.ops); start += batchSize {
			ops := s.ops[start:min(start+batchSize, len(s.ops))]
			if err := replayPrice(w.topo, s, ops, opts, rec, int64(res.batches), res); err != nil {
				return nil, err
			}
			res.batches++
		}
	}
	res.wall = time.Since(start)
	for _, s := range shards {
		if s.log != nil {
			res.walBytes += s.log.Size()
		}
		if len(s.live) == 0 {
			continue
		}
		set, err := flow.NewSet(s.live...)
		if err != nil {
			return nil, err
		}
		inst, err := core.NewInstance(w.topo, set)
		if err != nil {
			return nil, err
		}
		alloc, err := s.alloc.Centralized(inst, opts)
		if err != nil {
			return nil, err
		}
		for id, x := range alloc {
			res.shares[id] = x
		}
	}
	return res, nil
}

// replayPrice applies one batch to a shard and prices it, recording
// the batch span (request ID req) and one child span per stage.
func replayPrice(topo *topology.Topology, s *replayState, ops []churnOp, opts core.CentralizedOptions, rec *recorder, req int64, res *churnReplay) error {
	bs := rec.begin("serve.batch", noParent, req)
	defer rec.end(bs)
	var evs []durable.Event
	if ops == nil { // the background registration batch
		for _, f := range s.live {
			evs = append(evs, durable.Event{Kind: durable.EventRegister, ID: f.ID(), Weight: f.Weight(), Path: f.Path()})
		}
	}
	for _, o := range ops {
		if o.remove {
			for i, f := range s.live {
				if f.ID() == o.spec.ID {
					s.live = append(s.live[:i], s.live[i+1:]...)
					break
				}
			}
			evs = append(evs, durable.Event{Kind: durable.EventRemove, ID: o.spec.ID})
			continue
		}
		f, err := flow.New(o.spec.ID, o.spec.Weight, o.spec.Path)
		if err != nil {
			return err
		}
		s.live = append(s.live, f)
		evs = append(evs, durable.Event{Kind: durable.EventRegister, ID: f.ID(), Weight: f.Weight(), Path: f.Path()})
	}
	if len(s.live) == 0 {
		return nil
	}
	sp := rec.begin("flow.newset", bs, req)
	set, err := flow.NewSet(s.live...)
	rec.end(sp)
	if err != nil {
		return err
	}
	ip := rec.begin("core.instance", bs, req)
	for _, f := range set.Flows() {
		if err := routing.ValidatePath(topo, f.Path()); err != nil {
			rec.end(ip)
			return err
		}
	}
	sp = rec.begin("contention.graph", ip, req)
	g := contention.BuildGraph(topo, set)
	rec.end(sp)
	sp = rec.begin("contention.cliques", ip, req)
	inst, err := core.NewInstanceFromGraph(set, g)
	rec.end(sp)
	rec.end(ip)
	if err != nil {
		return err
	}
	inst.Topo = topo
	if ops != nil {
		res.edges += g.NumEdges()
		res.cliques += len(inst.Cliques)
		res.priced++
	}
	sp = rec.begin("core.delta", bs, req)
	t0 := time.Now()
	_, d, err := s.alloc.CentralizedDelta(inst, opts)
	dt := time.Since(t0)
	rec.end(sp)
	if err != nil {
		return err
	}
	if d.Solved > 0 {
		res.solved += d.Solved
		res.solveTime += dt
	}
	res.wal = append(res.wal, walBatch{shard: s.id, evs: evs})
	if s.log != nil && len(evs) > 0 {
		s.epoch++
		sp = rec.begin("durable.append", bs, req)
		err := s.log.AppendBatch(&durable.BatchRecord{Epoch: s.epoch, Events: evs})
		rec.end(sp)
		if err != nil {
			return err
		}
	}
	return nil
}

// putReplayLayers derives the per-layer metrics of the serving path
// from the replay's spans: per-op and per-batch mean times, the batch
// time no stage span covers, and the queue wait implied by the traced
// register latency.
func putReplayLayers(r *report, spans []span, res *churnReplay, durableHost bool, regP50 float64) {
	lt := layerTotals(spans)
	get := func(name string) *layerTotal {
		if t := lt[name]; t != nil {
			return t
		}
		return &layerTotal{}
	}
	perBatch := func(name string) float64 {
		b := get("serve.batch").Count
		return float64(get(name).Total) / 1e3 / math.Max(float64(b), 1)
	}
	r.metrics["routing.validate_us"] = float64(get("routing.validate").Total) / 1e3 / math.Max(float64(get("routing.validate").Count), 1)
	r.metrics["flow.newset_us"] = perBatch("flow.newset")
	r.metrics["contention.graph_us"] = perBatch("contention.graph")
	r.metrics["contention.cliques_us"] = perBatch("contention.cliques")
	r.metrics["core.instance_us"] = perBatch("core.instance")
	r.metrics["core.delta_us"] = perBatch("core.delta")
	if res.solved > 0 {
		// Batches served wholly from the cache solve no LP; only the
		// others count.
		r.metrics["lp.solve_us"] = float64(res.solveTime.Microseconds()) / float64(res.solved)
	} else {
		r.metrics["lp.solve_us"] = 0
	}
	if durableHost {
		r.metrics["durable.append_us"] = float64(get("durable.append").Total) / 1e3 / math.Max(float64(get("durable.append").Count), 1)
		r.metrics["durable.bytes_per_batch"] = float64(res.walBytes) / math.Max(float64(get("durable.append").Count), 1)
	}
	b := get("serve.batch")
	r.metrics["trace.unaccounted_frac"] = float64(b.Self) / math.Max(float64(b.Total), 1)
	var batchDur []float64
	for _, s := range spans {
		if s.Name == "serve.batch" {
			batchDur = append(batchDur, float64(s.End-s.Start)/1e6)
		}
	}
	r.metrics["serve.queue_wait_ms_p50"] = regP50 - median(batchDur)
	r.metrics["contention.edges"] = float64(res.edges) / math.Max(float64(res.priced), 1)
	r.metrics["contention.cliques"] = float64(res.cliques) / math.Max(float64(res.priced), 1)
	stages := map[string]float64{}
	for _, k := range []string{"flow.newset", "core.instance", "core.delta", "durable.append"} {
		stages[k] = perBatch(k)
	}
	r.notes["stage_us_per_batch"] = stages
	top, topV := "", -1.0
	for k, v := range stages {
		if v > topV {
			top, topV = k, v
		}
	}
	r.notes["largest_stage"] = top
}

// traceSim runs the Fig. 6 simulation sharded (as the untraced run
// does) and replays it on one engine through netsim.NewStack,
// traffic.StartCBR and sim.Engine.Run; both must deliver the same
// packets per flow.
func traceSim(c runConfig, w *world, rec *recorder, r *report) error {
	inst, err := fig6Instance()
	if err != nil {
		return err
	}
	cfg := simConfig(c.seed)
	sharded, err := netsim.Run(inst, cfg)
	if err != nil {
		return err
	}
	rep, err := simReplay(inst, cfg, rec)
	if err != nil {
		return err
	}
	r.fail(wrap("single-engine replay vs sharded run", sameCounts(inst, rep.delivered, delivered(inst, sharded.Stats))))
	r.metrics["netsim.stack_ms"] = ms(rep.stackWall)
	r.metrics["sim.events"] = float64(rep.events)
	r.metrics["sim.ns_per_event"] = float64(rep.runWall.Nanoseconds()) / math.Max(float64(rep.events), 1)
	r.metrics["mac.delivered_hops"] = float64(rep.air.Exchanges)
	r.metrics["mac.collisions"] = float64(rep.air.Collisions)
	r.metrics["mac.retry_drops"] = float64(rep.retryDrops)
	r.metrics["mac.queue_drops"] = float64(rep.queueDrops)
	r.metrics["mac.utilization"] = rep.air.Utilization()
	r.metrics["mac.collision_overhead"] = rep.air.CollisionOverhead()
	return nil
}

// recordGolden records delivered packets per flow of the simulation
// for seeds lo..hi into golden_sim.json (in the current directory),
// after checking the sharded run against the single-engine replay for
// each.
func recordGolden(seeds string) error {
	lo, hi, ok := strings.Cut(seeds, "-")
	a, err1 := strconv.ParseInt(lo, 10, 64)
	b, err2 := strconv.ParseInt(hi, 10, 64)
	if !ok || err1 != nil || err2 != nil || a > b {
		return fmt.Errorf("-record-golden wants LO-HI, got %q", seeds)
	}
	inst, err := fig6Instance()
	if err != nil {
		return err
	}
	out := make(map[string][]int64)
	for seed := a; seed <= b; seed++ {
		cfg := simConfig(seed)
		res, err := netsim.Run(inst, cfg)
		if err != nil {
			return err
		}
		got := delivered(inst, res.Stats)
		rep, err := simReplay(inst, cfg, nil)
		if err != nil {
			return err
		}
		if err := sameCounts(inst, got, rep.delivered); err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		out[goldenKey(seed, cfg.Duration)] = got
	}
	keys := make([]string, 0, len(out))
	for k := range out {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	sb.WriteString("{\n")
	for i, k := range keys {
		v, _ := json.Marshal(out[k])
		fmt.Fprintf(&sb, "  %q: %s", k, v)
		if i < len(keys)-1 {
			sb.WriteString(",")
		}
		sb.WriteString("\n")
	}
	sb.WriteString("}\n")
	return os.WriteFile("golden_sim.json", []byte(sb.String()), 0o644)
}
