package netsim

import (
	"fmt"
	"slices"

	"e2efair/internal/core"
	"e2efair/internal/fault"
	"e2efair/internal/flow"
	"e2efair/internal/mac"
	"e2efair/internal/routing"
	"e2efair/internal/sim"
	"e2efair/internal/stats"
	"e2efair/internal/topology"
	"e2efair/internal/traffic"
)

// salvageLimit bounds how many times one packet may be re-routed onto
// a detour before it is dropped as unroutable, so a pathological fault
// plan cannot make a packet circulate forever.
const salvageLimit = 3

// watchdogEvery is the invariant watchdog's sampling period.
const watchdogEvery = sim.Second

// maxViolations caps the recorded violation strings.
const maxViolations = 32

// rerrHopDelay models route-error propagation: the repair of a break i
// hops from the flow's source starts i·rerrHopDelay after the
// link-dead signal.
const rerrHopDelay = sim.Millisecond

// ResilienceReport surfaces the fault/recovery metrics of one run:
// drops by cause, route-repair activity, allocation degradation, and
// any invariant violations the watchdog observed.
type ResilienceReport struct {
	// Emitted counts packets the sources generated; Injected counts
	// those the source queue accepted.
	Emitted  int64
	Injected int64
	// Delivered counts end-to-end deliveries.
	Delivered int64

	// Drops by cause. Every lost in-network packet is attributed to
	// exactly one of RetryDrops, QueueDrops or NoRouteDrops;
	// SourceDrops never entered the network.
	SourceDrops  int64
	QueueDrops   int64
	RetryDrops   int64
	NoRouteDrops int64

	// CorruptFrames counts unicast exchanges killed by the channel
	// loss model; InjectedLosses is the injector's own count of every
	// corruption it caused (broadcast receptions included), so
	// attribution can be verified.
	CorruptFrames  int64
	InjectedLosses int64

	// Recovery activity.
	LinkDeadSignals int64
	RouteErrors     int64
	Reroutes        int64
	Salvaged        int64
	Reallocations   int64
	DegradedAllocs  int64
	// RepairTime accumulates link-dead-to-reroute-installed time
	// across all reroutes.
	RepairTime sim.Time

	// Watchdog output.
	WatchdogChecks int64
	Violations     []string

	// FinalRoutes is each flow's route at the end of the run.
	FinalRoutes map[flow.ID][]topology.NodeID
}

// MeanTimeToRepair returns the average link-dead-to-reroute latency.
func (r *ResilienceReport) MeanTimeToRepair() sim.Time {
	if r.Reroutes == 0 {
		return 0
	}
	return r.RepairTime / sim.Time(r.Reroutes)
}

// pendingRepair is a flow awaiting route repair: at is when the
// RERR-style notification reaches the source, brokenAt when the break
// was detected.
type pendingRepair struct {
	at       sim.Time
	brokenAt sim.Time
}

// ukey builds an undirected link key.
func ukey(a, b topology.NodeID) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(uint32(a))<<32 | uint64(uint32(b))
}

// shareSetter is the scheduler surface reallocation drives: both the
// tag scheduler and DFS implement it.
type shareSetter interface {
	AddSubflow(id flow.SubflowID, share float64) error
	SetShare(id flow.SubflowID, share float64) error
}

// coordinator runs one engine's share of a run: the whole instance,
// or one radio component of a sharded run. Its MAC hooks are the run's
// datapath — they forward packets hop by hop and account every
// delivery and drop — and with no injector they are nothing more. It
// starts the CBR sources, applies churn events, and re-solves shares
// on churn and on route repair through one live instance. Under a
// fault plan it also owns the current routes, reacts to link-dead
// signals with RERR-delayed batched repair and salvages stranded
// packets; with the watchdog on it checks the run's invariants.
type coordinator struct {
	cfg   Config
	inst  *core.Instance
	alloc *core.Allocator
	live  *core.Live
	stack *Stack
	inj   *fault.Injector
	col   *stats.Collector
	rep   *ResilienceReport

	// Per-flow state, by position in inst.Flows.
	index     map[flow.ID]int
	active    []bool              // the flows shares are solved over
	cur       []*flow.Flow        // each flow on its current route
	routes    [][]topology.NodeID // cur[i]'s path, read per packet
	flowShare []float64
	final     core.SubflowAllocation

	organic     map[uint64]bool // MAC-declared dead links
	pending     map[int]pendingRepair
	unreachable map[int]sim.Time

	bfs      routing.BFSTree
	keepFn   func(u, v topology.NodeID) bool
	repairFn func()
}

// runComponent is the one per-engine run behind Run, RunWith and
// RunDynamic. The component's config carries its t=0 shares, already
// solved, and its slice of the fault plan.
func runComponent(a *core.Allocator, c *component) (*DynamicResult, error) {
	cfg, inst := c.cfg, c.inst
	var inj *fault.Injector
	if cfg.Fault != nil {
		var err error
		if inj, err = cfg.Fault.Compile(inst.Topo.NumNodes()); err != nil {
			return nil, err
		}
		// Shard runs re-seed the per-transmitter loss streams with the
		// nodes' global identities so the draws replay the
		// whole-network run.
		if cfg.nodeIDs != nil {
			if err := inj.SetNodeIDs(cfg.nodeIDs); err != nil {
				return nil, err
			}
		}
	}
	flows := inst.Flows.Flows()
	r := &coordinator{
		cfg:         cfg,
		inst:        inst,
		alloc:       a,
		inj:         inj,
		col:         stats.NewCollector(),
		rep:         &ResilienceReport{},
		index:       make(map[flow.ID]int, len(flows)),
		active:      make([]bool, len(flows)),
		cur:         slices.Clone(flows),
		routes:      make([][]topology.NodeID, len(flows)),
		flowShare:   make([]float64, len(flows)),
		final:       cfg.Shares,
		organic:     make(map[uint64]bool),
		pending:     make(map[int]pendingRepair),
		unreachable: make(map[int]sim.Time),
	}
	r.keepFn = r.linkAlive
	r.repairFn = r.repair
	for i, f := range flows {
		r.index[f.ID()] = i
		r.routes[i] = f.Path()
		r.flowShare[i] = cfg.Shares[flow.SubflowID{Flow: f.ID(), Hop: 0}]
	}
	stack, err := NewStack(inst, cfg, mac.Hooks{
		OnDelivered: r.onDelivered,
		OnRetryDrop: r.onRetryDrop,
		OnCollision: func(_ topology.NodeID, _ sim.Time) { r.col.Collision() },
		OnCorrupt:   r.onCorrupt,
		OnLinkDead:  r.onLinkDead,
	})
	if err != nil {
		return nil, err
	}
	r.stack = stack
	eng := stack.Engine
	if inj != nil {
		stack.Medium.SetLinkState(inj)
		stack.Medium.Channel().SetLossModel(inj)
		if err := inj.Arm(eng, r.onFaultChange); err != nil {
			return nil, err
		}
	}
	if c.dynamic {
		err = r.scheduleChurn(c.events)
	} else {
		for i := range flows {
			r.active[i] = true
			g := i
			if c.flowIdx != nil {
				g = c.flowIdx[i]
			}
			// Stagger source starts by the flow's global index: 137 µs
			// per flow, coprime to the 5000 µs default emission
			// interval, so sources never synchronize, and shard runs
			// emit exactly when the single-engine run does.
			if err = r.startSource(i, sim.Time(g)*137*sim.Microsecond, cfg.Duration); err != nil {
				break
			}
		}
	}
	if err != nil {
		return nil, err
	}

	var series *stats.Series
	if cfg.SampleEvery > 0 {
		series = stats.NewSeries(cfg.SampleEvery)
		var sample func()
		sample = func() {
			series.Sample(eng.Now(), r.col)
			if eng.Now() < cfg.Duration {
				_ = eng.After(cfg.SampleEvery, 0, sample)
			}
		}
		_ = eng.After(cfg.SampleEvery, 0, sample)
	}
	if cfg.Watchdog {
		switch cfg.Protocol {
		case Protocol2PAC, Protocol2PAD, ProtocolDFS:
			r.checkShareFloor(r.instance(inst.Flows), stack.Shares)
		}
		var tick func()
		tick = func() {
			r.checkInvariants()
			if eng.Now() < cfg.Duration {
				_ = eng.After(watchdogEvery, 0, tick)
			}
		}
		_ = eng.After(watchdogEvery, 0, tick)
	}

	eng.Run(cfg.Duration)

	res := &DynamicResult{
		Result: Result{
			Protocol: cfg.Protocol,
			Duration: cfg.Duration,
			Stats:    r.col,
			Shares:   stack.Shares,
			Airtime:  stack.Medium.Airtime(),
			Series:   series,
		},
		Reallocations: int(r.rep.Reallocations),
		FinalShares:   r.final,
	}
	if cfg.Fault == nil && !cfg.Watchdog {
		return res, nil
	}
	if cfg.Watchdog {
		r.checkInvariants()
	}
	if inj != nil {
		r.rep.InjectedLosses = inj.Corruptions()
	}
	r.rep.FinalRoutes = make(map[flow.ID][]topology.NodeID, len(flows))
	for i, f := range flows {
		r.rep.FinalRoutes[f.ID()] = r.routes[i]
	}
	res.Resilience = r.rep
	return res, nil
}

// startSource starts flow i's CBR source for the on-interval
// [from, until): it emits on the flow's current route and accounts
// every emission.
func (r *coordinator) startSource(i int, from, until sim.Time) error {
	return traffic.StartCBR(r.stack.Engine, r.stack.Medium, traffic.CBRConfig{
		Flow:         r.inst.Flows.Flows()[i],
		PacketsPerS:  r.cfg.PacketsPerS,
		PayloadBytes: r.cfg.PayloadBytes,
		Offset:       from,
		Until:        until,
		Route:        func() []topology.NodeID { return r.routes[i] },
		OnEmit:       r.onEmit,
	})
}

func (r *coordinator) onEmit(_ *mac.Packet, accepted bool, _ sim.Time) {
	r.rep.Emitted++
	if accepted {
		r.rep.Injected++
		return
	}
	r.col.QueueDrop(false)
	r.rep.SourceDrops++
}

// linkAlive is the BFS keep predicate: a link is usable unless the MAC
// declared it dead or the injector holds it (or an endpoint) down.
func (r *coordinator) linkAlive(u, v topology.NodeID) bool {
	if r.organic[ukey(u, v)] {
		return false
	}
	if r.inj != nil && (!r.inj.NodeUp(u) || !r.inj.NodeUp(v) || !r.inj.LinkUp(u, v)) {
		return false
	}
	return true
}

func (r *coordinator) onDelivered(p *mac.Packet, now sim.Time) {
	r.col.HopDelivered(p.SubflowID(), p.LastHop())
	if p.LastHop() {
		r.rep.Delivered++
		r.stack.Medium.FreePacket(p)
		return
	}
	p.Hop++
	ok, injErr := r.stack.Medium.Inject(p)
	if injErr == nil && !ok {
		r.col.QueueDrop(true)
		r.col.DropAt(p.SubflowID())
		r.rep.QueueDrops++
		r.stack.Medium.FreePacket(p)
	}
}

// onRetryDrop salvages the abandoned packet onto a detour when one
// exists; otherwise the drop is attributed (retry vs no-route) and the
// packet freed.
func (r *coordinator) onRetryDrop(p *mac.Packet, now sim.Time) {
	if r.inj != nil && r.salvage(p, now) {
		r.rep.Salvaged++
		return
	}
	inFlight := p.Hop >= 1
	r.col.RetryDrop(inFlight)
	if inFlight {
		r.col.DropAt(p.SubflowID())
	}
	r.rep.RetryDrops++
	r.stack.Medium.FreePacket(p)
}

func (r *coordinator) onCorrupt(_ *mac.Packet, _ topology.NodeID, _ sim.Time) {
	r.rep.CorruptFrames++
}

// onLinkDead is the RERR origin: the dead link is masked out of the
// routing view, the transmitter's queue is salvaged, and every flow
// routed over the link is scheduled for repair after an RERR-style
// per-hop propagation delay back to its source.
func (r *coordinator) onLinkDead(tx, rx topology.NodeID, now sim.Time) {
	r.rep.LinkDeadSignals++
	r.organic[ukey(tx, rx)] = true
	r.stack.Medium.DrainNode(tx, func(p *mac.Packet) bool {
		return p.Receiver() == rx
	}, func(p *mac.Packet) { r.salvageDrained(p, now) })
	r.scheduleFlowRepairs(tx, rx, now)
}

// scheduleFlowRepairs queues repair for every flow whose current route
// crosses the undirected link a-b.
func (r *coordinator) scheduleFlowRepairs(a, b topology.NodeID, now sim.Time) {
	affected := false
	for i, route := range r.routes {
		hop := hopIndex(route, a, b)
		if hop < 0 {
			continue
		}
		affected = true
		r.queueRepair(i, now, now+sim.Time(hop)*rerrHopDelay)
	}
	if affected {
		r.rep.RouteErrors++
	}
}

// queueRepair registers a flow for repair at time at; an already
// pending repair keeps its earlier schedule.
func (r *coordinator) queueRepair(i int, brokenAt, at sim.Time) {
	if _, ok := r.pending[i]; ok {
		return
	}
	delete(r.unreachable, i)
	r.pending[i] = pendingRepair{at: at, brokenAt: brokenAt}
	_ = r.stack.Engine.Schedule(at, 1, r.repairFn)
}

// hopIndex returns the hop index at which the route crosses the
// undirected link a-b, or -1.
func hopIndex(route []topology.NodeID, a, b topology.NodeID) int {
	for i := 0; i+1 < len(route); i++ {
		if (route[i] == a && route[i+1] == b) || (route[i] == b && route[i+1] == a) {
			return i
		}
	}
	return -1
}

// onFaultChange reacts to an injected transition: the MAC reconsiders
// the affected nodes, downed elements trigger proactive salvage and
// repair, and recoveries retry unreachable flows.
func (r *coordinator) onFaultChange(ch fault.Change) {
	now := ch.At
	med := r.stack.Medium
	if ch.Node >= 0 {
		if ch.Up {
			r.clearOrganicAt(ch.Node)
			med.FaultChanged(ch.Node)
			r.retryUnreachable(now)
			return
		}
		// Crash: flows routed through the node must detour; packets
		// queued at upstream neighbors toward it are salvaged.
		for fi, route := range r.routes {
			for i, n := range route {
				if n != ch.Node {
					continue
				}
				if i >= 1 {
					up := route[i-1]
					med.DrainNode(up, func(p *mac.Packet) bool {
						return p.Receiver() == ch.Node
					}, func(p *mac.Packet) { r.salvageDrained(p, now) })
				}
				r.queueRepair(fi, now, now+sim.Time(max(i-1, 0))*rerrHopDelay)
				break
			}
		}
		med.FaultChanged(ch.Node)
		return
	}
	if ch.Up {
		delete(r.organic, ukey(ch.A, ch.B))
		med.FaultChanged(ch.A)
		med.FaultChanged(ch.B)
		r.retryUnreachable(now)
		return
	}
	// Link down: salvage queued traffic on both directions, then
	// schedule repairs for flows crossing it.
	for _, end := range [2][2]topology.NodeID{{ch.A, ch.B}, {ch.B, ch.A}} {
		tx, rx := end[0], end[1]
		med.DrainNode(tx, func(p *mac.Packet) bool {
			return p.Receiver() == rx
		}, func(p *mac.Packet) { r.salvageDrained(p, now) })
	}
	r.scheduleFlowRepairs(ch.A, ch.B, now)
	med.FaultChanged(ch.A)
	med.FaultChanged(ch.B)
}

// clearOrganicAt forgets MAC-declared dead links incident to a node
// that just recovered: the declarations were (possibly) symptoms of
// the crash, and traffic re-probes the links naturally.
func (r *coordinator) clearOrganicAt(node topology.NodeID) {
	for k := range r.organic {
		if topology.NodeID(k>>32) == node || topology.NodeID(uint32(k)) == node {
			delete(r.organic, k)
		}
	}
}

// retryUnreachable re-queues repair for flows that previously found no
// route, now that something recovered.
func (r *coordinator) retryUnreachable(now sim.Time) {
	for i := range r.routes {
		brokenAt, ok := r.unreachable[i]
		if !ok {
			continue
		}
		delete(r.unreachable, i)
		r.queueRepair(i, brokenAt, now+rerrHopDelay)
	}
}

// repair processes due pending repairs in flow order — the batched
// route repair: one BFS per distinct flow, one reallocation for the
// whole batch.
func (r *coordinator) repair() {
	now := r.stack.Engine.Now()
	changed := false
	for i := range r.routes {
		pr, ok := r.pending[i]
		if !ok || pr.at > now {
			continue
		}
		delete(r.pending, i)
		if r.reroute(i, pr.brokenAt, now) {
			changed = true
		}
	}
	if changed {
		r.reallocate(now)
	}
}

// reroute recomputes flow i's route over the masked topology.
func (r *coordinator) reroute(i int, brokenAt, now sim.Time) bool {
	f := r.cur[i]
	src, dst := f.Source(), f.Destination()
	if r.inj != nil && (!r.inj.NodeUp(src) || !r.inj.NodeUp(dst)) {
		r.unreachable[i] = brokenAt
		return false
	}
	if err := r.bfs.BuildFiltered(r.inst.Topo, src, r.keepFn); err != nil {
		r.unreachable[i] = brokenAt
		return false
	}
	path, err := r.bfs.PathTo(dst)
	if err != nil {
		r.unreachable[i] = brokenAt
		return false
	}
	if slices.Equal(path, r.routes[i]) {
		return false
	}
	nf, err := flow.New(f.ID(), f.Weight(), path)
	if err != nil {
		r.violation(now, fmt.Sprintf("reroute: flow %s: %v", f.ID(), err))
		return false
	}
	r.cur[i], r.routes[i] = nf, path
	r.rep.Reroutes++
	r.rep.RepairTime += now - brokenAt
	r.trace(mac.TraceEvent{Kind: mac.TraceReroute, At: now, Node: src, Peer: dst})
	return true
}

// salvage re-routes an abandoned packet from its current node onto a
// fault-free path to its destination and re-injects it. It returns
// false when no detour exists (or the packet exhausted its salvage
// budget); the caller attributes and frees the packet.
func (r *coordinator) salvage(p *mac.Packet, now sim.Time) bool {
	if p.Salvage >= salvageLimit {
		return false
	}
	u := p.Transmitter()
	dst := p.Path[len(p.Path)-1]
	if u == dst {
		return false
	}
	if r.inj != nil && (!r.inj.NodeUp(u) || !r.inj.NodeUp(dst)) {
		return false
	}
	if err := r.bfs.BuildFiltered(r.inst.Topo, u, r.keepFn); err != nil {
		return false
	}
	path, err := r.bfs.PathTo(dst)
	if err != nil {
		return false
	}
	r.registerPath(p.Flow, path)
	p.Path = path
	p.Hop = 0
	p.Salvage++
	ok, injErr := r.stack.Medium.Inject(p)
	if injErr != nil || !ok {
		return false
	}
	r.trace(mac.TraceEvent{Kind: mac.TraceSalvage, At: now, Node: u, Peer: dst, Pkt: p})
	return true
}

// salvageDrained handles a packet pulled off a forwarding queue by a
// link-dead drain: salvage it, or attribute the loss as no-route.
func (r *coordinator) salvageDrained(p *mac.Packet, now sim.Time) {
	if r.salvage(p, now) {
		r.rep.Salvaged++
		return
	}
	inFlight := p.Hop >= 1
	r.col.QueueDrop(inFlight)
	if inFlight {
		r.col.DropAt(p.SubflowID())
	}
	r.rep.NoRouteDrops++
	r.stack.Medium.FreePacket(p)
}

// registerPath makes sure every transmitting node along a detour
// accepts the flow's subflow IDs, registering missing queues at the
// flow's current share. Existing registrations are left untouched.
func (r *coordinator) registerPath(fid flow.ID, path []topology.NodeID) {
	share := r.flowShare[r.index[fid]]
	for i := 0; i+1 < len(path); i++ {
		sched := r.stack.Medium.SchedulerAt(path[i])
		ss, ok := sched.(shareSetter)
		if !ok {
			continue
		}
		// AddSubflow fails harmlessly when the id is already known.
		_ = ss.AddSubflow(flow.SubflowID{Flow: fid, Hop: i}, share)
	}
}

// instance returns the live instance over set, creating the live
// state on first use: successive calls cost only the flows that
// changed between them.
func (r *coordinator) instance(set *flow.Set) *core.Instance {
	if r.live == nil {
		r.live = core.NewLive(r.inst.Topo)
	}
	return r.live.Update(set)
}

// reallocate re-solves shares over the active flows on their current
// routes and installs them into the running schedulers — on every
// churn event and after every batched route repair. Failures are
// recorded, never fatal: the previous shares stay in force, and a
// degradable LP failure installs the basic shares instead.
func (r *coordinator) reallocate(now sim.Time) {
	if r.cfg.Protocol == Protocol80211 {
		return
	}
	var fls []*flow.Flow
	for i, f := range r.cur {
		if r.active[i] {
			fls = append(fls, f)
		}
	}
	if len(fls) == 0 {
		return
	}
	set, err := flow.NewSet(fls...)
	if err != nil {
		r.violation(now, fmt.Sprintf("reallocate: flow set: %v", err))
		return
	}
	sub := r.instance(set)
	if r.alloc == nil {
		r.alloc = core.NewAllocatorWorkers(1)
	}
	shares, degraded, err := solveShares(r.alloc, sub, r.cfg.Protocol)
	if err != nil {
		r.violation(now, fmt.Sprintf("reallocate: solve: %v", err))
		return
	}
	r.rep.Reallocations++
	if degraded {
		r.rep.DegradedAllocs++
		r.trace(mac.TraceEvent{Kind: mac.TraceDegraded, At: now, Node: -1, Peer: -1})
	}
	for _, f := range fls {
		for _, s := range f.Subflows() {
			share := shares[s.ID]
			ss, ok := r.stack.Medium.SchedulerAt(s.Src).(shareSetter)
			if !ok {
				continue
			}
			if err := ss.SetShare(s.ID, share); err != nil {
				_ = ss.AddSubflow(s.ID, share)
			}
		}
		r.flowShare[r.index[f.ID()]] = shares[flow.SubflowID{Flow: f.ID(), Hop: 0}]
	}
	r.final = shares
	if r.cfg.Watchdog {
		r.checkShareFloor(sub, shares)
	}
}

// trace forwards a resilience event through the configured tracer.
func (r *coordinator) trace(ev mac.TraceEvent) {
	if r.cfg.Tracer != nil {
		r.cfg.Tracer.Trace(ev)
	}
}

// violation records a watchdog violation (bounded).
func (r *coordinator) violation(now sim.Time, msg string) {
	if len(r.rep.Violations) >= maxViolations {
		return
	}
	r.rep.Violations = append(r.rep.Violations, fmt.Sprintf("t=%.6f %s", now.Seconds(), msg))
}

// checkShareFloor asserts every flow's installed share is at least its
// closed-form basic share (within tolerance) — the paper's fairness
// floor, which both the LP and the degraded fallback must satisfy.
func (r *coordinator) checkShareFloor(inst *core.Instance, shares core.SubflowAllocation) {
	if shares == nil {
		return
	}
	now := r.stack.Engine.Now()
	basic := core.BasicShares(inst)
	const tol = 1e-6
	for _, f := range inst.Flows.Flows() {
		got := shares[flow.SubflowID{Flow: f.ID(), Hop: 0}]
		if want := basic[f.ID()]; got+tol < want {
			r.violation(now, fmt.Sprintf("share floor: flow %s got %.9f < basic %.9f", f.ID(), got, want))
		}
	}
}

// checkInvariants runs the watchdog's conservation and queue-bound
// checks at the current instant. Events fire atomically between
// packet handoffs, so the balance holds exactly: every accepted
// packet is delivered, attributed to one drop cause, or still queued.
func (r *coordinator) checkInvariants() {
	r.rep.WatchdogChecks++
	now := r.stack.Engine.Now()
	backlog := int64(r.stack.Medium.Backlog())
	accounted := r.rep.Delivered + r.rep.QueueDrops + r.rep.RetryDrops + r.rep.NoRouteDrops + backlog
	if r.rep.Injected != accounted {
		r.violation(now, fmt.Sprintf("conservation: injected %d != delivered %d + drops %d + backlog %d",
			r.rep.Injected, r.rep.Delivered,
			r.rep.QueueDrops+r.rep.RetryDrops+r.rep.NoRouteDrops, backlog))
	}
	for i := 0; i < r.inst.Topo.NumNodes(); i++ {
		sched := r.stack.Medium.SchedulerAt(topology.NodeID(i))
		if sched == nil {
			continue
		}
		bound := r.cfg.QueueCap
		if ts, ok := sched.(*mac.TagScheduler); ok {
			bound = r.cfg.QueueCap * max(1, ts.NumQueues())
		}
		if got := sched.Backlog(); got > bound {
			// Named, not indexed: names are stable across shard/global
			// node numbering, so the violation text matches either way.
			r.violation(now, fmt.Sprintf("queue bound: node %s backlog %d > %d",
				r.inst.Topo.Name(topology.NodeID(i)), got, bound))
		}
	}
}
