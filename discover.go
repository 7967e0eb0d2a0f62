package e2efair

import (
	"fmt"

	"e2efair/internal/dsr"
	"e2efair/internal/netsim"
	"e2efair/internal/scenario"
	"e2efair/internal/sim"
	"e2efair/internal/topology"
	"e2efair/internal/transport"
)

// DiscoveryResult reports the cost of DSR route discovery.
type DiscoveryResult struct {
	// Routes maps flow ID to the discovered node-name path.
	Routes map[string][]string
	// Broadcasts counts RREQ transmissions across the flood.
	Broadcasts int64
	// Replies counts RREP unicast hops.
	Replies int64
	// LatencySec maps flow ID to discovery latency in seconds.
	LatencySec map[string]float64
}

// NewNetworkWithDiscovery builds a network like NewNetwork but
// resolves every two-endpoint flow path by simulating DSR route
// discovery (RREQ flood + RREP) over the topology instead of using an
// oracle shortest path. Flows with explicit multi-node paths are kept
// as given. The discovery simulation shares the radio model with the
// data-plane simulator, so its cost (broadcast storms, collision
// losses, retries) is real.
func NewNetworkWithDiscovery(spec NetworkSpec, seed int64) (*Network, *DiscoveryResult, error) {
	if len(spec.Nodes) == 0 || len(spec.Flows) == 0 {
		return nil, nil, ErrEmptySpec
	}
	topo, err := scenario.Topology(spec)
	if err != nil {
		return nil, nil, fmt.Errorf("e2efair: %w", err)
	}
	var pairs [][2]topology.NodeID
	pairFlow := make(map[[2]topology.NodeID]string)
	for _, fs := range spec.Flows {
		if len(fs.Path) != 2 {
			continue
		}
		src, err := topo.Lookup(fs.Path[0])
		if err != nil {
			return nil, nil, fmt.Errorf("e2efair: flow %s: %w", fs.ID, err)
		}
		dst, err := topo.Lookup(fs.Path[1])
		if err != nil {
			return nil, nil, fmt.Errorf("e2efair: flow %s: %w", fs.ID, err)
		}
		pair := [2]topology.NodeID{src, dst}
		pairs = append(pairs, pair)
		pairFlow[pair] = fs.ID
	}
	if len(pairs) == 0 {
		net, err := networkOn(spec, topo)
		return net, &DiscoveryResult{}, err
	}
	res, err := dsr.Discover(topo, pairs, dsr.Config{Seed: seed})
	if err != nil {
		return nil, nil, fmt.Errorf("e2efair: discovery: %w", err)
	}
	disc := &DiscoveryResult{
		Routes:     make(map[string][]string, len(pairs)),
		Broadcasts: res.Metrics.Broadcasts,
		Replies:    res.Metrics.Replies,
		LatencySec: make(map[string]float64, len(pairs)),
	}
	resolved := spec
	resolved.Flows = make([]FlowSpec, len(spec.Flows))
	copy(resolved.Flows, spec.Flows)
	for i, fs := range resolved.Flows {
		if len(fs.Path) != 2 {
			continue
		}
		src, _ := topo.Lookup(fs.Path[0])
		dst, _ := topo.Lookup(fs.Path[1])
		pair := [2]topology.NodeID{src, dst}
		route := res.Routes[pair]
		names := make([]string, len(route))
		for j, id := range route {
			names[j] = topo.Name(id)
		}
		resolved.Flows[i].Path = names
		resolved.Flows[i].AutoRoute = false
		disc.Routes[fs.ID] = names
		disc.LatencySec[fs.ID] = res.Metrics.Latency[pair].Seconds()
	}
	net, err := networkOn(resolved, topo)
	if err != nil {
		return nil, nil, err
	}
	return net, disc, nil
}

// networkOn is NewNetwork on the already-built topology of the spec's
// nodes.
func networkOn(spec NetworkSpec, topo *topology.Topology) (*Network, error) {
	sc, err := scenario.BuildOn("", spec, topo)
	if err != nil {
		return nil, fmt.Errorf("e2efair: %w", err)
	}
	return &Network{inst: sc.Inst}, nil
}

// ReliableConfig parameterizes SimulateReliable.
type ReliableConfig struct {
	Sim SimConfig `json:"sim"`
	// Window is the per-flow sliding window in packets (default 16).
	Window int `json:"window,omitempty"`
	// RTOMillis is the retransmission timeout (default 500 ms).
	RTOMillis int `json:"rtoMillis,omitempty"`
	// MaxRetx bounds retransmissions per packet (default 10).
	MaxRetx int `json:"maxRetx,omitempty"`
}

// ReliableResult reports an end-to-end reliable-transport run.
type ReliableResult struct {
	Protocol Protocol `json:"protocol"`
	// PerFlowGoodput maps flow ID to distinct packets delivered.
	PerFlowGoodput map[string]int64 `json:"perFlowGoodput"`
	// TotalGoodput sums goodput over flows.
	TotalGoodput int64 `json:"totalGoodput"`
	// Retransmissions counts repeated source sends across flows.
	Retransmissions int64 `json:"retransmissions"`
	// RetransmissionOverhead is retransmissions / all transmissions.
	RetransmissionOverhead float64 `json:"retransmissionOverhead"`
}

// SimulateReliable runs the flows under a sliding-window reliable
// transport (out-of-band ACKs) over the selected protocol stack,
// reporting goodput and retransmission waste — the paper's "packets
// delivered upstream and dropped downstream waste bandwidth" argument,
// measured.
func (n *Network) SimulateReliable(cfg ReliableConfig) (*ReliableResult, error) {
	proto, err := cfg.Sim.Protocol.internal()
	if err != nil {
		return nil, err
	}
	duration := sim.Time(cfg.Sim.DurationSec * float64(sim.Second))
	res, err := transport.Run(n.inst, transport.Config{
		Net: netsim.Config{
			Protocol:     proto,
			Duration:     duration,
			Seed:         cfg.Sim.Seed,
			PacketsPerS:  cfg.Sim.PacketsPerS,
			PayloadBytes: cfg.Sim.PayloadBytes,
			BitRate:      cfg.Sim.BitRate,
			CWMin:        cfg.Sim.CWMin,
			CWMax:        cfg.Sim.CWMax,
			Alpha:        cfg.Sim.Alpha,
			QueueCap:     cfg.Sim.QueueCap,
			RetryLimit:   cfg.Sim.RetryLimit,
		},
		Window:  cfg.Window,
		RTO:     sim.Time(cfg.RTOMillis) * sim.Millisecond,
		MaxRetx: cfg.MaxRetx,
	})
	if err != nil {
		return nil, fmt.Errorf("e2efair: reliable simulate: %w", err)
	}
	out := &ReliableResult{
		Protocol:       cfg.Sim.Protocol,
		PerFlowGoodput: make(map[string]int64, len(res.PerFlow)),
	}
	var retx, tx int64
	for id, fr := range res.PerFlow {
		out.PerFlowGoodput[string(id)] = fr.Goodput
		out.TotalGoodput += fr.Goodput
		retx += fr.Retransmissions
		tx += fr.Transmissions
	}
	out.Retransmissions = retx
	if tx > 0 {
		out.RetransmissionOverhead = float64(retx) / float64(tx)
	}
	return out, nil
}
