package e2efair

import (
	"fmt"
	"io"

	"e2efair/internal/netsim"
	"e2efair/internal/sim"
	"e2efair/internal/trace"
)

// Protocol names a packet-level protocol stack for Simulate.
type Protocol string

// Protocol stacks.
const (
	// Protocol80211 is plain IEEE 802.11 DCF with per-node FIFO
	// queues and binary exponential backoff.
	Protocol80211 Protocol = "802.11"
	// ProtocolTwoTier drives the tag scheduler with the two-tier
	// baseline's per-subflow shares.
	ProtocolTwoTier Protocol = "two-tier"
	// Protocol2PAC is 2PA with the centralized first phase.
	Protocol2PAC Protocol = "2pa-c"
	// Protocol2PAD is 2PA with the distributed first phase.
	Protocol2PAD Protocol = "2pa-d"
	// ProtocolDFS is the phase-2 ablation: centralized 2PA shares
	// realized by Distributed Fair Scheduling backoff (no service
	// tags).
	ProtocolDFS Protocol = "2pa-dfs"
)

// Protocols lists all simulate-able protocol stacks.
func Protocols() []Protocol {
	return []Protocol{Protocol80211, ProtocolTwoTier, Protocol2PAC, Protocol2PAD, ProtocolDFS}
}

func (p Protocol) internal() (netsim.Protocol, error) {
	switch p {
	case Protocol80211:
		return netsim.Protocol80211, nil
	case ProtocolTwoTier:
		return netsim.ProtocolTwoTier, nil
	case Protocol2PAC:
		return netsim.Protocol2PAC, nil
	case Protocol2PAD:
		return netsim.Protocol2PAD, nil
	case ProtocolDFS:
		return netsim.ProtocolDFS, nil
	default:
		return 0, fmt.Errorf("e2efair: unknown protocol %q", string(p))
	}
}

// SimConfig parameterizes a packet-level simulation. Zero fields take
// the paper's evaluation defaults (1000 s, 200 packets/s CBR, 512-byte
// packets, 2 Mbps channel, CWmin 31, α = 0.0001, 50-packet queues).
type SimConfig struct {
	Protocol     Protocol `json:"protocol"`
	DurationSec  float64  `json:"durationSec,omitempty"`
	Seed         int64    `json:"seed,omitempty"`
	PacketsPerS  float64  `json:"packetsPerS,omitempty"`
	PayloadBytes int      `json:"payloadBytes,omitempty"`
	BitRate      int64    `json:"bitRate,omitempty"`
	CWMin        int      `json:"cwMin,omitempty"`
	CWMax        int      `json:"cwMax,omitempty"`
	Alpha        float64  `json:"alpha,omitempty"`
	QueueCap     int      `json:"queueCap,omitempty"`
	RetryLimit   int      `json:"retryLimit,omitempty"`
	// TraceWriter, when set, receives an ns-2-style line per MAC
	// event (exchange start/end, broadcast, collision, drop).
	TraceWriter io.Writer `json:"-"`
}

// SimResult reports the metrics of the paper's Tables II and III.
type SimResult struct {
	Protocol Protocol `json:"protocol"`
	// DurationSec is the simulated time.
	DurationSec float64 `json:"durationSec"`
	// PerSubflowDelivered maps "flow.hop" (1-based) to packets
	// delivered over that hop (r_{i.j}·T).
	PerSubflowDelivered map[string]int64 `json:"perSubflowDelivered"`
	// PerFlowDelivered maps flow ID to end-to-end deliveries
	// (r̂_i·T).
	PerFlowDelivered map[string]int64 `json:"perFlowDelivered"`
	// TotalDelivered is Σ_i r̂_i·T, the total effective throughput in
	// packets.
	TotalDelivered int64 `json:"totalDelivered"`
	// Lost counts in-flight packets dropped downstream (queue
	// overflow or MAC retry limit after the first hop).
	Lost int64 `json:"lost"`
	// LossRatio is Lost / TotalDelivered, as in the paper's tables.
	LossRatio float64 `json:"lossRatio"`
	// SourceDrops counts packets rejected before their first
	// transmission; they waste no bandwidth and are excluded from
	// LossRatio.
	SourceDrops int64 `json:"sourceDrops"`
	// Collisions counts failed floor acquisitions.
	Collisions int64 `json:"collisions"`
	// SharesUsed is the per-subflow allocation enforced by the
	// scheduler (absent for 802.11).
	SharesUsed map[string]float64 `json:"sharesUsed,omitempty"`
}

// Simulate runs the packet-level simulator over this network.
func (n *Network) Simulate(cfg SimConfig) (*SimResult, error) {
	proto, err := cfg.Protocol.internal()
	if err != nil {
		return nil, err
	}
	duration := sim.Time(cfg.DurationSec * float64(sim.Second))
	if cfg.DurationSec == 0 {
		duration = 0 // netsim default (1000 s)
	}
	netCfg := netsim.Config{
		Protocol:     proto,
		Duration:     duration,
		Seed:         cfg.Seed,
		PacketsPerS:  cfg.PacketsPerS,
		PayloadBytes: cfg.PayloadBytes,
		BitRate:      cfg.BitRate,
		CWMin:        cfg.CWMin,
		CWMax:        cfg.CWMax,
		Alpha:        cfg.Alpha,
		QueueCap:     cfg.QueueCap,
		RetryLimit:   cfg.RetryLimit,
	}
	if cfg.TraceWriter != nil {
		netCfg.Tracer = trace.NewWriter(cfg.TraceWriter, n.inst.Topo.Name)
	}
	res, err := netsim.Run(n.inst, netCfg)
	if err != nil {
		return nil, fmt.Errorf("e2efair: simulate: %w", err)
	}
	out := &SimResult{
		Protocol:            cfg.Protocol,
		DurationSec:         res.Duration.Seconds(),
		PerSubflowDelivered: make(map[string]int64),
		PerFlowDelivered:    make(map[string]int64),
		TotalDelivered:      res.Stats.TotalEndToEnd(),
		Lost:                res.Stats.Lost(),
		LossRatio:           res.Stats.LossRatio(),
		SourceDrops:         res.Stats.SourceDrops(),
		Collisions:          res.Stats.Collisions(),
	}
	for _, f := range n.inst.Flows.Flows() {
		out.PerFlowDelivered[string(f.ID())] = res.Stats.EndToEnd(f.ID())
		for _, s := range f.Subflows() {
			out.PerSubflowDelivered[s.ID.String()] = res.Stats.Subflow(s.ID)
		}
	}
	if res.Shares != nil {
		out.SharesUsed = make(map[string]float64, len(res.Shares))
		for id, share := range res.Shares {
			out.SharesUsed[id.String()] = share
		}
	}
	return out, nil
}
