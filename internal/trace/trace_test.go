package trace_test

import (
	"strings"
	"testing"

	"e2efair/internal/mac"
	"e2efair/internal/sim"
	"e2efair/internal/topology"
	"e2efair/internal/trace"
)

func TestFormat(t *testing.T) {
	p := &mac.Packet{Flow: "F1", Seq: 42, Path: []topology.NodeID{0, 1}, PayloadBytes: 512}
	names := func(id topology.NodeID) string { return string(rune('A' + id)) }
	cases := []struct {
		ev   mac.TraceEvent
		want string
	}{
		{mac.TraceEvent{Kind: mac.TraceExchangeStart, At: 1234567, Node: 0, Peer: 1, Pkt: p}, "s 1.234567 A -> B F1#42@hop0"},
		{mac.TraceEvent{Kind: mac.TraceExchangeEnd, At: 2000000, Node: 0, Peer: 1, Pkt: p}, "r 2.000000 A -> B F1#42@hop0"},
		{mac.TraceEvent{Kind: mac.TraceCollision, At: 500, Node: 0, Peer: -1, Pkt: p}, "c 0.000500 A F1#42@hop0"},
		{mac.TraceEvent{Kind: mac.TraceDrop, At: 500, Node: 0, Peer: -1, Pkt: p}, "D 0.000500 A F1#42@hop0"},
		{mac.TraceEvent{Kind: mac.TraceCorrupt, At: 500, Node: 0, Peer: 1, Pkt: p}, "x 0.000500 A -> B F1#42@hop0"},
		{mac.TraceEvent{Kind: mac.TraceLinkDead, At: 500, Node: 0, Peer: 1, Pkt: p}, "L 0.000500 A -> B F1#42@hop0"},
		{mac.TraceEvent{Kind: mac.TraceReroute, At: 500, Node: 0, Peer: 1, Pkt: p}, "R 0.000500 A -> B F1#42@hop0"},
		{mac.TraceEvent{Kind: mac.TraceSalvage, At: 500, Node: 1, Peer: 0, Pkt: p}, "v 0.000500 B -> A F1#42@hop0"},
		{mac.TraceEvent{Kind: mac.TraceDegraded, At: 500, Node: 0, Peer: -1}, "g 0.000500 A <nil>"},
	}
	for _, c := range cases {
		if got := trace.Format(c.ev, names); got != c.want {
			t.Errorf("Format = %q, want %q", got, c.want)
		}
	}
	// nil names prints raw IDs; nil packet tolerated.
	got := trace.Format(mac.TraceEvent{Kind: mac.TraceBroadcast, At: 0, Node: 3, Peer: -1}, nil)
	if !strings.Contains(got, "3") || !strings.Contains(got, "<nil>") {
		t.Errorf("raw format = %q", got)
	}
}

// TestWriterOnLiveMedium traces a real exchange end to end.
func TestWriterOnLiveMedium(t *testing.T) {
	topo, err := topology.NewBuilder(topology.DefaultRange, 0).
		Add("A", 0, 0).Add("B", 200, 0).Build()
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	tr := trace.NewWriter(&buf, topo.Name)
	eng := sim.NewEngine()
	medium, err := mac.NewMedium(eng, topo, mac.Config{Tracer: tr, Seed: 1}, mac.Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	_ = medium.Attach(0, mac.NewFIFO(10, 31, 1023))
	_ = medium.Attach(1, mac.NewFIFO(10, 31, 1023))
	p := &mac.Packet{Flow: "F1", Path: []topology.NodeID{0, 1}, PayloadBytes: 512}
	if ok, err := medium.Inject(p); err != nil || !ok {
		t.Fatalf("inject: %v %v", ok, err)
	}
	eng.Run(sim.Second)
	out := buf.String()
	if !strings.Contains(out, "s ") || !strings.Contains(out, "r ") {
		t.Errorf("trace missing exchange events:\n%s", out)
	}
	if !strings.Contains(out, "A -> B") {
		t.Errorf("trace missing names:\n%s", out)
	}
	if lines := strings.Count(out, "\n"); lines != 2 {
		t.Errorf("lines = %d, want 2 (start + end)", lines)
	}
	if tr.Err() != nil {
		t.Errorf("writer error: %v", tr.Err())
	}
}
