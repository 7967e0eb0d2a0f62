// Package trace renders MAC events as ns-2-style trace lines, for
// debugging simulations and for post-hoc analysis of channel
// behaviour.
//
// Line format (one event per line):
//
//	s 1.234567 A -> B   F1#42@hop0    (exchange start)
//	r 1.237341 A -> B   F1#42@hop0    (exchange end / received)
//	b 1.240000 C -> *   dsr-rreq#1    (broadcast)
//	c 1.241000 A        F1#43@hop0    (failed floor acquisition)
//	D 1.250000 A        F1#43@hop0    (retry-limit drop)
//	x 1.252000 A -> B   F1#44@hop0    (frame corrupted by loss model)
//	L 1.260000 A -> B   F1#44@hop0    (link declared dead)
//	R 1.261000 A -> C   <nil>         (route repaired src -> dst)
//	v 1.261500 B -> C   F1#44@hop1    (packet salvaged onto detour)
//	g 1.262000 A        <nil>         (allocation degraded to basic)
package trace

import (
	"fmt"
	"io"
	"sync"

	"e2efair/internal/mac"
	"e2efair/internal/topology"
)

// kindCode maps event kinds to their one-letter ns-2-style codes.
func kindCode(k mac.TraceKind) byte {
	switch k {
	case mac.TraceExchangeStart:
		return 's'
	case mac.TraceExchangeEnd:
		return 'r'
	case mac.TraceBroadcast:
		return 'b'
	case mac.TraceCollision:
		return 'c'
	case mac.TraceDrop:
		return 'D'
	case mac.TraceCorrupt:
		return 'x'
	case mac.TraceLinkDead:
		return 'L'
	case mac.TraceReroute:
		return 'R'
	case mac.TraceSalvage:
		return 'v'
	case mac.TraceDegraded:
		return 'g'
	default:
		return '?'
	}
}

// Format renders one event as a trace line (without trailing newline).
// names resolves node IDs; pass nil to print raw IDs.
func Format(ev mac.TraceEvent, names func(topology.NodeID) string) string {
	name := func(id topology.NodeID) string {
		if id < 0 {
			return "*"
		}
		if names == nil {
			return fmt.Sprintf("%d", id)
		}
		return names(id)
	}
	pkt := "<nil>"
	if ev.Pkt != nil {
		pkt = ev.Pkt.String()
	}
	switch ev.Kind {
	case mac.TraceExchangeStart, mac.TraceExchangeEnd,
		mac.TraceCorrupt, mac.TraceLinkDead, mac.TraceReroute, mac.TraceSalvage:
		return fmt.Sprintf("%c %.6f %s -> %s %s",
			kindCode(ev.Kind), ev.At.Seconds(), name(ev.Node), name(ev.Peer), pkt)
	default:
		return fmt.Sprintf("%c %.6f %s %s",
			kindCode(ev.Kind), ev.At.Seconds(), name(ev.Node), pkt)
	}
}

// Writer streams trace lines to an io.Writer.
type Writer struct {
	mu    sync.Mutex
	w     io.Writer
	names func(topology.NodeID) string
	err   error
}

var _ mac.Tracer = (*Writer)(nil)

// NewWriter traces to w, resolving node names with names (may be nil).
func NewWriter(w io.Writer, names func(topology.NodeID) string) *Writer {
	return &Writer{w: w, names: names}
}

// Trace implements mac.Tracer.
func (t *Writer) Trace(ev mac.TraceEvent) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return
	}
	_, t.err = fmt.Fprintln(t.w, Format(ev, t.names))
}

// Err returns the first write error, if any.
func (t *Writer) Err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}
