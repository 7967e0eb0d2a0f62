package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary: which call, when it
// started and ended (nanoseconds since the recorder's epoch), the span
// that caused it (noParent for a root) and the request it serves.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

const noParent int32 = -1

// recorder keeps spans in memory until the run ends. A disabled
// recorder records nothing, so the same replay code runs traced and
// untraced and the difference is the tracing overhead.
type recorder struct {
	on    bool
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder(on bool) *recorder {
	return &recorder{on: on, epoch: time.Now()}
}

// begin opens a span and returns its ID (noParent when r is nil or
// disabled).
func (r *recorder) begin(name string, parent int32, req int64) int32 {
	if r == nil || !r.on {
		return noParent
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	id := int32(len(r.spans))
	r.spans = append(r.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: now})
	r.mu.Unlock()
	return id
}

// end closes a span opened by begin.
func (r *recorder) end(id int32) {
	if id == noParent {
		return
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// adopt appends another recorder's spans, shifted onto this
// recorder's epoch and IDs.
func (r *recorder) adopt(o *recorder) {
	spans := o.snapshot()
	shift := o.epoch.Sub(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	base := int32(len(r.spans))
	for _, s := range spans {
		s.ID += base
		if s.Parent != noParent {
			s.Parent += base
		}
		s.Start += shift
		s.End += shift
		r.spans = append(r.spans, s)
	}
}

// snapshot returns a copy of the recorded spans.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeJSONL writes the spans one JSON object per line.
func (r *recorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that the union of its children's intervals covers.
// Children may overlap each other and may extend past the parent; only
// the covered part inside the parent counts.
func selfTimes(spans []span) []int64 {
	children := make([][]int32, len(spans))
	for _, s := range spans {
		if s.Parent != noParent {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	self := make([]int64, len(spans))
	type iv struct{ a, b int64 }
	var ivs []iv
	for i, p := range spans {
		ivs = ivs[:0]
		for _, c := range children[i] {
			a, b := max(spans[c].Start, p.Start), min(spans[c].End, p.End)
			if a < b {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		var covered, curA, curB int64
		open := false
		for _, v := range ivs {
			switch {
			case !open:
				curA, curB, open = v.a, v.b, true
			case v.a <= curB:
				curB = max(curB, v.b)
			default:
				covered += curB - curA
				curA, curB = v.a, v.b
			}
		}
		if open {
			covered += curB - curA
		}
		self[i] = (p.End - p.Start) - covered
	}
	return self
}

// layerTotal is one span name's count, summed duration and summed self
// time, in nanoseconds.
type layerTotal struct {
	Count int64
	Total int64
	Self  int64
}

// layerTotals aggregates spans by name.
func layerTotals(spans []span) map[string]*layerTotal {
	self := selfTimes(spans)
	out := make(map[string]*layerTotal)
	for i, s := range spans {
		t := out[s.Name]
		if t == nil {
			t = &layerTotal{}
			out[s.Name] = t
		}
		t.Count++
		t.Total += s.End - s.Start
		t.Self += self[i]
	}
	return out
}
