package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans stay in memory for the
// whole run and are written out once it ends.
type span struct {
	Name   string `json:"name"`
	Parent int    `json:"parent"` // index of the enclosing span, -1 for none
	Op     int    `json:"op"`     // op the span belongs to, -1 for none
	Tag    string `json:"tag,omitempty"`
	Work   int64  `json:"work,omitempty"` // units of work done, e.g. instructions
	Start  int64  `json:"start_ns"`       // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer records spans. A nil *tracer records nothing, so the same call
// sites serve the untraced run.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id, or -1 on a nil tracer.
func (t *tracer) begin(name string, parent, op int, tag string) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Parent: parent, Op: op, Tag: tag, Start: now, End: -1})
	return len(t.spans) - 1
}

// end closes span id; it is a no-op for id -1.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// endWork closes span id and records the units of work it did.
func (t *tracer) endWork(id int, work int64) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.spans[id].Work = work
	t.mu.Unlock()
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans as JSON lines at path.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover. Children running in parallel
// overlap; their union counts once, and any part outside the parent is
// clipped.
func selfTimes(spans []span) []int64 {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		out[i] = s.dur() - covered(s, spans, kids[i])
	}
	return out
}

// covered returns how much of parent's interval the union of the given
// child spans covers.
func covered(parent span, spans []span, kids []int) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := spans[k].Start, spans[k].End
		if lo < parent.Start {
			lo = parent.Start
		}
		if hi > parent.End {
			hi = parent.End
		}
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
	var total, curLo, curHi int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curLo, curHi, open = v.lo, v.hi, true
		case v.lo <= curHi:
			if v.hi > curHi {
				curHi = v.hi
			}
		default:
			total += curHi - curLo
			curLo, curHi = v.lo, v.hi
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// selfByName sums self time per span name over the spans whose op is
// non-negative (spans that belong to a timed op).
func selfByName(spans []span) map[string]int64 {
	self := selfTimes(spans)
	out := make(map[string]int64)
	for i, s := range spans {
		if s.Op >= 0 {
			out[s.Name] += self[i]
		}
	}
	return out
}
