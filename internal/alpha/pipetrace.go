package alpha

import (
	"fmt"
	"io"
)

// PipeEvent is one retired instruction's trip through the pipeline:
// the cycle it was delivered by fetch, mapped, issued, completed, and
// retired. Stage times are monotonically non-decreasing.
type PipeEvent struct {
	Seq      uint64
	PC       uint64
	Disasm   string
	FetchAt  uint64 // fetch delivery (availAt)
	MapAt    uint64
	IssueAt  uint64
	DoneAt   uint64
	RetireAt uint64
	Dropped  bool // unop removed at map (never issued)
}

// PipeTracer receives one event per retired instruction. Build a
// machine with NewTraced to observe pipeline behavior (the equivalent
// of sim-outorder's ptrace facility).
type PipeTracer interface {
	Retire(PipeEvent)
}

// PipeTraceWriter renders events as text, one line per instruction:
//
//	seq pc fetch map issue done retire disasm
func PipeTraceWriter(w io.Writer) PipeTracer { return textTracer{w} }

type textTracer struct{ w io.Writer }

func (t textTracer) Retire(e PipeEvent) {
	issue := fmt.Sprintf("%d", e.IssueAt)
	if e.Dropped {
		issue = "-"
	}
	fmt.Fprintf(t.w, "%6d %#08x f=%d m=%d i=%s d=%d r=%d  %s\n",
		e.Seq, e.PC, e.FetchAt, e.MapAt, issue, e.DoneAt, e.RetireAt, e.Disasm)
}

// PipeEventCollector accumulates events in memory (for tests and
// programmatic analysis).
type PipeEventCollector struct {
	Events []PipeEvent
}

// Retire implements PipeTracer.
func (c *PipeEventCollector) Retire(e PipeEvent) { c.Events = append(c.Events, e) }

// emitPipeEvent reports a retiring entry to the machine's tracer.
func (s *sim) emitPipeEvent(e *entry) {
	if s.tracer == nil {
		return
	}
	s.tracer.Retire(PipeEvent{
		Seq:      e.inum - 1,
		PC:       e.rec.PC,
		Disasm:   e.rec.Inst.String(),
		FetchAt:  e.availAt,
		MapAt:    e.mapAt,
		IssueAt:  e.issueAt,
		DoneAt:   e.doneAt,
		RetireAt: s.cycle,
		Dropped:  e.dropped,
	})
}
