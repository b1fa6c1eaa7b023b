package alpha

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
)

func TestPipeTraceInvariants(t *testing.T) {
	w := loopProg("pt", 200, func(b *asm.Builder) {
		b.OpI(isa.OpAddq, isa.T0, 1, isa.T0)
		b.OpI(isa.OpMulq, isa.T1, 3, isa.T1)
		b.Unop(1)
	})
	var col PipeEventCollector
	traced, err := NewTraced(DefaultConfig(), &col).Run(w)
	if err != nil {
		t.Fatal(err)
	}
	if len(col.Events) == 0 {
		t.Fatal("no pipe events collected")
	}
	// Tracing observes a run without changing it.
	plain, err := DefaultConfig().Run(w)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(traced, plain) {
		t.Errorf("traced run differs from an untraced one:\n  %+v\nvs\n  %+v", traced, plain)
	}
	var lastRetire uint64
	var lastSeq uint64
	for i, e := range col.Events {
		// Program order at retirement.
		if i > 0 && e.Seq != lastSeq+1 {
			t.Fatalf("event %d: seq %d after %d; retirement out of order", i, e.Seq, lastSeq)
		}
		lastSeq = e.Seq
		// Stage monotonicity.
		if e.MapAt < e.FetchAt {
			t.Errorf("seq %d mapped at %d before fetch %d", e.Seq, e.MapAt, e.FetchAt)
		}
		if !e.Dropped {
			if e.IssueAt <= e.MapAt {
				t.Errorf("seq %d issued at %d not after map %d", e.Seq, e.IssueAt, e.MapAt)
			}
			if e.DoneAt < e.IssueAt {
				t.Errorf("seq %d done %d before issue %d", e.Seq, e.DoneAt, e.IssueAt)
			}
		}
		if e.RetireAt < e.DoneAt {
			t.Errorf("seq %d retired %d before done %d", e.Seq, e.RetireAt, e.DoneAt)
		}
		// In-order retirement in time.
		if e.RetireAt < lastRetire {
			t.Errorf("seq %d retired at %d after younger at %d", e.Seq, e.RetireAt, lastRetire)
		}
		lastRetire = e.RetireAt
	}
	// Unops are dropped at map under the validated configuration.
	dropped := 0
	for _, e := range col.Events {
		if e.Dropped {
			dropped++
		}
	}
	if dropped == 0 {
		t.Error("no dropped unops recorded")
	}
}

func TestPipeTraceTextFormat(t *testing.T) {
	w := loopProg("pt2", 5, func(b *asm.Builder) {
		b.OpI(isa.OpAddq, isa.T0, 1, isa.T0)
	})
	var buf bytes.Buffer
	if _, err := NewTraced(DefaultConfig(), PipeTraceWriter(&buf)).Run(w); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "addq") || !strings.Contains(out, "f=") {
		t.Errorf("unexpected trace format:\n%s", out)
	}
	lines := strings.Count(out, "\n")
	if lines < 15 {
		t.Errorf("only %d trace lines", lines)
	}
}
