package core

import (
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
)

func prog(t *testing.T) *asm.Program {
	t.Helper()
	b := asm.NewBuilder("p")
	b.Label("main")
	b.LoadImm(isa.T0, 10)
	b.Label("loop")
	b.OpI(isa.OpSubq, isa.T0, 1, isa.T0)
	b.Br(isa.OpBne, isa.T0, "loop")
	b.Halt()
	return b.MustAssemble()
}

func TestWorkloadSourceFresh(t *testing.T) {
	w := Workload{Name: "w", Prog: prog(t)}
	count := func() int {
		src := w.Source()
		n := 0
		for {
			if _, ok := src.Next(); !ok {
				break
			}
			n++
		}
		return n
	}
	a, b := count(), count()
	if a != b || a == 0 {
		t.Fatalf("sources not independent: %d vs %d", a, b)
	}
}

func TestWorkloadSourceLimited(t *testing.T) {
	w := Workload{Name: "w", Prog: prog(t), MaxInstructions: 5}
	src := w.Source()
	n := 0
	for {
		if _, ok := src.Next(); !ok {
			break
		}
		n++
	}
	if n != 5 {
		t.Fatalf("limited source yielded %d, want 5", n)
	}
}

func TestWorkloadCapped(t *testing.T) {
	for _, c := range []struct {
		budget, limit, want uint64
	}{
		{0, 0, 0},        // no limit, runs to HALT
		{0, 500, 500},    // a HALT-bounded workload takes the limit
		{1000, 0, 1000},  // zero limit keeps the budget
		{1000, 500, 500}, // a lower limit cuts the budget
		{1000, 1000, 1000},
		{1000, 2000, 1000}, // a higher limit never raises it
	} {
		w := Workload{Name: "w", MaxInstructions: c.budget}
		got := w.Capped(c.limit)
		if got.MaxInstructions != c.want {
			t.Errorf("budget %d capped at %d = %d, want %d", c.budget, c.limit, got.MaxInstructions, c.want)
		}
		if got.Name != w.Name || w.MaxInstructions != c.budget {
			t.Errorf("Capped changed the workload's identity or the receiver: %+v from %+v", got, w)
		}
	}
}

func TestRunResultMath(t *testing.T) {
	r := RunResult{Machine: "m", Workload: "w", Instructions: 200, Cycles: 100}
	if r.IPC() != 2.0 {
		t.Errorf("IPC = %v", r.IPC())
	}
	if r.CPI() != 0.5 {
		t.Errorf("CPI = %v", r.CPI())
	}
	var zero RunResult
	if zero.IPC() != 0 || zero.CPI() != 0 {
		t.Error("zero-value result not guarded")
	}
	if !strings.Contains(r.String(), "IPC 2.000") {
		t.Errorf("String() = %q", r.String())
	}
}

func TestCounterAccess(t *testing.T) {
	r := RunResult{Counters: map[string]uint64{"x": 3}}
	if r.Counter("x") != 3 || r.Counter("missing") != 0 {
		t.Error("Counter lookup wrong")
	}
	var empty RunResult
	if empty.Counter("x") != 0 {
		t.Error("nil counters not guarded")
	}
}

func TestFastForward(t *testing.T) {
	w := Workload{Name: "w", Prog: prog(t)}
	full := 0
	src := w.Source()
	for {
		if _, ok := src.Next(); !ok {
			break
		}
		full++
	}
	w.FastForward = 5
	src = w.Source()
	rest := 0
	var firstSeq uint64
	for {
		r, ok := src.Next()
		if !ok {
			break
		}
		if rest == 0 {
			firstSeq = r.Seq
		}
		rest++
	}
	if rest != full-5 {
		t.Errorf("fast-forward left %d records, want %d", rest, full-5)
	}
	if firstSeq != 5 {
		t.Errorf("first record after skip has seq %d, want 5", firstSeq)
	}
	// Skipping past the end yields an empty stream, not a panic.
	w.FastForward = 1 << 20
	src = w.Source()
	if _, ok := src.Next(); ok {
		t.Error("over-long fast-forward yielded records")
	}
}
