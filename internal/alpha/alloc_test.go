package alpha

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/isa"
)

// allocWorkload builds a loop of iters iterations whose body mixes
// loads, a store, dependent ALU work, a multiply and the loop branch,
// so a run exercises every per-instruction path: fetch lookahead,
// map, issue across both clusters, the memory pipes and retire.
func allocWorkload(name string, iters int64) core.Workload {
	b := asm.NewBuilder(name)
	b.Space("buf", 4096, 64)
	b.Label("main")
	b.LoadImm(isa.T12, iters)
	b.LoadAddr(isa.S0, "buf")
	b.AlignOctaword()
	b.Label("loop")
	b.Mem(isa.OpLdq, isa.T0, 0, isa.S0)
	b.Mem(isa.OpStq, isa.T0, 8, isa.S0)
	b.OpI(isa.OpAddq, isa.T0, 1, isa.T1)
	b.Op(isa.OpMulq, isa.T1, isa.T1, isa.T2)
	b.OpI(isa.OpSubq, isa.T12, 1, isa.T12)
	b.Br(isa.OpBne, isa.T12, "loop")
	b.Halt()
	return core.Workload{Name: name, Prog: b.MustAssemble()}
}

// TestRetireSteadyStateAllocFree pins the hot-loop guarantee the
// performance pass established: once a run is warmed up, simulating
// an instruction allocates nothing. Setup cost (the sim, the caches,
// the predictors) is constant per run, so the pin measures the
// *difference* in allocations between a short and a 9x longer run of
// the same loop — any per-instruction allocation would show up
// multiplied by the ~48k extra dynamic instructions.
func TestRetireSteadyStateAllocFree(t *testing.T) {
	m := DefaultConfig()
	short := allocWorkload("alloc-short", 1_000)
	long := allocWorkload("alloc-long", 9_000)
	measure := func(w core.Workload) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := m.Run(w); err != nil {
				t.Fatal(err)
			}
		})
	}
	base := measure(short)
	grown := measure(long)
	if extra := grown - base; extra > 4 {
		t.Errorf("retire path allocates in steady state: %.0f extra allocs over ~48k extra instructions (short run %.0f, long run %.0f)",
			extra, base, grown)
	}
}
