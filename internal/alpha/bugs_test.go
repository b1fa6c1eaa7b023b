package alpha

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/isa"
)

// ctlWorkload is a control-heavy kernel in the C-C mold, the class of
// benchmark on which sim-initial was worst.
func ctlWorkload() core.Workload {
	return loopProg("ctl-bugs", 2500, func(b *asm.Builder) {
		b.OpI(isa.OpAnd, isa.T12, 1, isa.T0)
		b.Br(isa.OpBeq, isa.T0, "odd")
		b.OpI(isa.OpAddq, isa.T1, 1, isa.T1)
		b.Br(isa.OpBr, isa.Zero, "join")
		b.Label("odd")
		b.OpI(isa.OpAddq, isa.T2, 1, isa.T2)
		b.Label("join")
	})
}

// TestBugCatalogueEachMatters verifies each catalogued sim-initial
// bug degrades accuracy on at least one microbenchmark-style kernel,
// i.e. none of the flags is dead.
func TestBugCatalogueEachMatters(t *testing.T) {
	kernels := []core.Workload{
		ctlWorkload(),
		loopProg("adds", 1500, func(b *asm.Builder) {
			for r := isa.Reg(1); r <= 8; r++ {
				b.Op(isa.OpAddq, r, isa.T12, r)
			}
		}),
		loopProg("muls", 400, func(b *asm.Builder) {
			for k := 0; k < 8; k++ {
				b.OpI(isa.OpMulq, isa.T0, 1, isa.T0)
			}
		}),
		recursionWorkload(),
		switchWorkload(),
		loadChainWorkload(),
		wayConflictWorkload(),
		unopDenseWorkload(),
		grainConflictWorkload(),
		mixedMissWorkload(),
	}
	ref := DefaultConfig()
	refIPC := map[string]float64{}
	for _, w := range kernels {
		r, err := ref.Run(w)
		if err != nil {
			t.Fatal(err)
		}
		refIPC[w.Name] = r.IPC()
	}

	bugs := map[string]func(*Bugs){
		"LateBranchRecovery":    func(b *Bugs) { b.LateBranchRecovery = true },
		"ExtraWayPredCycle":     func(b *Bugs) { b.ExtraWayPredCycle = true },
		"NoSpecUpdate":          func(b *Bugs) { b.NoSpecUpdate = true },
		"OctawordSquashPenalty": func(b *Bugs) { b.OctawordSquashPenalty = true },
		"CheapJmpFlush":         func(b *Bugs) { b.CheapJmpFlush = true },
		"UnopsConsumeIssue":     func(b *Bugs) { b.UnopsConsumeIssue = true },
		"WrongFUMix":            func(b *Bugs) { b.WrongFUMix = true },
		"AggressiveScheduler":   func(b *Bugs) { b.AggressiveScheduler = true },
		"CoarseTrapCompare":     func(b *Bugs) { b.CoarseTrapCompare = true },
		"ExtraRegreadCycle":     func(b *Bugs) { b.ExtraRegreadCycle = true },
		"CheapLoadUseRecovery":  func(b *Bugs) { b.CheapLoadUseRecovery = true },
	}
	for name, inject := range bugs {
		cfg := DefaultConfig()
		inject(&cfg.Bugs)
		m := cfg
		moved := false
		for _, w := range kernels {
			r, err := m.Run(w)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, w.Name, err)
			}
			if rel := r.IPC() / refIPC[w.Name]; rel < 0.999 || rel > 1.001 {
				moved = true
				break
			}
		}
		if !moved {
			t.Errorf("bug %s has no effect on any kernel", name)
		}
	}
}

// TestBugFixingConverges replays the Section 3.4 story: starting from
// the full sim-initial bug set and fixing bugs cumulatively must end
// at the validated simulator's cycle count, and the total error must
// shrink from start to finish.
func TestBugFixingConverges(t *testing.T) {
	w := ctlWorkload()
	ref, err := DefaultConfig().Run(w)
	if err != nil {
		t.Fatal(err)
	}
	fixes := []func(*Bugs){
		func(b *Bugs) { b.LateBranchRecovery = false }, // the biggest C-C error
		func(b *Bugs) { b.NoSpecUpdate = false },
		func(b *Bugs) { b.ExtraWayPredCycle = false },
		func(b *Bugs) { b.OctawordSquashPenalty = false },
		func(b *Bugs) { b.CheapJmpFlush = false },
		func(b *Bugs) { b.UnopsConsumeIssue = false },
		func(b *Bugs) { b.WrongFUMix = false },
		func(b *Bugs) { b.AggressiveScheduler = false },
		func(b *Bugs) { b.CoarseTrapCompare = false },
		func(b *Bugs) { b.ExtraRegreadCycle = false },
		func(b *Bugs) { b.CheapLoadUseRecovery = false },
	}
	cfg := SimInitial()
	first, err := cfg.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	for _, fix := range fixes {
		fix(&cfg.Bugs)
	}
	if cfg.Bugs != (Bugs{}) {
		t.Fatal("fix list does not cover the whole catalogue")
	}
	cfg.MachineName = "sim-fixed"
	last, err := cfg.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	if last.Cycles != ref.Cycles {
		t.Errorf("all-bugs-fixed cycles %d != validated %d", last.Cycles, ref.Cycles)
	}
	errFirst := absf(float64(first.Cycles)-float64(ref.Cycles)) / float64(ref.Cycles)
	if errFirst < 0.5 {
		t.Errorf("sim-initial error only %.1f%% on control code; expected large", errFirst*100)
	}
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func recursionWorkload() core.Workload {
	b := asm.NewBuilder("rec-bugs")
	b.Label("main")
	b.LoadImm(isa.T12, 40)
	b.Label("outer")
	b.LoadImm(isa.A0, 80)
	b.Br(isa.OpBsr, isa.RA, "rec")
	b.OpI(isa.OpSubq, isa.T12, 1, isa.T12)
	b.Br(isa.OpBne, isa.T12, "outer")
	b.Halt()
	b.Label("rec")
	b.OpI(isa.OpSubq, isa.SP, 16, isa.SP)
	b.Mem(isa.OpStq, isa.RA, 0, isa.SP)
	b.OpI(isa.OpSubq, isa.A0, 1, isa.A0)
	b.Br(isa.OpBeq, isa.A0, "base")
	b.Br(isa.OpBsr, isa.RA, "rec")
	b.Label("base")
	b.Mem(isa.OpLdq, isa.RA, 0, isa.SP)
	b.OpI(isa.OpAddq, isa.SP, 16, isa.SP)
	b.Jump(isa.OpRet, isa.Zero, isa.RA)
	return core.Workload{Name: "rec-bugs", Prog: b.MustAssemble()}
}

func switchWorkload() core.Workload {
	b := asm.NewBuilder("switch-bugs")
	b.Space("tbl", 4*8, 8)
	b.Label("main")
	b.LoadAddr(isa.S5, "tbl")
	for i := 0; i < 4; i++ {
		b.LoadAddr(isa.T0, "case"+string(rune('0'+i)))
		b.Mem(isa.OpStq, isa.T0, int32(i*8), isa.S5)
	}
	b.LoadImm(isa.T12, 1500)
	b.Label("loop")
	b.OpI(isa.OpAnd, isa.T12, 3, isa.T0)
	b.OpI(isa.OpSll, isa.T0, 3, isa.T0)
	b.Op(isa.OpAddq, isa.S5, isa.T0, isa.T0)
	b.Mem(isa.OpLdq, isa.T0, 0, isa.T0)
	b.Jump(isa.OpJmp, isa.Zero, isa.T0)
	for i := 0; i < 4; i++ {
		b.Label("case" + string(rune('0'+i)))
		b.OpI(isa.OpAddq, isa.T1, uint8(i+1), isa.T1)
		b.Br(isa.OpBr, isa.Zero, "next")
	}
	b.Label("next")
	b.OpI(isa.OpSubq, isa.T12, 1, isa.T12)
	b.Br(isa.OpBne, isa.T12, "loop")
	b.Halt()
	return core.Workload{Name: "switch-bugs", Prog: b.MustAssemble()}
}

func loadChainWorkload() core.Workload {
	b := asm.NewBuilder("chase-bugs")
	const nodes, stride = 4096, 64 // misses the L1 in steady state
	next := make([]uint64, nodes*stride/8)
	for i := 0; i < nodes; i++ {
		next[i*stride/8] = asm.DataBase + uint64((i+1)%nodes)*uint64(stride)
	}
	b.Quads("list", next...)
	b.Label("main")
	b.LoadAddr(isa.S0, "list")
	b.LoadImm(isa.T12, 6000)
	b.Label("loop")
	b.Mem(isa.OpLdq, isa.S0, 0, isa.S0)
	b.OpI(isa.OpSubq, isa.T12, 1, isa.T12)
	b.Br(isa.OpBne, isa.T12, "loop")
	b.Halt()
	return core.Workload{Name: "chase-bugs", Prog: b.MustAssemble()}
}

// wayConflictWorkload alternates between two functions whose lines
// land in the same I-cache set but different ways, thrashing the way
// predictor without missing the cache. Physical placement is arranged
// by touching pages in an order that makes the two functions' frames
// congruent modulo the cache's frame-color period.
func wayConflictWorkload() core.Workload {
	b := asm.NewBuilder("way-bugs")
	padToPage := func() {
		for b.PC()%8192 != 0 {
			b.Unop(1)
		}
	}
	b.Label("main")
	b.LoadImm(isa.T12, 2000)
	// Establish first-touch order: funcA, pad1..pad3, funcB, so their
	// frames are k, k+1, k+2, k+3, k+4 and funcA/funcB conflict in
	// the physically indexed I-cache (64KB 2-way, 8KB pages: frames
	// congruent mod 4 with equal page offsets share a set).
	b.Br(isa.OpBsr, isa.RA, "funcA")
	b.Br(isa.OpBsr, isa.RA, "pad1")
	b.Br(isa.OpBsr, isa.RA, "pad2")
	b.Br(isa.OpBsr, isa.RA, "pad3")
	b.Label("loop")
	b.Br(isa.OpBsr, isa.RA, "funcA")
	b.Br(isa.OpBsr, isa.RA, "funcB")
	b.OpI(isa.OpSubq, isa.T12, 1, isa.T12)
	b.Br(isa.OpBne, isa.T12, "loop")
	b.Halt()
	emitFunc := func(name string, r isa.Reg) {
		padToPage()
		b.Label(name)
		b.OpI(isa.OpAddq, r, 1, r)
		b.Jump(isa.OpRet, isa.Zero, isa.RA)
	}
	emitFunc("funcA", isa.T0)
	emitFunc("pad1", isa.T3)
	emitFunc("pad2", isa.T4)
	emitFunc("pad3", isa.T5)
	emitFunc("funcB", isa.T1)
	return core.Workload{Name: "way-bugs", Prog: b.MustAssemble()}
}

// unopDenseWorkload mixes unop padding with bursty work: load-use
// squashes create issue backlogs, and unops flowing through the
// queues (the bug, or eret removed) waste drain bandwidth.
func unopDenseWorkload() core.Workload {
	return mixedMissVariant("unop-bugs", 8)
}

// grainConflictWorkload issues a delayed store and a younger load in
// the same 32-byte granule but different quadwords: a replay trap
// only under coarse-granularity comparison.
func grainConflictWorkload() core.Workload {
	b := asm.NewBuilder("grain-bugs")
	b.Quads("ring", make([]uint64, 512)...)
	b.Label("main")
	b.LoadAddr(isa.S0, "ring")
	b.LoadImm(isa.S1, 64) // lines remaining before the pointer wraps
	b.LoadImm(isa.T12, 2500)
	b.Label("loop")
	// The address advances every iteration so consecutive iterations
	// never alias (no baseline load-order traps); only the in-flight
	// store(+0)/load(+8) pair conflicts, and only at 32-byte grain.
	b.Mem(isa.OpLdq, isa.T0, 0, isa.S0)
	b.OpI(isa.OpAddq, isa.T0, 1, isa.T0)
	b.OpI(isa.OpAddq, isa.T0, 1, isa.T0)
	b.Mem(isa.OpStq, isa.T0, 0, isa.S0) // store waits on the add chain
	b.Mem(isa.OpLdq, isa.T1, 8, isa.S0) // same granule, different word
	b.Op(isa.OpAddq, isa.T1, isa.T2, isa.T2)
	b.OpI(isa.OpAddq, isa.S0, 64, isa.S0)
	b.OpI(isa.OpSubq, isa.S1, 1, isa.S1)
	b.Br(isa.OpBne, isa.S1, "nowrap")
	b.LoadAddr(isa.S0, "ring")
	b.LoadImm(isa.S1, 64)
	b.Label("nowrap")
	b.OpI(isa.OpSubq, isa.T12, 1, isa.T12)
	b.Br(isa.OpBne, isa.T12, "loop")
	b.Halt()
	return core.Workload{Name: "grain-bugs", Prog: b.MustAssemble()}
}

// mixedMissWorkload keeps the load-use predictor biased toward hits
// (seven resident loads) while one streaming load misses, producing
// load-use squashes whose recovery cost the CheapLoadUseRecovery bug
// undercharges.
func mixedMissWorkload() core.Workload {
	return mixedMissVariant("mixmiss-bugs", 0)
}

// mixedMissVariant keeps the load-use predictor hit-biased with seven
// L1-resident loads while one ring-walking load misses the L1 and
// hits the L2, producing a load-use squash per iteration without
// saturating memory bandwidth; unops pad the body when requested.
func mixedMissVariant(name string, unops int) core.Workload {
	b := asm.NewBuilder(name)
	b.Quads("small", make([]uint64, 64)...)
	b.Space("ring", 256<<10, 64) // L1-missing, L2-resident
	b.Label("main")
	b.LoadAddr(isa.S0, "small")
	b.LoadAddr(isa.S1, "ring")
	b.LoadImm(isa.S2, (256<<10)/64)
	b.LoadImm(isa.T12, 8000)
	b.Label("loop")
	for k := 0; k < 7; k++ {
		b.Mem(isa.OpLdq, isa.Reg(1+k), int32(k*8), isa.S0)
	}
	b.Mem(isa.OpLdq, isa.T8, 0, isa.S1)      // ring walk: L1 miss, L2 hit
	b.Op(isa.OpAddq, isa.T8, isa.T9, isa.T9) // dependent consumer
	if unops > 0 {
		// FP work makes post-squash drains issue-bound (the machine
		// can drain 6-wide but fetch only 4-wide), so unops occupying
		// integer issue slots cost real drain bandwidth.
		for k := 0; k < 6; k++ {
			if k%2 == 0 {
				b.Op(isa.OpAddt, isa.Reg(1+k), 9, isa.Reg(1+k))
			} else {
				b.Op(isa.OpMult, isa.Reg(1+k), 9, isa.Reg(1+k))
			}
		}
		b.Unop(unops)
	}
	b.OpI(isa.OpAddq, isa.S1, 64, isa.S1)
	b.OpI(isa.OpSubq, isa.S2, 1, isa.S2)
	b.Br(isa.OpBne, isa.S2, "nowrap")
	b.LoadAddr(isa.S1, "ring")
	b.LoadImm(isa.S2, (256<<10)/64)
	b.Label("nowrap")
	b.OpI(isa.OpSubq, isa.T12, 1, isa.T12)
	b.Br(isa.OpBne, isa.T12, "loop")
	b.Halt()
	return core.Workload{Name: name, Prog: b.MustAssemble()}
}
