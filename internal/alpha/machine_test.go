package alpha

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/vm"
)

// loopProg builds a program whose loop body is emitted by body and
// runs iters iterations, with the loop counter in T12.
func loopProg(name string, iters int64, body func(b *asm.Builder)) core.Workload {
	b := asm.NewBuilder(name)
	b.Label("main")
	b.LoadImm(isa.T12, iters)
	b.AlignOctaword()
	b.Label("loop")
	body(b)
	b.OpI(isa.OpSubq, isa.T12, 1, isa.T12)
	b.Br(isa.OpBne, isa.T12, "loop")
	b.Halt()
	return core.Workload{Name: name, Prog: b.MustAssemble()}
}

func runOn(t *testing.T, cfg Config, w core.Workload) core.RunResult {
	t.Helper()
	res, err := cfg.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles == 0 || res.Instructions == 0 {
		t.Fatalf("degenerate result: %+v", res)
	}
	return res
}

func TestIndependentAddsNearFullWidth(t *testing.T) {
	w := loopProg("e-i-like", 2000, func(b *asm.Builder) {
		for r := isa.Reg(1); r <= 8; r++ {
			for k := 0; k < 4; k++ {
				b.Op(isa.OpAddq, r, isa.T12, r)
			}
		}
	})
	res := runOn(t, DefaultConfig(), w)
	if ipc := res.IPC(); ipc < 3.2 {
		t.Errorf("independent adds IPC = %.2f, want near 4", ipc)
	}
}

func TestDependentChainNearOne(t *testing.T) {
	w := loopProg("e-d1-like", 2000, func(b *asm.Builder) {
		for k := 0; k < 16; k++ {
			b.OpI(isa.OpAddq, isa.T0, 1, isa.T0)
		}
	})
	res := runOn(t, DefaultConfig(), w)
	ipc := res.IPC()
	if ipc < 0.85 || ipc > 1.25 {
		t.Errorf("dependent chain IPC = %.2f, want ~1", ipc)
	}
}

func TestDependentMultiplyNearOneSeventh(t *testing.T) {
	w := loopProg("e-dm1-like", 500, func(b *asm.Builder) {
		for k := 0; k < 16; k++ {
			b.OpI(isa.OpMulq, isa.T0, 1, isa.T0)
		}
	})
	res := runOn(t, DefaultConfig(), w)
	ipc := res.IPC()
	if ipc < 0.10 || ipc > 0.20 {
		t.Errorf("dependent multiply IPC = %.3f, want ~0.14", ipc)
	}
}

func TestTwoDependentChainsNearTwo(t *testing.T) {
	w := loopProg("e-d2-like", 2000, func(b *asm.Builder) {
		for k := 0; k < 8; k++ {
			b.OpI(isa.OpAddq, isa.T0, 1, isa.T0)
			b.OpI(isa.OpAddq, isa.T1, 1, isa.T1)
		}
	})
	res := runOn(t, DefaultConfig(), w)
	ipc := res.IPC()
	if ipc < 1.6 || ipc > 2.4 {
		t.Errorf("two chains IPC = %.2f, want ~2", ipc)
	}
}

func TestFPAddsLimitedByOnePipe(t *testing.T) {
	w := loopProg("e-f-like", 1000, func(b *asm.Builder) {
		for r := isa.Reg(1); r <= 8; r++ {
			b.Op(isa.OpAddt, r, 9, r)
		}
	})
	res := runOn(t, DefaultConfig(), w)
	ipc := res.IPC()
	// One FP add pipe: ~1 FP add/cycle plus loop overhead.
	if ipc < 0.8 || ipc > 1.6 {
		t.Errorf("FP adds IPC = %.2f, want ~1", ipc)
	}
}

func TestWrongFUMixHalvesAddThroughput(t *testing.T) {
	w := loopProg("e-i-like", 1000, func(b *asm.Builder) {
		for r := isa.Reg(1); r <= 8; r++ {
			b.Op(isa.OpAddq, r, isa.T12, r)
		}
	})
	good := runOn(t, DefaultConfig(), w)
	bad := DefaultConfig()
	bad.Bugs.WrongFUMix = true
	badRes := runOn(t, bad, w)
	if badRes.IPC() >= good.IPC()*0.75 {
		t.Errorf("WrongFUMix IPC %.2f vs correct %.2f: expected large drop",
			badRes.IPC(), good.IPC())
	}
}

func TestMispredictedBranchesCost(t *testing.T) {
	// Branch on one pass of pre-generated random data: no repeating
	// pattern for the predictor to learn.
	const n = 3000
	vals := make([]uint64, n)
	x := uint64(0x2545F4914F6CDD1D)
	for i := range vals {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		vals[i] = x & 1
	}
	b := asm.NewBuilder("unpredictable")
	b.Quads("bits", vals...)
	b.Label("main")
	b.LoadImm(isa.T12, n)
	b.LoadAddr(isa.S0, "bits")
	b.Label("loop")
	b.Mem(isa.OpLdq, isa.T0, 0, isa.S0)
	b.OpI(isa.OpAddq, isa.S0, 8, isa.S0)
	b.Br(isa.OpBeq, isa.T0, "skip")
	b.OpI(isa.OpAddq, isa.T1, 1, isa.T1)
	b.Label("skip")
	b.OpI(isa.OpSubq, isa.T12, 1, isa.T12)
	b.Br(isa.OpBne, isa.T12, "loop")
	b.Halt()
	hard := core.Workload{Name: "unpredictable", Prog: b.MustAssemble()}

	easy := loopProg("predictable", 3000, func(bb *asm.Builder) {
		bb.OpI(isa.OpAddq, isa.T0, 1, isa.T0)
		bb.OpI(isa.OpAddq, isa.T1, 1, isa.T1)
		bb.OpI(isa.OpAddq, isa.T2, 1, isa.T2)
	})
	hr := runOn(t, DefaultConfig(), hard)
	er := runOn(t, DefaultConfig(), easy)
	if hr.Counter("br_mispredicts") < 500 {
		t.Errorf("unpredictable branches: only %d mispredicts", hr.Counter("br_mispredicts"))
	}
	if hr.IPC() >= er.IPC() {
		t.Errorf("unpredictable IPC %.2f not below predictable %.2f", hr.IPC(), er.IPC())
	}
}

func TestSimInitialSlowerOnControl(t *testing.T) {
	// The sim-initial bug set dramatically underestimates control-
	// heavy code (C-C, C-R in the paper).
	w := loopProg("ctl", 2000, func(b *asm.Builder) {
		b.OpI(isa.OpAnd, isa.T12, 1, isa.T0)
		b.Br(isa.OpBeq, isa.T0, "odd")
		b.OpI(isa.OpAddq, isa.T1, 1, isa.T1)
		b.Br(isa.OpBr, isa.Zero, "join")
		b.Label("odd")
		b.OpI(isa.OpAddq, isa.T2, 1, isa.T2)
		b.Label("join")
	})
	good := runOn(t, DefaultConfig(), w)
	bad := runOn(t, SimInitial(), w)
	if bad.IPC() >= good.IPC()*0.8 {
		t.Errorf("sim-initial IPC %.2f vs sim-alpha %.2f: expected much slower",
			bad.IPC(), good.IPC())
	}
}

func TestStrippedSlowerThanValidated(t *testing.T) {
	w := loopProg("mixed", 1500, func(b *asm.Builder) {
		b.Quads("arr", make([]uint64, 64)...)
		// (Quads inside loop body builder would duplicate; guard below.)
	})
	// Build a mixed workload explicitly instead.
	b := asm.NewBuilder("mixed")
	b.Quads("arr", make([]uint64, 512)...)
	b.Label("main")
	b.LoadImm(isa.T12, 1500)
	b.LoadAddr(isa.S0, "arr")
	b.Label("loop")
	b.Mem(isa.OpLdq, isa.T0, 0, isa.S0)
	b.OpI(isa.OpAddq, isa.T0, 1, isa.T0)
	b.Mem(isa.OpStq, isa.T0, 0, isa.S0)
	b.OpI(isa.OpAddq, isa.S0, 8, isa.S0)
	b.OpI(isa.OpAnd, isa.T12, 7, isa.T1)
	b.Br(isa.OpBne, isa.T1, "skip")
	b.LoadAddr(isa.S0, "arr")
	b.Label("skip")
	b.OpI(isa.OpSubq, isa.T12, 1, isa.T12)
	b.Br(isa.OpBne, isa.T12, "loop")
	b.Halt()
	w = core.Workload{Name: "mixed", Prog: b.MustAssemble()}

	val := runOn(t, DefaultConfig(), w)
	str := runOn(t, SimStripped(), w)
	if str.IPC() >= val.IPC() {
		t.Errorf("sim-stripped IPC %.2f not below sim-alpha %.2f", str.IPC(), val.IPC())
	}
}

func TestDeterminism(t *testing.T) {
	w := loopProg("det", 500, func(b *asm.Builder) {
		b.OpI(isa.OpAddq, isa.T0, 3, isa.T0)
		b.OpI(isa.OpXor, isa.T0, 5, isa.T1)
	})
	a := runOn(t, DefaultConfig(), w)
	bR := runOn(t, DefaultConfig(), w)
	if a.Cycles != bR.Cycles || a.Instructions != bR.Instructions {
		t.Fatalf("nondeterministic: %v vs %v", a, bR)
	}
}

func TestInstructionCountMatchesFunctional(t *testing.T) {
	w := loopProg("count", 100, func(b *asm.Builder) {
		b.OpI(isa.OpAddq, isa.T0, 1, isa.T0)
	})
	res := runOn(t, DefaultConfig(), w)
	// Count the dynamic stream directly.
	src := w.Source()
	var n uint64
	for {
		if _, ok := src.Next(); !ok {
			break
		}
		n++
	}
	if res.Instructions != n {
		t.Errorf("retired %d, functional stream %d", res.Instructions, n)
	}
}

func TestRecursionExercisesRAS(t *testing.T) {
	b := asm.NewBuilder("c-r-like")
	b.Label("main")
	b.LoadImm(isa.T12, 50) // outer iterations
	b.Label("outer")
	b.LoadImm(isa.A0, 100) // recursion depth
	b.Br(isa.OpBsr, isa.RA, "rec")
	b.OpI(isa.OpSubq, isa.T12, 1, isa.T12)
	b.Br(isa.OpBne, isa.T12, "outer")
	b.Halt()
	b.Label("rec")
	b.Mem(isa.OpStq, isa.RA, -8, isa.SP)
	b.OpI(isa.OpSubq, isa.SP, 16, isa.SP)
	b.OpI(isa.OpSubq, isa.A0, 1, isa.A0)
	b.Br(isa.OpBeq, isa.A0, "base")
	b.Br(isa.OpBsr, isa.RA, "rec")
	b.Label("base")
	b.OpI(isa.OpAddq, isa.SP, 16, isa.SP)
	b.Mem(isa.OpLdq, isa.RA, -8, isa.SP)
	b.Jump(isa.OpRet, isa.Zero, isa.RA)
	w := core.Workload{Name: "c-r-like", Prog: b.MustAssemble()}

	val := runOn(t, DefaultConfig(), w)
	// Without speculative predictor update, returns see a stale RAS.
	noSpec := DefaultConfig().WithoutFeature("spec")
	ns := runOn(t, noSpec, w)
	if ns.Counter("jmp_mispredicts") <= val.Counter("jmp_mispredicts") {
		t.Errorf("no-spec jmp mispredicts %d not above validated %d",
			ns.Counter("jmp_mispredicts"), val.Counter("jmp_mispredicts"))
	}
	if ns.IPC() >= val.IPC() {
		t.Errorf("no-spec IPC %.2f not below validated %.2f", ns.IPC(), val.IPC())
	}
}

func TestFeatureTogglesAllRun(t *testing.T) {
	w := loopProg("toggle", 300, func(b *asm.Builder) {
		b.OpI(isa.OpAddq, isa.T0, 1, isa.T0)
		b.OpI(isa.OpMulq, isa.T1, 3, isa.T1)
	})
	for _, name := range FeatureNames {
		cfg := DefaultConfig().WithoutFeature(name)
		res := runOn(t, cfg, w)
		if res.IPC() <= 0 {
			t.Errorf("feature %s: bad IPC %v", name, res.IPC())
		}
	}
}

func TestRegisterFileDepthSlowsDependentChains(t *testing.T) {
	w := loopProg("rf", 1500, func(b *asm.Builder) {
		for k := 0; k < 16; k++ {
			b.OpI(isa.OpAddq, isa.T0, 1, isa.T0)
		}
	})
	base := runOn(t, DefaultConfig(), w)
	deep := DefaultConfig()
	deep.RFReadCycles = 2
	deepRes := runOn(t, deep, w)
	partial := DefaultConfig()
	partial.RFReadCycles = 2
	partial.PartialBypass = true
	partRes := runOn(t, partial, w)
	if !(partRes.IPC() < deepRes.IPC() && deepRes.IPC() <= base.IPC()) {
		t.Errorf("RF config ordering violated: base %.2f, 2cyc %.2f, partial %.2f",
			base.IPC(), deepRes.IPC(), partRes.IPC())
	}
	// With full bypassing the dependence edges never touch the
	// register file: a dependent chain barely slows (the cost moves
	// to recovery depth). This is the 21264 behavior behind Figure 2.
	if ratio := deepRes.IPC() / base.IPC(); ratio < 0.9 {
		t.Errorf("2-cycle full-bypass cost ratio %.2f; bypass should hide it", ratio)
	}
	// Partial bypassing exposes the read latency on every edge: the
	// chain runs at roughly half speed.
	if ratio := partRes.IPC() / base.IPC(); ratio > 0.7 {
		t.Errorf("2-cycle partial-bypass ratio %.2f; expected ~0.5", ratio)
	}
}

func TestConfigCheck(t *testing.T) {
	if err := DefaultConfig().Check(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.FetchWidth = 0 },
		func(c *Config) { c.FetchWidth = 9 },
		func(c *Config) { c.ROB = 2 },
		func(c *Config) { c.IntQueue = 0 },
		func(c *Config) { c.RenameRegs = 0 },
		func(c *Config) { c.RFReadCycles = 0 },
		func(c *Config) { c.RASEntries = 0 },
		func(c *Config) { c.Mapping = vm.Mapping{} },
		func(c *Config) { c.Mapping = vm.Mapping{Policy: "page-colored"} },
		func(c *Config) { c.ROB = 1 << 36 },
		func(c *Config) { c.RASEntries = 1 << 30 },
		func(c *Config) { c.WayMispredict = -1 },
		func(c *Config) { c.Tour.GlobalHistBits = 40 },
		func(c *Config) { c.Hier.L2.SizeBytes = 3 << 20 },
		func(c *Config) { c.Hier.DTLBEntries = 0 },
		func(c *Config) { c.DRAM.Banks = 1 << 40 },
		func(c *Config) { c.DDR.TCL = 4 }, // a partial DDR config fails ddr's Check
		// TrapGranule masks addresses, so it must be a power of two.
		func(c *Config) { c.TrapGranule = 0 },
		func(c *Config) { c.TrapGranule = 12 },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig()
		mutate(&cfg)
		if err := cfg.Check(); err == nil {
			t.Errorf("bad config %d passed Check", i)
		}
	}
	cfg := DefaultConfig()
	cfg.ROB = 0
	w := loopProg("bad-config", 10, func(b *asm.Builder) {})
	if _, err := cfg.Run(w); err == nil {
		t.Error("Run accepted a bad config")
	}
}
