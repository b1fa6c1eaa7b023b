package ruu

import (
	"testing"

	"repro/internal/alpha"
	"repro/internal/core"
	"repro/internal/microbench"
)

func run(t *testing.T, m core.Machine, name string) core.RunResult {
	t.Helper()
	w, ok := microbench.ByName(name)
	if !ok {
		t.Fatalf("no workload %s", name)
	}
	res, err := m.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestBasicExecution(t *testing.T) {
	m := DefaultConfig()
	res := run(t, m, "E-I")
	if res.IPC() < 3.0 {
		t.Errorf("E-I IPC = %.2f, want near 4", res.IPC())
	}
	res = run(t, m, "E-D1")
	if res.IPC() < 0.8 || res.IPC() > 1.3 {
		t.Errorf("E-D1 IPC = %.2f, want ~1", res.IPC())
	}
}

func TestDeterminism(t *testing.T) {
	m := DefaultConfig()
	a := run(t, m, "C-Ca")
	b := run(t, m, "C-Ca")
	if a.Cycles != b.Cycles {
		t.Fatalf("nondeterministic: %d vs %d", a.Cycles, b.Cycles)
	}
}

// The central claim of the paper: the abstract RUU machine
// outperforms the validated detailed model on control-heavy code
// because it lacks the front-end constraints (line predictor,
// deep pipeline, jmp flushes).
func TestOptimisticVersusAlpha(t *testing.T) {
	ro := DefaultConfig()
	al := alpha.DefaultConfig()
	faster := 0
	for _, name := range []string{"C-Ca", "C-Cb", "C-S1", "C-S2", "C-S3", "C-R"} {
		rr := run(t, ro, name)
		ar := run(t, al, name)
		if rr.IPC() > ar.IPC() {
			faster++
		}
		t.Logf("%s: ruu %.2f vs alpha %.2f", name, rr.IPC(), ar.IPC())
	}
	if faster < 4 {
		t.Errorf("sim-outorder faster on only %d/6 control benchmarks", faster)
	}
}

func TestEightWideFasterThanFourWide(t *testing.T) {
	four := DefaultConfig()
	eight := EightWide()
	f := run(t, four, "E-I")
	e := run(t, eight, "E-I")
	if e.IPC() <= f.IPC() {
		t.Errorf("8-way IPC %.2f not above 4-way %.2f", e.IPC(), f.IPC())
	}
	if e.IPC() < 5.5 {
		t.Errorf("8-way IPC %.2f; expected well above 4-wide limits", e.IPC())
	}
}

func TestBTBCapturesSwitchTargets(t *testing.T) {
	// sim-outorder's BTB predicts repeated indirect-jump targets,
	// so C-S2/C-S3 should beat the alpha model's line predictor
	// (Table 2: 1.33/1.64 versus 0.85/0.95 on the native machine).
	ro := DefaultConfig()
	al := alpha.DefaultConfig()
	rr := run(t, ro, "C-S3")
	ar := run(t, al, "C-S3")
	if rr.IPC() <= ar.IPC() {
		t.Errorf("C-S3: ruu %.2f not above alpha %.2f", rr.IPC(), ar.IPC())
	}
}

func TestMemoryBoundSimilar(t *testing.T) {
	// On pure memory latency (M-M) both machines are DRAM-bound; the
	// RUU model should not be wildly faster (Table 2: -0.3%).
	ro := DefaultConfig()
	al := alpha.DefaultConfig()
	rr := run(t, ro, "M-M")
	ar := run(t, al, "M-M")
	ratio := rr.IPC() / ar.IPC()
	if ratio > 2.0 || ratio < 0.5 {
		t.Errorf("M-M ratio ruu/alpha = %.2f; both should be memory-bound", ratio)
	}
}

func TestCountersPresent(t *testing.T) {
	m := DefaultConfig()
	res := run(t, m, "C-S1")
	if res.Counter("br_mispredicts")+res.Counter("btb_misses") == 0 {
		t.Error("C-S1 produced no branch/BTB events")
	}
}

func TestRenameRegisterGate(t *testing.T) {
	// With a tiny rename pool, dispatch stalls and IPC collapses on
	// wide independent code; a large pool restores it.
	w, _ := microbench.ByName("E-I")
	small := DefaultConfig()
	small.RenameRegs = 4
	big := DefaultConfig()
	big.RenameRegs = 80
	sr, err := small.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	br, err := big.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	if sr.IPC() >= br.IPC() {
		t.Errorf("rename gate inert: small-pool IPC %.2f >= big-pool %.2f", sr.IPC(), br.IPC())
	}
}

func TestConfigCheck(t *testing.T) {
	if err := DefaultConfig().Check(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	if err := EightWide().Check(); err != nil {
		t.Fatalf("8-wide config invalid: %v", err)
	}
	cfg := DefaultConfig()
	cfg.RUUSize = 1
	if err := cfg.Check(); err == nil {
		t.Error("tiny RUU passed Check")
	}
	w, ok := microbench.ByName("C-Ca")
	if !ok {
		t.Fatal("no C-Ca workload")
	}
	if _, err := cfg.Run(w); err == nil {
		t.Error("Run accepted a bad config")
	}
}
