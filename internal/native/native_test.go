package native

import (
	"testing"

	"repro/internal/alpha"
	"repro/internal/dcpi"
	"repro/internal/microbench"
)

func TestNameAndMeasurement(t *testing.T) {
	m := DefaultConfig()
	if m.Name() != "native-ds10l" {
		t.Errorf("name = %s", m.Name())
	}
	w, _ := microbench.ByName("E-D1")
	measured, err := m.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	// An exact run is the inner model without the profiler.
	exact, err := DefaultConfig().Model.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	if measured.Machine != "native-ds10l" || exact.Machine != "native-ds10l" {
		t.Error("machine name not stamped")
	}
	if measured.Instructions != exact.Instructions {
		t.Error("instruction counters must be exact under sampling")
	}
	if measured.Cycles == exact.Cycles {
		t.Error("sampled measurement identical to exact cycles; profiler inert")
	}
	rel := float64(measured.Cycles) / float64(exact.Cycles)
	if rel < 0.99 || rel > 1.01 {
		t.Errorf("measurement perturbation %.4f beyond 1%%", rel)
	}
}

func TestNativeDiffersFromSimAlpha(t *testing.T) {
	// The reference machine and the validated simulator must disagree
	// on memory-intensive work (the paper's residual macro error) but
	// agree closely on cache-resident kernels.
	nat := DefaultConfig().Model // exact: no profiler
	sim := alpha.DefaultConfig()
	mm, _ := microbench.ByName("M-M")
	nr, err := nat.Run(mm)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := sim.Run(mm)
	if err != nil {
		t.Fatal(err)
	}
	if nr.IPC() <= sr.IPC() {
		t.Errorf("native M-M IPC %.4f not above sim-alpha %.4f (controller tuning missing)",
			nr.IPC(), sr.IPC())
	}
	ed, _ := microbench.ByName("E-D1")
	nr, _ = nat.Run(ed)
	sr, _ = sim.Run(ed)
	ratio := nr.IPC() / sr.IPC()
	if ratio < 0.98 || ratio > 1.02 {
		t.Errorf("cache-resident divergence: native %.3f vs sim %.3f", nr.IPC(), sr.IPC())
	}
}

func TestCustomProfilerInterval(t *testing.T) {
	w, _ := microbench.ByName("E-D1")
	coarse := Config{Model: alpha.NativeConfig(), Prof: dcpi.Config{IntervalCycles: 64000, DilationPerSample: 8, JitterPPM: 3000}}
	fine := Config{Model: alpha.NativeConfig(), Prof: dcpi.Config{IntervalCycles: 1000, DilationPerSample: 8, JitterPPM: 3000}}
	cr, err := coarse.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	fr, err := fine.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	// Finer sampling dilates more (more interrupts).
	if fr.Cycles <= cr.Cycles {
		t.Errorf("fine sampling %d not above coarse %d", fr.Cycles, cr.Cycles)
	}
}
