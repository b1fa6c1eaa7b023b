package interval

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/microbench"
)

func TestBasicBounds(t *testing.T) {
	m := DefaultConfig()
	for _, name := range []string{"E-I", "E-D1", "C-Ca", "M-I"} {
		w, _ := microbench.ByName(name)
		res, err := m.Run(w)
		if err != nil {
			t.Fatal(err)
		}
		if ipc := res.IPC(); ipc <= 0 || ipc > float64(DefaultConfig().Width) {
			t.Errorf("%s: interval IPC %.2f outside (0, Width]", name, ipc)
		}
	}
}

func TestDeterministic(t *testing.T) {
	m := DefaultConfig()
	w, _ := microbench.ByName("M-M")
	a, err := m.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two runs differ:\n%+v\n%+v", a, b)
	}
}

func TestBreakdownSumsToCycles(t *testing.T) {
	m := DefaultConfig()
	for _, name := range []string{"E-I", "C-Ca", "M-M"} {
		w, _ := microbench.ByName(name)
		res, err := m.Run(w)
		if err != nil {
			t.Fatal(err)
		}
		if res.Breakdown == nil {
			t.Fatalf("%s: no CPI stack", name)
		}
		if got := res.Breakdown.Sum(); got != res.Cycles {
			t.Errorf("%s: stack sums to %d, cycles %d", name, got, res.Cycles)
		}
	}
}

func TestRejectsUnsupportedModes(t *testing.T) {
	m := DefaultConfig()
	w, _ := microbench.ByName("E-I")

	sw := w
	sw.Sample = &core.SamplePlan{Period: 1000, Warmup: 100, Measure: 100}
	if _, err := m.Run(sw); err == nil {
		t.Error("sampling accepted; want error")
	}

	ff := w
	ff.WarmFastForward = 100
	if _, err := m.Run(ff); err == nil {
		t.Error("warm fast-forward accepted; want error")
	}
}

func TestCapabilityMarkers(t *testing.T) {
	var m core.Machine = DefaultConfig()
	if _, ok := m.(core.StackCapable); !ok {
		t.Error("interval machine should assert core.StackCapable")
	}
	if _, ok := m.(core.SampleCapable); ok {
		t.Error("interval machine must not assert core.SampleCapable")
	}
	if _, ok := m.(core.CheckpointRecorder); ok {
		t.Error("interval machine must not assert core.CheckpointRecorder")
	}
}

func TestConfigCheck(t *testing.T) {
	bad := DefaultConfig()
	bad.Width = 0
	if err := bad.Check(); err == nil {
		t.Error("Width 0 passed Check")
	}
	bad = DefaultConfig()
	bad.L2Overlap = 0
	if err := bad.Check(); err == nil {
		t.Error("L2Overlap 0 passed Check")
	}
	if err := DefaultConfig().Check(); err != nil {
		t.Errorf("default config failed Check: %v", err)
	}
}
