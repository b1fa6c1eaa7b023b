package repro

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/isa"
)

func TestMachineConstructors(t *testing.T) {
	machines := []Machine{
		SimAlpha(), SimInitial(), SimStripped(), SimOutorder(), NativeDS10L(),
		SimInorder(),
	}
	names := map[string]bool{}
	for _, m := range machines {
		if m.Name() == "" {
			t.Error("machine with empty name")
		}
		if names[m.Name()] {
			t.Errorf("duplicate machine name %s", m.Name())
		}
		names[m.Name()] = true
	}
}

func TestWorkloadLookup(t *testing.T) {
	if len(Microbenchmarks()) != 21 {
		t.Errorf("microbenchmarks = %d, want 21", len(Microbenchmarks()))
	}
	if len(Macrobenchmarks()) != 10 {
		t.Errorf("macrobenchmarks = %d, want 10", len(Macrobenchmarks()))
	}
	if len(CalibrationWorkloads()) != 3 {
		t.Errorf("calibration = %d, want 3", len(CalibrationWorkloads()))
	}
	for _, name := range []string{"C-Ca", "gzip", "stream", "M-M"} {
		if _, ok := WorkloadByName(name); !ok {
			t.Errorf("WorkloadByName(%q) failed", name)
		}
	}
	if _, ok := WorkloadByName("bogus"); ok {
		t.Error("WorkloadByName accepted junk")
	}
}

func TestFeatureToggles(t *testing.T) {
	feats := FeatureNames()
	if len(feats) != 10 {
		t.Fatalf("features = %d, want 10", len(feats))
	}
	for _, f := range feats {
		m := SimAlphaWithout(f)
		if m.Name() == SimAlpha().Name() {
			t.Errorf("feature-removed machine %s shares the baseline name", f)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("unknown feature did not panic")
		}
	}()
	SimAlphaWithout("nonsense")
}

func TestEndToEndRun(t *testing.T) {
	m := SimAlpha()
	w, _ := WorkloadByName("E-D1")
	res, err := m.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	if ipc := res.IPC(); ipc < 0.8 || ipc > 1.3 {
		t.Errorf("E-D1 IPC = %.2f, want ~1", ipc)
	}
}

func TestCustomWorkload(t *testing.T) {
	b := NewProgram("custom")
	b.Label("main")
	b.LoadImm(isa.T0, 100)
	b.Label("loop")
	b.OpI(isa.OpSubq, isa.T0, 1, isa.T0)
	b.Br(isa.OpBne, isa.T0, "loop")
	b.Halt()
	w := NewWorkload("custom", b.MustAssemble())
	res, err := SimAlpha().Run(w)
	if err != nil {
		t.Fatal(err)
	}
	if res.Instructions < 200 {
		t.Errorf("custom workload ran %d instructions", res.Instructions)
	}
}

func TestErrorMetric(t *testing.T) {
	if e := PctErrorCPI(2, 1); e >= 0 {
		t.Error("slower simulator should be negative")
	}
}

func TestQuickExperimentAPIs(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment regeneration in -short mode")
	}
	opt := Options{Limit: 20_000}
	t2, err := Table2(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(t2.Rows) != 21 {
		t.Errorf("table 2 rows = %d", len(t2.Rows))
	}
	// The headline result survives truncation: the validated
	// simulator has far lower error than the unvalidated one.
	if t2.MeanAlphaErr >= t2.MeanInitialErr {
		t.Errorf("validated error %.1f%% not below initial %.1f%%",
			t2.MeanAlphaErr, t2.MeanInitialErr)
	}
	t3, err := Table3(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(t3.Rows) != 10 {
		t.Errorf("table 3 rows = %d", len(t3.Rows))
	}
}

func TestTraceReplayMatchesLiveRun(t *testing.T) {
	w, _ := WorkloadByName("C-S2")
	dir := t.TempDir()
	path := dir + "/t.axpt"
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	n, err := RecordTrace(f, w)
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	if n == 0 {
		t.Fatal("empty trace")
	}
	live, err := SimAlpha().Run(w)
	if err != nil {
		t.Fatal(err)
	}
	replay, err := SimAlpha().Run(WorkloadFromTrace("C-S2", path))
	if err != nil {
		t.Fatal(err)
	}
	if live.Cycles != replay.Cycles || live.Instructions != replay.Instructions {
		t.Errorf("trace replay diverged: live %d/%d, replay %d/%d",
			live.Instructions, live.Cycles, replay.Instructions, replay.Cycles)
	}
}

// TestFailedTraceReplayFailsRun: a trace cut mid-record, or one that
// cannot be opened, fails the run on every backend instead of
// returning a short or empty result.
func TestFailedTraceReplayFailsRun(t *testing.T) {
	w, _ := WorkloadByName("C-S2")
	w.MaxInstructions = 5000
	var buf bytes.Buffer
	if _, err := RecordTrace(&buf, w); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cut := filepath.Join(dir, "cut.axpt")
	if err := os.WriteFile(cut, buf.Bytes()[:buf.Len()/2], 0o644); err != nil {
		t.Fatal(err)
	}
	missing := filepath.Join(dir, "missing.axpt")
	for _, name := range []string{"sim-alpha", "sim-outorder", "sim-inorder", "sim-interval", "native-ds10l"} {
		m, err := NewMachine(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range []string{cut, missing} {
			if res, err := m.Run(WorkloadFromTrace("C-S2", path)); err == nil {
				t.Errorf("%s replaying %s: %d instructions and no error",
					name, filepath.Base(path), res.Instructions)
			}
		}
	}
}

func TestSaveLoadProgram(t *testing.T) {
	w, _ := WorkloadByName("C-Ca")
	var buf bytes.Buffer
	if err := SaveProgram(&buf, w.Prog); err != nil {
		t.Fatal(err)
	}
	p, err := LoadProgram(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := SimAlpha().Run(w)
	b, _ := SimAlpha().Run(NewWorkload("C-Ca", p))
	if a.Cycles != b.Cycles {
		t.Errorf("object round trip changed timing: %d vs %d", a.Cycles, b.Cycles)
	}
}
