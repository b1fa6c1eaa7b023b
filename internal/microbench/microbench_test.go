package microbench

import (
	"testing"

	"repro/internal/cpu"
	"repro/internal/model"
)

func TestSuiteShape(t *testing.T) {
	s := Suite()
	if len(s) != 21 {
		t.Fatalf("suite has %d benchmarks, want 21", len(s))
	}
	want := []string{
		"C-Ca", "C-Cb", "C-R", "C-S1", "C-S2", "C-S3", "C-O",
		"E-I", "E-F", "E-D1", "E-D2", "E-D3", "E-D4", "E-D5", "E-D6",
		"E-DM1", "M-I", "M-D", "M-L2", "M-M", "M-IP",
	}
	for i, w := range s {
		if w.Name != want[i] {
			t.Errorf("suite[%d] = %s, want %s", i, w.Name, want[i])
		}
		if w.Category == "" {
			t.Errorf("%s missing category", w.Name)
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"C-Ca", "M-M", "stream", "lmbench"} {
		if _, ok := ByName(name); !ok {
			t.Errorf("ByName(%q) failed", name)
		}
	}
	if _, ok := ByName("nope"); ok {
		t.Error("ByName accepted unknown name")
	}
}

func TestCalibrationSet(t *testing.T) {
	c := Calibration()
	if len(c) != 3 || c[0].Name != "M-M" || c[1].Name != "stream" || c[2].Name != "lmbench" {
		t.Fatalf("calibration set wrong: %v", c)
	}
}

// Every workload must run to HALT functionally within a generous
// instruction budget.
func TestAllRunToCompletion(t *testing.T) {
	all := Suite()
	all = append(all, Calibration()[1], Calibration()[2])
	for _, w := range all {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			c := cpu.New(w.Prog)
			if _, err := c.Run(40_000_000); err != nil {
				t.Fatalf("%s: %v", w.Name, err)
			}
			if !c.Halted() {
				t.Fatalf("%s did not halt", w.Name)
			}
		})
	}
}

// The dynamic instruction counts should be in a range that keeps
// whole-suite timing runs fast but steady-state meaningful.
func TestDynamicSizes(t *testing.T) {
	for _, w := range Suite() {
		c := cpu.New(w.Prog)
		n, err := c.Run(40_000_000)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if n < 5_000 {
			t.Errorf("%s executes only %d instructions", w.Name, n)
		}
		if n > 20_000_000 {
			t.Errorf("%s executes %d instructions; too slow for the suite", w.Name, n)
		}
	}
}

// Qualitative IPC ordering on the validated machine, mirroring the
// relationships in Table 2.
func TestIPCOrderingOnSimAlpha(t *testing.T) {
	m := model.MustBuild(model.DefaultAlphaConfig())
	ipc := map[string]float64{}
	for _, name := range []string{"E-I", "E-D1", "E-D6", "E-DM1", "M-I", "M-D", "M-L2", "M-M", "C-S1", "C-S3"} {
		w, _ := ByName(name)
		res, err := m.Run(w)
		if err != nil {
			t.Fatal(err)
		}
		ipc[name] = res.IPC()
	}
	t.Logf("IPCs: %v", ipc)
	ordered := [][2]string{
		{"E-D1", "E-I"},   // dependent slower than independent
		{"E-DM1", "E-D1"}, // multiply chain slowest of the E set
		{"E-D1", "E-D6"},  // more chains, more ILP
		{"M-M", "M-L2"},   // memory misses slower than L2 hits
		{"M-L2", "M-D"},   // L2 hits slower than L1 pointer chase
		{"M-D", "M-I"},    // dependent loads slower than independent
		{"C-S1", "C-S3"},  // more frequent target changes hurt
	}
	for _, pair := range ordered {
		if !(ipc[pair[0]] < ipc[pair[1]]) {
			t.Errorf("expected IPC(%s)=%.3f < IPC(%s)=%.3f",
				pair[0], ipc[pair[0]], pair[1], ipc[pair[1]])
		}
	}
	if ipc["E-I"] < 3.0 {
		t.Errorf("E-I IPC %.2f; the paper's machine reaches ~4", ipc["E-I"])
	}
	if ipc["M-M"] > 0.3 {
		t.Errorf("M-M IPC %.2f; should be dominated by memory latency", ipc["M-M"])
	}
}

// The two compiler variants of C-C must differ in layout but execute
// the same algorithm.
func TestCCVariantsDiffer(t *testing.T) {
	a, _ := ByName("C-Ca")
	b, _ := ByName("C-Cb")
	if len(a.Prog.Code) == len(b.Prog.Code) {
		t.Error("C-Ca and C-Cb have identical code size; padding missing")
	}
	ca, cb := cpu.New(a.Prog), cpu.New(b.Prog)
	na, _ := ca.Run(40_000_000)
	nb, _ := cb.Run(40_000_000)
	if na == nb {
		t.Log("dynamic counts equal (fine)") // counts may differ via padding
	}
	if ca.R[2] != cb.R[2] || ca.R[3] != cb.R[3] {
		t.Error("C-Ca and C-Cb computed different results")
	}
}

// M-IP must actually exceed the I-cache footprint.
func TestMIPCodeFootprint(t *testing.T) {
	w, _ := ByName("M-IP")
	codeBytes := len(w.Prog.Code) * 4
	if codeBytes < 80<<10 {
		t.Errorf("M-IP code is %d bytes; must exceed the 64KB I-cache", codeBytes)
	}
}

// The M-M list stride must change DRAM row and L2 set every hop.
func TestMMStridesBeyondL2(t *testing.T) {
	w, _ := ByName("M-M")
	m := model.MustBuild(model.DefaultAlphaConfig())
	res, err := m.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counter("l2_misses") < 1000 {
		t.Errorf("M-M produced only %d L2 misses", res.Counter("l2_misses"))
	}
}
