package cpu_test

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/macrobench"
	"repro/internal/microbench"
	"repro/internal/model"
	"repro/internal/vm"
	"repro/internal/workgen"
)

// TestLoadMatchesByteLoader pins the bytes a checkpoint records for
// every program the repository ships: the memory image cpu.New loads
// must export exactly the pages, in the same order and with the same
// contents, as loading each segment one byte at a time.
func TestLoadMatchesByteLoader(t *testing.T) {
	ws := append(macrobench.Suite(), microbench.Suite()...)
	ws = append(ws, microbench.Calibration()...)
	cfg := model.DefaultAlphaConfig()
	for _, f := range workgen.CliffSuite(workgen.TargetFrom(cfg.Hier, cfg.Tour.LocalHistBits, cfg.IntIssueWidth)) {
		fws, err := f.Workloads()
		if err != nil {
			t.Fatalf("cliff family %s: %v", f.Name, err)
		}
		ws = append(ws, fws...)
	}
	for _, w := range ws {
		checkLoad(t, w)
	}
}

func checkLoad(t *testing.T, w core.Workload) {
	t.Helper()
	ref := vm.NewMemory()
	for _, seg := range w.Prog.Segments {
		for i, b := range seg.Bytes {
			ref.SetByte(seg.Addr+uint64(i), b)
		}
	}
	if !reflect.DeepEqual(cpu.New(w.Prog).Mem.ExportPages(), ref.ExportPages()) {
		t.Fatalf("%s: cpu.New's exported pages differ from the byte loader's", w.Name)
	}
}
