package inorder

import (
	"repro/internal/cache"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/fingerprint"
	"repro/internal/predict"
)

// compat fingerprints the warm-relevant configuration: the hierarchy,
// the bimodal table geometry, and the mapping policy.
func (c Config) compat() string {
	return checkpoint.Hash([]byte(fingerprint.Of(struct {
		Hier        cache.HierarchyConfig
		BimodalBits int
		Mapper      string
	}{c.Hier, c.BimodalBits, c.Mapping.Policy})))
}

// RecordCheckpoints implements core.CheckpointRecorder.
func (c Config) RecordCheckpoints(w core.Workload, positions []uint64) ([]*checkpoint.State, error) {
	if err := c.Check(); err != nil {
		return nil, err
	}
	return core.Record(c.spec(), w, positions)
}

// Warm implements core.Kernel, the functional-warming path: caches
// plus the (history-free) bimodal predictor, trained exactly as the
// timed loop trains it.
func (k *kernel) Warm(rec cpu.Record) {
	if line := rec.PC &^ 63; line != k.warmLine {
		k.hier.WarmInst(rec.PC)
		k.warmLine = line
	}
	cls := rec.Inst.Op.Class()
	switch {
	case cls.IsMem():
		k.hier.WarmData(rec.EA, cls.IsStore())
	case rec.IsBranch():
		k.bimodal.Train(rec.PC, rec.Taken)
	}
}

// ExportWarm implements core.Kernel: the bimodal table is warmed state.
func (k *kernel) ExportWarm(st *checkpoint.State) {
	st.Bimodal = predict.ExportSat(k.bimodal)
}

// ImportWarm implements core.Kernel.
func (k *kernel) ImportWarm(st *checkpoint.State) error {
	return predict.ImportSat(k.bimodal, st.Bimodal)
}
