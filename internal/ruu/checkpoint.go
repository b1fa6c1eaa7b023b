package ruu

import (
	"repro/internal/cache"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/fingerprint"
)

// compat fingerprints the warm-relevant configuration. The RUU model
// warms caches only (the gshare predictor's index couples to the
// speculative global history, so it is left to warmup windows), so
// the fingerprint covers the hierarchy and the mapping policy.
func (c Config) compat() string {
	return checkpoint.Hash([]byte(fingerprint.Of(struct {
		Hier   cache.HierarchyConfig
		Mapper string
	}{c.Hier, c.Mapping.Policy})))
}

// RecordCheckpoints implements core.CheckpointRecorder: a functional
// pass that warms the hierarchy exactly as a timed run's skip path
// does, with a snapshot at each requested stream position.
func (c Config) RecordCheckpoints(w core.Workload, positions []uint64) ([]*checkpoint.State, error) {
	if err := c.Check(); err != nil {
		return nil, err
	}
	return core.Record(c.spec(), w, positions)
}

// Warm implements core.Kernel, the functional-warming path: caches
// only, per-line on the I-side, as fetch accesses them. The gshare
// predictor is left to the warmup window — its index couples to the
// speculative global history, which a non-pipelined update would
// desynchronize.
func (s *sim) Warm(rec cpu.Record) {
	if line := rec.PC &^ 63; line != s.warmLine {
		s.hier.WarmInst(rec.PC)
		s.warmLine = line
	}
	cls := rec.Inst.Op.Class()
	if cls.IsMem() {
		s.hier.WarmData(rec.EA, cls.IsStore())
	}
}

// ExportWarm implements core.Kernel: no predictor is warmed.
func (s *sim) ExportWarm(*checkpoint.State) {}

// ImportWarm implements core.Kernel.
func (s *sim) ImportWarm(*checkpoint.State) error { return nil }
