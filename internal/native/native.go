// Package native provides the reference machine that stands in for
// the Compaq DS-10L workstation in every experiment (see DESIGN.md,
// hardware substitution). It is the 21264 model at full fidelity plus
// the board- and OS-level behaviors the paper says sim-alpha does not
// capture (page coloring, memory-controller tuning, PAL-code TLB
// misses, coarse trap detection, the shared MAF), measured through
// the DCPI sampling-profiler emulation rather than read exactly.
package native

import (
	"repro/internal/alpha"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/dcpi"
)

// Config identifies the reference machine: its inner 21264 model and
// the profiler that measures it.
type Config struct {
	Model alpha.Config
	Prof  dcpi.Config
}

// DefaultConfig returns the DS-10L stand-in measured at the paper's
// DCPI operating point (40K-cycle sampling).
func DefaultConfig() Config {
	return Config{Model: alpha.NativeConfig(), Prof: dcpi.DefaultConfig()}
}

// Check validates both halves of the configuration.
func (c Config) Check() error {
	if err := c.Model.Check(); err != nil {
		return err
	}
	return c.Prof.Check()
}

// Machine is the simulated DS-10L. It implements core.Machine.
type Machine struct {
	inner *alpha.Machine
	prof  dcpi.Config
}

// New returns the reference machine at cfg. It panics on a
// configuration failing Check (a programming error).
func New(cfg Config) *Machine {
	if err := cfg.Check(); err != nil {
		panic(err)
	}
	return &Machine{inner: alpha.New(cfg.Model), prof: cfg.Prof}
}

// Name implements core.Machine.
func (m *Machine) Name() string { return m.inner.Name() }

// Run implements core.Machine: it executes the workload on the
// full-fidelity model and passes the result through the emulated
// profiler, as all native measurements in the paper go through DCPI.
func (m *Machine) Run(w core.Workload) (core.RunResult, error) {
	res, err := m.inner.Run(w)
	if err != nil {
		return core.RunResult{}, err
	}
	out := dcpi.Measure(m.prof, res)
	out.Machine = m.Name()
	return out, nil
}

// RecordCheckpoints implements core.CheckpointRecorder by delegating
// to the inner 21264 model: the profiler is a measurement layer, not
// simulator state, so native checkpoints are alpha-family states.
func (m *Machine) RecordCheckpoints(w core.Workload, positions []uint64) ([]*checkpoint.State, error) {
	return m.inner.RecordCheckpoints(w, positions)
}
