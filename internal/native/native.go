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

// Name implements core.Machine: a Config is its machine, named by
// its inner model.
func (c Config) Name() string { return c.Model.MachineName }

// Run implements core.Machine: it executes the workload on the
// full-fidelity model and passes the result through the emulated
// profiler, as all native measurements in the paper go through DCPI.
// A configuration failing Check is an error, never a panic.
func (c Config) Run(w core.Workload) (core.RunResult, error) {
	if err := c.Check(); err != nil {
		return core.RunResult{}, err
	}
	res, err := c.Model.Run(w)
	if err != nil {
		return core.RunResult{}, err
	}
	out := dcpi.Measure(c.Prof, res)
	out.Machine = c.Name()
	return out, nil
}

// RecordCheckpoints implements core.CheckpointRecorder by delegating
// to the inner 21264 model: the profiler is a measurement layer, not
// simulator state, so native checkpoints are alpha-family states.
func (c Config) RecordCheckpoints(w core.Workload, positions []uint64) ([]*checkpoint.State, error) {
	if err := c.Check(); err != nil {
		return nil, err
	}
	return c.Model.RecordCheckpoints(w, positions)
}
