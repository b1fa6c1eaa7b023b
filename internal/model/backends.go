package model

import (
	"fmt"
	"io"

	"repro/internal/alpha"
	"repro/internal/core"
	"repro/internal/dcpi"
	"repro/internal/ddr"
	"repro/internal/inorder"
	"repro/internal/interval"
	"repro/internal/native"
	"repro/internal/ruu"
)

// The configuration types of every backend, re-exported as aliases so
// consumers can sweep, fingerprint and mutate configurations without
// importing the concrete model packages. Aliases (not defined types)
// keep the content-addressed cache fingerprints byte-identical: the
// fingerprint renders the underlying type's name.
type (
	// AlphaConfig configures the 21264-family models (sim-alpha,
	// sim-initial, sim-stripped, sim-alpha-ddr, and the reference's
	// inner model).
	AlphaConfig = alpha.Config
	// RUUConfig configures the SimpleScalar-style RUU model.
	RUUConfig = ruu.Config
	// InorderConfig configures the single-issue in-order model.
	InorderConfig = inorder.Config
	// IntervalConfig configures the analytical interval estimator.
	IntervalConfig = interval.Config
	// NativeConfig configures the reference machine: its inner 21264
	// model and the emulated profiler it is measured through.
	NativeConfig = native.Config
	// DCPIConfig configures the emulated sampling profiler that the
	// reference machine is measured through.
	DCPIConfig = dcpi.Config
	// DDRConfig configures the cycle-accurate DDR memory subsystem a
	// machine opts into (the DDR field of AlphaConfig and
	// IntervalConfig) instead of the flat SDRAM model.
	DDRConfig = ddr.Config
)

// Canonical configurations, one per registered backend plus the alpha
// variants the experiments sweep from.

// DefaultAlphaConfig returns sim-alpha's validated configuration.
func DefaultAlphaConfig() AlphaConfig { return alpha.DefaultConfig() }

// SimInitialConfig returns the unvalidated initial simulator: the
// validated model plus the Section 3.4 bug catalogue.
func SimInitialConfig() AlphaConfig { return alpha.SimInitial() }

// SimStrippedConfig returns sim-alpha with the Section 5.1 features
// and clock-rate constraints removed.
func SimStrippedConfig() AlphaConfig { return alpha.SimStripped() }

// DefaultNativeConfig returns the reference machine's configuration.
func DefaultNativeConfig() NativeConfig { return native.DefaultConfig() }

// DefaultRUUConfig returns sim-outorder's configuration.
func DefaultRUUConfig() RUUConfig { return ruu.DefaultConfig() }

// EightWideRUUConfig returns the 8-wide RUU variant of Figure 2.
func EightWideRUUConfig() RUUConfig { return ruu.EightWide() }

// DefaultInorderConfig returns sim-inorder's configuration.
func DefaultInorderConfig() InorderConfig { return inorder.DefaultConfig() }

// DefaultIntervalConfig returns sim-interval's configuration.
func DefaultIntervalConfig() IntervalConfig { return interval.DefaultConfig() }

// DefaultDCPIConfig returns the emulated profiler's configuration.
func DefaultDCPIConfig() DCPIConfig { return dcpi.DefaultConfig() }

// SimAlphaDDRConfig returns the validated 21264 model on the DDR
// subsystem (the sim-alpha-ddr backend).
func SimAlphaDDRConfig() AlphaConfig {
	c := alpha.DefaultConfig()
	c.MachineName = "sim-alpha-ddr"
	c.DDR = ddr.DS10LDDR()
	return c
}

// SimIntervalDDRConfig returns the analytical estimator on the DDR
// subsystem (the sim-interval-ddr backend).
func SimIntervalDDRConfig() IntervalConfig {
	c := interval.DefaultConfig()
	c.MachineName = "sim-interval-ddr"
	c.DDR = ddr.DS10LDDR()
	return c
}

// AlphaFeatures lists the ten removable 21264 features of Tables 4
// and 5 (addr, eret, luse, pref, spec, stwt, vbuf, maps, slot, trap).
func AlphaFeatures() []string {
	out := make([]string, len(alpha.FeatureNames))
	copy(out, alpha.FeatureNames)
	return out
}

// TraceAlpha builds a 21264-family machine at cfg that writes one
// text line per retired instruction to w (SimpleScalar ptrace's
// counterpart). The trace observes the run, so it is not part of cfg.
// Like cfg's own Run, its Run returns an error on a config failing
// Check.
func TraceAlpha(cfg AlphaConfig, w io.Writer) core.Machine {
	return alpha.NewTraced(cfg, alpha.PipeTraceWriter(w))
}

// MeasureDCPI distorts an exact run result the way the emulated
// profiler would measure it.
func MeasureDCPI(cfg DCPIConfig, r core.RunResult) core.RunResult {
	return dcpi.Measure(cfg, r)
}

// Build turns a configuration value into a machine. It is the one
// constructor: every backend's config type implements core.Machine, so
// a registered backend is its Config, and a swept or mutated config
// builds the same way. The config is validated first, so a degenerate
// value is an error, never a panic; a value that is not a config (no
// Check, Name and Run) returns an error wrapping ErrUnknownBackend.
func Build(cfg any) (core.Machine, error) {
	m, ok := cfg.(interface {
		core.Machine
		Check() error
	})
	if !ok {
		return nil, fmt.Errorf("%w: no builder for config type %T", ErrUnknownBackend, cfg)
	}
	if err := m.Check(); err != nil {
		return nil, err
	}
	return m, nil
}

// MustBuild builds a config the caller knows is valid; it panics
// otherwise. For experiment tables and tests.
func MustBuild(cfg any) core.Machine {
	m, err := Build(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

func init() {
	Register(Descriptor{
		Name:        "native-ds10l",
		Description: "reference DS-10L measured through the DCPI profiler emulation",
		Tier:        TierDetailed,
		Config:      native.DefaultConfig(),
	})
	Register(Descriptor{
		Name:        "sim-initial",
		Description: "unvalidated first simulator version (full bug catalogue)",
		Tier:        TierDetailed,
		Config:      alpha.SimInitial(),
	})
	Register(Descriptor{
		Name:        "sim-alpha",
		Description: "validated 21264 model (the paper's calibrated simulator)",
		Tier:        TierDetailed,
		Config:      alpha.DefaultConfig(),
	})
	Register(Descriptor{
		Name:        "sim-stripped",
		Description: "sim-alpha with the Section 5.1 features and constraints removed",
		Tier:        TierDetailed,
		Config:      alpha.SimStripped(),
	})
	Register(Descriptor{
		Name:        "sim-outorder",
		Description: "SimpleScalar-style RUU/LSQ out-of-order model",
		Tier:        TierSimplified,
		Config:      ruu.DefaultConfig(),
	})
	Register(Descriptor{
		Name:        "sim-inorder",
		Description: "in-order pipeline with DS-10L-like caches",
		Tier:        TierSimplified,
		Config:      inorder.DefaultConfig(),
	})
	Register(Descriptor{
		Name:        "sim-interval",
		Description: "analytical interval-model estimator priced from measured events",
		Tier:        TierAnalytical,
		Config:      interval.DefaultConfig(),
	})
	Register(Descriptor{
		Name:        "sim-alpha-ddr",
		Description: "validated 21264 model on the cycle-accurate DDR memory subsystem",
		Tier:        TierDetailed,
		Config:      SimAlphaDDRConfig(),
	})
	Register(Descriptor{
		Name:        "sim-interval-ddr",
		Description: "analytical interval estimator on the cycle-accurate DDR memory subsystem",
		Tier:        TierAnalytical,
		Config:      SimIntervalDDRConfig(),
	})
}
