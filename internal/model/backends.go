package model

import (
	"fmt"
	"io"

	"repro/internal/alpha"
	"repro/internal/cache"
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
	// sim-initial, sim-stripped, and the reference's inner model).
	AlphaConfig = alpha.Config
	// RUUConfig configures the SimpleScalar-style RUU model.
	RUUConfig = ruu.Config
	// InorderConfig configures the single-issue in-order model.
	InorderConfig = inorder.Config
	// IntervalConfig configures the analytical interval estimator.
	IntervalConfig = interval.Config
	// DCPIConfig configures the emulated sampling profiler that the
	// reference machine is measured through.
	DCPIConfig = dcpi.Config
	// AlphaPipeTracer receives per-instruction pipeline events when
	// set on an AlphaConfig.
	AlphaPipeTracer = alpha.PipeTracer
	// DDRConfig configures the cycle-accurate DDR memory subsystem a
	// machine can opt into instead of the flat SDRAM model.
	DDRConfig = ddr.Config
)

// The *DDRConfig wrapper types pair a core configuration with a DDR
// memory subsystem. They exist as distinct types (not extra fields on
// the core configs) so the pinned fingerprints of the flat-memory
// backends stay byte-identical: opting into DDR timing produces a new
// configuration identity instead of mutating an existing one.
type (
	// AlphaDDRConfig is a 21264-family machine on the DDR subsystem.
	AlphaDDRConfig struct {
		Core AlphaConfig
		DDR  DDRConfig
	}
	// IntervalDDRConfig is the analytical estimator on the DDR
	// subsystem.
	IntervalDDRConfig struct {
		Core IntervalConfig
		DDR  DDRConfig
	}
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

// NativeAlphaConfig returns the reference machine's inner model
// configuration (the DS-10L stand-in before profiler distortion).
func NativeAlphaConfig() AlphaConfig { return alpha.NativeConfig() }

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

// DefaultDDRConfig returns the DS-10L-calibrated DDR subsystem.
func DefaultDDRConfig() DDRConfig { return ddr.DS10LDDR() }

// SimAlphaDDRConfig returns the validated 21264 model on the DDR
// subsystem (the sim-alpha-ddr backend).
func SimAlphaDDRConfig() AlphaDDRConfig {
	c := alpha.DefaultConfig()
	c.MachineName = "sim-alpha-ddr"
	return AlphaDDRConfig{Core: c, DDR: ddr.DS10LDDR()}
}

// SimIntervalDDRConfig returns the analytical estimator on the DDR
// subsystem (the sim-interval-ddr backend).
func SimIntervalDDRConfig() IntervalDDRConfig {
	c := interval.DefaultConfig()
	c.MachineName = "sim-interval-ddr"
	return IntervalDDRConfig{Core: c, DDR: ddr.DS10LDDR()}
}

// AlphaFeatures lists the ten removable 21264 features of Tables 4
// and 5 (addr, eret, luse, pref, spec, stwt, vbuf, maps, slot, trap).
func AlphaFeatures() []string {
	out := make([]string, len(alpha.FeatureNames))
	copy(out, alpha.FeatureNames)
	return out
}

// AlphaPipeTraceWriter returns a tracer writing one text line per
// retired instruction to w (SimpleScalar ptrace's counterpart).
func AlphaPipeTraceWriter(w io.Writer) AlphaPipeTracer {
	return alpha.PipeTraceWriter(w)
}

// Per-family constructors, for consumers that build machines at swept
// or mutated configurations rather than the registered defaults.

// NewAlpha builds a 21264-family machine at cfg.
func NewAlpha(cfg AlphaConfig) core.Machine { return alpha.New(cfg) }

// NewRUU builds an RUU machine at cfg.
func NewRUU(cfg RUUConfig) core.Machine { return ruu.New(cfg) }

// NewInorder builds an in-order machine at cfg.
func NewInorder(cfg InorderConfig) core.Machine { return inorder.New(cfg) }

// NewInterval builds an interval estimator at cfg.
func NewInterval(cfg IntervalConfig) core.Machine { return interval.New(cfg) }

// NewNative builds the reference machine. The concrete type is
// returned because the sampled-simulation experiments need its
// RunExact method (the inner model without profiler distortion).
func NewNative() *native.Machine { return native.New() }

// MeasureDCPI distorts an exact run result the way the emulated
// profiler would measure it.
func MeasureDCPI(cfg DCPIConfig, r core.RunResult) core.RunResult {
	return dcpi.Measure(cfg, r)
}

// Build turns a configuration value into a machine: the registry's
// counterpart for swept configurations, where the config — not a
// backend name — identifies the machine. Unknown configuration types
// return an error wrapping ErrUnknownBackend.
func Build(cfg any) (core.Machine, error) {
	switch c := cfg.(type) {
	case AlphaConfig:
		if err := c.Check(); err != nil {
			return nil, err
		}
		return alpha.New(c), nil
	case RUUConfig:
		if err := c.Check(); err != nil {
			return nil, err
		}
		return ruu.New(c), nil
	case InorderConfig:
		return inorder.New(c), nil
	case IntervalConfig:
		if err := c.Check(); err != nil {
			return nil, err
		}
		return interval.New(c), nil
	case AlphaDDRConfig:
		if err := c.Core.Check(); err != nil {
			return nil, err
		}
		if err := c.DDR.Check(); err != nil {
			return nil, err
		}
		return alpha.NewWithMemory(c.Core, newDDR(c.DDR)), nil
	case IntervalDDRConfig:
		if err := c.Core.Check(); err != nil {
			return nil, err
		}
		if err := c.DDR.Check(); err != nil {
			return nil, err
		}
		return interval.NewWithMemory(c.Core, newDDR(c.DDR)), nil
	}
	return nil, fmt.Errorf("%w: no builder for config type %T", ErrUnknownBackend, cfg)
}

// newDDR is the memory-backend factory handed to NewWithMemory: each
// machine run gets a fresh controller at the given configuration.
func newDDR(cfg DDRConfig) func() cache.Memory {
	return func() cache.Memory { return ddr.New(cfg) }
}

// nativeIdentity content-addresses the reference machine: its inner
// model configuration plus the profiler distorting the measurement.
type nativeIdentity struct {
	Model AlphaConfig
	Prof  DCPIConfig
}

func init() {
	Register(Descriptor{
		Name:        "native-ds10l",
		Description: "reference DS-10L measured through the DCPI profiler emulation",
		Tier:        TierDetailed,
		Config:      nativeIdentity{Model: alpha.NativeConfig(), Prof: dcpi.DefaultConfig()},
		New:         func() core.Machine { return native.New() },
	})
	Register(Descriptor{
		Name:        "sim-initial",
		Description: "unvalidated first simulator version (full bug catalogue)",
		Tier:        TierDetailed,
		Config:      alpha.SimInitial(),
		New:         func() core.Machine { return alpha.New(alpha.SimInitial()) },
	})
	Register(Descriptor{
		Name:        "sim-alpha",
		Description: "validated 21264 model (the paper's calibrated simulator)",
		Tier:        TierDetailed,
		Config:      alpha.DefaultConfig(),
		New:         func() core.Machine { return alpha.New(alpha.DefaultConfig()) },
	})
	Register(Descriptor{
		Name:        "sim-stripped",
		Description: "sim-alpha with the Section 5.1 features and constraints removed",
		Tier:        TierDetailed,
		Config:      alpha.SimStripped(),
		New:         func() core.Machine { return alpha.New(alpha.SimStripped()) },
	})
	Register(Descriptor{
		Name:        "sim-outorder",
		Description: "SimpleScalar-style RUU/LSQ out-of-order model",
		Tier:        TierSimplified,
		Config:      ruu.DefaultConfig(),
		New:         func() core.Machine { return ruu.New(ruu.DefaultConfig()) },
	})
	Register(Descriptor{
		Name:        "sim-inorder",
		Description: "in-order pipeline with DS-10L-like caches",
		Tier:        TierSimplified,
		Config:      inorder.DefaultConfig(),
		New:         func() core.Machine { return inorder.New(inorder.DefaultConfig()) },
	})
	Register(Descriptor{
		Name:        "sim-interval",
		Description: "analytical interval-model estimator priced from measured events",
		Tier:        TierAnalytical,
		Config:      interval.DefaultConfig(),
		New:         func() core.Machine { return interval.New(interval.DefaultConfig()) },
	})
	Register(Descriptor{
		Name:        "sim-alpha-ddr",
		Description: "validated 21264 model on the cycle-accurate DDR memory subsystem",
		Tier:        TierDetailed,
		Config:      SimAlphaDDRConfig(),
		New: func() core.Machine {
			c := SimAlphaDDRConfig()
			return alpha.NewWithMemory(c.Core, newDDR(c.DDR))
		},
	})
	Register(Descriptor{
		Name:        "sim-interval-ddr",
		Description: "analytical interval estimator on the cycle-accurate DDR memory subsystem",
		Tier:        TierAnalytical,
		Config:      SimIntervalDDRConfig(),
		New: func() core.Machine {
			c := SimIntervalDDRConfig()
			return interval.NewWithMemory(c.Core, newDDR(c.DDR))
		},
	})
}
