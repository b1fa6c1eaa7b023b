// Package inorder implements a simple single-issue, in-order,
// blocking-cache timing model in the mold of Mipsy (the processor
// model in the FLASH validation study the paper discusses as related
// work). It is deliberately the simplest credible timing model: one
// instruction per cycle at best, stalls on every cache miss, a
// bimodal branch predictor with a fixed misprediction penalty.
//
// It extends the paper's comparison set: where the RUU model is
// optimistic and the stripped model pessimistic, the in-order model
// bounds performance from far below, which makes it useful in
// stability studies as a degenerate "simulator" a careless researcher
// might reach for.
package inorder

import (
	"fmt"

	"repro/internal/bounds"
	"repro/internal/cache"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/events"
	"repro/internal/isa"
	"repro/internal/predict"
	"repro/internal/vm"
)

// Config describes the in-order machine.
type Config struct {
	MachineName string

	// BranchPenalty is the flush cost of a mispredicted branch.
	BranchPenalty int
	// BimodalBits sizes the 2-bit-counter direction predictor table.
	BimodalBits int

	Hier    cache.HierarchyConfig
	DRAM    dram.Config
	Mapping vm.Mapping
}

// DefaultConfig returns the machine with DS-10L-like caches.
func DefaultConfig() Config {
	hier := cache.DS10L()
	hier.VictimEntries = 0
	return Config{
		MachineName:   "sim-inorder",
		BranchPenalty: 3,
		BimodalBits:   11,
		Hier:          hier,
		DRAM:          dram.DS10LConfig(),
		Mapping:       vm.Mapping{Policy: "sequential"},
	}
}

// Check verifies every field is in range.
func (c Config) Check() error {
	if err := bounds.Check("inorder",
		bounds.Int{Name: "BranchPenalty", V: c.BranchPenalty, Lo: 0, Hi: bounds.MaxCycles},
		bounds.Int{Name: "BimodalBits", V: c.BimodalBits, Lo: 1, Hi: 20},
	); err != nil {
		return err
	}
	if err := c.Hier.Check(); err != nil {
		return err
	}
	if err := c.DRAM.Check(); err != nil {
		return err
	}
	return c.Mapping.Check()
}

// Name implements core.Machine: a Config is its machine.
func (c Config) Name() string { return c.MachineName }

// Run implements core.Machine. A configuration failing Check is an
// error, never a panic.
func (c Config) Run(w core.Workload) (core.RunResult, error) {
	if err := c.Check(); err != nil {
		return core.RunResult{}, err
	}
	return core.Drive(c.spec(), w)
}

// spec describes the machine to the run driver.
func (c Config) spec() core.Spec {
	return core.Spec{
		Machine: c.MachineName,
		Family:  checkpoint.ModelInorder,
		Events:  events.ModelInOrder,
		Compat:  c.compat,
		New: func() core.Kernel {
			return &kernel{
				cfg:      c,
				hier:     cache.NewHierarchy(c.Hier, c.Mapping.New(), dram.New(c.DRAM)),
				bimodal:  predict.NewBimodal(c.BimodalBits),
				warmLine: 1 << 63,
			}
		},
	}
}

// kernel is the in-order model's per-run state: the warmed hierarchy
// and bimodal predictor, and the run's event collector.
type kernel struct {
	cfg     Config
	hier    *cache.Hierarchy
	bimodal predict.Bimodal
	// warmLine is the last I-cache line Warm touched.
	warmLine uint64
	// col accumulates typed event counts and CPI-stack attribution
	// (the unified instrumentation layer, internal/events). With a
	// blocking in-order pipe, attribution is direct: every stall the
	// model adds to the cycle count is charged where it is added.
	col events.Collector
}

// Hier implements core.Kernel.
func (k *kernel) Hier() *cache.Hierarchy { return k.hier }

// Time implements core.Kernel. The model is a straightforward
// accumulation: each instruction costs at least one cycle, plus its
// execution latency beyond one when a dependent follows immediately
// (in-order machines expose full latency), plus memory and
// misprediction stalls.
func (k *kernel) Time(src cpu.Source, cur *core.SampleCursor) (uint64, uint64, *events.Collector, error) {
	hier, bimodal, col := k.hier, k.bimodal, &k.col
	var cycle, retired uint64
	// regReadyAt holds the cycle each architectural register's value
	// becomes available; in-order issue waits for sources.
	var regReadyAt [2][isa.NumRegs]uint64

	lastFetchLine := uint64(1) << 63
	for {
		rec, ok := src.Next()
		if !ok {
			break
		}
		// Fetch: one I-cache access per line transition.
		line := rec.PC &^ 63
		if line != lastFetchLine {
			res, _, _ := hier.Inst(rec.PC, cycle)
			if !res.L1Hit {
				col.Count(events.ICacheMisses, 1)
				col.Attribute(events.CompICache, uint64(res.Latency+res.WalkCycles))
				cycle += uint64(res.Latency + res.WalkCycles)
			}
			lastFetchLine = line
		}

		// Wait for source operands (in-order: full latency exposure).
		var srcs [3]isa.RegRef
		for _, s := range srcs[:rec.Inst.SourcesInto(&srcs)] {
			file := 0
			if s.FP {
				file = 1
			}
			if t := regReadyAt[file][s.Reg]; t > cycle {
				cycle = t
			}
		}

		lat := rec.Inst.Op.Class().Latency()
		switch {
		case rec.Inst.Op.Class().IsLoad():
			res := hier.Data(rec.EA, false, cycle)
			if comp, miss := res.Miss(col); miss {
				// Blocking cache: the whole pipeline waits.
				col.Attribute(comp, uint64(res.Latency+res.WalkCycles)-1)
				cycle += uint64(res.Latency+res.WalkCycles) - 1
				lat = 1
			} else {
				lat = res.Latency
			}
		case rec.Inst.Op.Class().IsStore():
			hier.Data(rec.EA, true, cycle)
			lat = 1
		case rec.IsBranch():
			taken := bimodal.Predict(rec.PC)
			bimodal.Train(rec.PC, rec.Taken)
			mispredict := taken != rec.Taken
			if rec.Inst.Op.Class() == isa.ClassJump {
				mispredict = true // no BTB: indirect targets always flush
			}
			if mispredict {
				col.Count(events.BrMispredicts, 1)
				col.Attribute(events.CompBranch, uint64(k.cfg.BranchPenalty))
				cycle += uint64(k.cfg.BranchPenalty)
			}
			lat = 1
		}

		if d, hasDest := rec.Inst.Dest(); hasDest {
			file := 0
			if d.FP {
				file = 1
			}
			regReadyAt[file][d.Reg] = cycle + uint64(lat)
		}
		cycle++ // single issue
		retired++
		cur.OnRetire(retired, cycle, col)
	}
	if retired == 0 {
		return 0, 0, nil, fmt.Errorf("inorder: empty instruction stream")
	}
	return cycle, retired, col, nil
}
