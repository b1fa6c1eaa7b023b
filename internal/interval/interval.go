// Package interval implements an analytical interval-model estimator
// in the tradition of Karkhanis & Smith and Eyerman et al.'s
// mechanistic interval models: cycles are *derived* from measured
// event counts rather than simulated cycle by cycle. The machine
// makes one functional pass over the dynamic stream, counting the
// miss events that end intervals of smooth issue (branch
// mispredictions, I-cache misses, long data misses), and then prices
// each event class with a fixed penalty:
//
//	cycles = ceil(N / width) + sum_e count(e) * penalty(e) / overlap(e)
//
// This is the cheapest fidelity tier in the registry (analytical): it
// cannot see rename pressure, replay traps, or issue-queue structure
// at all, and it assumes miss events never overlap with useful work
// beyond a fixed per-class factor. That blindness is the point — the
// stability experiment (internal/validate) asks where conclusions
// drawn on this tier diverge from the detailed 21264 model, i.e.
// where the interval abstraction flips a speedup ranking.
package interval

import (
	"fmt"

	"repro/internal/bounds"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/ddr"
	"repro/internal/dram"
	"repro/internal/events"
	"repro/internal/isa"
	"repro/internal/predict"
	"repro/internal/vm"
)

// Config describes the interval estimator. The cache hierarchy and
// predictor are simulated functionally (hits and misses are real, as
// the interval model requires measured event counts); only the
// translation of events into cycles is analytical.
type Config struct {
	MachineName string

	// Width is the sustained issue width of the balanced pipeline:
	// the base term charges one cycle per Width instructions.
	Width int
	// BranchPenalty is the full pipeline-refill cost charged per
	// mispredicted branch (interval models charge the front-end
	// refill, not just the flush).
	BranchPenalty int
	// L2Overlap divides the penalty of L1D misses that hit in the L2:
	// an out-of-order window hides part of a short miss under
	// independent work. 1 means fully exposed.
	L2Overlap int
	// MemOverlap divides the penalty of L2 misses (DRAM accesses);
	// long misses overlap mostly with each other (MLP), which a
	// single divisor approximates.
	MemOverlap int
	// BimodalBits sizes the 2-bit-counter direction predictor used to
	// measure the misprediction count.
	BimodalBits int

	Hier cache.HierarchyConfig
	DRAM dram.Config
	// DDR, when non-zero, replaces the flat DRAM model described by
	// DRAM with the cycle-accurate DDR subsystem (the sim-interval-ddr
	// backend).
	DDR     ddr.Config
	Mapping vm.Mapping
}

// DefaultConfig returns the estimator parameterized for the DS-10L
// target: 4-wide, 7-cycle refill (the 21264's minimum mispredict
// cost), DS-10L caches without the victim buffer (the analytical
// model prices only clean hit/miss classes).
func DefaultConfig() Config {
	hier := cache.DS10L()
	hier.VictimEntries = 0
	return Config{
		MachineName:   "sim-interval",
		Width:         4,
		BranchPenalty: 7,
		L2Overlap:     2,
		MemOverlap:    2,
		BimodalBits:   11,
		Hier:          hier,
		DRAM:          dram.DS10LConfig(),
		Mapping:       vm.Mapping{Policy: "sequential"},
	}
}

// Check validates the configuration: every field in range (the
// overlap factors are divisors, so at least 1).
func (c Config) Check() error {
	if err := bounds.Check("interval",
		bounds.Int{Name: "Width", V: c.Width, Lo: 1, Hi: 64},
		bounds.Int{Name: "BranchPenalty", V: c.BranchPenalty, Lo: 0, Hi: bounds.MaxCycles},
		bounds.Int{Name: "L2Overlap", V: c.L2Overlap, Lo: 1, Hi: 64},
		bounds.Int{Name: "MemOverlap", V: c.MemOverlap, Lo: 1, Hi: 64},
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
	if c.DDR != (ddr.Config{}) {
		if err := c.DDR.Check(); err != nil {
			return err
		}
	}
	return c.Mapping.Check()
}

// Name implements core.Machine: a Config is its machine.
func (c Config) Name() string { return c.MachineName }

// Run implements core.Machine: one functional pass counting miss
// events, then the closed-form cycle estimate. The hierarchy is
// probed with an estimated current cycle (retired/Width plus the
// penalties accumulated so far) so DRAM bank/bus timing sees a
// plausible clock, but no per-cycle state is simulated.
//
// The estimator does not support sampling (it already costs only a
// functional pass), checkpoint restore, or warm fast-forward; the
// registry advertises these gaps as capability flags.
func (c Config) Run(w core.Workload) (core.RunResult, error) {
	if w.Sample != nil {
		return core.RunResult{}, fmt.Errorf("%s: analytical backend does not support sampling (it is already a single functional pass)", c.MachineName)
	}
	if w.Checkpoint != nil {
		return core.RunResult{}, fmt.Errorf("%s: analytical backend does not support checkpoint restore", c.MachineName)
	}
	if w.WarmFastForward > 0 {
		return core.RunResult{}, fmt.Errorf("%s: analytical backend does not support warm fast-forward", c.MachineName)
	}
	if err := c.Check(); err != nil {
		return core.RunResult{}, err
	}
	hier := cache.NewHierarchy(c.Hier, c.Mapping.New(), ddr.NewOrFlat(c.DDR, c.DRAM))
	bimodal := predict.NewBimodal(c.BimodalBits)
	src := w.Source()

	var retired uint64
	// Per-component penalty accumulators, in cycles. Kept separate so
	// the CPI stack attributes each class exactly. dramPen holds the
	// controller-queueing share of memory penalties: cycles the
	// backend reports as request-queue waits are carved out of the
	// cache-miss components and charged to the dram component, so a
	// DDR-backed run's stack shows memory-controller pressure
	// directly. The flat backend reports no queue waits, so dramPen
	// is identically zero there and the stack is unchanged.
	var icPen, dcPen, l2Pen, brPen, dramPen uint64
	var col events.Collector

	// qwDelta reports the backend queue-wait cycles accrued since the
	// previous probe that could have touched the controller.
	var lastQW uint64
	qwDelta := func() uint64 {
		q := hier.Mem.MemStats().QueueWaits
		d := q - lastQW
		lastQW = q
		return d
	}

	lastFetchLine := uint64(1) << 63
	for {
		rec, ok := src.Next()
		if !ok {
			break
		}
		// The estimated clock handed to the hierarchy: base progress
		// plus everything charged so far. Only DRAM timing reads it.
		now := retired/uint64(c.Width) + icPen + dcPen + l2Pen + brPen + dramPen

		// Fetch: one I-cache probe per line transition. An I-cache
		// miss ends an interval; the refill is serial with fetch, so
		// the full latency is charged.
		line := rec.PC &^ 63
		if line != lastFetchLine {
			res, _, _ := hier.Inst(rec.PC, now)
			if !res.L1Hit {
				col.Count(events.ICacheMisses, 1)
				pen := uint64(res.Latency + res.WalkCycles)
				// The refill is serial with fetch: queue waits carve
				// out of the same fully exposed penalty.
				if dq := qwDelta(); dq > 0 {
					if dq > pen {
						dq = pen
					}
					dramPen += dq
					pen -= dq
				}
				icPen += pen
			}
			lastFetchLine = line
		}

		switch {
		case rec.Inst.Op.Class().IsLoad():
			res := hier.Data(rec.EA, false, now)
			if comp, miss := res.Miss(&col); miss {
				pen := uint64(res.Latency + res.WalkCycles)
				if comp == events.CompDCache {
					if p := pen / uint64(c.L2Overlap); p > 0 {
						dcPen += p
					} else {
						dcPen++ // a counted miss always costs a cycle
					}
				} else {
					// Queue waits overlap like the rest of the long
					// miss, but are attributed to the controller.
					if dq := qwDelta(); dq > 0 {
						if dq > pen {
							dq = pen
						}
						if d := dq / uint64(c.MemOverlap); d > 0 {
							dramPen += d
						}
						pen -= dq
					}
					if p := pen / uint64(c.MemOverlap); p > 0 {
						l2Pen += p
					} else {
						l2Pen++
					}
				}
			}
		case rec.Inst.Op.Class().IsStore():
			// Stores update the hierarchy (they shape later miss
			// counts) but are priced as fully buffered: no penalty —
			// resync the queue-wait baseline so a store's controller
			// queueing is not charged to the next load.
			hier.Data(rec.EA, true, now)
			qwDelta()
		case rec.IsBranch():
			taken := bimodal.Predict(rec.PC)
			bimodal.Train(rec.PC, rec.Taken)
			mispredict := taken != rec.Taken
			if rec.Inst.Op.Class() == isa.ClassJump {
				mispredict = true // no BTB: indirect targets always refill
			}
			if mispredict {
				col.Count(events.BrMispredicts, 1)
				brPen += uint64(c.BranchPenalty)
			}
		}
		retired++
	}
	if err := cpu.Err(src); err != nil {
		return core.RunResult{}, fmt.Errorf("%s/%s: %w", c.MachineName, w.Name, err)
	}
	if retired == 0 {
		return core.RunResult{}, fmt.Errorf("interval: empty instruction stream")
	}

	// The closed-form estimate: smooth issue plus priced miss events.
	base := (retired + uint64(c.Width) - 1) / uint64(c.Width)
	cycles := base + icPen + dcPen + l2Pen + brPen + dramPen

	col.Attribute(events.CompICache, icPen)
	col.Attribute(events.CompDCache, dcPen)
	col.Attribute(events.CompL2, l2Pen)
	col.Attribute(events.CompBranch, brPen)
	col.Attribute(events.CompDRAM, dramPen)
	hier.FoldMemEvents(&col)
	stack := col.Finish(cycles)
	return core.RunResult{
		Machine:      c.MachineName,
		Workload:     w.Name,
		Instructions: retired,
		Cycles:       cycles,
		Counters:     col.Counters(events.ModelInterval),
		Breakdown:    &stack,
	}, nil
}
