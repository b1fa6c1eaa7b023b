// The run driver: everything around a cycle-level model's timed loop.
//
// A detailed machine splits into a Kernel — the structures functional
// warming keeps warm, plus the timed loop — and this driver, which
// owns the protocol every such machine shares: the restore-field
// checks, the cold or checkpoint-restored instruction stream, the
// sampling cursor, warm fast-forward, result assembly, and checkpoint
// recording. Keeping that protocol in one place is what enforces the
// checkpoint determinism invariant: a run restored at position N and
// a cold run warmed forward to N reach the kernel's timed loop through
// the same warming path and the same stream.
package core

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/checkpoint"
	"repro/internal/cpu"
	"repro/internal/events"
	"repro/internal/vm"
)

// Kernel is the per-model half of a cycle-level machine. The driver
// builds a fresh one per run or recording pass (see Spec.New).
type Kernel interface {
	// Hier returns the memory hierarchy: the driver restores and
	// snapshots it, and folds its counters into every result.
	Hier() *cache.Hierarchy
	// Warm runs one record through the model's functional-warming
	// path. It is the only definition of warm state: recording,
	// sampling gaps, and warm fast-forward all call it, so a restored
	// checkpoint and a cold warmed-forward run agree.
	Warm(cpu.Record)
	// ExportWarm adds the warmed predictor state to a checkpoint
	// whose CPU, pages and hierarchy the driver has filled.
	ExportWarm(*checkpoint.State)
	// ImportWarm restores the state ExportWarm recorded.
	ImportWarm(*checkpoint.State) error
	// Time runs the timed loop over src to its end, calling
	// cur.OnRetire at every retirement, and returns the cycle and
	// retirement totals and the collector holding the run's events.
	Time(src cpu.Source, cur *SampleCursor) (cycles, retired uint64, col *events.Collector, err error)
}

// Spec describes a kernel-based machine to the driver.
type Spec struct {
	// Machine is the machine's name, for results and errors.
	Machine string
	// Family is the checkpoint model family (checkpoint.ModelAlpha,
	// ...): the tag a state is recorded under and must match on
	// restore. It also prefixes checkpoint errors.
	Family string
	// Events selects the counter schema of the model's results.
	Events events.Model
	// Compat returns the warm-relevant configuration fingerprint a
	// checkpoint is recorded under and must match on restore. It is a
	// function so that runs which neither record nor restore never
	// pay for the fingerprint.
	Compat func() string
	// New builds a fresh kernel.
	New func() Kernel
}

// Drive runs the workload on the spec's machine: it checks the
// restore fields, builds the cold stream or restores the checkpoint,
// warm-fast-forwards or wires the sampling cursor, times the rest,
// and assembles the result.
func Drive(spec Spec, w Workload) (RunResult, error) {
	if err := w.checkRestore(); err != nil {
		return RunResult{}, err
	}
	k := spec.New()
	var src cpu.Source
	if w.Checkpoint != nil {
		var err error
		if src, err = restore(spec, k, w); err != nil {
			return RunResult{}, err
		}
	} else {
		src = w.Source()
	}
	stream := src
	cur := newSampleCursor(w.Sample, k)
	src = cur.wrap(src)
	// Cold half of the checkpoint determinism invariant: consume the
	// prefix through the warming path, then time the rest.
	for i := uint64(0); i < w.WarmFastForward; i++ {
		rec, ok := src.Next()
		if !ok {
			return RunResult{}, fmt.Errorf("%s/%s: stream ended at %d instructions during warm fast-forward (wanted %d)",
				spec.Machine, w.Name, i, w.WarmFastForward)
		}
		k.Warm(rec)
	}
	cycles, retired, col, err := k.Time(src, cur)
	// A stream that failed explains the run better than whatever the
	// kernel made of its early end.
	if serr := cpu.Err(stream); serr != nil {
		err = serr
	}
	if err != nil {
		return RunResult{}, fmt.Errorf("%s/%s: %w", spec.Machine, w.Name, err)
	}
	k.Hier().FoldMemEvents(col)
	stack := col.Finish(cycles)
	res := RunResult{
		Machine:      spec.Machine,
		Workload:     w.Name,
		Instructions: retired,
		Cycles:       cycles,
		Counters:     col.Counters(spec.Events),
		Breakdown:    &stack,
	}
	cur.finalize(&res, spec.Events)
	return res, nil
}

// restore resumes w's stream from its checkpoint and imports the
// warmed hierarchy and predictors into k. Timing-only machinery stays
// in the reset state the kernel was built in — exactly where a cold
// warmed-forward run stands at the same position.
func restore(spec Spec, k Kernel, w Workload) (cpu.Source, error) {
	st := w.Checkpoint
	if err := st.CompatibleWith(spec.Family, spec.Compat()); err != nil {
		return nil, err
	}
	if st.Workload != w.Name {
		return nil, fmt.Errorf("%s: checkpoint recorded workload %q, restoring %q", spec.Family, st.Workload, w.Name)
	}
	mem := vm.NewMemory()
	mem.ImportPages(st.Pages)
	c := cpu.Restore(w.Prog, mem, st.CPU)
	if err := k.Hier().ImportWarm(st.Hier); err != nil {
		return nil, fmt.Errorf("%s: restore: %w", spec.Family, err)
	}
	if err := k.ImportWarm(st); err != nil {
		return nil, fmt.Errorf("%s: restore: %w", spec.Family, err)
	}
	if w.MaxInstructions > 0 {
		return &cpu.Limited{Src: c, Max: w.MaxInstructions}, nil
	}
	return c, nil
}

// Record is RecordCheckpoints (see CheckpointRecorder) for the spec's
// machine: one functional pass over the workload through the kernel's
// warming path, with a state snapshot at each requested position
// (dynamic instructions past the workload's FastForward point,
// strictly ascending).
func Record(spec Spec, w Workload, positions []uint64) ([]*checkpoint.State, error) {
	if len(positions) == 0 {
		return nil, fmt.Errorf("%s: no checkpoint positions requested", spec.Family)
	}
	for i := 1; i < len(positions); i++ {
		if positions[i] <= positions[i-1] {
			return nil, fmt.Errorf("%s: checkpoint positions not strictly ascending at %d", spec.Family, i)
		}
	}
	if w.NewSource != nil || w.Prog == nil {
		return nil, fmt.Errorf("%s: checkpoints require a program workload, not a trace source", spec.Family)
	}
	c := cpu.New(w.Prog)
	cpu.Skip(c, w.FastForward)
	k := spec.New()
	compat := spec.Compat()

	out := make([]*checkpoint.State, 0, len(positions))
	var consumed uint64
	for _, pos := range positions {
		for consumed < pos {
			rec, ok := c.Next()
			if !ok {
				return nil, fmt.Errorf("%s: %s: stream ended at %d instructions, checkpoint wanted %d",
					spec.Family, w.Name, consumed, pos)
			}
			k.Warm(rec)
			consumed++
		}
		cs, err := c.Export()
		if err != nil {
			return nil, fmt.Errorf("%s: %s: %w", spec.Family, w.Name, err)
		}
		hs, err := k.Hier().ExportWarm()
		if err != nil {
			return nil, fmt.Errorf("%s: %s: %w", spec.Family, w.Name, err)
		}
		st := &checkpoint.State{
			Model:    spec.Family,
			Machine:  spec.Machine,
			Compat:   compat,
			Workload: w.Name,
			Position: pos,
			CPU:      cs,
			Pages:    c.Mem.ExportPages(),
			Hier:     hs,
		}
		k.ExportWarm(st)
		out = append(out, st)
	}
	return out, nil
}
