// Sampled simulation: SMARTS-style systematic interval sampling.
//
// A sampled run partitions the dynamic instruction stream into
// fixed-size periods. At the head of each period the machine
// simulates Warmup+Measure instructions in full detail — the warmup
// re-heats caches and predictors after the functional gap, the
// measure window is observed — and the rest of the period is
// fast-forwarded functionally (architectural state advances, no
// timing). Microarchitectural state persists across the skips
// ("stale warm"), which is what makes a short warmup sufficient.
//
// The mechanism is deliberately model-agnostic. A SampleCursor wraps
// the workload's instruction source so that only detailed-region
// records are ever delivered to the pipeline — the glued stream flows
// through the model continuously, with no drain/refill at interval
// boundaries — and detects measurement windows purely by retire
// counts via the OnRetire hook every model already calls from its
// commit stage. Models therefore need no knowledge of the schedule.
package core

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/events"
)

// SamplePlan is a systematic interval-sampling schedule. Within each
// Period-instruction window of the dynamic stream, the leading
// Warmup+Measure instructions are simulated in detail (the first
// Warmup unmeasured, the next Measure measured) and the remaining
// Period-Warmup-Measure are skipped functionally.
type SamplePlan struct {
	// Period is the sampling period in dynamic instructions.
	Period uint64 `json:"period"`
	// Warmup is the detailed-but-unmeasured prefix of each interval,
	// absorbing the microarchitectural discontinuity left by the
	// preceding functional skip. At least 1.
	Warmup uint64 `json:"warmup"`
	// Measure is the measured window of each interval.
	Measure uint64 `json:"measure"`
	// MaxIntervals, when positive, stops the run after that many
	// periods even if the stream continues.
	MaxIntervals int `json:"max_intervals,omitempty"`
}

// Check validates the plan.
func (p SamplePlan) Check() error {
	if p.Period == 0 {
		return fmt.Errorf("sample plan: period must be positive")
	}
	if p.Measure == 0 {
		return fmt.Errorf("sample plan: measure window must be positive")
	}
	if p.Warmup == 0 {
		return fmt.Errorf("sample plan: warmup must be at least 1 (measurement opens at the last warmup retirement)")
	}
	if p.Warmup+p.Measure > p.Period {
		return fmt.Errorf("sample plan: warmup+measure (%d) exceeds period (%d)",
			p.Warmup+p.Measure, p.Period)
	}
	if p.MaxIntervals < 0 {
		return fmt.Errorf("sample plan: max intervals must be non-negative")
	}
	return nil
}

// Detailed returns the detailed-simulated instructions per interval.
func (p SamplePlan) Detailed() uint64 { return p.Warmup + p.Measure }

// String renders the plan compactly: P/W/M (+ interval cap).
func (p SamplePlan) String() string {
	s := fmt.Sprintf("period=%d warmup=%d measure=%d", p.Period, p.Warmup, p.Measure)
	if p.MaxIntervals > 0 {
		s += fmt.Sprintf(" max-intervals=%d", p.MaxIntervals)
	}
	return s
}

// IntervalSample is one measured window's observation.
type IntervalSample struct {
	// Start is the stream position (dynamic instruction index after
	// any workload FastForward) of the first measured instruction.
	Start uint64 `json:"start"`
	// Instructions is the measured-window size (the plan's Measure
	// for every complete interval).
	Instructions uint64 `json:"instructions"`
	// Cycles is the cycles between the retirement of the last warmup
	// instruction and the retirement of the last measured one.
	Cycles uint64 `json:"cycles"`
	// Breakdown is the window's CPI stack; it sums exactly to Cycles.
	Breakdown events.Stack `json:"breakdown"`
}

// CPI returns the interval's cycles per instruction.
func (s IntervalSample) CPI() float64 {
	if s.Instructions == 0 {
		return 0
	}
	return float64(s.Cycles) / float64(s.Instructions)
}

// ComponentCPI returns one CPI-stack component's per-instruction
// contribution within the interval.
func (s IntervalSample) ComponentCPI(c events.Component) float64 {
	if s.Instructions == 0 {
		return 0
	}
	return float64(s.Breakdown[c]) / float64(s.Instructions)
}

// SampledRun is the sampling record attached to a RunResult.
type SampledRun struct {
	// Plan is the schedule the run used.
	Plan SamplePlan `json:"plan"`
	// StreamInstructions is the total dynamic instructions the stream
	// advanced through (detailed + functionally skipped).
	StreamInstructions uint64 `json:"stream_instructions"`
	// DetailedInstructions is how many of those the timing model
	// actually simulated (warmup + measure windows).
	DetailedInstructions uint64 `json:"detailed_instructions"`
	// Samples holds every complete measured interval, in stream order.
	Samples []IntervalSample `json:"samples"`
}

// Speedup returns the detailed-instruction reduction factor:
// stream instructions per detailed-simulated instruction.
func (r SampledRun) Speedup() float64 {
	if r.DetailedInstructions == 0 {
		return 0
	}
	return float64(r.StreamInstructions) / float64(r.DetailedInstructions)
}

// SampleCursor drives one sampled run. It has two duties:
//
//   - Wrap the workload source so the pipeline sees only the
//     detailed regions (warmup+measure per period), with the gaps
//     consumed through the kernel's functional-warming path.
//   - Observe retirements (OnRetire) to open and close measurement
//     windows by snapshot/delta over the model's event Collector.
//
// A nil *SampleCursor is valid and inert: every method is a no-op
// (wrap returns the source unchanged), so kernels thread it
// unconditionally and full runs stay byte-identical.
type SampleCursor struct {
	plan SamplePlan

	// stream accounting (updated by the wrapped source)
	stream  uint64 // stream positions consumed (detailed + skipped)
	skipped uint64 // of those, functionally skipped
	done    bool   // stream exhausted or MaxIntervals reached

	// k is the kernel being timed. Every record a functional skip
	// consumes goes through k.Warm, so the model keeps its long-lived
	// structures — caches, branch predictors — warm through the gap
	// ("functional warming"); without it, every measured window
	// re-pays misses on state the skipped region would have
	// installed, biasing the CPI estimate upward far beyond what
	// warmup instructions can absorb. Before every collector snapshot
	// and delta, k.Hier's counters (DRAM accesses, prefetches) are
	// folded in, since they are owned outside the pipeline core.
	k Kernel

	// measurement state
	measuring  bool
	startCycle uint64
	snap       events.Collector

	// accumulated measured totals
	mcol    events.Collector // counter deltas summed over measured windows
	stack   events.Stack     // finished per-interval stacks summed
	cycles  uint64
	insts   uint64
	samples []IntervalSample
}

// newSampleCursor returns a cursor timing kernel k under the plan,
// or nil (inert) when the plan is nil. The plan must already be
// Check-validated.
func newSampleCursor(p *SamplePlan, k Kernel) *SampleCursor {
	if p == nil {
		return nil
	}
	return &SampleCursor{plan: *p, k: k}
}

// wrap returns a source delivering only the plan's detailed regions
// of src, consuming the gaps functionally. A nil cursor returns src
// unchanged.
func (c *SampleCursor) wrap(src cpu.Source) cpu.Source {
	if c == nil {
		return src
	}
	return &sampledSource{src: src, cur: c}
}

// sampledSource glues the detailed regions of the schedule into one
// continuous record stream.
type sampledSource struct {
	src cpu.Source
	cur *SampleCursor
}

// Next implements cpu.Source.
func (s *sampledSource) Next() (cpu.Record, bool) {
	c := s.cur
	for {
		if c.done {
			return cpu.Record{}, false
		}
		if c.plan.MaxIntervals > 0 && c.stream/c.plan.Period >= uint64(c.plan.MaxIntervals) {
			c.done = true
			return cpu.Record{}, false
		}
		off := c.stream % c.plan.Period
		if off < c.plan.Detailed() {
			rec, ok := s.src.Next()
			if !ok {
				c.done = true
				return cpu.Record{}, false
			}
			c.stream++
			return rec, true
		}
		// Functional gap: skip to the next period boundary, warming
		// the model's long-lived structures along the way.
		want := c.plan.Period - off
		var n uint64
		for n < want {
			rec, ok := s.src.Next()
			if !ok {
				break
			}
			c.k.Warm(rec)
			n++
		}
		c.stream += n
		c.skipped += n
		if n < want {
			c.done = true
			return cpu.Record{}, false
		}
	}
}

// OnRetire is the per-retirement hook every model calls from its
// commit stage: retired is the model's running retirement count
// (1-based, i.e. after incrementing), cycle its current cycle, and
// col its event collector. Because the wrapped source delivers only
// detailed-region records, the d-th retirement is the d-th detailed
// instruction: offset (retired-1) mod (Warmup+Measure) locates it
// within its interval. The hook is nil-safe and O(1) except at the
// two window boundaries.
func (c *SampleCursor) OnRetire(retired, cycle uint64, col *events.Collector) {
	if c == nil {
		return
	}
	d := c.plan.Detailed()
	off := (retired - 1) % d
	switch {
	case off == c.plan.Warmup-1:
		// Last warmup instruction retired: open the window.
		c.k.Hier().FoldMemEvents(col)
		c.snap = *col
		c.startCycle = cycle
		c.measuring = true
	case off == d-1 && c.measuring:
		// Last measured instruction retired: close and record.
		c.k.Hier().FoldMemEvents(col)
		delta := col.Since(&c.snap)
		dc := cycle - c.startCycle
		stack := delta.Finish(dc)
		k := (retired - 1) / d
		c.samples = append(c.samples, IntervalSample{
			Start:        k*c.plan.Period + c.plan.Warmup,
			Instructions: c.plan.Measure,
			Cycles:       dc,
			Breakdown:    stack,
		})
		c.mcol.Merge(&delta)
		for i := range stack {
			c.stack[i] += stack[i]
		}
		c.cycles += dc
		c.insts += c.plan.Measure
		c.measuring = false
	}
}

// finalize rewrites res to cover the measured windows only and
// attaches the SampledRun record. The driver passes the res it built
// from the run's full accounting; on a sampled run those totals mix
// warmup and measurement, so they are replaced wholesale with the
// window sums (whose stack still sums exactly to the cycles). A nil
// cursor leaves res untouched.
func (c *SampleCursor) finalize(res *RunResult, model events.Model) {
	if c == nil {
		return
	}
	res.Instructions = c.insts
	res.Cycles = c.cycles
	res.Counters = c.mcol.Counters(model)
	stack := c.stack
	res.Breakdown = &stack
	res.Sampled = &SampledRun{
		Plan:                 c.plan,
		StreamInstructions:   c.stream,
		DetailedInstructions: c.stream - c.skipped,
		Samples:              c.samples,
	}
}
