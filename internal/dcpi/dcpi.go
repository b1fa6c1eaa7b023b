// Package dcpi emulates the DIGITAL Continuous Profiling
// Infrastructure measurement process the paper uses on the native
// DS-10L: hardware counters sampled at a configurable interval.
// Sampling dilates execution slightly (interrupt overhead per sample)
// and quantizes event counts (aliasing error), so measured cycle
// counts differ from true cycle counts — exactly the 40K-cycle
// interval trade-off Section 2.3 describes. The perturbation is
// deterministic for a given workload so experiments are reproducible.
package dcpi

import (
	"fmt"
	"math/bits"

	"repro/internal/core"
	"repro/internal/events"
)

// Config controls the emulated profiler.
type Config struct {
	// IntervalCycles is the sampling interval (paper: 40,000 cycles,
	// chosen between 1K and 64K).
	IntervalCycles uint64
	// DilationPerSample is the measurement overhead, in cycles, each
	// sample adds to the observed execution time.
	DilationPerSample uint64
	// JitterPPM scales a deterministic pseudo-random perturbation of
	// the measured cycle count, in parts per million of true cycles.
	// Smaller intervals sample more often and alias less, so the
	// effective jitter shrinks with the interval.
	JitterPPM uint64
}

// DefaultConfig is the paper's operating point: 40K-cycle interval,
// which it found to best balance dilation against counting error.
func DefaultConfig() Config {
	return Config{IntervalCycles: 40000, DilationPerSample: 8, JitterPPM: 3000}
}

// Check bounds the profiler's knobs (IntervalCycles 0 measures
// exactly).
func (c Config) Check() error {
	if c.IntervalCycles > 1<<32 || c.DilationPerSample > 1<<16 || c.JitterPPM > 1_000_000 {
		return fmt.Errorf("dcpi: IntervalCycles %d (max 2^32), DilationPerSample %d (max 2^16) or JitterPPM %d (max 10^6) out of range",
			c.IntervalCycles, c.DilationPerSample, c.JitterPPM)
	}
	return nil
}

// Measure transforms a true run result into what the profiler would
// report. Instruction counts are exact (retirement counters); cycle
// counts carry dilation plus bounded jitter; sampled event counters
// (replay traps, TLB misses, ...) are quantized to the sampling
// granularity, the counting error Section 2.3 trades against
// dilation.
func Measure(cfg Config, r core.RunResult) core.RunResult {
	if cfg.IntervalCycles == 0 || r.Cycles == 0 {
		return r
	}
	if r.Sampled != nil {
		return measureSampled(cfg, r)
	}
	samples := r.Cycles / cfg.IntervalCycles
	dilated := r.Cycles + samples*cfg.DilationPerSample

	// Deterministic jitter in [-JitterPPM, +JitterPPM] ppm derived
	// from the workload identity and true cycle count.
	h := hash64(r.Workload)*0x9e3779b97f4a7c15 ^ r.Cycles
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	span := int64(2*cfg.JitterPPM + 1)
	ppm := int64(h%uint64(span)) - int64(cfg.JitterPPM)
	jitter := int64(r.Cycles) * ppm / 1_000_000

	measured := int64(dilated) + jitter
	if measured < 1 {
		measured = 1
	}
	out := r
	out.Cycles = uint64(measured)
	if len(r.Counters) > 0 {
		samples := r.Cycles / cfg.IntervalCycles
		out.Counters = make(map[string]uint64, len(r.Counters))
		for k, v := range r.Counters {
			out.Counters[k] = quantize(v, samples)
		}
	}
	if r.Breakdown != nil {
		stack := measureStack(*r.Breakdown, r.Cycles, out.Cycles, samples)
		out.Breakdown = &stack
	}
	return out
}

// measureSampled applies the profiler transform to an
// interval-sampled run: each measured window is dilated and jittered
// independently (its jitter seeded by the workload identity and the
// window's stream position, so the perturbation is deterministic per
// interval) and the run totals are re-summed from the transformed
// windows, keeping the result internally consistent — the stack still
// sums to the cycles, and the whole-run CPI is the window aggregate.
// Short windows see few or no profiler samples, so dilation and
// quantization shrink toward a passthrough, exactly as a real
// sampling profiler perturbs a short measured region less.
func measureSampled(cfg Config, r core.RunResult) core.RunResult {
	out := r
	sr := *r.Sampled
	sr.Samples = make([]core.IntervalSample, len(r.Sampled.Samples))
	var cycles uint64
	var stack events.Stack
	for i, s := range r.Sampled.Samples {
		samples := s.Cycles / cfg.IntervalCycles
		dilated := s.Cycles + samples*cfg.DilationPerSample

		h := hash64(r.Workload)*0x9e3779b97f4a7c15 ^ (s.Start + 1)
		h ^= h >> 33
		h *= 0xff51afd7ed558ccd
		h ^= h >> 33
		span := int64(2*cfg.JitterPPM + 1)
		ppm := int64(h%uint64(span)) - int64(cfg.JitterPPM)
		jitter := int64(s.Cycles) * ppm / 1_000_000

		measured := int64(dilated) + jitter
		if measured < 1 {
			measured = 1
		}
		ms := s
		ms.Cycles = uint64(measured)
		ms.Breakdown = measureStack(s.Breakdown, s.Cycles, ms.Cycles, samples)
		sr.Samples[i] = ms
		cycles += ms.Cycles
		for c, v := range ms.Breakdown {
			stack[c] += v
		}
	}
	out.Cycles = cycles
	out.Breakdown = &stack
	// Event counters are whole-run tallies; quantize them at the
	// run-level sample count as the full-run path does.
	if len(r.Counters) > 0 {
		samples := r.Cycles / cfg.IntervalCycles
		out.Counters = make(map[string]uint64, len(r.Counters))
		for k, v := range r.Counters {
			out.Counters[k] = quantize(v, samples)
		}
	}
	out.Sampled = &sr
	return out
}

// measureStack transforms a true CPI stack into the profiler's view:
// stall components are rescaled to the dilated-and-jittered cycle
// count and quantized like any other sampled counter, and the base
// component absorbs the residual, so the measured stack still sums
// exactly to the measured cycle count.
func measureStack(s events.Stack, trueCycles, measuredCycles, samples uint64) events.Stack {
	var col events.Collector
	for c := events.Component(0); c < events.NumComponents; c++ {
		if c == events.CompBase {
			continue
		}
		col.Attribute(c, quantize(scale(s[c], measuredCycles, trueCycles), samples))
	}
	return col.Finish(measuredCycles)
}

// scale returns v * num / den without intermediate overflow. v never
// exceeds den here (a stack component is at most the run's cycles),
// so the result fits in 64 bits.
func scale(v, num, den uint64) uint64 {
	if den == 0 {
		return v
	}
	hi, lo := bits.Mul64(v, num)
	q, _ := bits.Div64(hi, lo, den)
	return q
}

// quantize rounds an event count to the resolution a sampling
// profiler achieves: with s samples, counts are resolved in units of
// roughly count/s (half-up, never collapsing a nonzero count to 0).
func quantize(count, samples uint64) uint64 {
	if samples == 0 || count == 0 {
		return count
	}
	unit := count / samples
	if unit <= 1 {
		return count
	}
	q := (count + unit/2) / unit * unit
	if q == 0 {
		q = unit
	}
	return q
}

func hash64(s string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
