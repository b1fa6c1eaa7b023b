package validate

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/microbench"
	"repro/internal/model"
	"repro/internal/stats"
)

// SamplingPoint is one DCPI sampling interval and its measurement
// quality across the microbenchmark suite.
type SamplingPoint struct {
	IntervalCycles uint64
	// DilationPct is the mean execution-time dilation the profiler
	// itself introduces (smaller intervals interrupt more).
	DilationPct float64
	// ErrorPct is the mean absolute measurement error versus exact
	// cycle counts (larger intervals alias more events).
	ErrorPct float64
	// Combined is the score the paper implicitly minimizes when it
	// picks 40K cycles: dilation plus counting error.
	Combined float64
}

// SamplingResult is the Section 2.3 interval trade-off study.
type SamplingResult struct {
	Points []SamplingPoint
	Best   SamplingPoint
}

// SamplingStudy reproduces the DCPI sampling-interval trade-off of
// Section 2.3: intervals from 1K to 64K cycles, measured on the
// microbenchmark suite against exact cycle counts. The paper chose
// 40,000 cycles as the best balance between sampling error and
// instrumentation dilation.
func SamplingStudy(opt Options) (SamplingResult, error) {
	ws := opt.apply(microbench.Suite())
	// Exact runs once: the reference's inner model, unmeasured, over
	// the suite. The per-interval profiler emulation afterwards is
	// pure arithmetic.
	exact, err := runGrid(opt, []any{model.DefaultNativeConfig().Model}, ws)
	if err != nil {
		return SamplingResult{}, err
	}
	truth := exact[0]

	var out SamplingResult
	for _, interval := range []uint64{1000, 4000, 10000, 20000, 40000, 64000} {
		cfg := model.DefaultDCPIConfig()
		cfg.IntervalCycles = interval
		// Aliasing error grows with the interval: fewer samples see
		// fewer event transitions.
		cfg.JitterPPM = 20 * interval / 1000
		var dil, errs []float64
		for _, t := range truth {
			m := model.MeasureDCPI(cfg, t)
			noJitter := cfg
			noJitter.JitterPPM = 0
			d := model.MeasureDCPI(noJitter, t)
			dil = append(dil, pct(d.Cycles, t.Cycles))
			errs = append(errs, math.Abs(pct(m.Cycles, d.Cycles)))
		}
		p := SamplingPoint{
			IntervalCycles: interval,
			DilationPct:    stats.Mean(dil),
			ErrorPct:       stats.Mean(errs),
		}
		p.Combined = p.DilationPct + p.ErrorPct
		out.Points = append(out.Points, p)
	}
	out.Best = out.Points[0]
	for _, p := range out.Points[1:] {
		if p.Combined < out.Best.Combined {
			out.Best = p
		}
	}
	return out, nil
}

func pct(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return (float64(a) - float64(b)) / float64(b) * 100
}

// String renders the trade-off table.
func (s SamplingResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "DCPI sampling-interval trade-off (Section 2.3)\n")
	fmt.Fprintf(&b, "%-10s %12s %12s %12s\n", "interval", "dilation", "count err", "combined")
	for _, p := range s.Points {
		marker := ""
		if p.IntervalCycles == s.Best.IntervalCycles {
			marker = " *"
		}
		fmt.Fprintf(&b, "%-10d %11.3f%% %11.3f%% %11.3f%%%s\n",
			p.IntervalCycles, p.DilationPct, p.ErrorPct, p.Combined, marker)
	}
	fmt.Fprintf(&b, "best interval: %d cycles (the paper chose 40,000)\n",
		s.Best.IntervalCycles)
	return b.String()
}
