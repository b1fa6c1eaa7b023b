package benchtrack

import (
	"fmt"
	"sort"
	"strings"
)

// Band is the tolerance applied to one metric when comparing a
// candidate trajectory against a baseline. A candidate value passes
// when it is no worse than the baseline by more than Ratio
// (multiplicative) plus Abs (additive) in the metric's bad direction.
type Band struct {
	// Ratio is the multiplicative slack (>= 1). 1.10 allows a 10%
	// regression before failing.
	Ratio float64
	// Abs is additive slack applied after Ratio, absorbing
	// quantization on small counters (e.g. allocs/op of 72 ± 2).
	Abs float64
	// HigherBetter inverts the bad direction: the metric regresses by
	// shrinking (insts/s, speedup).
	HigherBetter bool
	// TwoSided fails movement in either direction; used for metrics
	// that are deterministic properties of the simulation (such as
	// detailed_insts) where any drift means behavior changed.
	TwoSided bool
}

// DefaultBand returns the tolerance for a metric unit.
//
// Deterministic counters get tight bands: they are machine-independent
// and any real movement is a code change, not noise. Wall-clock series
// get wide bands because CI machines differ from the machines
// trajectories were recorded on; the tight counters are the primary
// regression trip-wire, wall-clock the backstop for pathological
// slowdowns.
func DefaultBand(unit string) Band {
	switch unit {
	case "allocs/op":
		return Band{Ratio: 1.10, Abs: 2}
	case "B/op":
		return Band{Ratio: 1.25, Abs: 4096}
	case "ns/op":
		return Band{Ratio: 2.5}
	case "insts/s":
		return Band{Ratio: 2.5, HigherBetter: true}
	case "speedup":
		return Band{Ratio: 1.02, HigherBetter: true}
	case "detailed_insts":
		return Band{Ratio: 1.01, TwoSided: true}
	}
	return Band{Ratio: 2.0}
}

// Violation is one metric outside its band.
type Violation struct {
	Benchmark string
	Unit      string
	Base      float64
	Cand      float64
	// Limit is the boundary the candidate crossed: an upper bound for
	// lower-is-better metrics, a lower bound for higher-is-better.
	Limit float64
	Msg   string
}

// Rename is a paired disappearance: a baseline benchmark missing
// from the candidate whose metric-unit set exactly matches a
// benchmark new in the candidate — almost always a rename, not a
// deletion plus an unrelated addition.
type Rename struct {
	From, To string
}

// Report is the outcome of comparing a candidate against a baseline.
type Report struct {
	Violations []Violation
	// Missing lists baseline benchmarks absent from the candidate;
	// each is also a Violation.
	Missing []string
	// New lists candidate benchmarks absent from the baseline;
	// informational only. Benchmarks consumed by a Renamed pairing are
	// excluded.
	New []string
	// Renamed pairs each missing baseline benchmark with the new
	// candidate benchmark it most plausibly became (identical
	// metric-unit sets, closest name). The pair collapses to one
	// violation line naming the successor, instead of a missing
	// violation plus an unexplained new-benchmark note.
	Renamed []Rename
	// Notes are caveats that never fail the comparison, such as a
	// candidate run at a different GOMAXPROCS than its baseline.
	Notes []string
}

// OK reports whether the candidate is within every band.
func (r *Report) OK() bool { return len(r.Violations) == 0 }

// String renders the report for humans (and CI logs).
func (r *Report) String() string {
	var b strings.Builder
	if r.OK() {
		b.WriteString("benchtrack: all benchmarks within tolerance\n")
	} else {
		fmt.Fprintf(&b, "benchtrack: %d violation(s)\n", len(r.Violations))
		for _, v := range r.Violations {
			fmt.Fprintf(&b, "  FAIL %-28s %-15s %s\n", v.Benchmark, v.Unit, v.Msg)
		}
	}
	for _, n := range r.New {
		fmt.Fprintf(&b, "  new benchmark (not compared): %s\n", n)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	return b.String()
}

// a Rename's violation line already names the successor, so String
// prints nothing extra for Renamed pairs.

// Compare measures a candidate trajectory against a baseline using
// per-unit bands from bandFor (nil means DefaultBand). Comparison is
// best-vs-best within each metric's samples: min against min for
// lower-is-better, max against max for higher-is-better, mean against
// mean for two-sided metrics — repeated samples exist to shed noise,
// not to widen the band. Metrics present on only one side are skipped
// (recording flags may differ); whole benchmarks missing from the
// candidate are violations.
func Compare(base, cand *Trajectory, bandFor func(unit string) Band) *Report {
	if bandFor == nil {
		bandFor = DefaultBand
	}
	rep := &Report{}
	if base.GOMAXPROCS != 0 && cand.GOMAXPROCS != 0 && base.GOMAXPROCS != cand.GOMAXPROCS {
		rep.Notes = append(rep.Notes, fmt.Sprintf(
			"candidate ran at GOMAXPROCS %d, baseline at %d: parallel benchmarks are not like for like",
			cand.GOMAXPROCS, base.GOMAXPROCS))
	}
	for _, name := range sortedKeys(base.Benchmarks) {
		bb := base.Benchmarks[name]
		cb, ok := cand.Benchmarks[name]
		if !ok {
			rep.Missing = append(rep.Missing, name)
			rep.Violations = append(rep.Violations, Violation{
				Benchmark: name,
				Msg:       "present in baseline, missing from candidate run",
			})
			continue
		}
		for _, unit := range sortedKeys(bb.Metrics) {
			bm := bb.Metrics[unit]
			cm, ok := cb.Metrics[unit]
			if !ok {
				continue
			}
			if v, bad := check(bm, cm, bandFor(unit)); bad {
				v.Benchmark, v.Unit = name, unit
				rep.Violations = append(rep.Violations, v)
			}
		}
	}
	for _, name := range sortedKeys(cand.Benchmarks) {
		if _, ok := base.Benchmarks[name]; !ok {
			rep.New = append(rep.New, name)
		}
	}
	rep.pairRenames(base, cand)
	return rep
}

// pairRenames matches Missing baseline benchmarks against New
// candidate benchmarks. Only benchmarks with identical metric-unit
// sets pair (a rename does not change what a benchmark measures);
// among unit-set matches the closest name wins (longest shared
// prefix+suffix, ties lexicographic), so the pairing is
// deterministic. Each pair rewrites its missing violation to name the
// successor and drops the successor from New.
func (r *Report) pairRenames(base, cand *Trajectory) {
	if len(r.Missing) == 0 || len(r.New) == 0 {
		return
	}
	unitSet := func(b Benchmark) string {
		return strings.Join(sortedKeys(b.Metrics), "\x00")
	}
	taken := make(map[string]bool, len(r.New))
	for _, from := range r.Missing {
		want := unitSet(base.Benchmarks[from])
		best, bestScore := "", -1
		for _, to := range r.New {
			if taken[to] || unitSet(cand.Benchmarks[to]) != want {
				continue
			}
			if score := nameAffinity(from, to); score > bestScore {
				best, bestScore = to, score
			}
		}
		if best == "" {
			continue
		}
		taken[best] = true
		r.Renamed = append(r.Renamed, Rename{From: from, To: best})
		for i := range r.Violations {
			if r.Violations[i].Benchmark == from && r.Violations[i].Unit == "" {
				r.Violations[i].Msg = fmt.Sprintf("missing from candidate run (renamed to %s?)", best)
				break
			}
		}
	}
	if len(r.Renamed) > 0 {
		kept := r.New[:0]
		for _, n := range r.New {
			if !taken[n] {
				kept = append(kept, n)
			}
		}
		r.New = kept
	}
}

// nameAffinity scores how alike two benchmark names are: the longest
// shared prefix plus the longest shared suffix of the remainder —
// cheap, deterministic, and exactly what a rename leaves intact.
func nameAffinity(a, b string) int {
	p := 0
	for p < len(a) && p < len(b) && a[p] == b[p] {
		p++
	}
	s := 0
	for s < len(a)-p && s < len(b)-p && a[len(a)-1-s] == b[len(b)-1-s] {
		s++
	}
	return p + s
}

// check applies one band. The zero band (Ratio 0) is normalized to
// Ratio 1 (exact). The ratio bounds are sign-aware so that any
// baseline value — including zero and negatives, which fuzzed inputs
// produce — sits inside its own band: upper(v) >= v >= lower(v).
func check(base, cand Metric, band Band) (Violation, bool) {
	ratio := band.Ratio
	if ratio < 1 {
		ratio = 1
	}
	upper := func(v float64) float64 {
		if v >= 0 {
			return v*ratio + band.Abs
		}
		return v/ratio + band.Abs
	}
	lower := func(v float64) float64 {
		if v >= 0 {
			return (v - band.Abs) / ratio
		}
		return v*ratio - band.Abs
	}
	switch {
	case band.TwoSided:
		hi := upper(base.Mean)
		lo := lower(base.Mean)
		if cand.Mean > hi {
			return Violation{Base: base.Mean, Cand: cand.Mean, Limit: hi,
				Msg: fmt.Sprintf("%.6g above two-sided band [%.6g, %.6g] (baseline %.6g)", cand.Mean, lo, hi, base.Mean)}, true
		}
		if cand.Mean < lo {
			return Violation{Base: base.Mean, Cand: cand.Mean, Limit: lo,
				Msg: fmt.Sprintf("%.6g below two-sided band [%.6g, %.6g] (baseline %.6g)", cand.Mean, lo, hi, base.Mean)}, true
		}
	case band.HigherBetter:
		floor := lower(base.Max)
		if cand.Max < floor {
			return Violation{Base: base.Max, Cand: cand.Max, Limit: floor,
				Msg: fmt.Sprintf("%.6g below floor %.6g (baseline %.6g, ratio %.2f)", cand.Max, floor, base.Max, ratio)}, true
		}
	default:
		limit := upper(base.Min)
		if cand.Min > limit {
			return Violation{Base: base.Min, Cand: cand.Min, Limit: limit,
				Msg: fmt.Sprintf("%.6g above limit %.6g (baseline %.6g, ratio %.2f)", cand.Min, limit, base.Min, ratio)}, true
		}
	}
	return Violation{}, false
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
