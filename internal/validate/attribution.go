package validate

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/workgen"
)

// The attribution experiment extends the stability question from five
// hand-picked optimizations to systematically generated
// discontinuities. A workgen cliff suite is generated against the
// sim-alpha machine geometry: each family sweeps exactly one spec axis
// across levels that straddle a machine edge (L1 capacity, conflict
// capacity, predictor history capacity, issue width), so any CPI break
// between adjacent levels is attributable to that single axis. Both
// fidelity tiers run every member; the experiment localizes the cliff
// each tier observes and reports where the tiers disagree — the axes
// on which a study run on the cheap analytical tier would mislocate
// (or never see) a real discontinuity.

// attributionLimit is the experiment's fixed per-run instruction
// budget. Cliff localization needs steady-state behavior: at short
// budgets cold misses ramp CPI across sub-capacity working sets and
// masquerade as early cliffs. The experiment therefore raises any
// smaller Options.Limit to this floor (a larger explicit limit is
// honored).
const attributionLimit = 60_000

// attributionCliffThreshold is the minimum relative CPI change
// between adjacent levels that counts as a cliff. The detector also
// requires a jump to reach half the family's largest jump, so a
// gradual ramp toward a big break is not mistaken for the break.
const attributionCliffThreshold = 0.20

// AttributionCliff is one tier's localized cliff on one family: the
// swept-axis bracket [Lo, Hi] between whose levels the tier's CPI
// breaks, and the relative jump observed there.
type AttributionCliff struct {
	Found   bool
	Lo, Hi  int     // adjacent swept-axis levels bracketing the break
	PctJump float64 // % CPI change from Lo's level to Hi's
}

// AttributionFamily is one generated family's cross-tier report.
type AttributionFamily struct {
	Name   string
	Axis   string
	Edge   string // the machine edge the levels straddle
	Levels []int
	// DetailedCPI and AnalyticalCPI are per-level CPIs, in level order.
	DetailedCPI   []float64
	AnalyticalCPI []float64
	Detailed      AttributionCliff
	Analytical    AttributionCliff
	// Verdict summarizes the comparison: "agree", "displaced",
	// "analytical-misses", "analytical-phantom", or "quiet".
	Verdict string
}

// AttributionDisagreement names one axis where the analytical tier
// mislocates or misses a cliff the detailed tier observes.
type AttributionDisagreement struct {
	Family string
	Axis   string
	Detail string
}

// AttributionResult is the single-feature attribution report.
type AttributionResult struct {
	Target        workgen.CliffTarget
	Families      []AttributionFamily
	Disagreements []AttributionDisagreement
}

// detectCliff finds the first adjacent-level jump whose magnitude
// reaches both the absolute threshold and half the family's largest
// jump (so ramps preceding the main break are skipped), scanning in
// level order.
func detectCliff(levels []int, cpis []float64) AttributionCliff {
	var maxAbs float64
	jumps := make([]float64, 0, len(cpis)-1)
	for i := 1; i < len(cpis); i++ {
		j := 0.0
		if cpis[i-1] != 0 {
			j = (cpis[i] - cpis[i-1]) / cpis[i-1]
		}
		jumps = append(jumps, j)
		maxAbs = math.Max(maxAbs, math.Abs(j))
	}
	need := math.Max(attributionCliffThreshold, maxAbs/2)
	for i, j := range jumps {
		if math.Abs(j) >= need {
			return AttributionCliff{Found: true, Lo: levels[i], Hi: levels[i+1], PctJump: 100 * j}
		}
	}
	return AttributionCliff{}
}

// verdictOf classifies one family's tier comparison.
func verdictOf(det, ana AttributionCliff) string {
	switch {
	case !det.Found && !ana.Found:
		return "quiet"
	case det.Found && !ana.Found:
		return "analytical-misses"
	case !det.Found && ana.Found:
		return "analytical-phantom"
	case det.Lo == ana.Lo && det.Hi == ana.Hi:
		return "agree"
	default:
		return "displaced"
	}
}

// Attribution runs the single-feature attribution experiment: a
// workgen cliff suite generated against the sim-alpha geometry, every
// member on both fidelity tiers, cliffs localized per tier and
// compared.
func Attribution(opt Options) (AttributionResult, error) {
	if opt.Limit == 0 || opt.Limit < attributionLimit {
		opt.Limit = attributionLimit
	}

	cfg := model.DefaultAlphaConfig()
	target := workgen.TargetFrom(cfg.Hier, cfg.Tour.LocalHistBits, cfg.IntIssueWidth)
	suite := workgen.CliffSuite(target)

	// Flatten the suite into one workload list, remembering each
	// family's slice of it.
	var ws []core.Workload
	starts := make([]int, len(suite))
	for i, f := range suite {
		starts[i] = len(ws)
		members, err := f.Workloads()
		if err != nil {
			return AttributionResult{}, fmt.Errorf("attribution: generate %s: %w", f.Name, err)
		}
		ws = append(ws, members...)
	}
	ws = opt.apply(ws)

	grids, err := runGrid(opt, []any{model.DefaultAlphaConfig(), model.DefaultIntervalConfig()}, ws)
	if err != nil {
		return AttributionResult{}, err
	}

	out := AttributionResult{Target: target}
	for i, f := range suite {
		fam := AttributionFamily{Name: f.Name, Axis: f.Axis, Edge: f.Edge, Levels: f.Levels}
		for k := range f.Levels {
			w := starts[i] + k
			fam.DetailedCPI = append(fam.DetailedCPI, grids[0][w].CPI())
			fam.AnalyticalCPI = append(fam.AnalyticalCPI, grids[1][w].CPI())
		}
		fam.Detailed = detectCliff(f.Levels, fam.DetailedCPI)
		fam.Analytical = detectCliff(f.Levels, fam.AnalyticalCPI)
		fam.Verdict = verdictOf(fam.Detailed, fam.Analytical)

		switch fam.Verdict {
		case "analytical-misses":
			out.Disagreements = append(out.Disagreements, AttributionDisagreement{
				Family: fam.Name, Axis: fam.Axis,
				Detail: fmt.Sprintf("detailed tier breaks %+.1f%% at %s %d->%d; analytical tier is flat",
					fam.Detailed.PctJump, fam.Axis, fam.Detailed.Lo, fam.Detailed.Hi),
			})
		case "analytical-phantom":
			out.Disagreements = append(out.Disagreements, AttributionDisagreement{
				Family: fam.Name, Axis: fam.Axis,
				Detail: fmt.Sprintf("analytical tier breaks %+.1f%% at %s %d->%d that the detailed tier does not show",
					fam.Analytical.PctJump, fam.Axis, fam.Analytical.Lo, fam.Analytical.Hi),
			})
		case "displaced":
			out.Disagreements = append(out.Disagreements, AttributionDisagreement{
				Family: fam.Name, Axis: fam.Axis,
				Detail: fmt.Sprintf("detailed tier breaks at %s %d->%d, analytical tier at %d->%d",
					fam.Axis, fam.Detailed.Lo, fam.Detailed.Hi, fam.Analytical.Lo, fam.Analytical.Hi),
			})
		}
		out.Families = append(out.Families, fam)
	}
	return out, nil
}

// String renders the per-family level tables, each tier's localized
// cliff, and the disagreement list.
func (r AttributionResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Single-feature attribution on generated cliff suites (detailed vs analytical)\n")
	fmt.Fprintf(&b, "target: L1D %d KB %d-way, L2 %d KB, %d victim entries, %d KB pages, %d-bit local history, %d-wide\n\n",
		r.Target.L1DKB, r.Target.L1DAssoc, r.Target.L2KB, r.Target.VictimEntries,
		r.Target.PageKB, r.Target.LocalHistBits, r.Target.IssueWidth)

	for _, f := range r.Families {
		fmt.Fprintf(&b, "family %-10s axis %-15s edge: %s\n", f.Name, f.Axis, f.Edge)
		fmt.Fprintf(&b, "  %10s %12s %12s\n", f.Axis, "detailed", "analytical")
		for i, lv := range f.Levels {
			fmt.Fprintf(&b, "  %10d %12.3f %12.3f\n", lv, f.DetailedCPI[i], f.AnalyticalCPI[i])
		}
		fmt.Fprintf(&b, "  detailed:   %s\n", f.Detailed.describe(f.Axis))
		fmt.Fprintf(&b, "  analytical: %s\n", f.Analytical.describe(f.Axis))
		fmt.Fprintf(&b, "  verdict:    %s\n\n", f.Verdict)
	}

	if len(r.Disagreements) == 0 {
		fmt.Fprintf(&b, "Disagreements: none (both tiers localize every cliff identically)\n")
	} else {
		fmt.Fprintf(&b, "Disagreements (axes where the analytical tier would mislead)\n")
		for _, d := range r.Disagreements {
			fmt.Fprintf(&b, "  %-10s %s\n", d.Family, d.Detail)
		}
	}
	return b.String()
}

func (c AttributionCliff) describe(axis string) string {
	if !c.Found {
		return "no cliff at this operating point"
	}
	return fmt.Sprintf("cliff at %s %d->%d (%+.1f%% CPI)", axis, c.Lo, c.Hi, c.PctJump)
}
