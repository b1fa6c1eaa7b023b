package validate

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The golden-table regression harness. Each experiment is regenerated
// at a fixed truncated operating point and compared byte-for-byte
// against its blessed rendering in testdata/*.golden; any drift in
// the simulators, the workload generators, or the table formatting
// fails the test. Re-bless after an intentional change with
//
//	go test ./internal/validate -run TestGolden -update
//
// The checked-in full-length references (results_full.txt,
// results_mapping.txt) are asserted by TestGoldenFullResults, which
// regenerates every experiment at full length (about 90 s of wall
// clock and 3 CPU-minutes on a 2-vCPU Xeon) and therefore only runs
// when GOLDEN_FULL=1 is set; CI runs it as its own step.
var update = flag.Bool("update", false, "re-bless the golden files in testdata/")

// goldenOpt is the blessed operating point: runs truncated to 15,000
// instructions, at whatever parallelism the host has, which must not
// change output. The goldens pin this short operating point for
// regression testing; they do not stand in for full length, where
// the numbers differ in size and even sign. In table3.golden
// sim-alpha's mean |err| is 21.1%, its gcc error -25.3% and
// sim-outorder's gcc -5.2%; results_full.txt has 13.1%, +11.1% and
// +41.2%. See the ROADMAP's reproduction-error item.
var goldenOpt = Options{Limit: 15_000}

// goldenExperiments lists every experiment in paper order. Table 5
// runs shorter: its grid is 52 machine variants wide.
var goldenExperiments = []struct {
	name string
	run  func() (fmt.Stringer, error)
}{
	{"table1", func() (fmt.Stringer, error) { return Table1(goldenOpt) }},
	{"table2", func() (fmt.Stringer, error) { return Table2(goldenOpt) }},
	{"sampling", func() (fmt.Stringer, error) { return SamplingStudy(goldenOpt) }},
	{"memcal", func() (fmt.Stringer, error) { return MemoryCalibration(goldenOpt) }},
	{"table3", func() (fmt.Stringer, error) { return Table3(goldenOpt) }},
	{"table4", func() (fmt.Stringer, error) { return Table4(goldenOpt) }},
	{"table5", func() (fmt.Stringer, error) { return Table5(Options{Limit: 8_000}) }},
	{"figure2", func() (fmt.Stringer, error) { return Figure2(goldenOpt) }},
	{"mapping", func() (fmt.Stringer, error) { return MappingStudy(goldenOpt) }},
}

func TestGoldenTables(t *testing.T) {
	for _, exp := range goldenExperiments {
		t.Run(exp.name, func(t *testing.T) {
			out, err := exp.run()
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, exp.name, out.String())
		})
	}
}

// TestGoldenBreakdown covers the CPI-breakdown experiment. It is
// blessed separately from goldenExperiments because the full-length
// reference files (results_full.txt) predate the instrumentation
// layer and must keep matching the original nine experiments.
func TestGoldenBreakdown(t *testing.T) {
	out, err := Breakdown(goldenOpt)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "breakdown", out.String())
}

// TestGoldenSweep and TestGoldenCalibration cover the design-space
// exploration experiments (also outside the results_full.txt nine).
// Both must render byte-identically at any parallelism; calibration
// runs at the table5 operating point since coordinate descent visits
// hundreds of cells.
func TestGoldenSweep(t *testing.T) {
	out, err := Sweep(goldenOpt)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "sweep", out.String())
}

func TestGoldenCalibration(t *testing.T) {
	out, err := Calibration(Options{Limit: 8_000})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "calibration", out.String())
}

// TestGoldenSampled covers the sampled-simulation experiment (also
// outside the results_full.txt nine). Beyond byte-stability, the
// table must show the subsystem's core claim holding at the golden
// operating point: every macrobenchmark's full-run CPI inside the
// sampled 95% confidence interval.
func TestGoldenSampled(t *testing.T) {
	res, err := Sampled(goldenOpt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Inside != len(res.Rows) {
		t.Errorf("confidence intervals cover full-run CPI on %d/%d macrobenchmarks",
			res.Inside, len(res.Rows))
	}
	checkGolden(t, "sampled", res.String())
}

// TestGoldenStability covers the cross-tier conclusion-stability
// experiment (outside the results_full.txt nine). Beyond
// byte-stability, the blessed operating point must exhibit the
// experiment's reason for existing: at least one pair of
// optimizations whose speedup ranking flips between the detailed and
// analytical tiers.
func TestGoldenStability(t *testing.T) {
	res, err := Stability(goldenOpt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Flips) == 0 {
		t.Errorf("no ranking flips between tiers at the golden operating point")
	}
	checkGolden(t, "stability", res.String())
}

// TestGoldenAttribution covers the single-feature attribution
// experiment on generated cliff suites. Beyond byte-stability, the
// blessed operating point must exhibit the experiment's acceptance
// claims: the detailed tier localizes the L1-size cliff around the
// 64 KB edge and the predictor cliff around the local-history alias
// capacity, and at least one axis shows the analytical tier missing
// or displacing a cliff.
func TestGoldenAttribution(t *testing.T) {
	res, err := Attribution(goldenOpt)
	if err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]AttributionFamily, len(res.Families))
	for _, f := range res.Families {
		byName[f.Name] = f
	}

	l1 := byName["l1-size"]
	if c := l1.Detailed; !c.Found ||
		c.Lo < res.Target.L1DKB/2 || c.Hi > 2*res.Target.L1DKB {
		t.Errorf("detailed tier mislocalizes the L1-size cliff: %+v (edge %d KB)",
			c, res.Target.L1DKB)
	}
	pred := byName["predictor"]
	alias := res.Target.AliasCapacity()
	if c := pred.Detailed; !c.Found || c.Lo > alias || c.Hi < alias {
		t.Errorf("detailed tier mislocalizes the predictor cliff: %+v (alias capacity %d)",
			c, alias)
	}
	misses := 0
	for _, d := range res.Disagreements {
		if f := byName[d.Family]; f.Verdict == "analytical-misses" || f.Verdict == "displaced" {
			misses++
		}
	}
	if misses == 0 {
		t.Errorf("no axis shows the analytical tier missing or displacing a cliff")
	}
	checkGolden(t, "attribution", res.String())
}

// TestGoldenMemory covers the memory-error experiment (outside the
// results_full.txt nine). Beyond byte-stability, the blessed
// operating point must exhibit the experiment's acceptance claims:
// the DDR calibration descent strictly improves its objective, the
// calibrated DDR model beats the flat model's mean |CPI error| on the
// memory-bound macrobenchmarks, and at least one row-policy or
// scheduler conclusion flips between the detailed and analytical
// tiers.
func TestGoldenMemory(t *testing.T) {
	res, err := Memory(goldenOpt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cal.FinalErr >= res.Cal.StartErr {
		t.Errorf("DDR calibration did not improve: start %.2f%%, final %.2f%%",
			res.Cal.StartErr, res.Cal.FinalErr)
	}
	if res.CalMemErr >= res.FlatMemErr {
		t.Errorf("calibrated DDR does not beat flat DRAM on memory-bound macrobenchmarks: flat %.2f%%, ddr-cal %.2f%%",
			res.FlatMemErr, res.CalMemErr)
	}
	if res.CalMemErr >= res.DefMemErr {
		t.Errorf("calibration did not reduce the DDR model's macro error: default %.2f%%, calibrated %.2f%%",
			res.DefMemErr, res.CalMemErr)
	}
	if len(res.Flips) == 0 {
		t.Errorf("no controller conclusion flips between the detailed and analytical tiers")
	}
	checkGolden(t, "memory", res.String())
}

// checkGolden compares a rendering against its blessed file in
// testdata/, rewriting the file under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to bless): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s drifted from golden\n--- got ---\n%s--- want ---\n%s",
			name, got, want)
	}
}

// TestGoldenFullResults asserts the checked-in full-length outputs:
// the regenerated tables must match results_full.txt and
// results_mapping.txt byte-for-byte. This is the paper's whole
// argument — simulator results drift silently unless continuously
// revalidated against a reference — applied to ourselves. It takes
// about 90 s on a 2-vCPU Xeon (3 CPU-minutes), so it is gated behind
// GOLDEN_FULL=1; CI runs it as its own step.
func TestGoldenFullResults(t *testing.T) {
	if os.Getenv("GOLDEN_FULL") == "" {
		t.Skip("set GOLDEN_FULL=1 to regenerate every experiment at full length")
	}
	var full Options
	var b strings.Builder
	var mappingOut string
	for _, exp := range goldenExperiments {
		out, err := func() (fmt.Stringer, error) {
			switch exp.name {
			case "table1":
				return Table1(full)
			case "table2":
				return Table2(full)
			case "sampling":
				return SamplingStudy(full)
			case "memcal":
				return MemoryCalibration(full)
			case "table3":
				return Table3(full)
			case "table4":
				return Table4(full)
			case "table5":
				return Table5(full)
			case "figure2":
				return Figure2(full)
			case "mapping":
				return MappingStudy(full)
			}
			panic("unreachable")
		}()
		if err != nil {
			t.Fatalf("%s: %v", exp.name, err)
		}
		// cmd/validate prints each experiment with Println: the
		// rendering plus one separating newline.
		b.WriteString(out.String())
		b.WriteString("\n")
		if exp.name == "mapping" {
			mappingOut = out.String()
		}
	}
	got := b.String()

	want, err := os.ReadFile(filepath.Join("..", "..", "results_full.txt"))
	if err != nil {
		t.Fatal(err)
	}
	// The reference file carries the harness's trailing exit marker.
	ref := strings.TrimSuffix(string(want), "EXIT 0\n")
	if got != ref {
		t.Errorf("full-length output drifted from results_full.txt (%d vs %d bytes)",
			len(got), len(ref))
		reportFirstDiff(t, got, ref)
	}

	wantMap, err := os.ReadFile(filepath.Join("..", "..", "results_mapping.txt"))
	if err != nil {
		t.Fatal(err)
	}
	refMap := strings.TrimSuffix(string(wantMap), "EXIT 0\n")
	if gotMap := mappingOut + "\n"; gotMap != refMap {
		t.Errorf("mapping output drifted from results_mapping.txt")
		reportFirstDiff(t, gotMap, refMap)
	}
}

func reportFirstDiff(t *testing.T, got, want string) {
	t.Helper()
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Errorf("first divergence at line %d:\n got: %q\nwant: %q", i+1, gl[i], wl[i])
			return
		}
	}
	t.Errorf("one output is a prefix of the other (%d vs %d lines)", len(gl), len(wl))
}
