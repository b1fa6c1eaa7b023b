package validate

import (
	"strings"
	"testing"

	"repro/internal/macrobench"
	"repro/internal/model"
	"repro/internal/simcache"
	"repro/internal/sweep"
)

// quick caps run lengths so the whole experiment suite stays fast in
// tests. It is the goldens' short operating point, whose numbers
// differ in size and even sign from results_full.txt's (see goldenOpt
// in golden_test.go).
var quick = Options{Limit: 15_000}

func TestTable2Shape(t *testing.T) {
	res, err := Table2(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 21 {
		t.Fatalf("rows = %d, want 21", len(res.Rows))
	}
	// Headline: validation reduces error by a large factor.
	if res.MeanAlphaErr*3 > res.MeanInitialErr {
		t.Errorf("validated error %.1f%% not far below initial %.1f%%",
			res.MeanAlphaErr, res.MeanInitialErr)
	}
	// sim-outorder sits between.
	if res.MeanOutorderErr <= res.MeanAlphaErr {
		t.Errorf("outorder error %.1f%% below validated %.1f%%",
			res.MeanOutorderErr, res.MeanAlphaErr)
	}
	// The control benchmarks dominate sim-initial's error, as
	// Section 3.4 describes (front-end bugs are the biggest).
	var ctl, exe float64
	for _, r := range res.Rows {
		switch r.Name {
		case "C-Ca", "C-Cb":
			ctl += abs(r.InitialErr)
		case "E-D1", "E-F":
			exe += abs(r.InitialErr)
		}
	}
	if ctl < 10*exe {
		t.Errorf("control error %.1f not dominating simple-execute error %.1f", ctl, exe)
	}
	s := res.String()
	if !strings.Contains(s, "C-Ca") || !strings.Contains(s, "mean") {
		t.Error("rendering missing expected content")
	}
}

func TestTable3Shape(t *testing.T) {
	res, err := Table3(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 10 {
		t.Fatalf("rows = %d, want 10", len(res.Rows))
	}
	// sim-outorder overestimates on average; its harmonic-mean IPC
	// exceeds the native machine's.
	if res.OutorderHMean <= res.NativeHMean {
		t.Errorf("outorder hmean %.2f not above native %.2f",
			res.OutorderHMean, res.NativeHMean)
	}
	// sim-stripped underestimates.
	if res.StrippedHMean >= res.NativeHMean {
		t.Errorf("stripped hmean %.2f not below native %.2f",
			res.StrippedHMean, res.NativeHMean)
	}
	// sim-alpha sits closest to native in aggregate error.
	if res.AlphaMAE >= res.StrippedMAE || res.AlphaMAE >= res.OutorderMAE {
		t.Errorf("sim-alpha MAE %.1f not the smallest (stripped %.1f, outorder %.1f)",
			res.AlphaMAE, res.StrippedMAE, res.OutorderMAE)
	}
	if !strings.Contains(res.String(), "gzip") {
		t.Error("rendering missing benchmarks")
	}
}

func TestTable4Shape(t *testing.T) {
	res, err := Table4(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cols) != 10 {
		t.Fatalf("cols = %d, want 10", len(res.Cols))
	}
	byName := map[string]Table4Col{}
	for _, c := range res.Cols {
		byName[c.Feature] = c
	}
	// The jump adder is the single most valuable feature (the paper's
	// -7.8%), and removing map stalls helps.
	if byName["addr"].MeanPct >= -1 {
		t.Errorf("addr removal cost only %.2f%%", byName["addr"].MeanPct)
	}
	if byName["luse"].MeanPct >= 0 {
		t.Errorf("luse removal cost %.2f%%, want negative", byName["luse"].MeanPct)
	}
	if byName["maps"].MeanPct <= 0 {
		t.Errorf("maps removal gained %.2f%%, want positive", byName["maps"].MeanPct)
	}
	if !strings.Contains(res.String(), "addr") {
		t.Error("rendering missing features")
	}
}

func TestFigure2Shape(t *testing.T) {
	res, err := Figure2(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 10 {
		t.Fatalf("series = %d, want 10", len(res.Series))
	}
	// The abstract 8-way simulator reports much higher IPC than
	// sim-alpha for the same experiments.
	if res.AbstractHMean[0] <= res.AlphaHMean[0] {
		t.Errorf("abstract hmean %.2f not above sim-alpha %.2f",
			res.AbstractHMean[0], res.AlphaHMean[0])
	}
	// Restricting the register file loses performance on both, and
	// partial bypass loses at least as much as full bypass at the
	// same read latency.
	if res.AbstractLossPct[1] < res.AbstractLossPct[0] {
		t.Errorf("abstract partial-bypass loss %.1f below full-bypass loss %.1f",
			res.AbstractLossPct[1], res.AbstractLossPct[0])
	}
	if res.AlphaLossPct[0] < 0 || res.AbstractLossPct[0] < 0 {
		t.Errorf("register file restriction gained performance: %v %v",
			res.AlphaLossPct, res.AbstractLossPct)
	}
	if !strings.Contains(res.String(), "hmean") {
		t.Error("rendering missing aggregate")
	}
}

func TestMemoryCalibrationShape(t *testing.T) {
	res, err := MemoryCalibration(Options{Limit: 30_000})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 48 {
		t.Fatalf("points = %d, want 48", len(res.Points))
	}
	if res.Best.MeanAbs > 25 {
		t.Errorf("best calibration error %.1f%% is implausibly high", res.Best.MeanAbs)
	}
	// The paper's configuration should be among the better half.
	var paperErr float64
	worse := 0
	for _, p := range res.Points {
		if p.PaperConfig() {
			paperErr = p.MeanAbs
		}
	}
	for _, p := range res.Points {
		if p.MeanAbs > paperErr {
			worse++
		}
	}
	if worse < len(res.Points)/2 {
		t.Errorf("paper config (%.1f%% error) beats only %d/%d configurations",
			paperErr, worse, len(res.Points))
	}
	if !strings.Contains(res.String(), "best:") {
		t.Error("rendering missing best line")
	}
}

// TestDDRSpaceOriginIsDefault pins the memory experiment's reuse of
// the descent's origin point as its default-DDR column: the origin
// must fingerprint exactly as the sim-alpha-ddr backend's config.
func TestDDRSpaceOriginIsDefault(t *testing.T) {
	space := ddrSpace()
	cfg, err := space.Config(space.Origin())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := simcache.Fingerprint(cfg), simcache.Fingerprint(model.SimAlphaDDRConfig()); got != want {
		t.Errorf("ddrSpace origin fingerprint %s, sim-alpha-ddr %s", got, want)
	}
}

// TestMappingConfigsKeyDistinctly: the mapping study's three machines
// differ only in page mapping, so each must get its own cache key. A
// mapper held in a closure fingerprinted alike for every policy.
func TestMappingConfigsKeyDistinctly(t *testing.T) {
	w := macrobench.Suite()[0]
	seen := make(map[simcache.Key]int)
	for i, cfg := range mappingConfigs() {
		k := sweep.CellKey("sweep/v1", cfg, w)
		if j, dup := seen[k]; dup {
			t.Errorf("mapping configs %d and %d share cell key %s", j, i, k)
		}
		seen[k] = i
	}
}

func TestOptionsLimit(t *testing.T) {
	ws := Options{Limit: 100}.apply(nil)
	if len(ws) != 0 {
		t.Error("apply on empty input")
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestTable1LatencyConformance(t *testing.T) {
	res, err := Table1(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 9 {
		t.Fatalf("rows = %d, want 9", len(res.Rows))
	}
	for _, r := range res.Rows {
		// Allow a fraction of a cycle of loop overhead on top of the
		// specified latency.
		if r.Measured < float64(r.Specified)-0.05 || r.Measured > float64(r.Specified)+0.6 {
			t.Errorf("%s: measured %.2f, specified %d", r.Class, r.Measured, r.Specified)
		}
	}
	if !strings.Contains(res.String(), "integer multiply") {
		t.Error("rendering missing classes")
	}
}

func TestSamplingStudyShape(t *testing.T) {
	res, err := SamplingStudy(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 6 {
		t.Fatalf("points = %d, want 6", len(res.Points))
	}
	// Dilation decreases monotonically with the interval; counting
	// error increases.
	for i := 1; i < len(res.Points); i++ {
		if res.Points[i].DilationPct > res.Points[i-1].DilationPct+1e-9 {
			t.Errorf("dilation not decreasing at interval %d", res.Points[i].IntervalCycles)
		}
		if res.Points[i].ErrorPct+1e-9 < res.Points[i-1].ErrorPct/2 {
			t.Errorf("counting error collapsed at interval %d", res.Points[i].IntervalCycles)
		}
	}
	// The optimum is interior: neither the finest nor the coarsest.
	if res.Best.IntervalCycles == 1000 {
		t.Errorf("best interval at the finest setting; trade-off missing")
	}
	if !strings.Contains(res.String(), "40,000") {
		t.Error("rendering missing the paper reference")
	}
}

func TestMappingStudyShape(t *testing.T) {
	res, err := MappingStudy(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 10 {
		t.Fatalf("rows = %d, want 10", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r.SeqIPC <= 0 || r.ColorIPC <= 0 || r.HashIPC <= 0 {
			t.Errorf("%s: non-positive IPC", r.Benchmark)
		}
		if r.SpreadPct < 0 {
			t.Errorf("%s: negative spread", r.Benchmark)
		}
	}
	// At least one benchmark must be visibly mapping-sensitive: the
	// paper's argument that page mappings carry irreducible error.
	if res.MaxSpread < 0.5 {
		t.Errorf("max mapping spread %.2f%%; policies indistinguishable", res.MaxSpread)
	}
	if !strings.Contains(res.String(), "hashed") {
		t.Error("rendering missing policy columns")
	}
}
