package benchtrack

import (
	"math"
	"path/filepath"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkGccFull-8          	       4	 286401563 ns/op	    750000 detailed_insts	 1068224 B/op	     119 allocs/op
BenchmarkGccFull-8          	       4	 290100000 ns/op	    750000 detailed_insts	 1068230 B/op	     119 allocs/op
BenchmarkGccSampled-8       	      12	  98001111 ns/op	    150000 detailed_insts	         5.000 speedup	 1073061 B/op	     143 allocs/op
BenchmarkSimAlphaThroughput-8	      58	  21365910 ns/op	   7582419 insts/s	  809696 B/op	      72 allocs/op
PASS
ok  	repro	195.892s
`

func TestParse(t *testing.T) {
	tr, err := Parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Goos != "linux" || tr.Goarch != "amd64" || tr.Pkg != "repro" {
		t.Errorf("header = %q/%q/%q", tr.Goos, tr.Goarch, tr.Pkg)
	}
	if !strings.Contains(tr.CPU, "Xeon") {
		t.Errorf("cpu = %q", tr.CPU)
	}
	if len(tr.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(tr.Benchmarks))
	}

	// -count folding: two GccFull lines become one entry, 2 samples.
	gcc := tr.Benchmarks["BenchmarkGccFull"]
	if gcc.Samples != 2 {
		t.Errorf("GccFull samples = %d, want 2", gcc.Samples)
	}
	ns := gcc.Metrics["ns/op"]
	if ns.Min != 286401563 || ns.Max != 290100000 {
		t.Errorf("ns/op min/max = %v/%v", ns.Min, ns.Max)
	}
	if want := (286401563.0 + 290100000.0) / 2; math.Abs(ns.Mean-want) > 1 {
		t.Errorf("ns/op mean = %v, want %v", ns.Mean, want)
	}

	// The -8 GOMAXPROCS suffix is stripped to the canonical name and
	// recorded in the header, and custom metrics survive.
	if tr.GOMAXPROCS != 8 {
		t.Errorf("GOMAXPROCS = %d, want 8", tr.GOMAXPROCS)
	}
	sampled, ok := tr.Benchmarks["BenchmarkGccSampled"]
	if !ok {
		t.Fatal("BenchmarkGccSampled-8 not canonicalized")
	}
	if sp := sampled.Metrics["speedup"]; sp.Mean != 5.0 {
		t.Errorf("speedup = %v, want 5", sp.Mean)
	}
	if di := sampled.Metrics["detailed_insts"]; di.Mean != 150000 {
		t.Errorf("detailed_insts = %v", di.Mean)
	}
	thr := tr.Benchmarks["BenchmarkSimAlphaThroughput"]
	if is := thr.Metrics["insts/s"]; is.Mean != 7582419 {
		t.Errorf("insts/s = %v", is.Mean)
	}
}

func TestParseRejectsGarbageResultLines(t *testing.T) {
	for _, bad := range []string{
		"BenchmarkX 12 nope ns/op\n",
		"BenchmarkX notanint 5 ns/op\n",
		"BenchmarkX 1 5\n", // odd field count: value with no unit
	} {
		if _, err := Parse(strings.NewReader(bad)); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", bad)
		}
	}
	if _, err := Parse(strings.NewReader("PASS\nok x 1s\n")); err == nil {
		t.Error("Parse with no benchmark lines succeeded, want error")
	}
}

func TestParseGOMAXPROCSSuffix(t *testing.T) {
	for _, tc := range []struct {
		line  string
		procs int
	}{
		{"BenchmarkX 1 5 ns/op", 1}, // the testing package omits -1
		{"BenchmarkX-2 1 5 ns/op", 2},
		{"BenchmarkX-16 1 5 ns/op", 16},
	} {
		tr, err := Parse(strings.NewReader(tc.line + "\n"))
		if err != nil {
			t.Fatalf("Parse(%q): %v", tc.line, err)
		}
		if tr.GOMAXPROCS != tc.procs {
			t.Errorf("Parse(%q): GOMAXPROCS = %d, want %d", tc.line, tr.GOMAXPROCS, tc.procs)
		}
		if _, ok := tr.Benchmarks["BenchmarkX"]; !ok {
			t.Errorf("Parse(%q): name not canonicalized: %v", tc.line, tr.Benchmarks)
		}
	}
}

func TestParseRejectsDisagreeingGOMAXPROCS(t *testing.T) {
	for _, bad := range []string{
		"BenchmarkA-2 1 5 ns/op\nBenchmarkB-4 1 5 ns/op\n",
		"BenchmarkA 1 5 ns/op\nBenchmarkA-2 1 5 ns/op\n", // no suffix is 1
		"BenchmarkA-0 1 5 ns/op\n",
	} {
		if _, err := Parse(strings.NewReader(bad)); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", bad)
		}
	}
}

// TestLoadTrajectoriesWithoutHeaderCounts loads the committed files
// recorded before gomaxprocs and num_cpu existed.
func TestLoadTrajectoriesWithoutHeaderCounts(t *testing.T) {
	paths, err := filepath.Glob("../../bench/BENCH_000[1-5].json")
	if err != nil || len(paths) != 5 {
		t.Fatalf("committed trajectories = %v, %v; want BENCH_0001..0005", paths, err)
	}
	for _, p := range paths {
		tr, err := Load(p)
		if err != nil {
			t.Fatalf("Load(%s): %v", p, err)
		}
		if tr.GOMAXPROCS != 0 || tr.NumCPU != 0 || len(tr.Benchmarks) == 0 {
			t.Errorf("%s: gomaxprocs %d, num_cpu %d, %d benchmarks", p, tr.GOMAXPROCS, tr.NumCPU, len(tr.Benchmarks))
		}
	}
}

func TestParseNameEchoLine(t *testing.T) {
	// Long benchmark names print as a bare name line with the result
	// on the following line.
	out := "BenchmarkVeryLongName\nBenchmarkVeryLongName-8 \t 10\t 100 ns/op\n"
	tr, err := Parse(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	b, ok := tr.Benchmarks["BenchmarkVeryLongName"]
	if !ok || b.Samples != 1 {
		t.Fatalf("echo-line handling broke: %+v", tr.Benchmarks)
	}
}

// mkTraj builds a single-benchmark trajectory where every metric has
// identical min/mean/max (one sample).
func mkTraj(name string, metrics map[string]float64) *Trajectory {
	b := Benchmark{Samples: 1, Metrics: map[string]Metric{}}
	for u, v := range metrics {
		b.Metrics[u] = Metric{Mean: v, Min: v, Max: v}
	}
	return &Trajectory{Schema: Schema, Benchmarks: map[string]Benchmark{name: b}}
}

// TestCompareBands is the edge-case table the harness promises:
// within-band, outside-band (each direction class), missing benchmark,
// new benchmark.
func TestCompareBands(t *testing.T) {
	base := mkTraj("BenchmarkX", map[string]float64{
		"ns/op":          1_000_000,
		"allocs/op":      100,
		"insts/s":        5_000_000,
		"detailed_insts": 750_000,
	})
	cases := []struct {
		name string
		cand *Trajectory
		ok   bool
		unit string // unit expected to violate when !ok
	}{
		{"identical", mkTraj("BenchmarkX", map[string]float64{
			"ns/op": 1_000_000, "allocs/op": 100, "insts/s": 5_000_000, "detailed_insts": 750_000}), true, ""},
		{"within all bands", mkTraj("BenchmarkX", map[string]float64{
			"ns/op": 1_800_000, "allocs/op": 105, "insts/s": 2_500_000, "detailed_insts": 751_000}), true, ""},
		{"allocs regression outside 10%+2", mkTraj("BenchmarkX", map[string]float64{
			"ns/op": 1_000_000, "allocs/op": 113, "insts/s": 5_000_000, "detailed_insts": 750_000}), false, "allocs/op"},
		{"wall-clock blowup outside 2.5x", mkTraj("BenchmarkX", map[string]float64{
			"ns/op": 2_600_000, "allocs/op": 100, "insts/s": 5_000_000, "detailed_insts": 750_000}), false, "ns/op"},
		{"throughput collapse below floor", mkTraj("BenchmarkX", map[string]float64{
			"ns/op": 1_000_000, "allocs/op": 100, "insts/s": 1_900_000, "detailed_insts": 750_000}), false, "insts/s"},
		{"deterministic drift, either direction", mkTraj("BenchmarkX", map[string]float64{
			"ns/op": 1_000_000, "allocs/op": 100, "insts/s": 5_000_000, "detailed_insts": 700_000}), false, "detailed_insts"},
		{"missing metric skipped", mkTraj("BenchmarkX", map[string]float64{
			"ns/op": 1_000_000}), true, ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rep := Compare(base, c.cand, nil)
			if rep.OK() != c.ok {
				t.Fatalf("OK() = %v, want %v\n%s", rep.OK(), c.ok, rep)
			}
			if !c.ok {
				found := false
				for _, v := range rep.Violations {
					if v.Unit == c.unit {
						found = true
					}
				}
				if !found {
					t.Errorf("no violation for unit %q\n%s", c.unit, rep)
				}
			}
		})
	}
}

func TestCompareMissingAndNewBenchmarks(t *testing.T) {
	base := mkTraj("BenchmarkOld", map[string]float64{"ns/op": 100})
	// Disjoint unit sets: a genuine disappearance plus an unrelated
	// addition, not a rename.
	cand := mkTraj("BenchmarkNew", map[string]float64{"allocs/op": 7})
	rep := Compare(base, cand, nil)
	if rep.OK() {
		t.Fatal("missing baseline benchmark did not fail")
	}
	if len(rep.Missing) != 1 || rep.Missing[0] != "BenchmarkOld" {
		t.Errorf("Missing = %v", rep.Missing)
	}
	if len(rep.New) != 1 || rep.New[0] != "BenchmarkNew" {
		t.Errorf("New = %v", rep.New)
	}
	if len(rep.Renamed) != 0 {
		t.Errorf("Renamed = %v, want none (unit sets differ)", rep.Renamed)
	}
	// A new benchmark alone never fails.
	both := mkTraj("BenchmarkOld", map[string]float64{"ns/op": 100})
	both.Benchmarks["BenchmarkNew"] = cand.Benchmarks["BenchmarkNew"]
	if rep := Compare(base, both, nil); !rep.OK() {
		t.Errorf("new benchmark caused failure:\n%s", rep)
	}
}

// TestCompareRenamePairing: a missing baseline benchmark whose
// metric-unit set matches a new candidate benchmark collapses into
// one rename violation; the successor leaves New.
func TestCompareRenamePairing(t *testing.T) {
	units := map[string]float64{"ns/op": 100, "allocs/op": 5}
	base := mkTraj("BenchmarkGccRun", units)
	cand := mkTraj("BenchmarkGccRunSampled", units)
	rep := Compare(base, cand, nil)
	if rep.OK() {
		t.Fatal("rename still fails until the baseline is re-recorded")
	}
	if len(rep.Renamed) != 1 || rep.Renamed[0] != (Rename{From: "BenchmarkGccRun", To: "BenchmarkGccRunSampled"}) {
		t.Fatalf("Renamed = %v", rep.Renamed)
	}
	if len(rep.New) != 0 {
		t.Errorf("New = %v, want empty after pairing", rep.New)
	}
	if len(rep.Missing) != 1 || rep.Missing[0] != "BenchmarkGccRun" {
		t.Errorf("Missing = %v", rep.Missing)
	}
	if len(rep.Violations) != 1 || !strings.Contains(rep.Violations[0].Msg, "renamed to BenchmarkGccRunSampled") {
		t.Errorf("Violations = %+v, want one rename line", rep.Violations)
	}
	if s := rep.String(); strings.Contains(s, "new benchmark") {
		t.Errorf("String still prints a new-benchmark line:\n%s", s)
	}
}

// TestCompareRenameTieBreak: with two unit-set-compatible candidates,
// the closest name wins and the other stays in New.
func TestCompareRenameTieBreak(t *testing.T) {
	units := map[string]float64{"ns/op": 100}
	base := mkTraj("BenchmarkSweepCell", units)
	cand := mkTraj("BenchmarkSweepCellCached", units)
	cand.Benchmarks["BenchmarkUnrelated"] = cand.Benchmarks["BenchmarkSweepCellCached"]
	rep := Compare(base, cand, nil)
	if len(rep.Renamed) != 1 || rep.Renamed[0].To != "BenchmarkSweepCellCached" {
		t.Fatalf("Renamed = %v, want pairing with the closest name", rep.Renamed)
	}
	if len(rep.New) != 1 || rep.New[0] != "BenchmarkUnrelated" {
		t.Errorf("New = %v, want the unpaired candidate", rep.New)
	}
}

func TestCompareNotesGOMAXPROCS(t *testing.T) {
	base := mkTraj("BenchmarkA", map[string]float64{"ns/op": 100})
	cand := mkTraj("BenchmarkA", map[string]float64{"ns/op": 100})
	base.GOMAXPROCS, cand.GOMAXPROCS = 2, 4
	rep := Compare(base, cand, nil)
	if !rep.OK() || len(rep.Notes) != 1 {
		t.Fatalf("differing GOMAXPROCS: OK %v, notes %q; want a note and no violation", rep.OK(), rep.Notes)
	}
	if !strings.Contains(rep.String(), "note: candidate ran at GOMAXPROCS 4, baseline at 2") {
		t.Errorf("report does not print the note:\n%s", rep)
	}
	// An unrecorded baseline (an older file) and an equal one: no note.
	for _, procs := range []int{0, 4} {
		base.GOMAXPROCS = procs
		if rep := Compare(base, cand, nil); len(rep.Notes) != 0 {
			t.Errorf("baseline GOMAXPROCS %d: unexpected notes %q", procs, rep.Notes)
		}
	}
}

func TestSpeedupBandIsTight(t *testing.T) {
	base := mkTraj("BenchmarkGccSampled", map[string]float64{"speedup": 5.0})
	if rep := Compare(base, mkTraj("BenchmarkGccSampled", map[string]float64{"speedup": 4.5}), nil); rep.OK() {
		t.Error("10% speedup loss passed the 2% band")
	}
	if rep := Compare(base, mkTraj("BenchmarkGccSampled", map[string]float64{"speedup": 4.95}), nil); !rep.OK() {
		t.Error("1% jitter failed the 2% band")
	}
	// Improvement is fine for higher-is-better.
	if rep := Compare(base, mkTraj("BenchmarkGccSampled", map[string]float64{"speedup": 6.0}), nil); !rep.OK() {
		t.Error("speedup improvement flagged as regression")
	}
}

func TestStoreRoundTripAndLatest(t *testing.T) {
	dir := t.TempDir()
	tr, err := Parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}

	id, err := NextID(dir)
	if err != nil || id != 1 {
		t.Fatalf("NextID empty dir = %d, %v", id, err)
	}
	tr.ID = id
	tr.Note = "first"
	if err := Save(filepath.Join(dir, FileName(id)), tr); err != nil {
		t.Fatal(err)
	}
	tr2 := *tr
	tr2.ID = 2
	tr2.Note = "second"
	if err := Save(filepath.Join(dir, FileName(2)), &tr2); err != nil {
		t.Fatal(err)
	}

	latest, path, err := Latest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if latest.ID != 2 || latest.Note != "second" {
		t.Errorf("Latest = id %d %q (path %s), want 2 \"second\"", latest.ID, latest.Note, path)
	}
	if id, _ := NextID(dir); id != 3 {
		t.Errorf("NextID = %d, want 3", id)
	}

	// Round trip preserves the parsed content.
	re, err := Load(filepath.Join(dir, FileName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if len(re.Benchmarks) != len(tr.Benchmarks) {
		t.Errorf("round trip lost benchmarks: %d vs %d", len(re.Benchmarks), len(tr.Benchmarks))
	}
	got := re.Benchmarks["BenchmarkGccFull"].Metrics["ns/op"]
	want := tr.Benchmarks["BenchmarkGccFull"].Metrics["ns/op"]
	if got != want {
		t.Errorf("round trip changed ns/op: %+v vs %+v", got, want)
	}

	// Self-comparison of a real trajectory is clean.
	if rep := Compare(tr, re, nil); !rep.OK() {
		t.Errorf("self comparison failed:\n%s", rep)
	}
}

func TestLoadRejectsWrongSchema(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, FileName(1))
	if err := Save(path, &Trajectory{Schema: "bench/v0"}); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Error("wrong schema accepted")
	}
}
