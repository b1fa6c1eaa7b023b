package sweep

import (
	"context"
	"encoding/json"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/microbench"
	"repro/internal/simcache"
)

// testWorkloads returns a small, fast suite for engine mechanics.
func testWorkloads(t *testing.T, names ...string) []core.Workload {
	t.Helper()
	out := make([]core.Workload, 0, len(names))
	for _, n := range names {
		w, ok := microbench.ByName(n)
		if !ok {
			t.Fatalf("no workload %q", n)
		}
		out = append(out, w)
	}
	return out
}

// capped gives every workload the same instruction budget.
func capped(limit uint64, ws []core.Workload) []core.Workload {
	for i := range ws {
		ws[i] = ws[i].Capped(limit)
	}
	return ws
}

func testEngine(t *testing.T) *Engine {
	return &Engine{
		Workloads: capped(4000, testWorkloads(t, "C-Ca", "E-I", "M-D")),
		Cache:     simcache.New(0),
	}
}

func TestEngineRunShape(t *testing.T) {
	s := tuningSpace()
	e := testEngine(t)
	pts, err := (OneFactorAtATime{}).Enumerate(s)
	if err != nil {
		t.Fatal(err)
	}
	prs, st, err := e.Run(context.Background(), s, pts)
	if err != nil {
		t.Fatal(err)
	}
	if len(prs) != len(pts) {
		t.Fatalf("%d point results for %d points", len(prs), len(pts))
	}
	if st.Points != len(pts) || st.Cells != len(pts)*3 || st.CacheHits != 0 {
		t.Errorf("stats = %+v", st)
	}
	for _, pr := range prs {
		if len(pr.Results) != 3 {
			t.Fatalf("point %s has %d results", pr.Label, len(pr.Results))
		}
		for i, r := range pr.Results {
			if r.Cycles == 0 || r.Instructions == 0 {
				t.Errorf("point %s workload %d ran nothing: %+v", pr.Label, i, r)
			}
			if r.Instructions > 4000 {
				t.Errorf("limit not applied: %d insts", r.Instructions)
			}
			if r.Breakdown == nil {
				t.Errorf("point %s lost its CPI stack through the cache", pr.Label)
			}
		}
	}
	// The baseline point is the untouched base config.
	if prs[0].Results[0].Machine != "sim-alpha" {
		t.Errorf("baseline machine = %q", prs[0].Results[0].Machine)
	}
}

// A repeated identical sweep must be answered almost entirely by the
// cache — the ISSUE's >= 90% bar; with an identical request it is
// exactly 100%.
func TestEngineRepeatSweepHitsCache(t *testing.T) {
	s := tuningSpace()
	e := testEngine(t)
	pts, _ := Grid{}.Enumerate(s)
	ctx := context.Background()

	first, st1, err := e.Run(ctx, s, pts)
	if err != nil {
		t.Fatal(err)
	}
	if st1.CacheHits != 0 {
		t.Errorf("cold sweep reported %d hits", st1.CacheHits)
	}
	second, st2, err := e.Run(ctx, s, pts)
	if err != nil {
		t.Fatal(err)
	}
	if st2.CacheHits != st2.Cells {
		t.Errorf("repeat sweep: %d/%d hits, want all", st2.CacheHits, st2.Cells)
	}
	if st2.HitRate() < 0.9 {
		t.Errorf("repeat hit rate %.2f below the 90%% bar", st2.HitRate())
	}
	for i := range first {
		for j := range first[i].Results {
			a, b := first[i].Results[j], second[i].Results[j]
			if a.Cycles != b.Cycles || a.Instructions != b.Instructions {
				t.Fatalf("cached result diverged at point %d workload %d", i, j)
			}
		}
	}

	// An overlapping sweep (OFAT is a subset of the grid here) also
	// re-pays nothing for shared points.
	ofat, _ := (OneFactorAtATime{}).Enumerate(s)
	_, st3, err := e.Run(ctx, s, ofat)
	if err != nil {
		t.Fatal(err)
	}
	if st3.CacheHits != st3.Cells {
		t.Errorf("overlapping sweep recomputed %d cells", st3.Cells-st3.CacheHits)
	}
}

// Parallel and serial sweeps must agree cell for cell.
func TestEngineParallelismInvariance(t *testing.T) {
	s := tuningSpace()
	pts, _ := Grid{}.Enumerate(s)
	ctx := context.Background()

	serial := &Engine{Workloads: capped(3000, testWorkloads(t, "C-Ca", "M-D")), Parallelism: 1}
	wide := &Engine{Workloads: capped(3000, testWorkloads(t, "C-Ca", "M-D")), Parallelism: 8}
	a, _, err := serial.Run(ctx, s, pts)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := wide.Run(ctx, s, pts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].Label != b[i].Label {
			t.Fatalf("point order diverged at %d", i)
		}
		for j := range a[i].Results {
			if a[i].Results[j].Cycles != b[i].Results[j].Cycles {
				t.Errorf("cycles diverged at point %d workload %d", i, j)
			}
		}
	}
}

func TestEngineCancellation(t *testing.T) {
	s := tuningSpace()
	e := testEngine(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pts, _ := Grid{}.Enumerate(s)
	if _, _, err := e.Run(ctx, s, pts); err == nil {
		t.Error("cancelled sweep returned no error")
	}
}

func TestEngineRejectsDegeneratePointConfigs(t *testing.T) {
	// ROB = 2 fails alpha.Config.Check inside model.Build; the cell
	// must fail with an error, not panic the process.
	s := &Space{Base: tuningSpace().Base, Axes: []Axis{Ints("rob", "ROB", 2)}}
	e := testEngine(t)
	_, _, err := e.Run(context.Background(), s, []Point{{0}})
	if err == nil {
		t.Error("degenerate config ran without error")
	}
}

// TestEngineExecRunsEveryCell: Exec produces sweep points and
// reference cells alike, and its bytes decode to what a local cell
// returns.
func TestEngineExecRunsEveryCell(t *testing.T) {
	s := tuningSpace()
	pts, err := (OneFactorAtATime{}).Enumerate(s)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var calls atomic.Int64
	e := testEngine(t)
	e.Cache = nil
	e.Exec = func(_ context.Context, cfg any, w core.Workload) ([]byte, error) {
		calls.Add(1)
		r, err := runLocal(cfg, w)
		if err != nil {
			return nil, err
		}
		return json.Marshal(r)
	}
	got, st, err := e.Run(ctx, s, pts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Reference(ctx, refConfig()); err != nil {
		t.Fatal(err)
	}
	if want := int64(st.Cells + len(e.Workloads)); calls.Load() != want {
		t.Errorf("Exec ran %d cells, want %d (points and reference)", calls.Load(), want)
	}
	local := testEngine(t)
	local.Cache = nil
	want, _, err := local.Run(ctx, s, pts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("Exec cells differ from local cells")
	}
}

func TestReference(t *testing.T) {
	e := testEngine(t)
	ref, err := e.Reference(context.Background(), refConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(ref) != len(e.Workloads) {
		t.Fatalf("%d reference results for %d workloads", len(ref), len(e.Workloads))
	}
	for i, r := range ref {
		if r.Cycles == 0 {
			t.Errorf("reference workload %d ran nothing", i)
		}
	}
}

// TestEngineSampledSweep: workloads with a sampling plan explore the
// same design space at a fraction of the detailed-simulation cost,
// their cells live under distinct cache addresses from the full cells
// (sharing one cache with a full sweep produces zero cross-hits), and
// the sampling record survives the cache round-trip.
func TestEngineSampledSweep(t *testing.T) {
	s := tuningSpace()
	pts, err := (OneFactorAtATime{}).Enumerate(s)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cache := simcache.New(0)

	full := testEngine(t)
	full.Cache = cache
	_, fullSt, err := full.Run(ctx, s, pts)
	if err != nil {
		t.Fatal(err)
	}

	plan := core.SamplePlan{Period: 500, Warmup: 25, Measure: 25}
	sampled := testEngine(t)
	sampled.Cache = cache
	for i := range sampled.Workloads {
		sampled.Workloads[i].Sample = &plan
	}
	prs, st, err := sampled.Run(ctx, s, pts)
	if err != nil {
		t.Fatal(err)
	}
	if st.CacheHits != 0 {
		t.Errorf("sampled sweep hit %d full-run cells", st.CacheHits)
	}
	if st.DetailedInstructions == 0 || fullSt.DetailedInstructions == 0 {
		t.Fatal("missing detailed-instruction accounting")
	}
	ratio := float64(fullSt.DetailedInstructions) / float64(st.DetailedInstructions)
	if ratio < 5 {
		t.Errorf("detailed-instruction reduction %.2fx, want >= 5x (%d vs %d)",
			ratio, fullSt.DetailedInstructions, st.DetailedInstructions)
	}
	for _, pr := range prs {
		for i, r := range pr.Results {
			if r.Sampled == nil {
				t.Fatalf("point %s workload %d lost its sampling record through the cache",
					pr.Label, i)
			}
			if r.Sampled.Plan != plan {
				t.Errorf("point %s workload %d plan = %+v", pr.Label, i, r.Sampled.Plan)
			}
		}
	}

	// A repeat of the sampled sweep is answered entirely by the cache.
	_, st2, err := sampled.Run(ctx, s, pts)
	if err != nil {
		t.Fatal(err)
	}
	if st2.CacheHits != st2.Cells {
		t.Errorf("repeat sampled sweep: %d/%d cells from cache", st2.CacheHits, st2.Cells)
	}
}
