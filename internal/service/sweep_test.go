package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"
)

// postSweep submits a raw request body and returns the status code.
func postSweep(t *testing.T, url string, body string) int {
	t.Helper()
	resp, err := http.Post(url+"/v1/sweep", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// submitSweep submits a sweep through the client.
func submitSweep(t *testing.T, url string, req SweepRequest) SweepJob {
	t.Helper()
	job, err := NewClient(url).SubmitSweep(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	return job
}

// waitSweep polls a job through the client until it reaches a
// terminal state.
func waitSweep(t *testing.T, url, id string) SweepJob {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	job, err := NewClient(url).WaitSweep(ctx, id)
	if err != nil {
		t.Fatalf("sweep job %s: %v", id, err)
	}
	return job
}

// tinySweep is a 2x2 grid over sim-alpha on two microbenchmarks,
// small enough for CI smoke use (the same shape the workflow posts).
var tinySweep = SweepRequest{
	Machine: "sim-alpha",
	Axes: []SweepAxis{
		{Name: "rob", Field: "ROB", Values: []any{80, 20}},
		{Name: "issue", Field: "IntIssueWidth", Values: []any{4, 2}},
	},
	Workloads: []string{"C-Ca", "M-D"},
	Limit:     3000,
}

func TestSweepGridJob(t *testing.T) {
	s, ts := newTestServer(t)

	info := submitSweep(t, ts.URL, tinySweep)
	if info.ID == "" || info.Status == "" {
		t.Fatalf("submit response missing id/status: %+v", info)
	}
	if info.Points != 4 {
		t.Fatalf("planned points = %d, want 4", info.Points)
	}

	done := waitSweep(t, ts.URL, info.ID)
	if done.Status != sweepDone {
		t.Fatalf("job = %q (%s), want done", done.Status, done.Error)
	}
	if done.Result == nil || len(done.Result.Points) != 4 {
		t.Fatalf("result has %d points, want 4", len(done.Result.Points))
	}
	for _, p := range done.Result.Points {
		if len(p.Cells) != 2 {
			t.Fatalf("point %q has %d cells, want 2", p.Label, len(p.Cells))
		}
		for _, c := range p.Cells {
			if c.Instructions == 0 || c.Cycles == 0 {
				t.Fatalf("point %q cell %q is empty", p.Label, c.Workload)
			}
		}
	}
	if got := done.Result.Points[0].Label; got != "rob=80 issue=4" {
		t.Fatalf("first point label = %q", got)
	}

	// A second identical submission must be answered from the shared
	// cache: same cell values, all cells hits.
	again := submitSweep(t, ts.URL, tinySweep)
	rerun := waitSweep(t, ts.URL, again.ID)
	if rerun.Status != sweepDone {
		t.Fatalf("rerun = %q (%s)", rerun.Status, rerun.Error)
	}
	if rerun.Result.Stats.CacheHits != rerun.Result.Stats.Cells {
		t.Fatalf("rerun hits = %d of %d cells, want all",
			rerun.Result.Stats.CacheHits, rerun.Result.Stats.Cells)
	}
	a, _ := json.Marshal(done.Result.Points)
	b, _ := json.Marshal(rerun.Result.Points)
	if !bytes.Equal(a, b) {
		t.Fatal("cached rerun produced different point results")
	}

	// Completion metrics are visible on /metrics.
	if got := s.Metrics().Counter("sweep_points_total").Value(); got != 8 {
		t.Fatalf("sweep_points_total = %d, want 8", got)
	}
	if got := s.Metrics().Counter("sweep_cache_hits_total").Value(); got < 8 {
		t.Fatalf("sweep_cache_hits_total = %d, want >= 8", got)
	}
	_, _, body := get(t, ts.URL+"/metrics")
	for _, name := range []string{"sweep_points_total", "sweep_cache_hits_total", "sweep_jobs_total"} {
		if !strings.Contains(string(body), name) {
			t.Errorf("/metrics missing %s", name)
		}
	}

	// Both jobs are listed, oldest first.
	_, _, body = get(t, ts.URL+"/v1/sweep")
	var jobs []SweepJob
	if err := json.Unmarshal(body, &jobs); err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2 || jobs[0].ID != info.ID || jobs[1].ID != again.ID {
		t.Fatalf("job list = %+v", jobs)
	}
}

// TestSweepLocalCellsShareSimulationSlots: cells a sweep runs in this
// process take the server's simulation slots, so with one slot and a
// four-wide engine the cells queue behind each other, as /v1/run's
// would behind them.
func TestSweepLocalCellsShareSimulationSlots(t *testing.T) {
	s := New(Config{
		CacheEntries:   64,
		MaxConcurrent:  1,
		RequestTimeout: 60 * time.Second,
		Parallelism:    4,
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	done := waitSweep(t, ts.URL, submitSweep(t, ts.URL, tinySweep).ID)
	if done.Status != sweepDone {
		t.Fatalf("job = %q (%s), want done", done.Status, done.Error)
	}
	if n := s.Metrics().Counter("pool_wait_total").Value(); n == 0 {
		t.Fatal("pool_wait_total = 0: sweep cells ran outside the simulation slots")
	}
}

// TestSweepLocalCellsCounted: every cell a sweep simulates in this
// process counts in cells_simulated_total, and its events reach the
// sim_cycles_* totals.
func TestSweepLocalCellsCounted(t *testing.T) {
	s, ts := newTestServer(t)
	done := waitSweep(t, ts.URL, submitSweep(t, ts.URL, tinySweep).ID)
	if done.Status != sweepDone {
		t.Fatalf("job = %q (%s), want done", done.Status, done.Error)
	}
	want := uint64(done.Cells - done.CacheHits)
	if got := s.Metrics().Counter("cells_simulated_total").Value(); want != 8 || got != want {
		t.Fatalf("cells_simulated_total = %d, job simulated %d cells, want 8", got, want)
	}
	_, _, body := get(t, ts.URL+"/metrics")
	if !regexp.MustCompile(`(?m)^sim_cycles_\w+_total [1-9]`).Match(body) {
		t.Fatalf("no sim_cycles_*_total above 0 after a local sweep:\n%s", body)
	}
}

func TestSweepSensitivityJob(t *testing.T) {
	_, ts := newTestServer(t)
	info := submitSweep(t, ts.URL, SweepRequest{
		Machine:   "sim-alpha",
		Axes:      []SweepAxis{{Name: "rob", Field: "ROB", Values: []any{80, 20}}},
		Analysis:  "sensitivity",
		Workloads: []string{"E-I", "M-D"},
		Limit:     3000,
	})
	done := waitSweep(t, ts.URL, info.ID)
	if done.Status != sweepDone {
		t.Fatalf("job = %q (%s)", done.Status, done.Error)
	}
	sens := done.Result.Sensitivity
	if sens == nil || len(sens.Axes) != 1 || sens.Axes[0].Axis != "rob" {
		t.Fatalf("sensitivity result = %+v", done.Result)
	}
	if !sens.HasRef || sens.BaselineErr == 0 {
		t.Fatalf("sensitivity lacks reference columns: %+v", sens)
	}
}

func TestSweepCalibrationJobDefaultSpace(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration descent visits dozens of points")
	}
	_, ts := newTestServer(t)
	info := submitSweep(t, ts.URL, SweepRequest{
		Analysis:  "calibration",
		Workloads: []string{"C-Ca", "E-I", "M-D"},
		Limit:     2000,
		MaxRounds: 3,
	})
	if info.Machine != "sim-initial" {
		t.Fatalf("default calibration machine = %q, want sim-initial", info.Machine)
	}
	done := waitSweep(t, ts.URL, info.ID)
	if done.Status != sweepDone {
		t.Fatalf("job = %q (%s)", done.Status, done.Error)
	}
	cal := done.Result.Calibration
	if cal == nil || done.Result.Trace == "" {
		t.Fatalf("calibration result missing: %+v", done.Result)
	}
	if cal.FinalErr >= cal.StartErr {
		t.Fatalf("descent did not improve: %.2f -> %.2f", cal.StartErr, cal.FinalErr)
	}
	if !strings.HasPrefix(done.Result.Trace, "start  ") {
		t.Fatalf("trace = %q", done.Result.Trace)
	}
}

func TestSweepCancel(t *testing.T) {
	_, ts := newTestServer(t)
	// A big enough sweep that cancellation lands mid-flight.
	info := submitSweep(t, ts.URL, SweepRequest{
		Machine: "sim-alpha",
		Axes: []SweepAxis{
			{Name: "rob", Field: "ROB", Values: []any{80, 70, 60, 50, 40, 30, 20, 10}},
			{Name: "issue", Field: "IntIssueWidth", Values: []any{4, 3, 2, 1}},
		},
		Limit: 50000,
	})
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sweep/"+info.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE = %d", resp.StatusCode)
	}
	done := waitSweep(t, ts.URL, info.ID)
	if done.Status != sweepCanceled && done.Status != sweepDone {
		t.Fatalf("canceled job = %q (%s)", done.Status, done.Error)
	}
	if done.Status == sweepDone {
		t.Log("job finished before the cancel landed; still a legal outcome")
	}
}

func TestSweepValidationErrors(t *testing.T) {
	_, ts := newTestServer(t)
	cases := []struct {
		name string
		body string
		code int
	}{
		{"bad json", `{`, http.StatusBadRequest},
		{"no axes", `{"machine": "sim-alpha"}`, http.StatusBadRequest},
		{"unknown machine", `{"machine": "sim-nope", "axes": [{"name": "a", "field": "ROB", "values": [1]}]}`, http.StatusNotFound},
		{"reference machine field outside Model", `{"machine": "native-ds10l", "axes": [{"name": "a", "field": "ROB", "values": [1]}]}`, http.StatusBadRequest},
		{"bad field path", `{"axes": [{"name": "a", "field": "NoSuchKnob", "values": [1]}]}`, http.StatusBadRequest},
		{"lossy value", `{"axes": [{"name": "a", "field": "ROB", "values": [1.5]}]}`, http.StatusBadRequest},
		{"unknown workload", `{"axes": [{"name": "a", "field": "ROB", "values": [80, 40]}], "workloads": ["nope"]}`, http.StatusNotFound},
		{"duplicate workload", `{"axes": [{"name": "a", "field": "ROB", "values": [80, 40]}], "workloads": ["C-Ca", "C-Ca"]}`, http.StatusBadRequest},
		{"unknown strategy", `{"axes": [{"name": "a", "field": "ROB", "values": [80, 40]}], "strategy": "annealing"}`, http.StatusBadRequest},
		{"random without samples", `{"axes": [{"name": "a", "field": "ROB", "values": [80, 40]}], "strategy": "random"}`, http.StatusBadRequest},
		{"unknown analysis", `{"axes": [{"name": "a", "field": "ROB", "values": [80, 40]}], "analysis": "ouija"}`, http.StatusBadRequest},
		{"unknown reference", `{"axes": [{"name": "a", "field": "ROB", "values": [80, 40]}], "analysis": "sensitivity", "reference": "sim-nope"}`, http.StatusNotFound},
		{"calibration needs axes for non-initial machines", `{"machine": "sim-alpha", "analysis": "calibration"}`, http.StatusBadRequest},
		{"grid point fails Check", `{"axes": [{"name": "rob", "field": "ROB", "values": [80, 2]}], "workloads": ["C-Ca"]}`, http.StatusBadRequest},
		{"calibration point fails Check", `{"axes": [{"name": "rob", "field": "ROB", "values": [80, 68719476736]}], "analysis": "calibration", "workloads": ["C-Ca"]}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code := postSweep(t, ts.URL, tc.body)
			if code != tc.code {
				t.Fatalf("POST %s = %d, want %d", tc.name, code, tc.code)
			}
		})
	}

	// Unknown job IDs are 404 on both poll and cancel.
	code, _, _ := get(t, ts.URL+"/v1/sweep/s-999999")
	if code != http.StatusNotFound {
		t.Fatalf("GET unknown job = %d", code)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sweep/s-999999", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("DELETE unknown job = %d", resp.StatusCode)
	}
}

// TestSweepOverlappingAxesRejectedAtSubmit: two axes on one field,
// or one inside another's, would make differently labelled points one
// config under one cache key, so the submit itself is a 400 naming
// both axes and no job is queued.
func TestSweepOverlappingAxesRejectedAtSubmit(t *testing.T) {
	_, ts := newTestServer(t)
	for name, body := range map[string]string{
		"same field": `{"axes": [{"name": "a", "field": "ROB", "values": [80, 20]},
			{"name": "b", "field": "ROB", "values": [40]}], "workloads": ["C-Ca"]}`,
		"nested field": `{"machine": "sim-alpha-ddr", "axes": [{"name": "a", "field": "DDR", "values": [{"TCL": 4}]},
			{"name": "b", "field": "DDR.TCL", "values": [2, 6]}], "workloads": ["C-Ca"]}`,
	} {
		code, _, out := post(t, ts.URL+"/v1/sweep", body)
		var e errorBody
		if err := json.Unmarshal(out, &e); err != nil {
			t.Fatal(err)
		}
		if code != http.StatusBadRequest || !strings.Contains(e.Error, `axes "a"`) || !strings.Contains(e.Error, `"b"`) {
			t.Errorf("%s: POST /v1/sweep = %d %q, want 400 naming axes a and b", name, code, e.Error)
		}
	}
	_, _, out := get(t, ts.URL+"/v1/sweep")
	var jobs []SweepJob
	if err := json.Unmarshal(out, &jobs); err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 0 {
		t.Errorf("rejected submits queued jobs: %+v", jobs)
	}
}

// TestSweepMappingPolicyAxis: page mapping is a config value, so it
// sweeps like any knob, and on a memory-bound macrobenchmark the two
// policies are two different machines with two different answers.
func TestSweepMappingPolicyAxis(t *testing.T) {
	_, ts := newTestServer(t)
	info := submitSweep(t, ts.URL, SweepRequest{
		Machine:   "sim-alpha",
		Axes:      []SweepAxis{{Name: "map", Field: "Mapping.Policy", Values: []any{"sequential", "hashed"}}},
		Workloads: []string{"equake"},
		Limit:     20000,
	})
	done := waitSweep(t, ts.URL, info.ID)
	if done.Status != sweepDone {
		t.Fatalf("job = %q (%s), want done", done.Status, done.Error)
	}
	pts := done.Result.Points
	if len(pts) != 2 {
		t.Fatalf("%d points, want 2", len(pts))
	}
	if a, b := pts[0].Cells[0].CPI, pts[1].Cells[0].CPI; a == b {
		t.Errorf("sequential and hashed mapping give the same CPI %v on equake", a)
	}
	if done.Result.Stats.CacheHits != 0 {
		t.Errorf("distinct mapping policies shared %d cache entries", done.Result.Stats.CacheHits)
	}
}

// TestSweepNativeBase: the reference machine is a config value like
// any other, so it is a sweep base; its core knobs sit under Model.
func TestSweepNativeBase(t *testing.T) {
	_, ts := newTestServer(t)
	info := submitSweep(t, ts.URL, SweepRequest{
		Machine:   "native-ds10l",
		Axes:      []SweepAxis{{Name: "rob", Field: "Model.ROB", Values: []any{80, 20}}},
		Workloads: []string{"M-I"},
		Limit:     3000,
	})
	done := waitSweep(t, ts.URL, info.ID)
	if done.Status != sweepDone {
		t.Fatalf("job = %q (%s), want done", done.Status, done.Error)
	}
	if pts := done.Result.Points; len(pts) != 2 || pts[0].Cells[0].Cycles == pts[1].Cells[0].Cycles {
		t.Fatalf("native ROB sweep points = %+v", pts)
	}
}

func TestSweepPointBudget(t *testing.T) {
	s := New(Config{MaxSweepPoints: 3, Parallelism: 1})
	_, code, err := s.planSweep(SweepRequest{
		Machine: "sim-alpha",
		Axes: []SweepAxis{
			{Name: "rob", Field: "ROB", Values: []any{80.0, 40.0}},
			{Name: "issue", Field: "IntIssueWidth", Values: []any{4.0, 2.0}},
		},
	})
	if code != http.StatusBadRequest || err == nil {
		t.Fatalf("over-budget grid = %d, %v", code, err)
	}
	// Random sampling inside the budget is accepted over the same space.
	plan, code, err := s.planSweep(SweepRequest{
		Machine: "sim-alpha",
		Axes: []SweepAxis{
			{Name: "rob", Field: "ROB", Values: []any{80.0, 40.0}},
			{Name: "issue", Field: "IntIssueWidth", Values: []any{4.0, 2.0}},
		},
		Strategy: "random", Seed: 1, Samples: 3,
	})
	if err != nil {
		t.Fatalf("in-budget random = %d, %v", code, err)
	}
	if len(plan.pts) != 3 {
		t.Fatalf("random planned %d points, want 3", len(plan.pts))
	}
	// A bare model name plans (and dispatches) under its canonical name.
	plan, _, err = s.planSweep(SweepRequest{
		Machine: "alpha",
		Axes:    []SweepAxis{{Name: "rob", Field: "ROB", Values: []any{80.0, 40.0}}},
	})
	if err != nil || plan.req.Machine != "sim-alpha" {
		t.Fatalf("bare-name sweep planned machine %q (%v), want sim-alpha", plan.req.Machine, err)
	}
	// Calibration budgets its worst case: 1 + rounds × Σ|values|.
	_, code, err = s.planSweep(SweepRequest{Analysis: "calibration", MaxRounds: 2})
	if code != http.StatusBadRequest || err == nil {
		t.Fatalf("over-budget calibration = %d, %v", code, err)
	}
}

// TestSweepPointBudgetBeforeEnumerating: the budget is counted from
// the axes' value counts before any point exists, so a 4,000,000-point
// grid is refused without allocating its points, and a calibration
// whose worst case overflows an int is refused instead of wrapping to
// a small count.
func TestSweepPointBudgetBeforeEnumerating(t *testing.T) {
	h := New(Config{Parallelism: 1}).Handler()
	vals := make([]any, 2000)
	for i := range vals {
		vals[i] = i + 1
	}
	grid, err := json.Marshal(SweepRequest{
		Axes: []SweepAxis{
			{Name: "rob", Field: "ROB", Values: vals},
			{Name: "issue", Field: "IntIssueWidth", Values: vals},
		},
		Workloads: []string{"C-Ca"},
	})
	if err != nil {
		t.Fatal(err)
	}
	calibration := []byte(`{"analysis":"calibration","max_rounds":4611686018427387904,` +
		`"axes":[{"name":"rob","field":"ROB","values":[80,40,20,10]}],"workloads":["C-Ca"]}`)
	// submit answers one POST in process and reports the bytes it
	// allocated, the least of three tries, so a stray background
	// allocation cannot fail the bound.
	submit := func(body []byte) (code int, alloc uint64) {
		for try := 0; try < 3; try++ {
			var before, after runtime.MemStats
			rec := httptest.NewRecorder()
			req := httptest.NewRequest(http.MethodPost, "/v1/sweep", bytes.NewReader(body))
			runtime.ReadMemStats(&before)
			h.ServeHTTP(rec, req)
			runtime.ReadMemStats(&after)
			if n := after.TotalAlloc - before.TotalAlloc; try == 0 || n < alloc {
				alloc = n
			}
			code = rec.Code
		}
		return code, alloc
	}
	code, alloc := submit(grid)
	if code != http.StatusBadRequest {
		t.Errorf("2,000 x 2,000 grid = %d, want 400", code)
	}
	if alloc > 8<<20 {
		t.Errorf("refusing the 2,000 x 2,000 grid allocated %d bytes, want under 8 MiB", alloc)
	}
	if code, _ := submit(calibration); code != http.StatusBadRequest {
		t.Errorf("calibration with 2^62 rounds = %d, want 400", code)
	}
}

func TestSweepQueueBound(t *testing.T) {
	s := New(Config{MaxSweepJobs: 1, Parallelism: 1})
	// Fill the active set directly (never started, so nothing runs).
	s.sweepMu.Lock()
	for i := 0; i < s.cfg.MaxSweepJobs*sweepQueueFactor; i++ {
		id := fmt.Sprintf("s-%06d", i+1)
		s.sweeps[id] = &sweepTask{id: id, status: sweepQueued, cancel: func() {}}
		s.sweepOrder = append(s.sweepOrder, id)
	}
	s.sweepMu.Unlock()

	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	code := postSweep(t, ts.URL, `{"axes": [{"name": "rob", "field": "ROB", "values": [80, 40]}], "workloads": ["C-Ca"], "limit": 1000}`)
	if code != http.StatusTooManyRequests {
		t.Fatalf("over-bound submit = %d, want 429", code)
	}
}

func TestSweepHistoryEviction(t *testing.T) {
	s := New(Config{SweepHistory: 2, Parallelism: 1})
	s.sweepMu.Lock()
	for i := 0; i < 4; i++ {
		id := fmt.Sprintf("s-%06d", i+1)
		st := sweepDone
		if i == 0 {
			st = sweepRunning // live jobs are never evicted
		}
		s.sweeps[id] = &sweepTask{id: id, status: st, cancel: func() {}}
		s.sweepOrder = append(s.sweepOrder, id)
	}
	s.evictSweepHistoryLocked()
	order := append([]string(nil), s.sweepOrder...)
	s.sweepMu.Unlock()

	if len(order) != 2 {
		t.Fatalf("history kept %d jobs %v, want 2", len(order), order)
	}
	if order[0] != "s-000001" || order[1] != "s-000004" {
		t.Fatalf("history = %v, want running oldest + newest done", order)
	}
}
