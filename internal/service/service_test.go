package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/macrobench"
	"repro/internal/model"
	"repro/internal/simcache"
	"repro/internal/validate"
)

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s := New(Config{
		CacheEntries:   64,
		MaxConcurrent:  4,
		RequestTimeout: 60 * time.Second,
		Parallelism:    2,
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func get(t *testing.T, url string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, body
}

func post(t *testing.T, url, body string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, out
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t)
	code, _, body := get(t, ts.URL+"/healthz")
	if code != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Fatalf("healthz = %d %q", code, body)
	}
}

func TestMachinesAndWorkloads(t *testing.T) {
	_, ts := newTestServer(t)

	code, _, body := get(t, ts.URL+"/v1/machines")
	if code != http.StatusOK {
		t.Fatalf("/v1/machines = %d: %s", code, body)
	}
	var machines []MachineInfo
	if err := json.Unmarshal(body, &machines); err != nil {
		t.Fatal(err)
	}
	names := make(map[string]MachineInfo)
	for _, m := range machines {
		names[m.Name] = m
	}
	for _, want := range []string{"native-ds10l", "sim-initial", "sim-alpha", "sim-outorder", "sim-inorder", "sim-interval"} {
		m, ok := names[want]
		if !ok {
			t.Errorf("machine %q missing from /v1/machines", want)
			continue
		}
		if m.Fingerprint == "" || m.Description == "" {
			t.Errorf("machine %q lacks fingerprint or description: %+v", want, m)
		}
		if m.Tier == "" {
			t.Errorf("machine %q lacks a fidelity tier: %+v", want, m)
		}
	}
	if ti := names["sim-interval"]; ti.Tier != "analytical" || ti.Capabilities.Samplable || !ti.Capabilities.CPIStack {
		t.Errorf("sim-interval tier/capabilities wrong: %+v", ti)
	}
	if sa := names["sim-alpha"]; sa.Tier != "detailed" || !sa.Capabilities.Checkpointable || !sa.Capabilities.Samplable {
		t.Errorf("sim-alpha tier/capabilities wrong: %+v", sa)
	}
	if names["sim-alpha"].Fingerprint == names["sim-initial"].Fingerprint {
		t.Error("sim-alpha and sim-initial share a config fingerprint")
	}

	code, _, body = get(t, ts.URL+"/v1/workloads")
	if code != http.StatusOK {
		t.Fatalf("/v1/workloads = %d: %s", code, body)
	}
	var workloads []WorkloadInfo
	if err := json.Unmarshal(body, &workloads); err != nil {
		t.Fatal(err)
	}
	got := make(map[string]string)
	for _, w := range workloads {
		got[w.Name] = w.Suite
	}
	for name, suite := range map[string]string{"C-Ca": "micro", "gzip": "macro", "stream": "calibration"} {
		if got[name] != suite {
			t.Errorf("workload %q suite = %q, want %q", name, got[name], suite)
		}
	}
}

// TestRunSingleflightAndCache is the PR's acceptance criterion: two
// identical concurrent /v1/run requests perform exactly one
// simulation, the cached body is byte-identical to the cold one, and
// /metrics reports a non-zero hit count afterwards.
func TestRunSingleflightAndCache(t *testing.T) {
	_, ts := newTestServer(t)
	url := ts.URL + "/v1/run?machine=sim-alpha&workload=C-Ca&limit=5000"

	const concurrent = 2
	var wg sync.WaitGroup
	bodies := make([][]byte, concurrent)
	codes := make([]int, concurrent)
	for i := 0; i < concurrent; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(url)
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			codes[i] = resp.StatusCode
			bodies[i], _ = io.ReadAll(resp.Body)
		}(i)
	}
	wg.Wait()
	for i := 0; i < concurrent; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d = %d: %s", i, codes[i], bodies[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("concurrent responses differ:\n%s\n%s", bodies[0], bodies[i])
		}
	}

	// A third, definitely-cached request must be byte-identical.
	code, hdr, warm := get(t, url)
	if code != http.StatusOK {
		t.Fatalf("warm request = %d: %s", code, warm)
	}
	if hdr.Get("X-Simcache") != "hit" {
		t.Fatalf("warm X-Simcache = %q, want hit", hdr.Get("X-Simcache"))
	}
	if !bytes.Equal(warm, bodies[0]) {
		t.Fatalf("cached body differs from cold body:\n%s\n%s", bodies[0], warm)
	}

	var rr RunResponse
	if err := json.Unmarshal(warm, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.CPI <= 0 {
		t.Errorf("cpi = %v, want > 0", rr.CPI)
	}
	if rr.Machine != "sim-alpha" || rr.Workload != "C-Ca" {
		t.Errorf("response identity = %s/%s", rr.Machine, rr.Workload)
	}
	if rr.Key != hdr.Get("X-Simcache-Key") {
		t.Errorf("body key %q != header key %q", rr.Key, hdr.Get("X-Simcache-Key"))
	}

	// Exactly one simulation ran, and the cache reports hits.
	code, _, body := get(t, ts.URL+"/metrics?format=json")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	if got := string(m["cells_simulated_total"]); got != "1" {
		t.Errorf("cells_simulated_total = %s, want 1 (singleflight broken)", got)
	}
	var hits uint64
	if err := json.Unmarshal(m["cache_hits_total"], &hits); err != nil || hits == 0 {
		t.Errorf("cache_hits_total = %s (err %v), want non-zero", m["cache_hits_total"], err)
	}
}

// TestRunDistinctKeysAreDistinctCells checks the content address
// separates machines and limits.
func TestRunDistinctKeysAreDistinctCells(t *testing.T) {
	_, ts := newTestServer(t)
	urls := []string{
		ts.URL + "/v1/run?machine=sim-alpha&workload=C-Ca&limit=3000",
		ts.URL + "/v1/run?machine=sim-outorder&workload=C-Ca&limit=3000",
		ts.URL + "/v1/run?machine=sim-alpha&workload=C-Ca&limit=4000",
	}
	keys := make(map[string]bool)
	for _, u := range urls {
		code, hdr, body := get(t, u)
		if code != http.StatusOK {
			t.Fatalf("%s = %d: %s", u, code, body)
		}
		keys[hdr.Get("X-Simcache-Key")] = true
	}
	if len(keys) != len(urls) {
		t.Fatalf("got %d distinct keys for %d distinct requests", len(keys), len(urls))
	}
}

// TestRunKeyIsServeTieredDerivation pins a builtin, unsampled
// /v1/run's key to the derivation the serve-tiered benchmark checks
// every warm and hot key against: "run/v1", the registered config's
// fingerprint, and the capped workload's name, fast-forward, budget
// and category.
func TestRunKeyIsServeTieredDerivation(t *testing.T) {
	_, ts := newTestServer(t)
	const limit = 3000
	w, ok := macrobench.ByName("gzip")
	if !ok {
		t.Fatal("no gzip macrobenchmark")
	}
	max := w.MaxInstructions
	if max == 0 || max > limit {
		max = limit
	}
	workID := simcache.Fingerprint(struct {
		Name        string
		FastForward uint64
		Max         uint64
		Category    string
	}{w.Name, w.FastForward, max, w.Category})
	for _, machine := range []string{"sim-alpha", "native-ds10l"} {
		d, err := model.ByName(machine)
		if err != nil {
			t.Fatal(err)
		}
		want := simcache.KeyOf("run/v1", simcache.Fingerprint(d.Config), workID).String()
		code, hdr, body := get(t, fmt.Sprintf("%s/v1/run?machine=%s&workload=gzip&limit=%d", ts.URL, machine, limit))
		if code != http.StatusOK {
			t.Fatalf("%s: GET /v1/run = %d: %s", machine, code, body)
		}
		var rr RunResponse
		if err := json.Unmarshal(body, &rr); err != nil {
			t.Fatal(err)
		}
		if got := hdr.Get("X-Simcache-Key"); got != want || rr.Key != want {
			t.Errorf("%s: X-Simcache-Key %s, body key %s, want %s", machine, got, rr.Key, want)
		}
	}
}

// TestRunAndCellResolveAlike sends each bad cell to /v1/run and to
// /v1/cell. Both routes resolve a cell through cellOf and its sample
// method, so both answer with the same status and message, and
// neither simulates anything.
func TestRunAndCellResolveAlike(t *testing.T) {
	s, ts := newTestServer(t)
	for _, c := range []struct {
		name, run, cell string
		code            int
	}{
		{"unknown machine",
			`{"machine":"sim-nope","workload":"C-Ca"}`,
			`{"machine":"sim-nope","workload":"C-Ca"}`, http.StatusNotFound},
		{"unknown workload",
			`{"machine":"sim-alpha","workload":"nope"}`,
			`{"machine":"sim-alpha","workload":"nope"}`, http.StatusNotFound},
		{"sampling on sim-interval",
			`{"machine":"sim-interval","workload":"C-Ca","limit":2000,"sample":true,"sample_period":1000,"sample_warmup":100,"sample_measure":100}`,
			`{"machine":"sim-interval","workload":"C-Ca","limit":2000,"sample":{"period":1000,"warmup":100,"measure":100}}`, http.StatusBadRequest},
		{"plan over budget",
			`{"machine":"sim-alpha","workload":"C-Ca","limit":100,"sample":true,"sample_period":1000,"sample_warmup":200,"sample_measure":200}`,
			`{"machine":"sim-alpha","workload":"C-Ca","limit":100,"sample":{"period":1000,"warmup":200,"measure":200}}`, http.StatusBadRequest},
		{"invalid plan",
			`{"machine":"sim-alpha","workload":"C-Ca","limit":2000,"sample":true,"sample_period":100,"sample_warmup":200,"sample_measure":100}`,
			`{"machine":"sim-alpha","workload":"C-Ca","limit":2000,"sample":{"period":100,"warmup":200,"measure":100}}`, http.StatusBadRequest},
	} {
		t.Run(c.name, func(t *testing.T) {
			runCode, _, runBody := post(t, ts.URL+"/v1/run", c.run)
			cellCode, _, cellBody := post(t, ts.URL+"/v1/cell", c.cell)
			if runCode != c.code || cellCode != c.code {
				t.Errorf("/v1/run = %d, /v1/cell = %d, want %d", runCode, cellCode, c.code)
			}
			if !bytes.Equal(runBody, cellBody) {
				t.Errorf("/v1/run answered %s/v1/cell answered %s", runBody, cellBody)
			}
		})
	}
	if n := s.Metrics().Counter("cells_simulated_total").Value(); n != 0 {
		t.Errorf("rejected cells simulated %d times", n)
	}
}

// TestRunPostSampleKnobsImplySampling: a sample_* knob alone asks for
// a sampled run on POST, as it does on GET, and both are one cell.
func TestRunPostSampleKnobsImplySampling(t *testing.T) {
	_, ts := newTestServer(t)
	code, _, body := post(t, ts.URL+"/v1/run",
		`{"machine":"sim-alpha","workload":"gzip","limit":15000,"sample_period":5000,"sample_warmup":500,"sample_measure":500}`)
	if code != http.StatusOK {
		t.Fatalf("POST /v1/run = %d: %s", code, body)
	}
	var rr RunResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Sampled == nil || rr.Instructions != 1500 {
		t.Fatalf("POST with sample knobs measured %d instructions, sampling block %+v; want 1500 sampled",
			rr.Instructions, rr.Sampled)
	}
	code, hdr, viaGet := get(t, ts.URL+"/v1/run?machine=sim-alpha&workload=gzip&limit=15000&sample_period=5000&sample_warmup=500&sample_measure=500")
	if code != http.StatusOK || hdr.Get("X-Simcache") != "hit" || !bytes.Equal(viaGet, body) {
		t.Errorf("GET with the same knobs = %d %s, X-Simcache %q; want the POST's body as a hit",
			code, viaGet, hdr.Get("X-Simcache"))
	}
}

func TestRunPost(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Post(ts.URL+"/v1/run", "application/json",
		strings.NewReader(`{"machine":"sim-inorder","workload":"E-I","limit":2000}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/run = %d: %s", resp.StatusCode, body)
	}
	var rr RunResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Instructions == 0 || rr.Cycles == 0 {
		t.Errorf("empty result: %+v", rr)
	}
}

// TestExperimentMatchesValidate requires /v1/experiment/{name} to
// serve exactly what cmd/validate renders for the same options.
func TestExperimentMatchesValidate(t *testing.T) {
	_, ts := newTestServer(t)
	const limit = 2000

	code, hdr, cold := get(t, fmt.Sprintf("%s/v1/experiment/table2?limit=%d", ts.URL, limit))
	if code != http.StatusOK {
		t.Fatalf("/v1/experiment/table2 = %d: %s", code, cold)
	}
	if hdr.Get("X-Simcache") != "miss" {
		t.Errorf("cold X-Simcache = %q, want miss", hdr.Get("X-Simcache"))
	}

	want, err := validate.Table2(validate.Options{Limit: limit})
	if err != nil {
		t.Fatal(err)
	}
	if string(cold) != want.String() {
		t.Errorf("served table2 differs from validate.Table2:\n--- served ---\n%s--- direct ---\n%s", cold, want)
	}

	code, hdr, warm := get(t, fmt.Sprintf("%s/v1/experiment/table2?limit=%d", ts.URL, limit))
	if code != http.StatusOK || hdr.Get("X-Simcache") != "hit" {
		t.Fatalf("warm = %d, X-Simcache = %q", code, hdr.Get("X-Simcache"))
	}
	if !bytes.Equal(cold, warm) {
		t.Error("cached experiment differs from cold render")
	}
}

func TestErrorStatuses(t *testing.T) {
	_, ts := newTestServer(t)
	cases := []struct {
		url  string
		code int
		want string
	}{
		{"/v1/run?machine=sim-alpha", http.StatusBadRequest, "required"},
		{"/v1/run?machine=nope&workload=C-Ca", http.StatusNotFound, "unknown machine"},
		{"/v1/run?machine=sim-alpha&workload=nope", http.StatusNotFound, "unknown workload"},
		{"/v1/run?machine=sim-alpha&workload=C-Ca&limit=abc", http.StatusBadRequest, "invalid limit"},
		{"/v1/experiment/table9", http.StatusNotFound, "unknown experiment"},
		{"/v1/experiment/table2?limit=x", http.StatusBadRequest, "invalid limit"},
	}
	for _, c := range cases {
		code, _, body := get(t, ts.URL+c.url)
		if code != c.code {
			t.Errorf("%s = %d, want %d (%s)", c.url, code, c.code, body)
			continue
		}
		var e errorBody
		if err := json.Unmarshal(body, &e); err != nil || !strings.Contains(e.Error, c.want) {
			t.Errorf("%s error body = %q, want substring %q", c.url, body, c.want)
		}
	}
	// Unknown machine errors must name the valid ones.
	_, _, body := get(t, ts.URL+"/v1/run?machine=nope&workload=C-Ca")
	if !strings.Contains(string(body), "sim-alpha") {
		t.Errorf("unknown-machine error does not list machines: %s", body)
	}
}

// TestTimeout pins the 504 path: an expired deadline answers
// immediately while the simulation continues into the cache.
func TestTimeout(t *testing.T) {
	s := New(Config{RequestTimeout: time.Nanosecond, MaxConcurrent: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/run?machine=sim-alpha&workload=C-Ca&limit=200000")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d (%s), want 504", resp.StatusCode, body)
	}
}

func TestMetricsTextFormat(t *testing.T) {
	_, ts := newTestServer(t)
	get(t, ts.URL+"/v1/run?machine=sim-inorder&workload=C-Ca&limit=2000")
	code, hdr, body := get(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	if !strings.HasPrefix(hdr.Get("Content-Type"), "text/plain") {
		t.Errorf("Content-Type = %q", hdr.Get("Content-Type"))
	}
	for _, want := range []string{"requests_total ", "cells_simulated_total 1", "pool_capacity 4", "request_seconds_count"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics text missing %q:\n%s", want, body)
		}
	}
}

// TestRunSampled covers the sampled /v1/run path end to end: the
// response carries the sampling block with the estimate, the sampled
// key is distinct from the full-run key (sweep.CellKey appends the
// plan to a sampled cell's key, so the two can never collide in the
// cache), the sampling metrics appear on /metrics, and a repeat
// request is a byte-identical cache hit.
func TestRunSampled(t *testing.T) {
	_, ts := newTestServer(t)
	base := ts.URL + "/v1/run?machine=sim-alpha&workload=gzip&limit=15000"

	codeF, hdrF, bodyF := get(t, base)
	if codeF != http.StatusOK {
		t.Fatalf("full run = %d: %s", codeF, bodyF)
	}
	var full RunResponse
	if err := json.Unmarshal(bodyF, &full); err != nil {
		t.Fatal(err)
	}
	if full.Sampled != nil {
		t.Error("full run carries a sampling block")
	}

	code, hdr, body := get(t, base+"&sample=1")
	if code != http.StatusOK {
		t.Fatalf("sampled run = %d: %s", code, body)
	}
	var resp RunResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Sampled == nil {
		t.Fatal("sampled run lacks the sampling block")
	}
	if resp.Sampled.Intervals != 10 {
		t.Errorf("intervals = %d, want 10", resp.Sampled.Intervals)
	}
	if resp.Sampled.Speedup != 5 {
		t.Errorf("speedup = %v, want 5", resp.Sampled.Speedup)
	}
	if resp.Sampled.CPI.Level != 0.95 || resp.Sampled.CPI.N != 10 {
		t.Errorf("estimate = %+v, want level 0.95 over 10 intervals", resp.Sampled.CPI)
	}
	lo := resp.Sampled.CPI.Mean - resp.Sampled.CPI.Half
	hi := resp.Sampled.CPI.Mean + resp.Sampled.CPI.Half
	if full.CPI < lo || full.CPI > hi {
		t.Errorf("full CPI %.4f outside sampled 95%% CI [%.4f, %.4f]", full.CPI, lo, hi)
	}
	if resp.Instructions >= full.Instructions {
		t.Errorf("sampled measured %d instructions, full %d: no reduction",
			resp.Instructions, full.Instructions)
	}
	if hdr.Get("X-Simcache-Key") == hdrF.Get("X-Simcache-Key") {
		t.Error("sampled and full runs share a cache key")
	}

	code, hdr2, body2 := get(t, base+"&sample=1")
	if code != http.StatusOK || hdr2.Get("X-Simcache") != "hit" {
		t.Errorf("repeat sampled run: code %d, X-Simcache %q, want 200 hit",
			code, hdr2.Get("X-Simcache"))
	}
	if !bytes.Equal(body, body2) {
		t.Error("cached sampled body differs from cold body")
	}

	_, _, metricsBody := get(t, ts.URL+"/metrics")
	for _, want := range []string{
		"sample_runs_total 1",
		"sample_intervals_total 10",
		"sample_intervals_count 1",
	} {
		if !strings.Contains(string(metricsBody), want) {
			t.Errorf("/metrics lacks %q", want)
		}
	}
}

// TestRunSampledPlanKnobs: explicit plan parameters reach the
// schedule (keying a different cell) and invalid plans fail fast.
func TestRunSampledPlanKnobs(t *testing.T) {
	_, ts := newTestServer(t)
	base := ts.URL + "/v1/run?machine=sim-alpha&workload=gzip&limit=15000"

	code, hdr, body := get(t, base+"&sample_period=3000&sample_warmup=300&sample_measure=300")
	if code != http.StatusOK {
		t.Fatalf("custom plan = %d: %s", code, body)
	}
	var resp RunResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Sampled == nil || resp.Sampled.Plan.Period != 3000 {
		t.Fatalf("custom plan not honored: %+v", resp.Sampled)
	}
	if resp.Sampled.Intervals != 5 {
		t.Errorf("intervals = %d, want 5", resp.Sampled.Intervals)
	}
	_, hdrDefault, _ := get(t, base+"&sample=1")
	if hdr.Get("X-Simcache-Key") == hdrDefault.Get("X-Simcache-Key") {
		t.Error("distinct plans share a cache key")
	}

	code, _, body = get(t, base+"&sample_period=100&sample_warmup=200")
	if code != http.StatusBadRequest {
		t.Errorf("invalid plan = %d (%s), want 400", code, body)
	}

	code, _, body = get(t, base+"&sample=1&sample_intervals=3")
	if code != http.StatusOK {
		t.Fatalf("capped plan = %d: %s", code, body)
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Sampled == nil || resp.Sampled.Intervals != 3 {
		t.Fatalf("interval cap not honored: %+v", resp.Sampled)
	}
}

// TestBackendParamAndCapabilityGate covers the registry face of
// /v1/run: backend= as the machine alias (exact and bare model
// names), the analytical backend returning a real estimate, and the
// capability gate rejecting sampling on an unsamplable tier before
// any simulation runs.
func TestBackendParamAndCapabilityGate(t *testing.T) {
	_, ts := newTestServer(t)

	code, _, body := get(t, ts.URL+"/v1/run?backend=interval&workload=C-Ca&limit=20000")
	if code != http.StatusOK {
		t.Fatalf("backend=interval = %d: %s", code, body)
	}
	var resp RunResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Machine != "sim-interval" {
		t.Errorf("bare backend name resolved to %q, want sim-interval", resp.Machine)
	}
	if resp.CPI <= 0 || resp.Breakdown == nil {
		t.Errorf("interval backend returned no estimate: cpi=%v breakdown=%v", resp.CPI, resp.Breakdown)
	}

	code, _, exact := get(t, ts.URL+"/v1/run?backend=sim-interval&workload=C-Ca&limit=20000")
	if code != http.StatusOK {
		t.Fatalf("backend=sim-interval = %d: %s", code, exact)
	}
	if string(exact) != string(body) {
		t.Error("bare and exact backend names produce different bodies")
	}

	code, _, body = get(t, ts.URL+"/v1/run?backend=interval&workload=C-Ca&limit=20000&sample=1")
	if code != http.StatusBadRequest {
		t.Fatalf("sampling an analytical backend = %d (%s), want 400", code, body)
	}
	if !strings.Contains(string(body), "does not support interval sampling") {
		t.Errorf("sample rejection lacks capability message: %s", body)
	}

	code, _, body = get(t, ts.URL+"/v1/run?backend=nonesuch&workload=C-Ca")
	if code != http.StatusNotFound {
		t.Errorf("unknown backend = %d (%s), want 404", code, body)
	}
}

// TestSamplePlansThatMeasureNothing: a sampling plan that completes
// no measured interval is the client's error on both routes, 400 and
// not 500. With a limit it is rejected before anything runs; a run to
// HALT finds out only when the run ends.
func TestSamplePlansThatMeasureNothing(t *testing.T) {
	s, ts := newTestServer(t)
	for _, c := range []struct {
		name, route, body, want string
		simulated               uint64
	}{
		{
			name:  "run-over-limit",
			route: "/v1/run?machine=sim-alpha&workload=C-Ca&limit=100&sample_period=1000&sample_warmup=200&sample_measure=200",
			want:  "exceeds the 100-instruction budget",
		},
		{
			name:  "cell-over-limit",
			route: "/v1/cell",
			body:  `{"machine":"sim-alpha","workload":"C-Ca","limit":100,"sample":{"period":1000,"warmup":200,"measure":200}}`,
			want:  "exceeds the 100-instruction budget",
		},
		{
			name:      "run-to-halt",
			route:     "/v1/run?machine=sim-alpha&workload=C-Ca&sample_period=100000000&sample_warmup=50000000&sample_measure=1",
			want:      "completed no measured intervals",
			simulated: 1,
		},
	} {
		t.Run(c.name, func(t *testing.T) {
			before := s.Metrics().Counter("cells_simulated_total").Value()
			var code int
			var body []byte
			if c.body == "" {
				code, _, body = get(t, ts.URL+c.route)
			} else {
				resp, err := http.Post(ts.URL+c.route, "application/json", strings.NewReader(c.body))
				if err != nil {
					t.Fatal(err)
				}
				body, _ = io.ReadAll(resp.Body)
				resp.Body.Close()
				code = resp.StatusCode
			}
			if code != http.StatusBadRequest || !strings.Contains(string(body), c.want) {
				t.Errorf("%s = %d %s, want 400 with %q", c.route, code, body, c.want)
			}
			if n := s.Metrics().Counter("cells_simulated_total").Value() - before; n != c.simulated {
				t.Errorf("simulated %d cells, want %d", n, c.simulated)
			}
			if code, _, _ := get(t, ts.URL+"/healthz"); code != http.StatusOK {
				t.Fatalf("/healthz = %d after the request", code)
			}
		})
	}
}

// TestPostBodyBound sends a body past maxBodyBytes to every POST
// route: each answers 413 without decoding it, and the server keeps
// answering afterwards.
func TestPostBodyBound(t *testing.T) {
	_, ts := newTestServer(t)
	big := `{"workload":"` + strings.Repeat("a", maxBodyBytes) + `"}`
	for _, route := range []string{"/v1/run", "/v1/cell", "/v1/workloads/generate", "/v1/sweep"} {
		resp, err := http.Post(ts.URL+route, "application/json", strings.NewReader(big))
		if err != nil {
			t.Fatalf("POST %s: %v", route, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge || !strings.Contains(string(body), "exceeds") {
			t.Errorf("POST %s with %d bytes = %d %s, want 413", route, len(big), resp.StatusCode, body)
		}
		if code, _, body := get(t, ts.URL+"/healthz"); code != http.StatusOK {
			t.Fatalf("healthz after oversized POST %s = %d: %s", route, code, body)
		}
	}
}

// TestPostRejectsUnknownFields: every POST route decodes strictly, so
// a misspelt option is a 400 instead of a request run as if the
// option were absent.
func TestPostRejectsUnknownFields(t *testing.T) {
	s, ts := newTestServer(t)
	for route, body := range map[string]string{
		"/v1/run":                `{"machine":"sim-alpha","workload":"C-Ca","limit":3000,"sample_perod":3000}`,
		"/v1/cell":               `{"machine":"sim-alpha","workload":"C-Ca","limit":3000,"axes":[{"name":"rob","field":"ROB","values":[20]}]}`,
		"/v1/sweep":              `{"axes":[{"name":"rob","field":"ROB","values":[80,20]}],"workloads":["C-Ca"],"limt":3000}`,
		"/v1/workloads/generate": `{"spec":{"seed":7,"iters":400,"branch_entropy":25,"branch_period":4,"working_set_kb":16,"chase_depth":2,"ilp_width":4,"conflict_stride_kb":32},"famly":{}}`,
	} {
		resp, err := http.Post(ts.URL+route, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", route, err)
		}
		out, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(out), "unknown field") {
			t.Errorf("POST %s with an unknown field = %d %s, want 400", route, resp.StatusCode, out)
		}
	}
	if n := s.Metrics().Counter("cells_simulated_total").Value(); n != 0 {
		t.Errorf("rejected requests simulated %d cells", n)
	}
}
