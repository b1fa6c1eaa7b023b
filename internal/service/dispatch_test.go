package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/sweep"
	"repro/internal/workgen"
)

// newWorker boots a worker-shaped server (a full Server; the
// dispatcher only ever posts /v1/cell at it) and returns both halves.
func newWorker(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s := New(Config{
		CacheEntries:   64,
		MaxConcurrent:  4,
		RequestTimeout: 60 * time.Second,
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// newCoordinator boots a server dispatching cells to the workers.
func newCoordinator(t *testing.T, stealAfter time.Duration, workers ...string) (*Server, *httptest.Server) {
	t.Helper()
	s := New(Config{
		CacheEntries:   64,
		MaxConcurrent:  4,
		RequestTimeout: 60 * time.Second,
		Parallelism:    2,
		Workers:        workers,
		StealAfter:     stealAfter,
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func TestCellEndpoint(t *testing.T) {
	_, ts := newWorker(t)
	body := `{"machine": "sim-alpha", "workload": "C-Ca", "limit": 3000, "config": {"ROB": 20}}`
	resp, err := http.Post(ts.URL+"/v1/cell", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/cell = %d", resp.StatusCode)
	}
	var res struct {
		Machine      string `json:"machine"`
		Workload     string `json:"workload"`
		Instructions uint64 `json:"instructions"`
		Cycles       uint64 `json:"cycles"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if res.Workload != "C-Ca" || res.Instructions == 0 || res.Cycles == 0 {
		t.Fatalf("cell result = %+v", res)
	}

	// The bare model name resolves through the registry to the same
	// cell, served from the same cache entry.
	alias := strings.Replace(body, `"sim-alpha"`, `"alpha"`, 1)
	resp, err = http.Post(ts.URL+"/v1/cell", "application/json", strings.NewReader(alias))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Simcache") != "hit" {
		t.Fatalf("POST /v1/cell by bare model name = %d, X-Simcache %q, want 200 hit",
			resp.StatusCode, resp.Header.Get("X-Simcache"))
	}

	// Bad cells are rejected, not simulated. The old axes form in
	// particular must not run the registered config.
	for name, bad := range map[string]struct {
		body string
		code int
	}{
		"unknown machine":  {`{"machine": "sim-nope", "workload": "C-Ca"}`, http.StatusNotFound},
		"unknown workload": {`{"machine": "sim-alpha", "workload": "nope"}`, http.StatusNotFound},
		"old axes form":    {`{"machine": "sim-alpha", "workload": "C-Ca", "axes": [{"name": "rob", "field": "ROB", "values": [20]}]}`, http.StatusBadRequest},
		"bad field path":   {`{"machine": "sim-alpha", "workload": "C-Ca", "config": {"NoSuchKnob": 1}}`, http.StatusBadRequest},
		"lossy value":      {`{"machine": "sim-alpha", "workload": "C-Ca", "config": {"ROB": 20.5}}`, http.StatusBadRequest},
	} {
		resp, err := http.Post(ts.URL+"/v1/cell", "application/json", strings.NewReader(bad.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != bad.code {
			t.Errorf("%s: POST /v1/cell = %d, want %d", name, resp.StatusCode, bad.code)
		}
	}
}

// TestCellRejectsOutOfBoundsConfigs: a cell whose config fails Check
// is the client's error. Each of these once ended or wedged the
// process (an out-of-memory throw, a run that could not finish, a
// negative shift) or answered 500; now each is a 400, and the daemon
// keeps serving.
func TestCellRejectsOutOfBoundsConfigs(t *testing.T) {
	_, ts := newWorker(t)
	for name, body := range map[string]string{
		"huge ROB":         `{"machine":"sim-alpha","workload":"gzip","limit":1000,"config":{"ROB":68719476736}}`,
		"huge L2 latency":  `{"machine":"sim-outorder","workload":"gzip","limit":2000,"config":{"Hier":{"L2":{"HitLatency":1099511627776}}}}`,
		"negative bimodal": `{"machine":"sim-inorder","workload":"gzip","limit":1000,"config":{"BimodalBits":-1}}`,
		"ROB below fetch":  `{"machine":"sim-alpha","workload":"gzip","limit":1000,"config":{"ROB":2}}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/cell", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: POST /v1/cell = %d, want 400", name, resp.StatusCode)
		}
		if code, _, _ := get(t, ts.URL+"/healthz"); code != http.StatusOK {
			t.Fatalf("%s: /healthz = %d after the request", name, code)
		}
	}
}

// TestCellRejectsSamplingUnsamplable: a sampled cell on a backend
// that cannot sample is the client's error, answered 400 like the same
// cell on /v1/run, and the daemon keeps serving.
func TestCellRejectsSamplingUnsamplable(t *testing.T) {
	_, ts := newWorker(t)
	body := `{"machine":"sim-interval","workload":"C-Ca","limit":2000,"sample":{"period":1000,"warmup":100,"measure":100}}`
	resp, err := http.Post(ts.URL+"/v1/cell", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	out, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(out), "does not support interval sampling") {
		t.Errorf("sampled sim-interval cell = %d %s, want 400", resp.StatusCode, out)
	}
	if code, body, _ := get(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz = %d %s after the request", code, body)
	}
}

// TestMeasureNothingIsNeverCached: a sampled cell that runs to HALT
// without completing a measured interval is a 400 on a worker's
// /v1/cell, and on a coordinator's /v1/run, which answers with its
// worker's 400 rather than running the cell again. Neither side
// caches anything.
func TestMeasureNothingIsNeverCached(t *testing.T) {
	const want = "completed no measured intervals"
	w, wts := newWorker(t)
	coord, cts := newCoordinator(t, 30*time.Second, wts.URL)
	code, _, body := post(t, wts.URL+"/v1/cell",
		`{"machine":"sim-alpha","workload":"C-Ca","sample":{"period":100000000,"warmup":50000000,"measure":1}}`)
	if code != http.StatusBadRequest || !strings.Contains(string(body), want) {
		t.Errorf("POST /v1/cell = %d %s, want 400 with %q", code, body, want)
	}
	code, _, body = get(t, cts.URL+"/v1/run?machine=sim-alpha&workload=C-Ca&sample_period=100000000&sample_warmup=50000000&sample_measure=1")
	if code != http.StatusBadRequest || !strings.Contains(string(body), want) {
		t.Errorf("coordinator GET /v1/run = %d %s, want 400 with %q", code, body, want)
	}
	for name, s := range map[string]*Server{"worker": w, "coordinator": coord} {
		if n := s.cache.Stats().Entries; n != 0 {
			t.Errorf("%s cache holds %d entries, want 0", name, n)
		}
	}
	if n := coord.Metrics().Counter("cells_simulated_total").Value(); n != 0 {
		t.Errorf("coordinator ran the rejected cell %d times", n)
	}
	if n := w.Metrics().Counter("cells_simulated_total").Value(); n != 2 {
		t.Errorf("worker simulated %d cells, want 2", n)
	}
}

// TestDistributedSweepByteIdentical is the tier's core guarantee: a
// sweep sharded over two workers returns byte-for-byte the result a
// single node computes.
func TestDistributedSweepByteIdentical(t *testing.T) {
	_, solo := newTestServer(t)
	w1, wts1 := newWorker(t)
	w2, wts2 := newWorker(t)
	coord, cts := newCoordinator(t, 30*time.Second, wts1.URL, wts2.URL)

	info := submitSweep(t, solo.URL, tinySweep)
	want := waitSweep(t, solo.URL, info.ID)
	if want.Status != sweepDone {
		t.Fatalf("single-node job = %q (%s)", want.Status, want.Error)
	}

	dinfo := submitSweep(t, cts.URL, tinySweep)
	got := waitSweep(t, cts.URL, dinfo.ID)
	if got.Status != sweepDone {
		t.Fatalf("distributed job = %q (%s)", got.Status, got.Error)
	}

	a, _ := json.Marshal(want.Result.Points)
	b, _ := json.Marshal(got.Result.Points)
	if !bytes.Equal(a, b) {
		t.Fatalf("distributed sweep diverged from single-node:\n%s\nvs\n%s", a, b)
	}

	// Every cell was dispatched, none fell back to local simulation,
	// and the shards actually spread over both workers.
	m := coord.Metrics()
	dispatched := m.Counter("dispatch_cells_total").Value()
	if dispatched != 8 {
		t.Fatalf("dispatch_cells_total = %d, want 8", dispatched)
	}
	if n := m.Counter("dispatch_local_fallback_total").Value(); n != 0 {
		t.Fatalf("dispatch_local_fallback_total = %d, want 0", n)
	}
	if n := m.Counter("cells_simulated_total").Value(); n != 0 {
		t.Fatalf("coordinator simulated %d cells itself, want 0", n)
	}
	c1 := w1.Metrics().Counter("cells_simulated_total").Value()
	c2 := w2.Metrics().Counter("cells_simulated_total").Value()
	if c1+c2 != 8 {
		t.Fatalf("workers simulated %d+%d cells, want 8 total", c1, c2)
	}
	if c1 == 0 || c2 == 0 {
		t.Fatalf("shards did not spread: worker cells %d and %d", c1, c2)
	}
}

// TestDispatchWorkerLoss kills one worker before the sweep: the
// dispatcher must mark it lost, retry its shards on the survivor, and
// still produce the single-node result.
func TestDispatchWorkerLoss(t *testing.T) {
	_, solo := newTestServer(t)
	_, wts1 := newWorker(t)
	_, wts2 := newWorker(t)
	coord, cts := newCoordinator(t, 30*time.Second, wts1.URL, wts2.URL)
	wts2.Close() // one worker is gone before any cell lands

	info := submitSweep(t, solo.URL, tinySweep)
	want := waitSweep(t, solo.URL, info.ID)

	dinfo := submitSweep(t, cts.URL, tinySweep)
	got := waitSweep(t, cts.URL, dinfo.ID)
	if got.Status != sweepDone {
		t.Fatalf("job = %q (%s), want done despite worker loss", got.Status, got.Error)
	}
	a, _ := json.Marshal(want.Result.Points)
	b, _ := json.Marshal(got.Result.Points)
	if !bytes.Equal(a, b) {
		t.Fatal("sweep result changed after losing a worker")
	}
	m := coord.Metrics()
	if n := m.Counter("dispatch_worker_losses_total").Value(); n != 1 {
		t.Fatalf("dispatch_worker_losses_total = %d, want 1", n)
	}
	// The dead worker's shards were retried on the survivor (unless
	// hashing happened to give it nothing, which 8 cells make unlikely
	// but a zero retry count with zero losses would).
	if n := m.Counter("dispatch_retries_total").Value(); n == 0 {
		t.Fatalf("dispatch_retries_total = 0 after a worker loss")
	}
	if n := m.Counter("dispatch_local_fallback_total").Value(); n != 0 {
		t.Fatalf("dispatch_local_fallback_total = %d, want 0 (survivor covers)", n)
	}
}

// TestDispatchAllWorkersLost drops the whole tier: every cell falls
// back to local execution and the sweep still matches single-node.
func TestDispatchAllWorkersLost(t *testing.T) {
	_, solo := newTestServer(t)
	_, wts1 := newWorker(t)
	coord, cts := newCoordinator(t, 30*time.Second, wts1.URL)
	wts1.Close()

	info := submitSweep(t, solo.URL, tinySweep)
	want := waitSweep(t, solo.URL, info.ID)

	dinfo := submitSweep(t, cts.URL, tinySweep)
	got := waitSweep(t, cts.URL, dinfo.ID)
	if got.Status != sweepDone {
		t.Fatalf("job = %q (%s), want done via local fallback", got.Status, got.Error)
	}
	a, _ := json.Marshal(want.Result.Points)
	b, _ := json.Marshal(got.Result.Points)
	if !bytes.Equal(a, b) {
		t.Fatal("local-fallback sweep diverged from single-node")
	}
	m := coord.Metrics()
	if n := m.Counter("dispatch_local_fallback_total").Value(); n != 8 {
		t.Fatalf("dispatch_local_fallback_total = %d, want all 8 cells", n)
	}
	if n := m.Counter("dispatch_worker_losses_total").Value(); n != 1 {
		t.Fatalf("dispatch_worker_losses_total = %d, want 1", n)
	}
}

// TestDispatchSteal puts a deliberately slow proxy in front of one
// worker: with a tiny steal timer, its cells must be speculatively
// re-launched on the fast worker and the first result wins.
func TestDispatchSteal(t *testing.T) {
	_, wts1 := newWorker(t)
	_, wts2 := newWorker(t)

	u1, _ := url.Parse(wts1.URL)
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(300 * time.Millisecond)
		httputil.NewSingleHostReverseProxy(u1).ServeHTTP(w, r)
	}))
	t.Cleanup(slow.Close)

	coord, cts := newCoordinator(t, 20*time.Millisecond, slow.URL, wts2.URL)

	dinfo := submitSweep(t, cts.URL, tinySweep)
	got := waitSweep(t, cts.URL, dinfo.ID)
	if got.Status != sweepDone {
		t.Fatalf("job = %q (%s)", got.Status, got.Error)
	}
	m := coord.Metrics()
	if n := m.Counter("dispatch_steals_total").Value(); n == 0 {
		t.Fatal("no steals recorded against a straggling worker")
	}
	if n := m.Counter("dispatch_local_fallback_total").Value(); n != 0 {
		t.Fatalf("dispatch_local_fallback_total = %d, want 0", n)
	}
}

// TestRunDispatch checks /v1/run rides the tier too, byte-identical
// to a single-node response, including sampled runs.
func TestRunDispatch(t *testing.T) {
	_, solo := newTestServer(t)
	w1, wts1 := newWorker(t)
	coord, cts := newCoordinator(t, 30*time.Second, wts1.URL)

	for _, q := range []string{
		"/v1/run?machine=sim-alpha&workload=C-Ca&limit=3000",
		"/v1/run?machine=sim-alpha&workload=M-D&limit=30000&sample=true&sample_period=3000&sample_warmup=300&sample_measure=300",
	} {
		code, _, want := get(t, solo.URL+q)
		if code != http.StatusOK {
			t.Fatalf("single-node GET %s = %d: %s", q, code, want)
		}
		code, _, got := get(t, cts.URL+q)
		if code != http.StatusOK {
			t.Fatalf("dispatched GET %s = %d: %s", q, code, got)
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("dispatched %s diverged:\n%s\nvs\n%s", q, want, got)
		}
	}
	if n := coord.Metrics().Counter("cells_simulated_total").Value(); n != 0 {
		t.Fatalf("coordinator simulated %d cells itself", n)
	}
	if n := w1.Metrics().Counter("cells_simulated_total").Value(); n != 2 {
		t.Fatalf("worker simulated %d cells, want 2", n)
	}
	// The worker recorded its own simulation events; sampled-run
	// metrics live on the coordinator that served the response.
	if n := coord.Metrics().Counter("sample_runs_total").Value(); n != 1 {
		t.Fatalf("coordinator sample_runs_total = %d, want 1", n)
	}
}

// TestDispatchGeneratedCell checks minted workloads ride the worker
// tier: the worker has no minted catalogue, so the cell carries the
// generation spec and the worker rebuilds the program from it,
// byte-identical to the coordinator running it alone.
func TestDispatchGeneratedCell(t *testing.T) {
	_, solo := newTestServer(t)
	w1, wts1 := newWorker(t)
	coord, cts := newCoordinator(t, 30*time.Second, wts1.URL)

	spec := workgen.DefaultSpec()
	spec.Iters = 300
	for _, u := range []string{solo.URL, cts.URL} {
		mint(t, u, GenerateRequest{Spec: &spec})
	}

	q := "/v1/run?machine=sim-alpha&workload=" + spec.Name() + "&limit=3000"
	code, _, want := get(t, solo.URL+q)
	if code != http.StatusOK {
		t.Fatalf("single-node GET %s = %d: %s", q, code, want)
	}
	code, _, got := get(t, cts.URL+q)
	if code != http.StatusOK {
		t.Fatalf("dispatched GET %s = %d: %s", q, code, got)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("dispatched generated run diverged:\n%s\nvs\n%s", want, got)
	}
	if n := coord.Metrics().Counter("cells_simulated_total").Value(); n != 0 {
		t.Fatalf("coordinator simulated %d cells itself", n)
	}
	if n := w1.Metrics().Counter("cells_simulated_total").Value(); n != 1 {
		t.Fatalf("worker simulated %d cells, want 1", n)
	}

	// A raw cell with a spec but no prior mint works too (the worker
	// path), and a name mismatch is rejected.
	sb, _ := json.Marshal(spec)
	cell := `{"machine": "sim-alpha", "workload": "` + spec.Name() + `", "limit": 3000, "generate": ` + string(sb) + `}`
	resp, err := http.Post(wts1.URL+"/v1/cell", "application/json", strings.NewReader(cell))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cell with generate spec = %d", resp.StatusCode)
	}
	bad := `{"machine": "sim-alpha", "workload": "wg-wrong-name", "limit": 3000, "generate": ` + string(sb) + `}`
	resp, err = http.Post(wts1.URL+"/v1/cell", "application/json", strings.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("cell accepted a generate spec under the wrong workload name")
	}
}

// TestDistributedSensitivityDispatchesReference: an analysis sweep's
// reference cells ride the worker tier like its points, and the result
// is the single node's.
func TestDistributedSensitivityDispatchesReference(t *testing.T) {
	req := SweepRequest{
		Machine:   "sim-alpha",
		Axes:      []SweepAxis{{Name: "rob", Field: "ROB", Values: []any{80, 20}}},
		Analysis:  "sensitivity",
		Workloads: []string{"E-I", "M-D"},
		Limit:     3000,
	}
	_, solo := newTestServer(t)
	w1, wts1 := newWorker(t)
	coord, cts := newCoordinator(t, 30*time.Second, wts1.URL)

	want := waitSweep(t, solo.URL, submitSweep(t, solo.URL, req).ID)
	got := waitSweep(t, cts.URL, submitSweep(t, cts.URL, req).ID)
	if want.Status != sweepDone || got.Status != sweepDone {
		t.Fatalf("jobs = %q (%s) and %q (%s)", want.Status, want.Error, got.Status, got.Error)
	}
	a, _ := json.Marshal(want.Result.Sensitivity)
	b, _ := json.Marshal(got.Result.Sensitivity)
	if !bytes.Equal(a, b) {
		t.Fatalf("distributed sensitivity diverged from single-node:\n%s\nvs\n%s", a, b)
	}
	// Four point cells plus the two native-ds10l reference cells.
	m := coord.Metrics()
	if n := m.Counter("dispatch_cells_total").Value(); n != 6 {
		t.Errorf("dispatch_cells_total = %d, want 6", n)
	}
	if n := m.Counter("cells_simulated_total").Value(); n != 0 {
		t.Errorf("coordinator simulated %d cells itself, want 0", n)
	}
	if n := w1.Metrics().Counter("cells_simulated_total").Value(); n != 6 {
		t.Errorf("worker simulated %d cells, want 6", n)
	}
}

// TestCellConfigRoundTrip: for every registered backend, a changed
// config crosses the wire in full, decodes equal to what was sent,
// and the worker files the cell under the coordinator's key.
func TestCellConfigRoundTrip(t *testing.T) {
	ws, wts := newWorker(t)
	work := ws.byWork["C-Ca"].w.Capped(1000)
	for _, d := range model.Backends() {
		field := "Hier.L2.HitLatency"
		if _, ok := d.Config.(model.NativeConfig); ok {
			field = "Model." + field
		}
		space := &sweep.Space{Base: d.Config, Axes: []sweep.Axis{sweep.Ints("l2", field, 17)}}
		cfg, err := space.Config(space.Origin())
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		if cfg == d.Config {
			t.Fatalf("%s: %s = 17 is the registered value", d.Name, field)
		}
		req, err := newCellRequest(cfg, work, nil)
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		if len(req.Config) == 0 {
			t.Fatalf("%s: a changed config travelled without its config", d.Name)
		}
		base, err := model.ByName(req.Machine)
		if err != nil {
			t.Fatalf("%s: wire machine %q: %v", d.Name, req.Machine, err)
		}
		got, err := sweep.Override(base.Config, req.Config)
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		if got != cfg {
			t.Errorf("%s: decoded config differs from the one sent", d.Name)
		}

		body, _ := json.Marshal(req)
		resp, err := http.Post(wts.URL+"/v1/cell", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: POST /v1/cell = %d", d.Name, resp.StatusCode)
		}
		if key, want := resp.Header.Get("X-Simcache-Key"), sweep.CellKey("sweep/v1", cfg, work).String(); key != want {
			t.Errorf("%s: worker key %s, coordinator key %s", d.Name, key, want)
		}
	}
}

// TestCellConfigIsSweepPoint: a /v1/cell body carrying {"ROB":20} on
// sim-alpha is tinySweep's rob=20 issue=4 cell on C-Ca: the node that
// ran the sweep answers it from the same cache entry, and a fresh
// worker computes the same bytes.
func TestCellConfigIsSweepPoint(t *testing.T) {
	s, ts := newTestServer(t)
	if job := waitSweep(t, ts.URL, submitSweep(t, ts.URL, tinySweep).ID); job.Status != sweepDone {
		t.Fatalf("sweep = %q (%s)", job.Status, job.Error)
	}
	space := &sweep.Space{Base: model.DefaultAlphaConfig(), Axes: []sweep.Axis{
		sweep.Ints("rob", "ROB", 20), sweep.Ints("issue", "IntIssueWidth", 4),
	}}
	cfg, err := space.Config(space.Origin())
	if err != nil {
		t.Fatal(err)
	}
	wantKey := sweep.CellKey("sweep/v1", cfg, s.byWork["C-Ca"].w.Capped(3000)).String()

	body := `{"machine":"sim-alpha","workload":"C-Ca","limit":3000,"config":{"ROB":20}}`
	post := func(url string) (string, string, []byte) {
		t.Helper()
		resp, err := http.Post(url+"/v1/cell", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST /v1/cell = %d: %s", resp.StatusCode, out)
		}
		return resp.Header.Get("X-Simcache"), resp.Header.Get("X-Simcache-Key"), out
	}
	status, key, swept := post(ts.URL)
	if status != "hit" || key != wantKey {
		t.Fatalf("cell after the sweep: X-Simcache %q key %s, want hit under %s", status, key, wantKey)
	}
	_, wts := newWorker(t)
	status, key, fresh := post(wts.URL)
	if status != "miss" || key != wantKey {
		t.Fatalf("cell on a fresh worker: X-Simcache %q key %s, want miss under %s", status, key, wantKey)
	}
	if !bytes.Equal(swept, fresh) {
		t.Fatalf("fresh cell bytes differ from the sweep's:\n%s\nvs\n%s", fresh, swept)
	}
}

// TestRunDispatchBody: /v1/run dispatches its cell as the registered
// machine's name with no config, byte for byte the body the worker
// tier has always read. The fake worker captures each body and
// refuses the cell, so the run completes locally.
func TestRunDispatchBody(t *testing.T) {
	var mu sync.Mutex
	var got []string
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		mu.Lock()
		got = append(got, string(b))
		mu.Unlock()
		http.Error(w, "captured", http.StatusServiceUnavailable)
	}))
	t.Cleanup(fake.Close)
	_, cts := newCoordinator(t, 30*time.Second, fake.URL)

	want := []string{
		`{"machine":"sim-alpha","workload":"C-Ca","limit":3000}`,
		`{"machine":"sim-alpha","workload":"M-D","limit":30000,"sample":{"period":3000,"warmup":300,"measure":300}}`,
	}
	for _, q := range []string{
		"/v1/run?machine=sim-alpha&workload=C-Ca&limit=3000",
		"/v1/run?machine=sim-alpha&workload=M-D&limit=30000&sample=true&sample_period=3000&sample_warmup=300&sample_measure=300",
	} {
		if code, _, body := get(t, cts.URL+q); code != http.StatusOK {
			t.Fatalf("GET %s = %d: %s", q, code, body)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("dispatched bodies:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
