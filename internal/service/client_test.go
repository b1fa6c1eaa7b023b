package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"testing"

	"repro/internal/workgen"
)

func TestNewClientBase(t *testing.T) {
	for addr, want := range map[string]string{
		":8080":                   "http://localhost:8080",
		"127.0.0.1:8080":          "http://127.0.0.1:8080",
		"http://10.0.0.1:8080/":   "http://10.0.0.1:8080",
		"https://sim.example.org": "https://sim.example.org",
	} {
		if got := NewClient(addr).base; got != want {
			t.Errorf("NewClient(%q) base = %q, want %q", addr, got, want)
		}
	}
}

// TestClientRoundTrip pins the wire contract between the handlers and
// their callers: every value the client decodes re-encodes to the
// service's own body byte for byte, so the shared types lose nothing
// in either direction.
func TestClientRoundTrip(t *testing.T) {
	_, ts := newTestServer(t)
	c := NewClient(ts.URL)
	ctx := context.Background()

	same := func(what string, v any, body []byte) {
		t.Helper()
		got, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if want := bytes.TrimSpace(body); !bytes.Equal(got, want) {
			t.Errorf("%s: re-encoded client value differs from the service body:\n%s\nvs\n%s", what, got, want)
		}
	}
	raw := func(path string) []byte {
		t.Helper()
		code, _, body := get(t, ts.URL+path)
		if code != http.StatusOK {
			t.Fatalf("GET %s = %d: %s", path, code, body)
		}
		return body
	}

	// The client runs cells through POST; GET of the same query derives
	// the same key, so it serves the same bytes as a cache hit.
	for _, tc := range []struct {
		req   RunRequest
		query string
	}{
		{RunRequest{Machine: "sim-alpha", Workload: "gzip", Limit: 15000},
			"machine=sim-alpha&workload=gzip&limit=15000"},
		{RunRequest{Machine: "sim-alpha", Workload: "gzip", Limit: 15000, Sample: true},
			"machine=sim-alpha&workload=gzip&limit=15000&sample=1"},
		{RunRequest{Machine: "sim-alpha", Workload: "gzip", Limit: 15000, SamplePeriod: 3000, SampleWarmup: 300, SampleMeasure: 300},
			"machine=sim-alpha&workload=gzip&limit=15000&sample_period=3000&sample_warmup=300&sample_measure=300"},
	} {
		resp, status, err := c.Run(ctx, tc.req)
		if err != nil {
			t.Fatalf("Run %s: %v", tc.query, err)
		}
		if status != "miss" {
			t.Errorf("Run %s: first request cache status %q, want miss", tc.query, status)
		}
		if sampled := tc.req.Sample || tc.req.SamplePeriod > 0; sampled != (resp.Sampled != nil) {
			t.Errorf("Run %s: sampled block present = %v, want %v", tc.query, resp.Sampled != nil, sampled)
		}
		same("run "+tc.query, resp, raw("/v1/run?"+tc.query))
		if _, status, _ := c.Run(ctx, tc.req); status != "hit" {
			t.Errorf("Run %s: repeat cache status %q, want hit", tc.query, status)
		}
	}

	machines, err := c.Machines(ctx)
	if err != nil {
		t.Fatal(err)
	}
	same("machines", machines, raw("/v1/machines"))

	// Mint a family so the catalogue carries the optional generated
	// fields. The raw re-post and the client's re-post both answer
	// "exists", so their bodies must agree.
	base := workgen.DefaultSpec()
	base.Iters = 300
	gen := GenerateRequest{Family: &workgen.Family{
		Name: "ws-rt", Base: base, Axis: workgen.AxisWorkingSet, Levels: []int{8, 16},
	}}
	if _, err := c.Generate(ctx, gen); err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(gen)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/workloads/generate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var rawMint bytes.Buffer
	rawMint.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("raw re-mint = %d: %s", resp.StatusCode, rawMint.Bytes())
	}
	minted, err := c.Generate(ctx, gen)
	if err != nil {
		t.Fatal(err)
	}
	same("generate", minted, rawMint.Bytes())

	workloads, err := c.Workloads(ctx)
	if err != nil {
		t.Fatal(err)
	}
	same("workloads", workloads, raw("/v1/workloads"))

	for _, req := range []SweepRequest{
		tinySweep,
		{
			Machine:   "sim-alpha",
			Axes:      []SweepAxis{{Name: "rob", Field: "ROB", Values: []any{80, 20}}},
			Analysis:  "sensitivity",
			Workloads: []string{"E-I", "M-D"},
			Limit:     3000,
		},
		{
			Machine:   "sim-alpha",
			Axes:      []SweepAxis{{Name: "openpage", Field: "DRAM.OpenPage", Values: []any{true, false}}},
			Analysis:  "calibration",
			Workloads: []string{"C-Ca", "M-D"},
			Limit:     2000,
			MaxRounds: 1,
		},
	} {
		job, err := c.SubmitSweep(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		done, err := c.WaitSweep(ctx, job.ID)
		if err != nil {
			t.Fatal(err)
		}
		if done.Status != sweepDone || done.Result == nil {
			t.Fatalf("sweep %s = %q (%s)", job.ID, done.Status, done.Error)
		}
		same("sweep "+req.Analysis, done, raw("/v1/sweep/"+job.ID))
	}
}

// TestClientStatusError checks a rejected request surfaces as a
// *StatusError carrying the status code and the server's message: the
// JSON error field when there is one, the trimmed body otherwise.
func TestClientStatusError(t *testing.T) {
	_, ts := newTestServer(t)
	c := NewClient(ts.URL)
	ctx := context.Background()

	_, _, err := c.Run(ctx, RunRequest{Machine: "nope", Workload: "C-Ca"})
	var se *StatusError
	if !errors.As(err, &se) {
		t.Fatalf("unknown machine: error %v is not a *StatusError", err)
	}
	_, _, body := get(t, ts.URL+"/v1/run?machine=nope&workload=C-Ca")
	var e errorBody
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatal(err)
	}
	if se.Code != http.StatusNotFound || se.Msg != e.Error {
		t.Errorf("StatusError = %d %q, want 404 %q", se.Code, se.Msg, e.Error)
	}
	if want := "404 Not Found: " + e.Error; err.Error() != want {
		t.Errorf("error text = %q, want %q", err, want)
	}

	_, _, err = c.Run(ctx, RunRequest{Backend: "interval", Workload: "C-Ca", SamplePeriod: 3000})
	if !errors.As(err, &se) || se.Code != http.StatusBadRequest ||
		!strings.Contains(se.Msg, "does not support interval sampling") {
		t.Errorf("sampling an analytical backend: error %v, want 400 capability rejection", err)
	}

	_, err = c.Get(ctx, "/v1/nonesuch")
	if !errors.As(err, &se) || se.Code != http.StatusNotFound || se.Msg != "404 page not found" {
		t.Errorf("unrouted path: error %v, want 404 with the plain-text body", err)
	}

	_, err = c.SubmitSweep(ctx, SweepRequest{Machine: "sim-alpha"})
	if !errors.As(err, &se) || se.Code != http.StatusBadRequest || !strings.Contains(se.Msg, "axis") {
		t.Errorf("axis-less sweep: error %v, want 400 naming the missing axis", err)
	}
}
