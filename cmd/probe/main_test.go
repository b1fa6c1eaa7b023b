package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"testing"

	"repro/internal/service"
)

func TestParseAxis(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want service.SweepAxis
	}{
		{"openpage=DRAM.OpenPage:true,false",
			service.SweepAxis{Name: "openpage", Field: "DRAM.OpenPage", Values: []any{true, false}}},
		{"rob=ROB:80,-20", service.SweepAxis{Name: "rob", Field: "ROB", Values: []any{int64(80), int64(-20)}}},
		{"lat=Mem.Latency:1.5,2e3", service.SweepAxis{Name: "lat", Field: "Mem.Latency", Values: []any{1.5, 2e3}}},
	} {
		got, err := parseAxis(tc.in)
		if err != nil {
			t.Errorf("parseAxis(%q): %v", tc.in, err)
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("parseAxis(%q) = %#v, want %#v", tc.in, got, tc.want)
		}
	}
	for _, bad := range []string{"", "rob", "=ROB:1", "rob=ROB", "rob=:1", "rob=ROB:", "rob=ROB:80,x", "rob=ROB:True"} {
		if a, err := parseAxis(bad); err == nil {
			t.Errorf("parseAxis(%q) = %#v, want an error", bad, a)
		}
	}
}

// probeRun runs `probe run args...` against a fresh in-process service
// and returns its standard output, plus the service's URL.
func probeRun(t *testing.T, args ...string) (string, string) {
	t.Helper()
	ts := httptest.NewServer(service.New(service.Config{Parallelism: 1}).Handler())
	t.Cleanup(ts.Close)

	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	out := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		out <- b
	}()
	err = cmdRun(context.Background(), service.NewClient(ts.URL), args)
	os.Stdout = stdout
	w.Close()
	printed := <-out
	if err != nil {
		t.Fatalf("probe run %v: %v", args, err)
	}
	return string(printed), ts.URL
}

// TestRunJSONIsServiceBody: `run -json` prints exactly the bytes the
// service sent for the cell.
func TestRunJSONIsServiceBody(t *testing.T) {
	printed, url := probeRun(t, "-m", "sim-alpha", "-limit", "5000", "-json", "C-Ca")
	resp, err := http.Get(url + "/v1/run?machine=sim-alpha&workload=C-Ca&limit=5000")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/run = %d: %s", resp.StatusCode, body)
	}
	if want := string(body) + "\n"; printed != want {
		t.Errorf("probe run -json printed\n%s\nthe service body is\n%s", printed, want)
	}
}

// TestRunSamplePeriodImpliesSampling: a -sample-* knob alone requests
// a sampled run, as the same knob does on GET /v1/run.
func TestRunSamplePeriodImpliesSampling(t *testing.T) {
	printed, _ := probeRun(t, "-limit", "15000", "-sample-period", "3000", "-json", "gzip")
	var r service.RunResponse
	if err := json.Unmarshal(bytes.TrimSpace([]byte(printed)), &r); err != nil {
		t.Fatalf("decoding %q: %v", printed, err)
	}
	if r.Sampled == nil || r.Sampled.Plan.Period != 3000 {
		t.Fatalf("-sample-period 3000 alone gave sampling block %+v, want a sampled run at period 3000", r.Sampled)
	}
}
