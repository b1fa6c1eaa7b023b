// The client side of the HTTP API: one typed caller for every route,
// speaking the same request and response types the handlers decode
// and encode, so the two sides of the wire cannot drift apart. The
// probe CLI and the coordinator's dispatcher both go through it.
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"
)

// Client calls one simd instance.
type Client struct {
	base string
	// http keeps a nil Transport, so every request goes through
	// http.DefaultTransport as it is when the request is sent.
	http *http.Client
}

// NewClient returns a client for the service at addr: "host:port",
// ":port" (localhost) or a base URL.
func NewClient(addr string) *Client {
	base := strings.TrimRight(addr, "/")
	if !strings.Contains(base, "://") {
		if strings.HasPrefix(base, ":") {
			base = "localhost" + base
		}
		base = "http://" + base
	}
	return &Client{base: base, http: &http.Client{Timeout: 5 * time.Minute}}
}

// StatusError is a response with an unexpected status: the server is
// alive and rejected the request. Msg is the server's error message.
type StatusError struct {
	Code int
	Msg  string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("%d %s: %s", e.Code, http.StatusText(e.Code), e.Msg)
}

// Run simulates one cell through POST /v1/run and returns the result
// with its cache status (the X-Simcache header: hit or miss).
func (c *Client) Run(ctx context.Context, req RunRequest) (RunResponse, string, error) {
	var out RunResponse
	hdr, err := c.call(ctx, http.MethodPost, "/v1/run", req, http.StatusOK, &out)
	if err != nil {
		return RunResponse{}, "", err
	}
	return out, hdr.Get("X-Simcache"), nil
}

// Experiment renders one paper experiment (GET /v1/experiment/{name}).
func (c *Client) Experiment(ctx context.Context, name string) (string, error) {
	return c.Get(ctx, "/v1/experiment/"+url.PathEscape(name))
}

// Machines lists the served machine models (GET /v1/machines).
func (c *Client) Machines(ctx context.Context) ([]MachineInfo, error) {
	var out []MachineInfo
	_, err := c.call(ctx, http.MethodGet, "/v1/machines", nil, http.StatusOK, &out)
	return out, err
}

// Workloads lists the served workloads (GET /v1/workloads).
func (c *Client) Workloads(ctx context.Context) ([]WorkloadInfo, error) {
	var out []WorkloadInfo
	_, err := c.call(ctx, http.MethodGet, "/v1/workloads", nil, http.StatusOK, &out)
	return out, err
}

// Generate mints generated workloads (POST /v1/workloads/generate).
func (c *Client) Generate(ctx context.Context, req GenerateRequest) (GenerateResponse, error) {
	var out GenerateResponse
	_, err := c.call(ctx, http.MethodPost, "/v1/workloads/generate", req, http.StatusCreated, &out)
	return out, err
}

// SubmitSweep submits a sweep job (POST /v1/sweep) and returns it as
// queued.
func (c *Client) SubmitSweep(ctx context.Context, req SweepRequest) (SweepJob, error) {
	var out SweepJob
	_, err := c.call(ctx, http.MethodPost, "/v1/sweep", req, http.StatusAccepted, &out)
	return out, err
}

// WaitSweep polls a sweep job (GET /v1/sweep/{id}) until it is done,
// failed or canceled, and returns it in that state.
func (c *Client) WaitSweep(ctx context.Context, id string) (SweepJob, error) {
	for delay := 50 * time.Millisecond; ; {
		var job SweepJob
		if _, err := c.call(ctx, http.MethodGet, "/v1/sweep/"+url.PathEscape(id), nil, http.StatusOK, &job); err != nil {
			return SweepJob{}, err
		}
		if terminalSweepStatus(job.Status) {
			return job, nil
		}
		select {
		case <-ctx.Done():
			return SweepJob{}, ctx.Err()
		case <-time.After(delay):
		}
		if delay < 2*time.Second {
			delay *= 2
		}
	}
}

// Get fetches a text route such as /healthz or /metrics.
func (c *Client) Get(ctx context.Context, path string) (string, error) {
	body, _, err := c.do(ctx, http.MethodGet, path, nil, http.StatusOK)
	return string(body), err
}

// cell posts a marshaled CellRequest to POST /v1/cell and returns the
// marshaled core.RunResult. The dispatcher keeps the request bytes,
// since it shards on them and resends them on retry and steal.
func (c *Client) cell(ctx context.Context, body []byte) ([]byte, error) {
	out, _, err := c.do(ctx, http.MethodPost, "/v1/cell", body, http.StatusOK)
	return out, err
}

// call sends in as a JSON body (none when nil) and decodes the
// response, which must carry status want, into out.
func (c *Client) call(ctx context.Context, method, path string, in any, want int, out any) (http.Header, error) {
	var body []byte
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return nil, err
		}
		body = b
	}
	resp, hdr, err := c.do(ctx, method, path, body, want)
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(resp, out); err != nil {
		return nil, fmt.Errorf("decoding %s %s response: %w", method, path, err)
	}
	return hdr, nil
}

// do sends one request and returns the response body and headers. A
// status other than want is a *StatusError carrying the server's
// error message.
func (c *Client) do(ctx context.Context, method, path string, body []byte, want int) ([]byte, http.Header, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode != want {
		msg := strings.TrimSpace(string(out))
		var e errorBody
		if json.Unmarshal(out, &e) == nil && e.Error != "" {
			msg = e.Error
		}
		return nil, nil, &StatusError{Code: resp.StatusCode, Msg: msg}
	}
	return out, resp.Header, nil
}
