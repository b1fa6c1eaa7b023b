// Package service is the simulation-as-a-service layer: an HTTP JSON
// API over the machine models, workload suites, and experiment
// registry. Every deterministic simulation result is content-
// addressed in an LRU cache (internal/simcache), so each (machine ×
// workload × budget) cell is computed once and served many times;
// concurrent identical requests collapse onto one computation.
//
// Routes:
//
//	GET /v1/run?machine=M&workload=W[&limit=N]   one simulation cell (JSON)
//	GET /v1/experiment/{name}[?limit=N]          one paper experiment (text table)
//	POST /v1/sweep                               submit a design-space sweep job (202 + ID)
//	GET /v1/sweep                                list sweep jobs
//	GET /v1/sweep/{id}                           poll one job; result when done
//	DELETE /v1/sweep/{id}                        cancel a job
//	GET /v1/machines                             registered machine models
//	GET /v1/workloads                            registered workloads
//	GET /healthz                                 liveness
//	GET /metrics                                 text or ?format=json
//
// Cache status travels in headers (X-Simcache: hit|miss and
// X-Simcache-Key), never in the body, so a cached response body is
// byte-identical to the cold one.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/macrobench"
	"repro/internal/metrics"
	"repro/internal/microbench"
	"repro/internal/model"
	"repro/internal/sample"
	"repro/internal/simcache"
	"repro/internal/sweep"
	"repro/internal/validate"
	"repro/internal/workgen"
)

// workloadSpec is one addressable workload with its catalogue entry.
type workloadSpec struct {
	w     core.Workload
	suite string // "micro", "macro", "calibration", "generated"
	// gen is the generation spec of a minted workload (nil for
	// builtins). Workers regenerate dispatched cells from it instead
	// of receiving program bytes.
	gen *workgen.Spec
	// family/axis/level place a member minted via family generation.
	family string
	axis   string
	level  int
}

// defaultWorkloads catalogues the 21 microbenchmarks, the two
// calibration workloads, and the ten macrobenchmarks, by name.
func defaultWorkloads() ([]string, map[string]workloadSpec) {
	var order []string
	byName := make(map[string]workloadSpec)
	add := func(w core.Workload, suite string) {
		if _, dup := byName[w.Name]; dup {
			return
		}
		order = append(order, w.Name)
		byName[w.Name] = workloadSpec{w: w, suite: suite}
	}
	for _, w := range microbench.Suite() {
		add(w, "micro")
	}
	for _, w := range microbench.Calibration() {
		add(w, "calibration")
	}
	for _, w := range macrobench.Suite() {
		add(w, "macro")
	}
	return order, byName
}

// Config tunes a Server. The zero value serves every machine and
// workload with sensible bounds.
type Config struct {
	// CacheEntries bounds the result cache (0 = simcache default).
	CacheEntries int
	// MaxConcurrent bounds simultaneous simulations across all
	// requests (0 = GOMAXPROCS). Requests beyond the bound queue.
	MaxConcurrent int
	// RequestTimeout caps each request's wall time (0 = 2 minutes).
	// A timed-out request returns 504 while its simulation finishes
	// in the background and populates the cache for the retry.
	RequestTimeout time.Duration
	// Parallelism is the per-experiment worker-pool width
	// (0 = GOMAXPROCS). It never enters cache keys: rendered output
	// is byte-identical at every setting.
	Parallelism int
	// MaxSweepPoints bounds how many design-space points one sweep job
	// may visit (0 = 256). Submissions over the bound fail fast at POST.
	MaxSweepPoints int
	// MaxSweepJobs bounds concurrently running sweep jobs (0 = 2);
	// submissions beyond it queue, up to a small multiple, then 429.
	MaxSweepJobs int
	// SweepHistory bounds how many finished jobs stay pollable (0 = 64).
	SweepHistory int
	// Workers lists worker base URLs ("host:port" or "http://host:port")
	// this server dispatches simulation cells to (see dispatch.go).
	// Empty means every cell runs locally.
	Workers []string
	// StealAfter is how long a dispatched cell may run on its home
	// worker before it is speculatively launched on another (0 = 15s);
	// the first result wins. Duplicate executions are harmless: cells
	// are deterministic and content-addressed.
	StealAfter time.Duration
	// Tier2 is an optional second cache tier behind the in-memory
	// result cache — typically a diskstore.Store, so results survive
	// restarts and can be shared between coordinator and workers.
	Tier2 simcache.Tier2
	// MaxGenerated bounds how many generated workloads may be minted
	// into this process's catalogue via POST /v1/workloads/generate
	// (0 = 256). Submissions over the bound fail with 429.
	MaxGenerated int
}

// Server implements the simulation service. Create with New, mount
// with Handler.
type Server struct {
	cfg     Config
	cache   *simcache.Cache
	metrics *metrics.Registry

	// The workload catalogue: builtins at construction, plus minted
	// generated workloads (see generate.go). wlMu guards both; minted
	// entries append to wlOrder in mint order.
	wlMu       sync.RWMutex
	wlOrder    []string
	byWork     map[string]workloadSpec
	nGenerated int

	sem      chan struct{}
	dispatch *dispatcher // nil unless Config.Workers is non-empty
	latency  *metrics.Histogram
	// sampleIntervals distributes measured-interval counts of
	// cold sampled runs.
	sampleIntervals *metrics.Histogram

	// Sweep-job state (see sweep.go): submitted jobs by ID, submission
	// order for listing/eviction, and the running-jobs semaphore.
	sweepMu    sync.Mutex
	sweeps     map[string]*sweepTask
	sweepOrder []string
	sweepSeq   int
	sweepSem   chan struct{}
}

// New builds a Server from the config.
func New(cfg Config) *Server {
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = 2 * time.Minute
	}
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxSweepPoints <= 0 {
		cfg.MaxSweepPoints = 256
	}
	if cfg.MaxSweepJobs <= 0 {
		cfg.MaxSweepJobs = 2
	}
	if cfg.SweepHistory <= 0 {
		cfg.SweepHistory = 64
	}
	if cfg.MaxGenerated <= 0 {
		cfg.MaxGenerated = 256
	}
	order, byWork := defaultWorkloads()
	s := &Server{
		cfg:      cfg,
		cache:    simcache.New(cfg.CacheEntries),
		metrics:  metrics.NewRegistry(),
		wlOrder:  order,
		byWork:   byWork,
		sem:      make(chan struct{}, cfg.MaxConcurrent),
		sweeps:   make(map[string]*sweepTask),
		sweepSem: make(chan struct{}, cfg.MaxSweepJobs),
	}
	if cfg.Tier2 != nil {
		s.cache.SetTier2(cfg.Tier2)
	}
	s.restoreWorkloads()
	if len(cfg.Workers) > 0 {
		s.dispatch = newDispatcher(cfg.Workers, cfg.StealAfter, s.metrics)
	}
	s.latency = s.metrics.Histogram("request_seconds", metrics.DefLatencyBuckets)
	s.sampleIntervals = s.metrics.Histogram("sample_intervals",
		[]float64{1, 2, 5, 10, 20, 50, 100, 200, 500, 1000})
	s.metrics.Gauge("pool_capacity").Set(int64(cfg.MaxConcurrent))
	return s
}

// Metrics exposes the server's registry (for embedding callers).
func (s *Server) Metrics() *metrics.Registry { return s.metrics }

// Handler returns the service's routed handler with the metrics and
// recovery middleware applied.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.Handle("GET /metrics", s.metricsHandler())
	mux.HandleFunc("GET /v1/machines", s.timed("machines", s.handleMachines))
	mux.HandleFunc("GET /v1/workloads", s.timed("workloads", s.handleWorkloads))
	mux.HandleFunc("POST /v1/workloads/generate", s.timed("generate", s.handleGenerate))
	mux.HandleFunc("GET /v1/run", s.timed("run", s.handleRun))
	mux.HandleFunc("POST /v1/run", s.timed("run", s.handleRun))
	mux.HandleFunc("POST /v1/cell", s.timed("cell", s.handleCell))
	mux.HandleFunc("GET /v1/experiment/{name}", s.timed("experiment", s.handleExperiment))
	mux.HandleFunc("POST /v1/sweep", s.timed("sweep", s.handleSweepSubmit))
	mux.HandleFunc("GET /v1/sweep", s.timed("sweep", s.handleSweepList))
	mux.HandleFunc("GET /v1/sweep/{id}", s.timed("sweep", s.handleSweepGet))
	mux.HandleFunc("DELETE /v1/sweep/{id}", s.timed("sweep", s.handleSweepCancel))
	return s.instrument(mux)
}

// timed wraps a route handler with its own latency histogram
// (request_seconds_<route>), so /metrics separates cheap catalogue
// requests from simulation-bearing ones; the aggregate
// request_seconds series in instrument covers everything.
func (s *Server) timed(route string, h http.HandlerFunc) http.HandlerFunc {
	hist := s.metrics.Histogram("request_seconds_"+route, metrics.DefLatencyBuckets)
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		defer func() { hist.Observe(time.Since(start).Seconds()) }()
		h(w, r)
	}
}

// instrument wraps the mux with request counting, latency
// observation, and panic recovery.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.metrics.Counter("requests_total").Inc()
		defer func() {
			if p := recover(); p != nil {
				s.metrics.Counter("request_panics_total").Inc()
				http.Error(w, fmt.Sprintf("internal error: %v", p), http.StatusInternalServerError)
			}
			s.latency.Observe(time.Since(start).Seconds())
		}()
		next.ServeHTTP(w, r)
	})
}

// metricsHandler refreshes the cache/pool gauges from their sources
// of truth on every scrape, then serves the registry.
func (s *Server) metricsHandler() http.Handler {
	inner := s.metrics.Handler()
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		st := s.cache.Stats()
		s.metrics.Gauge("cache_entries").Set(int64(st.Entries))
		s.metrics.Gauge("cache_capacity").Set(int64(st.Capacity))
		s.metrics.Gauge("cache_inflight").Set(int64(st.InFlight))
		s.metrics.Gauge("pool_busy").Set(int64(len(s.sem)))
		// Mirror the cache's own accounting: hits here include
		// requests served by joining an in-flight computation, since
		// neither ran a simulation of its own.
		hits := st.Hits + st.Waits
		c := s.metrics.Counter("cache_hits_total")
		if d := hits - c.Value(); d > 0 {
			c.Add(d)
		}
		m := s.metrics.Counter("cache_misses_total")
		if d := st.Misses - m.Value(); d > 0 {
			m.Add(d)
		}
		e := s.metrics.Counter("cache_evictions_total")
		if d := st.Evictions - e.Value(); d > 0 {
			e.Add(d)
		}
		t2 := s.metrics.Counter("cache_tier2_hits_total")
		if d := st.Tier2Hits - t2.Value(); d > 0 {
			t2.Add(d)
		}
		// Mirror the on-disk tier's integrity accounting when one is
		// attached: entries rejected by read-time digest verification
		// (served as recomputable misses) and failed best-effort writes.
		if ds, ok := s.cfg.Tier2.(interface{ CorruptReads() uint64 }); ok {
			c := s.metrics.Counter("diskstore_corrupt_total")
			if d := ds.CorruptReads() - c.Value(); d > 0 {
				c.Add(d)
			}
		}
		if ds, ok := s.cfg.Tier2.(interface{ PutErrors() uint64 }); ok {
			c := s.metrics.Counter("diskstore_put_errors_total")
			if d := ds.PutErrors() - c.Value(); d > 0 {
				c.Add(d)
			}
		}
		inner.ServeHTTP(w, r)
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// MachineInfo is one entry of the GET /v1/machines catalogue.
type MachineInfo struct {
	Name        string `json:"name"`
	Description string `json:"description"`
	Fingerprint string `json:"fingerprint"`
	// Tier is the backend's fidelity class: detailed, simplified, or
	// analytical (see internal/model).
	Tier string `json:"tier"`
	// Capabilities are discovered from the machine type by interface
	// assertion, never declared: checkpointable, samplable, cpi_stack.
	Capabilities model.Capabilities `json:"capabilities"`
}

func (s *Server) handleMachines(w http.ResponseWriter, _ *http.Request) {
	backends := model.Backends()
	out := make([]MachineInfo, 0, len(backends))
	for _, m := range backends {
		out = append(out, MachineInfo{
			Name:         m.Name,
			Description:  m.Description,
			Fingerprint:  simcache.KeyOf("machine", simcache.Fingerprint(m.Config)).String()[:12],
			Tier:         string(m.Tier),
			Capabilities: m.Capabilities(),
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// WorkloadInfo is one entry of the GET /v1/workloads catalogue.
type WorkloadInfo struct {
	Name     string `json:"name"`
	Category string `json:"category"`
	Suite    string `json:"suite"`
	// Generated marks minted workloads; Family/Axis/Level place a
	// member of a generated family (axis value the member pins).
	Generated bool   `json:"generated,omitempty"`
	Family    string `json:"family,omitempty"`
	Axis      string `json:"axis,omitempty"`
	Level     int    `json:"level,omitempty"`
}

func (s *Server) handleWorkloads(w http.ResponseWriter, _ *http.Request) {
	s.wlMu.RLock()
	out := make([]WorkloadInfo, 0, len(s.wlOrder))
	for _, name := range s.wlOrder {
		spec := s.byWork[name]
		out = append(out, WorkloadInfo{
			Name: name, Category: spec.w.Category, Suite: spec.suite,
			Generated: spec.gen != nil,
			Family:    spec.family, Axis: spec.axis, Level: spec.level,
		})
	}
	s.wlMu.RUnlock()
	writeJSON(w, http.StatusOK, out)
}

// RunRequest is the input of /v1/run, from query params (GET) or a
// JSON body (POST).
type RunRequest struct {
	Machine string `json:"machine"`
	// Backend is an alias for Machine in registry terms: the exact
	// backend name, or the bare model name ("interval" resolves to
	// "sim-interval"). Machine wins when both are set.
	Backend  string `json:"backend"`
	Workload string `json:"workload"`
	Limit    uint64 `json:"limit"`
	// Sample requests interval sampling. The plan defaults to
	// sample.PlanFor over the effective run length; the explicit
	// fields below override it knob by knob, and any non-zero knob
	// implies Sample, on GET and POST alike.
	Sample          bool   `json:"sample"`
	SamplePeriod    uint64 `json:"sample_period"`
	SampleWarmup    uint64 `json:"sample_warmup"`
	SampleMeasure   uint64 `json:"sample_measure"`
	SampleIntervals int    `json:"sample_intervals"`
}

// sampled reports whether the request asks for interval sampling:
// Sample, or any sample_* knob.
func (p RunRequest) sampled() bool {
	return p.Sample || p.SamplePeriod != 0 || p.SampleWarmup != 0 ||
		p.SampleMeasure != 0 || p.SampleIntervals != 0
}

// samplePlan resolves the request's sampling schedule against the
// effective run length.
func (p RunRequest) samplePlan(limit uint64) core.SamplePlan {
	plan := sample.PlanFor(limit)
	if p.SamplePeriod > 0 {
		plan.Period = p.SamplePeriod
	}
	if p.SampleWarmup > 0 {
		plan.Warmup = p.SampleWarmup
	}
	if p.SampleMeasure > 0 {
		plan.Measure = p.SampleMeasure
	}
	if p.SampleIntervals > 0 {
		plan.MaxIntervals = p.SampleIntervals
	}
	return plan
}

// SampledInfo is the sampling block of a sampled /v1/run response.
type SampledInfo struct {
	Plan                 core.SamplePlan `json:"plan"`
	Intervals            int             `json:"intervals"`
	CPI                  sample.Estimate `json:"cpi"`
	DetailedInstructions uint64          `json:"detailed_instructions"`
	StreamInstructions   uint64          `json:"stream_instructions"`
	Speedup              float64         `json:"speedup"`
}

// RunResponse is the JSON body of /v1/run. These bytes are what the
// cache stores, so a hit is byte-identical to the cold computation.
type RunResponse struct {
	Machine      string            `json:"machine"`
	Workload     string            `json:"workload"`
	Limit        uint64            `json:"limit,omitempty"`
	Instructions uint64            `json:"instructions"`
	Cycles       uint64            `json:"cycles"`
	IPC          float64           `json:"ipc"`
	CPI          float64           `json:"cpi"`
	Counters     map[string]uint64 `json:"counters,omitempty"`
	// Breakdown is the run's CPI stack: cycles attributed per
	// component, summing exactly to Cycles (see internal/events).
	Breakdown *events.Stack `json:"breakdown,omitempty"`
	// Sampled carries the interval-sampling estimate on sampled runs.
	Sampled *SampledInfo `json:"sampled,omitempty"`
	Key     string       `json:"key"`
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	var p RunRequest
	if r.Method == http.MethodPost {
		if !s.decode(w, r, &p) {
			return
		}
	} else {
		q := r.URL.Query()
		p.Machine = q.Get("machine")
		p.Backend = q.Get("backend")
		p.Workload = q.Get("workload")
		if lim := q.Get("limit"); lim != "" {
			n, err := strconv.ParseUint(lim, 10, 64)
			if err != nil {
				s.fail(w, http.StatusBadRequest, "invalid limit %q: %v", lim, err)
				return
			}
			p.Limit = n
		}
		if v := q.Get("sample"); v != "" {
			on, err := strconv.ParseBool(v)
			if err != nil {
				s.fail(w, http.StatusBadRequest, "invalid sample %q: %v", v, err)
				return
			}
			p.Sample = on
		}
		for _, f := range []struct {
			name string
			dst  *uint64
		}{
			{"sample_period", &p.SamplePeriod},
			{"sample_warmup", &p.SampleWarmup},
			{"sample_measure", &p.SampleMeasure},
		} {
			if v := q.Get(f.name); v != "" {
				n, err := strconv.ParseUint(v, 10, 64)
				if err != nil {
					s.fail(w, http.StatusBadRequest, "invalid %s %q: %v", f.name, v, err)
					return
				}
				*f.dst = n
			}
		}
		if v := q.Get("sample_intervals"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil {
				s.fail(w, http.StatusBadRequest, "invalid sample_intervals %q: %v", v, err)
				return
			}
			p.SampleIntervals = n
		}
	}
	name := p.Machine
	if name == "" {
		name = p.Backend
	}
	if name == "" || p.Workload == "" {
		s.fail(w, http.StatusBadRequest, "machine (or backend) and workload are required")
		return
	}
	c, code, err := s.cellOf(name, nil, p.Workload, nil, p.Limit)
	if err != nil {
		s.fail(w, code, "%v", err)
		return
	}
	if p.sampled() {
		if err := c.sample(p.samplePlan(c.work.MaxInstructions)); err != nil {
			s.fail(w, http.StatusBadRequest, "%v", err)
			return
		}
	}

	// The rendered body is keyed like the cell, under its own
	// namespace: it is a /v1/run body, not a cell result.
	key := sweep.CellKey("run/v1", c.cfg, c.work)
	s.serveCached(w, r, key, func() ([]byte, error) {
		// context.Background: like a local computation, a dispatched
		// cell outlives its request deadline to populate the cache.
		body, err := s.runCell(context.Background(), c.cfg, c.work, c.gen)
		if err != nil {
			return nil, err
		}
		var res core.RunResult
		if err := json.Unmarshal(body, &res); err != nil {
			return nil, err
		}
		resp := RunResponse{
			Machine:      res.Machine,
			Workload:     res.Workload,
			Limit:        p.Limit,
			Instructions: res.Instructions,
			Cycles:       res.Cycles,
			IPC:          res.IPC(),
			CPI:          res.CPI(),
			Counters:     res.Counters,
			Breakdown:    res.Breakdown,
			Key:          key.String(),
		}
		if res.Sampled != nil {
			est, err := sample.FromResult(res, sample.DefaultLevel)
			if err != nil {
				return nil, err
			}
			n := len(res.Sampled.Samples)
			s.metrics.Counter("sample_runs_total").Inc()
			s.metrics.Counter("sample_intervals_total").Add(uint64(n))
			s.sampleIntervals.Observe(float64(n))
			resp.Sampled = &SampledInfo{
				Plan:                 res.Sampled.Plan,
				Intervals:            n,
				CPI:                  est.CPI,
				DetailedInstructions: res.Sampled.DetailedInstructions,
				StreamInstructions:   res.Sampled.StreamInstructions,
				Speedup:              res.Sampled.Speedup(),
			}
		}
		return json.Marshal(resp)
	}, "application/json")
}

// simulate is the one local cell path: it builds the cell's machine,
// takes a simulation slot, counts the cell, runs it, records its
// events and returns the marshaled result. A sampled run that
// measured no interval before the workload halted is the client's
// error, and nothing is cached.
func (s *Server) simulate(cfg any, work core.Workload) ([]byte, error) {
	m, err := model.Build(cfg)
	if err != nil {
		return nil, err
	}
	s.acquire()
	defer s.release()
	s.metrics.Counter("cells_simulated_total").Inc()
	res, err := m.Run(work)
	if err != nil {
		return nil, err
	}
	s.recordSimEvents(res)
	if res.Sampled != nil {
		if _, err := sample.FromResult(res, sample.DefaultLevel); err != nil {
			return nil, clientError{err}
		}
	}
	return json.Marshal(res)
}

// recordSimEvents aggregates one cold run's schema counters and CPI
// stack into the registry, so /metrics exposes fleet-wide event
// totals (sim_event_<name>_total) and attributed cycle totals
// (sim_cycles_<component>_total) next to the cache counters. Cache
// hits never re-run a simulation, so they add nothing here.
func (s *Server) recordSimEvents(res core.RunResult) {
	for name, v := range res.Counters {
		if v > 0 {
			s.metrics.Counter("sim_event_" + name + "_total").Add(v)
		}
	}
	if res.Breakdown != nil {
		for c := events.Component(0); c < events.NumComponents; c++ {
			if v := res.Breakdown[c]; v > 0 {
				s.metrics.Counter("sim_cycles_" + c.Name() + "_total").Add(v)
			}
		}
	}
}

func (s *Server) handleExperiment(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	exp, ok := validate.ExperimentByName(name)
	if !ok {
		s.fail(w, http.StatusNotFound, "unknown experiment %q (have: %s)",
			name, strings.Join(validate.ExperimentNames(), ", "))
		return
	}
	var limit uint64
	if lim := r.URL.Query().Get("limit"); lim != "" {
		n, err := strconv.ParseUint(lim, 10, 64)
		if err != nil {
			s.fail(w, http.StatusBadRequest, "invalid limit %q: %v", lim, err)
			return
		}
		limit = n
	}

	// Parallelism is deliberately absent from the key: experiment
	// output is byte-identical at every worker count.
	key := simcache.KeyOf("experiment/v1", name, strconv.FormatUint(limit, 10))
	s.serveCached(w, r, key, func() ([]byte, error) {
		s.acquire()
		defer s.release()
		s.metrics.Counter("experiments_run_total").Inc()
		out, err := exp.Run(validate.Options{Limit: limit, Parallelism: s.cfg.Parallelism})
		if err != nil {
			return nil, err
		}
		return []byte(out.String()), nil
	}, "text/plain; charset=utf-8")
}

// serveCached answers the request from the cache, computing (and
// caching) on miss. The response body is exactly the cached bytes;
// cache status rides in headers. If the request deadline expires
// first, the computation keeps running so the retry hits.
func (s *Server) serveCached(w http.ResponseWriter, r *http.Request, key simcache.Key, compute func() ([]byte, error), contentType string) {
	type outcome struct {
		body   []byte
		cached bool
		err    error
	}
	done := make(chan outcome, 1)
	go func() {
		body, cached, err := s.cache.GetOrCompute(key, compute)
		done <- outcome{body, cached, err}
	}()

	timeout := time.NewTimer(s.cfg.RequestTimeout)
	defer timeout.Stop()
	select {
	case <-r.Context().Done():
		s.metrics.Counter("request_cancels_total").Inc()
		return // client went away; the computation still populates the cache
	case <-timeout.C:
		s.metrics.Counter("request_timeouts_total").Inc()
		s.fail(w, http.StatusGatewayTimeout,
			"deadline exceeded after %s; the result is still being computed, retry to hit the cache",
			s.cfg.RequestTimeout)
		return
	case o := <-done:
		if errors.As(o.err, new(clientError)) {
			s.fail(w, http.StatusBadRequest, "%v", o.err)
			return
		}
		if o.err != nil {
			s.metrics.Counter("simulation_errors_total").Inc()
			s.fail(w, http.StatusInternalServerError, "simulation failed: %v", o.err)
			return
		}
		if o.cached {
			s.metrics.Counter("served_from_cache_total").Inc()
		}
		w.Header().Set("Content-Type", contentType)
		w.Header().Set("X-Simcache-Key", key.String())
		w.Header().Set("X-Simcache", cacheStatus(o.cached))
		w.Write(o.body)
	}
}

// clientError is a computation's error that the request caused, such
// as a sampling plan that measured nothing; serveCached answers it
// with 400 rather than 500.
type clientError struct{ error }

func cacheStatus(cached bool) string {
	if cached {
		return "hit"
	}
	return "miss"
}

// acquire blocks until a simulation slot is free, counting waiters.
func (s *Server) acquire() {
	select {
	case s.sem <- struct{}{}:
	default:
		s.metrics.Counter("pool_wait_total").Inc()
		s.sem <- struct{}{}
	}
}

func (s *Server) release() { <-s.sem }

// errorBody is the JSON body of every error fail reports.
type errorBody struct {
	Error string `json:"error"`
}

func (s *Server) fail(w http.ResponseWriter, code int, format string, args ...any) {
	s.metrics.Counter("request_errors_total").Inc()
	writeJSON(w, code, errorBody{Error: fmt.Sprintf(format, args...)})
}

// maxBodyBytes bounds every POST body. The largest legitimate one, a
// sweep over a generated family, is a few kilobytes.
const maxBodyBytes = 1 << 20

// decode reads a JSON request body of at most maxBodyBytes into v.
// Decoding is strict: a field v does not declare is an error, so a
// misspelt option can never run a request as if it were absent. On
// failure it answers the request itself, 413 past the bound and 400
// otherwise, and reports false.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		return true
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		s.fail(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", maxBodyBytes)
	} else {
		s.fail(w, http.StatusBadRequest, "invalid JSON body: %v", err)
	}
	return false
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}
