package sweep

import (
	"context"
	"encoding/json"
	"fmt"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/runner"
	"repro/internal/simcache"
	"repro/internal/stats"
)

// Engine runs sweep points over a workload suite: every (point ×
// workload) cell fans out on the runner worker pool, and results are
// memoized through the content-addressed cache so overlapping sweeps
// (or a re-run of the same sweep) re-pay nothing.
type Engine struct {
	// Workloads is the suite every point runs, each under its own
	// budget and sampling plan (see core.Workload.Capped and Sample).
	Workloads []core.Workload
	// Parallelism is the worker-pool width (0 = GOMAXPROCS). It never
	// affects results or cache keys.
	Parallelism int
	// Cache memoizes cell results by the canonical fingerprint of
	// (config, workload, budget). Nil disables memoization.
	Cache *simcache.Cache
	// Exec, when set, produces every cell's marshaled core.RunResult,
	// sweep points and Reference cells alike, in place of running the
	// machine here. The engine does no fallback of its own: Exec
	// decides where a cell runs, and cells are deterministic, so the
	// bytes never depend on where.
	Exec func(ctx context.Context, cfg any, w core.Workload) ([]byte, error)
}

// PointResult is one explored point with its per-workload results
// (parallel to Engine.Workloads).
type PointResult struct {
	Point   Point
	Label   string
	Results []core.RunResult
}

// Stats is one Run's accounting: how many points and cells executed
// and how many cells the cache answered without simulating.
type Stats struct {
	Points    int `json:"points"`
	Cells     int `json:"cells"`
	CacheHits int `json:"cache_hits"`
	// DetailedInstructions totals the instructions the cells'
	// timing models actually simulated in detail — under sampling,
	// the warmup+measure windows only — so a sweep's cost reduction
	// is visible next to its cell counts.
	DetailedInstructions uint64 `json:"detailed_instructions,omitempty"`
}

// Add accumulates another run's accounting.
func (s *Stats) Add(o Stats) {
	s.Points += o.Points
	s.Cells += o.Cells
	s.CacheHits += o.CacheHits
	s.DetailedInstructions += o.DetailedInstructions
}

// HitRate returns the fraction of cells served from the cache.
func (s Stats) HitRate() float64 {
	if s.Cells == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(s.Cells)
}

// CellKey content-addresses one cell in namespace ns: the canonical
// fingerprint of the machine configuration plus the workload's
// identity and budget, and for a sampled cell its plan. It is the one
// key function for cells: "sweep/v1" keys cell results, as the engine
// and /v1/cell store them, and "run/v1" keys rendered /v1/run bodies.
// Mutated configs that differ in any exported field get distinct keys
// (see simcache.Fingerprint for exactly what the canonical rendering
// skips).
func CellKey(ns string, cfg any, w core.Workload) simcache.Key {
	parts := []string{
		ns,
		simcache.Fingerprint(cfg),
		simcache.Fingerprint(struct {
			Name        string
			FastForward uint64
			Max         uint64
			Category    string
		}{w.Name, w.FastForward, w.MaxInstructions, w.Category}),
	}
	// Sampled cells measure a different quantity, so the plan joins
	// the address; full cells keep their pre-sampling key bytes.
	if w.Sample != nil {
		parts = append(parts, "sample", simcache.Fingerprint(*w.Sample))
	}
	return simcache.KeyOf(parts...)
}

// Run executes the points' full workload suites and returns one
// PointResult per point, in point order, with cache-amortized cell
// accounting. Cancel the context to abandon the sweep; cells already
// computed stay cached for the next attempt.
func (e *Engine) Run(ctx context.Context, s *Space, pts []Point) ([]PointResult, Stats, error) {
	if err := s.Check(); err != nil {
		return nil, Stats{}, err
	}
	cfgs := make([]any, len(pts))
	for i, p := range pts {
		cfg, err := s.Config(p)
		if err != nil {
			return nil, Stats{}, err
		}
		cfgs[i] = cfg
	}
	rows, st, err := e.RunConfigs(ctx, cfgs)
	if err != nil {
		return nil, st, err
	}
	out := make([]PointResult, len(pts))
	for i, p := range pts {
		out[i] = PointResult{Point: p.Clone(), Label: s.Label(p), Results: rows[i]}
	}
	return out, st, nil
}

// Reference runs one config — the machine an analysis measures
// against — over the workload suite as ordinary cells, cached when
// the engine has a cache.
func (e *Engine) Reference(ctx context.Context, cfg any) ([]core.RunResult, error) {
	rows, _, err := e.RunConfigs(ctx, []any{cfg})
	if err != nil {
		return nil, err
	}
	return rows[0], nil
}

// RunConfigs is the engine's one cell loop: it runs every config's
// full workload suite and returns one result row per config (parallel
// to Workloads), in config order, with cell accounting. Cells fan out
// on the worker pool and merge by cell index, so results are
// deterministic at any parallelism. A cell without Exec builds its
// machine with model.Build, so a config failing its Check fails the
// run with an error. Without a cache or Exec, a cell returns the
// machine's RunResult directly: bytes exist only where the cache
// stores them or Exec produces them.
func (e *Engine) RunConfigs(ctx context.Context, cfgs []any) ([][]core.RunResult, Stats, error) {
	ws := e.Workloads
	if len(ws) == 0 {
		return nil, Stats{}, fmt.Errorf("sweep: engine has no workloads")
	}

	type cell struct{ c, w int }
	cells := make([]cell, 0, len(cfgs)*len(ws))
	for c := range cfgs {
		for w := range ws {
			cells = append(cells, cell{c, w})
		}
	}

	var hits atomic.Int64
	res, err := runner.Map(e.Parallelism, cells, func(_ int, c cell) (core.RunResult, error) {
		if err := ctx.Err(); err != nil {
			return core.RunResult{}, err
		}
		cfg, w := cfgs[c.c], ws[c.w]
		if e.Cache == nil && e.Exec == nil {
			return runLocal(cfg, w)
		}
		// compute produces the cell's canonical result bytes.
		compute := func() ([]byte, error) {
			if e.Exec != nil {
				return e.Exec(ctx, cfg, w)
			}
			r, err := runLocal(cfg, w)
			if err != nil {
				return nil, err
			}
			return json.Marshal(r)
		}
		var body []byte
		var err error
		if e.Cache == nil {
			body, err = compute()
		} else {
			var cached bool
			body, cached, err = e.Cache.GetOrCompute(CellKey("sweep/v1", cfg, w), compute)
			if cached {
				hits.Add(1)
			}
		}
		if err != nil {
			return core.RunResult{}, err
		}
		// Hit, miss and Exec all decode the stored bytes, so the
		// paths can never diverge.
		var r core.RunResult
		if err := json.Unmarshal(body, &r); err != nil {
			return core.RunResult{}, fmt.Errorf("sweep: corrupt cell result: %w", err)
		}
		return r, nil
	})
	st := Stats{Points: len(cfgs), Cells: len(cells), CacheHits: int(hits.Load())}
	if err != nil {
		return nil, st, err
	}
	rows := make([][]core.RunResult, len(cfgs))
	for i := range rows {
		rows[i] = make([]core.RunResult, len(ws))
	}
	for i, c := range cells {
		r := res[i]
		rows[c.c][c.w] = r
		if r.Sampled != nil {
			st.DetailedInstructions += r.Sampled.DetailedInstructions
		} else {
			st.DetailedInstructions += r.Instructions
		}
	}
	return rows, st, nil
}

// runLocal builds the cell's machine and runs it in this process.
func runLocal(cfg any, w core.Workload) (core.RunResult, error) {
	m, err := model.Build(cfg)
	if err != nil {
		return core.RunResult{}, err
	}
	return m.Run(w)
}

// MeanAbsCPIError is the calibration objective: the arithmetic mean
// of |percent CPI error| of sim against ref across the suite — the
// paper's bottom-row statistic (74.7% for sim-initial, 2.0% for
// sim-alpha on the microbenchmarks).
func MeanAbsCPIError(sim, ref []core.RunResult) float64 {
	n := len(sim)
	if len(ref) < n {
		n = len(ref)
	}
	errs := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		errs = append(errs, stats.PctErrorCPI(ref[i].IPC(), sim[i].IPC()))
	}
	return stats.MeanAbs(errs)
}
