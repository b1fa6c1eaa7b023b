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

// Builder constructs a machine from a swept configuration value.
type Builder func(cfg any) (core.Machine, error)

// DefaultBuilder builds machines for every sweepable config type in
// the repository by delegating to the backend registry, validating
// the configuration first so a degenerate sweep point surfaces as
// that cell's error, not a panic. An unrecognized config type returns
// an error wrapping model.ErrUnknownBackend.
func DefaultBuilder(cfg any) (core.Machine, error) {
	return model.Build(cfg)
}

// Engine runs sweep points over a workload suite: every (point ×
// workload) cell fans out on the runner worker pool, and results are
// memoized through the content-addressed cache so overlapping sweeps
// (or a re-run of the same sweep) re-pay nothing.
type Engine struct {
	// Workloads is the suite every point runs.
	Workloads []core.Workload
	// Build turns a point's config into a machine (nil = DefaultBuilder).
	Build Builder
	// Limit caps dynamic instructions per run (0 = workload length).
	Limit uint64
	// Parallelism is the worker-pool width (0 = GOMAXPROCS). It never
	// affects results or cache keys.
	Parallelism int
	// Cache memoizes cell results by the canonical fingerprint of
	// (config, workload, budget). Nil disables memoization.
	Cache *simcache.Cache
	// Sample, when set, runs every cell under interval sampling: the
	// sweep explores the same design space at the plan's fraction of
	// the detailed-simulation cost, and the plan joins each cell's
	// cache address so sampled cells never collide with full ones.
	Sample *core.SamplePlan
	// Remote, when set, executes a cell on a remote worker instead of
	// building and running the machine locally: it receives the
	// cell's space, point, and budgeted workload and returns the
	// marshaled core.RunResult bytes the worker produced. A remote
	// error falls back to local execution (the dispatch layer has
	// already exhausted its retries by then), so a dying worker tier
	// degrades a sweep to single-node instead of failing it.
	// Determinism makes the two paths interchangeable: local and
	// remote cells produce identical result bytes.
	Remote func(ctx context.Context, s *Space, p Point, w core.Workload) ([]byte, error)
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

// limited returns the engine's workloads with the instruction budget
// applied (a fresh slice; the originals are never mutated).
func (e *Engine) limited() []core.Workload {
	ws := make([]core.Workload, len(e.Workloads))
	for i, w := range e.Workloads {
		ws[i] = w.Capped(e.Limit)
		if e.Sample != nil {
			ws[i].Sample = e.Sample
		}
	}
	return ws
}

// CellKey content-addresses one sweep cell: the canonical fingerprint
// of the machine configuration plus the workload's identity and
// budget. Mutated configs that differ in any exported field get
// distinct keys (see simcache.Fingerprint for exactly what the
// canonical rendering skips).
func CellKey(cfg any, w core.Workload) simcache.Key {
	parts := []string{
		"sweep/v1",
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
	if len(e.Workloads) == 0 {
		return nil, Stats{}, fmt.Errorf("sweep: engine has no workloads")
	}
	build := e.Build
	if build == nil {
		build = DefaultBuilder
	}
	if err := s.Check(); err != nil {
		return nil, Stats{}, err
	}
	configs := make([]any, len(pts))
	for i, p := range pts {
		cfg, err := s.Config(p)
		if err != nil {
			return nil, Stats{}, err
		}
		configs[i] = cfg
	}
	ws := e.limited()

	type cell struct{ p, w int }
	cells := make([]cell, 0, len(pts)*len(ws))
	for p := range pts {
		for w := range ws {
			cells = append(cells, cell{p, w})
		}
	}

	var hits atomic.Int64
	res, err := runner.Map(e.Parallelism, cells, func(_ int, c cell) (core.RunResult, error) {
		if err := ctx.Err(); err != nil {
			return core.RunResult{}, err
		}
		cfg, w := configs[c.p], ws[c.w]
		// compute produces the cell's canonical result bytes:
		// dispatched to a worker when the Remote hook is set (falling
		// back to local on dispatch failure), locally otherwise.
		compute := func() ([]byte, error) {
			if e.Remote != nil {
				if body, rerr := e.Remote(ctx, s, pts[c.p], w); rerr == nil {
					return body, nil
				}
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			m, err := build(cfg)
			if err != nil {
				return nil, err
			}
			r, err := m.Run(w)
			if err != nil {
				return nil, err
			}
			return json.Marshal(r)
		}
		if e.Cache == nil {
			body, err := compute()
			if err != nil {
				return core.RunResult{}, err
			}
			var r core.RunResult
			if err := json.Unmarshal(body, &r); err != nil {
				return core.RunResult{}, fmt.Errorf("sweep: corrupt cell result: %w", err)
			}
			return r, nil
		}
		key := CellKey(cfg, w)
		body, cached, err := e.Cache.GetOrCompute(key, compute)
		if err != nil {
			return core.RunResult{}, err
		}
		if cached {
			hits.Add(1)
		}
		// Both hit and miss decode the stored bytes, so the two paths
		// can never diverge.
		var r core.RunResult
		if err := json.Unmarshal(body, &r); err != nil {
			return core.RunResult{}, fmt.Errorf("sweep: corrupt cached cell: %w", err)
		}
		return r, nil
	})
	st := Stats{Points: len(pts), Cells: len(cells), CacheHits: int(hits.Load())}
	if err != nil {
		return nil, st, err
	}
	for _, r := range res {
		if r.Sampled != nil {
			st.DetailedInstructions += r.Sampled.DetailedInstructions
		} else {
			st.DetailedInstructions += r.Instructions
		}
	}

	out := make([]PointResult, len(pts))
	for i, p := range pts {
		out[i] = PointResult{
			Point:   p.Clone(),
			Label:   s.Label(p),
			Results: make([]core.RunResult, len(ws)),
		}
	}
	for i, c := range cells {
		out[c.p].Results[c.w] = res[i]
	}
	return out, st, nil
}

// Reference runs a reference machine (built fresh per cell by the
// factory) over the engine's workload suite, uncached: the reference
// is computed once per analysis, and its identity — a machine, not a
// swept config — is not content-addressable through the space.
func (e *Engine) Reference(ctx context.Context, build func() core.Machine) ([]core.RunResult, error) {
	if len(e.Workloads) == 0 {
		return nil, fmt.Errorf("sweep: engine has no workloads")
	}
	ws := e.limited()
	return runner.Map(e.Parallelism, ws, func(_ int, w core.Workload) (core.RunResult, error) {
		if err := ctx.Err(); err != nil {
			return core.RunResult{}, err
		}
		return build().Run(w)
	})
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
