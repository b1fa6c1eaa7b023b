// The distributed tier: a coordinator shards simulation cells over
// registered workers by content hash and serves their results; every
// worker is just a simd serving POST /v1/cell.
//
// A cell is the unit of distribution: one (machine config × workload
// × budget) simulation, optionally under a sampling plan. It crosses
// the wire as its config value: a registered backend's name, plus the
// full config as JSON when it differs from that backend's. The worker
// decodes the same config and so derives the coordinator's cache key
// and computes identical result bytes — which is what lets the
// coordinator fall back to local execution at any point without
// changing results, and why coordinator and workers share one build.
//
// Failure model: a transport error marks the worker lost and retries
// the cell on the next worker in shard order (the cell is
// deterministic and its caches are content-addressed, so re-running
// is always safe); a cell that outlives the steal timer is
// additionally launched on another worker and the first result wins
// (work-stealing on stragglers); when every worker has failed, the
// caller runs the cell locally. Lost workers are re-probed
// optimistically after a cooldown, so a restarted worker rejoins
// without coordinator restarts.
package service

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"reflect"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/sweep"
	"repro/internal/workgen"
)

// CellRequest is the POST /v1/cell body: one simulation cell by
// machine, workload name and budget. Config, when present, is the
// cell's config as JSON, decoded strictly over the machine's
// registered config by sweep.Override, the decoder that also applies
// sweep points: omitted fields keep their registered values, so
// {"machine":"sim-alpha","config":{"ROB":20}} is the ROB-20 point.
type CellRequest struct {
	Machine  string           `json:"machine"`
	Workload string           `json:"workload"`
	Limit    uint64           `json:"limit,omitempty"`
	Sample   *core.SamplePlan `json:"sample,omitempty"`
	Config   json.RawMessage  `json:"config,omitempty"`
	// Generate carries a minted workload's generation spec: the worker
	// regenerates the program deterministically from the spec (minted
	// catalogues are per-process, so the name alone would not resolve
	// remotely — and generation is cheaper than shipping programs).
	Generate *workgen.Spec `json:"generate,omitempty"`
}

// newCellRequest writes a cell for the wire. A config equal to a
// registered backend's travels as that backend's name alone; any
// other config travels in full, under the first registered backend of
// its type (a full config overwrites every field, so the name only
// fixes the type).
func newCellRequest(cfg any, work core.Workload, gen *workgen.Spec) (CellRequest, error) {
	req := CellRequest{
		Workload: work.Name,
		Limit:    work.MaxInstructions,
		Sample:   work.Sample,
		Generate: gen,
	}
	for _, d := range model.Backends() {
		if d.Config == cfg {
			req.Machine = d.Name
			return req, nil
		}
		if req.Machine == "" && reflect.TypeOf(d.Config) == reflect.TypeOf(cfg) {
			req.Machine = d.Name
		}
	}
	var err error
	req.Config, err = json.Marshal(cfg)
	return req, err
}

// cell is one resolved simulation cell: a machine's config, which
// passes its Check, and the workload under the request's budget.
type cell struct {
	spec model.Descriptor // the machine's registry entry
	cfg  any
	work core.Workload
	gen  *workgen.Spec // a generated workload's spec, else nil
}

// cellOf resolves a cell as /v1/run and /v1/cell both name it: a
// registered machine, with config (if any) decoded over its registered
// config by sweep.Override; a catalogue workload, or the one gen
// generates; and the limit, capping the workload's budget. A failure
// comes with the HTTP status that answers it. Nothing has been cached
// or simulated: a config outside its bounds fails here. A registered
// config passed its Check when it was registered, so only a config
// the request changed is checked again.
func (s *Server) cellOf(machine string, config json.RawMessage, workload string, gen *workgen.Spec, limit uint64) (*cell, int, error) {
	spec, err := model.ByName(machine)
	if err != nil {
		return nil, http.StatusNotFound, fmt.Errorf("unknown machine: %w", err)
	}
	c := &cell{spec: spec, gen: gen}
	if gen != nil {
		if err := gen.Check(); err != nil {
			return nil, http.StatusBadRequest, err
		}
		if c.work, err = workgen.Generate(*gen); err != nil {
			return nil, http.StatusBadRequest, fmt.Errorf("generate: %w", err)
		}
		if workload != "" && workload != c.work.Name {
			return nil, http.StatusBadRequest,
				fmt.Errorf("workload %q does not match generated name %q", workload, c.work.Name)
		}
	} else {
		s.wlMu.RLock()
		wl, ok := s.byWork[workload]
		s.wlMu.RUnlock()
		if !ok {
			return nil, http.StatusNotFound, fmt.Errorf("unknown workload %q (see /v1/workloads)", workload)
		}
		c.work, c.gen = wl.w, wl.gen
	}
	c.work = c.work.Capped(limit)
	if c.cfg, err = sweep.Override(spec.Config, config); err != nil {
		return nil, http.StatusBadRequest, err
	}
	if len(config) > 0 {
		if _, err := model.Build(c.cfg); err != nil {
			return nil, http.StatusBadRequest, err
		}
	}
	return c, 0, nil
}

// sample puts the cell under a sampling plan. A machine that cannot
// sample or an invalid plan is the client's error, and so is a plan
// whose first warmup and measure window does not fit a known budget:
// it can measure nothing, so it is rejected before anything is cached
// or simulated. A zero budget (a run to HALT) is not known until the
// run ends; simulate rejects that run if it measured nothing.
func (c *cell) sample(p core.SamplePlan) error {
	if _, ok := c.cfg.(core.SampleCapable); !ok {
		return fmt.Errorf("backend %q does not support interval sampling (tier %s)", c.spec.Name, c.spec.Tier)
	}
	if err := p.Check(); err != nil {
		return err
	}
	if budget := c.work.MaxInstructions; budget > 0 && p.Detailed() > budget {
		return fmt.Errorf("sample plan: warmup+measure (%d) exceeds the %d-instruction budget, so no interval can be measured",
			p.Detailed(), budget)
	}
	c.work.Sample = &p
	return nil
}

// handleCell is POST /v1/cell, the worker side of the distributed
// tier: resolve the cell, run it through the local content-addressed
// cache, and return the marshaled core.RunResult.
func (s *Server) handleCell(w http.ResponseWriter, r *http.Request) {
	var req CellRequest
	if !s.decode(w, r, &req) {
		return
	}
	c, code, err := s.cellOf(req.Machine, req.Config, req.Workload, req.Generate, req.Limit)
	if err != nil {
		s.fail(w, code, "%v", err)
		return
	}
	if req.Sample != nil {
		if err := c.sample(*req.Sample); err != nil {
			s.fail(w, http.StatusBadRequest, "%v", err)
			return
		}
	}

	// The same key the coordinator's sweep engine derives for this
	// cell, so worker caches line up shard-by-shard with sweeps.
	key := sweep.CellKey("sweep/v1", c.cfg, c.work)
	s.serveCached(w, r, key, func() ([]byte, error) {
		return s.simulate(c.cfg, c.work)
	}, "application/json")
}

// runCell produces one cell's marshaled core.RunResult: dispatched to
// the worker tier when there is one, and run in this process without
// one or after any dispatch error but a worker's 400, unless ctx is
// done. The bytes are the same either way. A dispatched cell takes no
// simulation slot here; its worker's pool bounds it.
func (s *Server) runCell(ctx context.Context, cfg any, work core.Workload, gen *workgen.Spec) ([]byte, error) {
	if s.dispatch != nil {
		req, err := newCellRequest(cfg, work, gen)
		if err != nil {
			return nil, err
		}
		body, err := s.dispatch.run(ctx, req)
		if err == nil {
			return body, nil
		}
		// A worker's 400 is the cell's answer: the cell is the
		// client's error wherever it runs.
		var st *StatusError
		if errors.As(err, &st) && st.Code == http.StatusBadRequest {
			return nil, clientError{errors.New(st.Msg)}
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	return s.simulate(cfg, work)
}

// workerRef is one registered worker with its liveness state.
type workerRef struct {
	idx    int
	client *Client
	// down marks a worker lost after a transport error; lost workers
	// are optimistically re-probed after probeCooldown.
	down      atomic.Bool
	downSince atomic.Int64 // unix nanos
	// cells is the shard counter mirrored to dispatch_worker_<i>_cells_total.
	cells *metrics.Counter
}

const probeCooldown = 15 * time.Second

// dispatcher shards cells over the worker tier.
type dispatcher struct {
	reg        *metrics.Registry
	stealAfter time.Duration
	workers    []*workerRef
}

func newDispatcher(workers []string, stealAfter time.Duration, reg *metrics.Registry) *dispatcher {
	if stealAfter <= 0 {
		stealAfter = 15 * time.Second
	}
	d := &dispatcher{
		reg:        reg,
		stealAfter: stealAfter,
	}
	for i, addr := range workers {
		d.workers = append(d.workers, &workerRef{
			idx:    i,
			client: NewClient(addr),
			cells:  reg.Counter(fmt.Sprintf("dispatch_worker_%d_cells_total", i)),
		})
	}
	reg.Gauge("dispatch_workers").Set(int64(len(d.workers)))
	return d
}

// order returns the workers to try for a cell, home worker first:
// shard affinity is a SHA-256 over the cell's request bytes reduced
// modulo the worker count, so identical cells always land on the same
// worker (maximizing its local cache) and distinct cells spread.
// (Not FNV: its low bits are a parity of the input's low bits, and
// cell bodies differing only in even digits all land on one worker.)
// Lost workers sort last and are included only when their cooldown
// has expired.
func (d *dispatcher) order(body []byte) []*workerRef {
	sum := sha256.Sum256(body)
	n := len(d.workers)
	home := int(binary.BigEndian.Uint32(sum[:4]) % uint32(n))
	var live, retry []*workerRef
	for i := 0; i < n; i++ {
		w := d.workers[(home+i)%n]
		if !w.down.Load() {
			live = append(live, w)
		} else if time.Since(time.Unix(0, w.downSince.Load())) > probeCooldown {
			retry = append(retry, w)
		}
	}
	return append(live, retry...)
}

// lose marks a worker lost after a transport error.
func (d *dispatcher) lose(w *workerRef) {
	if !w.down.Swap(true) {
		d.reg.Counter("dispatch_worker_losses_total").Inc()
	}
	w.downSince.Store(time.Now().UnixNano())
}

// run dispatches one cell: home worker by shard affinity, steal to
// the next worker if the home straggles past the timer, retry down
// the shard order on transport errors, and an error return once
// every worker has failed (the caller falls back to local
// execution). First successful result wins; duplicate executions are
// harmless because cells are deterministic and content-addressed.
func (d *dispatcher) run(ctx context.Context, req CellRequest) ([]byte, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	order := d.order(body)
	if len(order) == 0 {
		d.reg.Counter("dispatch_local_fallback_total").Inc()
		return nil, fmt.Errorf("dispatch: no live workers")
	}
	d.reg.Counter("dispatch_cells_total").Inc()

	type outcome struct {
		body []byte
		err  error
		w    *workerRef
	}
	resc := make(chan outcome, len(order))
	launched := 0
	launch := func() {
		w := order[launched]
		launched++
		w.cells.Inc()
		go func() {
			out, err := w.client.cell(ctx, body)
			resc <- outcome{out, err, w}
		}()
	}
	launch()
	steal := time.NewTimer(d.stealAfter)
	defer steal.Stop()

	pending := 1
	var lastErr error
	for pending > 0 {
		select {
		case o := <-resc:
			pending--
			if o.err == nil {
				return o.body, nil
			}
			lastErr = o.err
			var st *StatusError
			if errors.As(o.err, &st) {
				// The worker is alive and rejected the cell, so every
				// worker (and a local run) would too: its rejection is
				// the cell's answer.
				return nil, o.err
			}
			d.lose(o.w)
			if launched < len(order) {
				d.reg.Counter("dispatch_retries_total").Inc()
				launch()
				pending++
			}
		case <-steal.C:
			if launched < len(order) {
				d.reg.Counter("dispatch_steals_total").Inc()
				launch()
				pending++
			}
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	d.reg.Counter("dispatch_local_fallback_total").Inc()
	return nil, fmt.Errorf("dispatch: all %d workers failed: %w", len(order), lastErr)
}
