// Workload minting: POST /v1/workloads/generate turns a workgen Spec
// (or a whole Family) into catalogue entries addressable by /v1/run,
// /v1/sweep, and sampling, exactly like builtins. Minting is
// idempotent — re-posting a spec that is already minted succeeds
// without a second entry — but a name that collides with a
// non-generated catalogue entry is rejected with ErrWorkloadExists:
// generated names must never shadow builtins.
package service

import (
	"errors"
	"fmt"
	"net/http"

	"repro/internal/core"
	"repro/internal/diskstore"
	"repro/internal/workgen"
)

// workloadStore is the optional persistence face of Config.Tier2 (a
// diskstore.Store implements it): minted catalogue entries are saved
// as generation specs, and a restarted server re-mints them, so a
// `simd -store DIR` keeps serving its generated workload names across
// restarts. Programs are regenerated from the specs — generation is
// deterministic by construction, so the restored workload is
// byte-identical and every cached result for it still addresses.
type workloadStore interface {
	SaveWorkloadSpec(diskstore.SavedWorkload) error
	WorkloadSpecs() ([]diskstore.SavedWorkload, error)
}

// restoreWorkloads re-mints every persisted generated workload from
// the attached store, in name order. Restoration is best-effort and
// idempotent: a spec that fails to regenerate or collides with a
// builtin is skipped (counted on workgen_restore_errors_total), and
// re-minting an already-present name is a no-op.
func (s *Server) restoreWorkloads() {
	ws, ok := s.cfg.Tier2.(workloadStore)
	if !ok {
		return
	}
	saved, err := ws.WorkloadSpecs()
	if err != nil {
		s.metrics.Counter("workgen_restore_errors_total").Inc()
		return
	}
	for _, sw := range saved {
		wk, err := workgen.Generate(sw.Spec)
		if err != nil {
			s.metrics.Counter("workgen_restore_errors_total").Inc()
			continue
		}
		minted, err := s.mint(wk, sw.Spec, sw.Family, sw.Axis, sw.Level, false)
		if err != nil {
			s.metrics.Counter("workgen_restore_errors_total").Inc()
			continue
		}
		if minted {
			s.metrics.Counter("workgen_restored_total").Inc()
		}
	}
}

// ErrWorkloadExists reports a minted name colliding with an existing
// non-generated workload. Served as 409 Conflict.
var ErrWorkloadExists = errors.New("workload already exists in the catalogue")

// GenerateRequest is the body of POST /v1/workloads/generate: exactly
// one of Spec (mint one workload) or Family (mint every member).
type GenerateRequest struct {
	Spec   *workgen.Spec   `json:"spec,omitempty"`
	Family *workgen.Family `json:"family,omitempty"`
}

// MintedWorkload describes one minted workload in the response.
type MintedWorkload struct {
	Name   string `json:"name"`
	Family string `json:"family,omitempty"`
	Axis   string `json:"axis,omitempty"`
	Level  int    `json:"level,omitempty"`
	// Minted is false when the workload was already in the catalogue
	// (idempotent re-mint).
	Minted bool `json:"minted"`
}

// GenerateResponse is the body of a successful mint.
type GenerateResponse struct {
	Workloads []MintedWorkload `json:"workloads"`
}

func (s *Server) handleGenerate(w http.ResponseWriter, r *http.Request) {
	var req GenerateRequest
	if !s.decode(w, r, &req) {
		return
	}
	switch {
	case req.Spec == nil && req.Family == nil:
		s.fail(w, http.StatusBadRequest, "one of spec or family is required")
		return
	case req.Spec != nil && req.Family != nil:
		s.fail(w, http.StatusBadRequest, "spec and family are mutually exclusive")
		return
	}

	// Resolve the mint set before touching the catalogue.
	type member struct {
		spec  workgen.Spec
		fam   string
		axis  string
		level int
	}
	var members []member
	if req.Spec != nil {
		if err := req.Spec.Check(); err != nil {
			s.fail(w, http.StatusBadRequest, "%v", err)
			return
		}
		members = []member{{spec: *req.Spec}}
	} else {
		f := *req.Family
		if err := f.Check(); err != nil {
			s.fail(w, http.StatusBadRequest, "%v", err)
			return
		}
		specs, err := f.Specs()
		if err != nil {
			s.fail(w, http.StatusBadRequest, "%v", err)
			return
		}
		for i, sp := range specs {
			members = append(members, member{spec: sp, fam: f.Name, axis: f.Axis, level: f.Levels[i]})
		}
	}

	resp := GenerateResponse{}
	for _, m := range members {
		wk, err := workgen.Generate(m.spec)
		if err != nil {
			s.fail(w, http.StatusInternalServerError, "generate %s: %v", m.spec.Name(), err)
			return
		}
		minted, err := s.mint(wk, m.spec, m.fam, m.axis, m.level, true)
		if err != nil {
			code := http.StatusInternalServerError
			switch {
			case errors.Is(err, ErrWorkloadExists):
				code = http.StatusConflict
			case errors.Is(err, errMintBudget):
				code = http.StatusTooManyRequests
			}
			s.fail(w, code, "%v", err)
			return
		}
		resp.Workloads = append(resp.Workloads, MintedWorkload{
			Name: wk.Name, Family: m.fam, Axis: m.axis, Level: m.level, Minted: minted,
		})
	}
	writeJSON(w, http.StatusCreated, resp)
}

// errMintBudget reports the per-process mint budget being exhausted.
// Served as 429.
var errMintBudget = errors.New("generated-workload budget exhausted")

// mint adds one generated workload to the catalogue. It reports
// whether a new entry was created: re-minting an identical generated
// spec is a no-op, while any collision with a non-generated entry is
// ErrWorkloadExists. With persist set and a workloadStore attached,
// the spec is also saved (best-effort) so a restart re-mints it;
// restoration passes persist=false since the spec is already on disk.
func (s *Server) mint(wk core.Workload, spec workgen.Spec, fam, axis string, level int, persist bool) (bool, error) {
	s.wlMu.Lock()
	defer s.wlMu.Unlock()
	if prev, ok := s.byWork[wk.Name]; ok {
		if prev.gen == nil {
			return false, fmt.Errorf("%w: %q is a builtin (%s suite)", ErrWorkloadExists, wk.Name, prev.suite)
		}
		// Same name ⇒ same spec ⇒ same program: idempotent.
		return false, nil
	}
	if s.nGenerated >= s.cfg.MaxGenerated {
		return false, fmt.Errorf("%w: %d of %d minted", errMintBudget, s.nGenerated, s.cfg.MaxGenerated)
	}
	sp := spec
	s.byWork[wk.Name] = workloadSpec{
		w: wk, suite: "generated", gen: &sp,
		family: fam, axis: axis, level: level,
	}
	s.wlOrder = append(s.wlOrder, wk.Name)
	s.nGenerated++
	s.metrics.Counter("workgen_minted_total").Inc()
	if persist {
		if ws, ok := s.cfg.Tier2.(workloadStore); ok {
			if err := ws.SaveWorkloadSpec(diskstore.SavedWorkload{
				Name: wk.Name, Spec: spec, Family: fam, Axis: axis, Level: level,
			}); err != nil {
				s.metrics.Counter("workgen_persist_errors_total").Inc()
			}
		}
	}
	return true, nil
}
