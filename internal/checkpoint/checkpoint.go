// Package checkpoint serializes warmed simulator state so runs can
// resume mid-stream instead of re-paying functional fast-forward from
// instruction zero.
//
// # What a checkpoint is
//
// A checkpoint at stream position N captures everything a functional
// pass with warming from 0..N establishes: the architectural CPU
// state (registers, PC, memory image, dynamic instruction count), the
// warmed memory system (cache arrays with LRU and statistics, victim
// buffer, TLBs, page mappings), and whichever predictors the model
// warms (the tournament, line, and way predictors for the
// 21264-family models, the bimodal table for the in-order model; the
// RUU model warms caches only). Timing-only machinery — miss address
// files, the L2 bus, DRAM bank state, the in-flight RAS and load-use
// and store-wait predictors — is deliberately absent: warming never
// touches it, so a restored run and a cold run warmed forward to N
// both hold it in reset state.
//
// # The determinism invariant
//
// Restore(checkpoint@N) followed by a detailed run of the remainder
// is byte-identical — instructions, cycles, every counter, the CPI
// stack — to a cold run that warm-fast-forwards through N and then
// runs the same remainder in detail. TestCheckpointDeterminism pins
// this on all four timing models.
//
// # Format
//
// The binary format is versioned and strict: an 8-byte magic, a
// format version, then the state fields in fixed canonical order
// (pages sorted by virtual page number, booleans as 0/1 bytes).
// codec.state is the layout's one definition: Encode and Decode both
// run that one walk over the fields, so every bound and canonical
// check is written once and the two directions cannot disagree.
// Decode rejects truncated input, version skew, non-canonical
// encodings, and trailing bytes, naming the section it failed in;
// every length is bounds-checked before allocation. The content
// address of a checkpoint is the SHA-256 of its encoded bytes, which
// is what the disk store and the distributed tier key on.
package checkpoint

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/predict"
	"repro/internal/vm"
)

// Model families a checkpoint can belong to. Restore refuses a state
// recorded by a different family: the predictor sections differ.
const (
	ModelAlpha   = "alpha"
	ModelRUU     = "ruu"
	ModelInorder = "inorder"
)

// State is one serializable simulator checkpoint.
type State struct {
	// Model is the recording model family (ModelAlpha, ModelRUU,
	// ModelInorder). The native reference machine records ModelAlpha
	// states: it is the 21264 model inside.
	Model string
	// Machine is the recording machine's name, for reports.
	Machine string
	// Compat fingerprints the warm-relevant configuration (memory
	// hierarchy, warmed-predictor geometry, mapping policy). Restore
	// into a machine with a different compat string is refused — but
	// machines differing only in core configuration (ROB size, issue
	// width, latencies) share checkpoints, which is what lets one
	// library serve a whole design-space sweep.
	Compat string
	// Workload names the recorded workload; the restoring run must
	// supply the same program (the blob carries dynamic state, not
	// code).
	Workload string
	// Position is the stream position of the snapshot: dynamic
	// instructions consumed after the workload's FastForward point.
	Position uint64

	CPU   cpu.State
	Pages []vm.PageImage
	Hier  cache.HierarchyState

	// Tour, Line, and Way are present for ModelAlpha states (the
	// 21264's direction, line, and way predictors are all warmed),
	// Bimodal for ModelInorder; ModelRUU carries none of them.
	Tour    *predict.TournamentState
	Line    *predict.LineState
	Way     *predict.WayState
	Bimodal []uint32
}

// CompatibleWith checks that the state can restore into the given
// model family and warm-relevant configuration fingerprint.
func (s *State) CompatibleWith(model, compat string) error {
	if s.Model != model {
		return fmt.Errorf("checkpoint: state recorded by model family %q, restoring into %q", s.Model, model)
	}
	if s.Compat != compat {
		return fmt.Errorf("checkpoint: state recorded under an incompatible configuration (compat %.12s…, machine wants %.12s…)",
			s.Compat, compat)
	}
	return nil
}

// Hash returns the content address of an encoded checkpoint blob:
// its SHA-256, in lowercase hex.
func Hash(blob []byte) string {
	h := sha256.Sum256(blob)
	return hex.EncodeToString(h[:])
}

// Library is a set of checkpoints recorded at the interval boundaries
// of one (machine, workload) pair — the live-points of checkpointed
// sampling. States[i] sits at Positions[i]; a sampled run restores
// each and simulates only its warmup+measure window in detail.
type Library struct {
	Machine   string   `json:"machine"`
	Workload  string   `json:"workload"`
	Compat    string   `json:"compat"`
	Period    uint64   `json:"period"`
	Limit     uint64   `json:"limit"`
	Positions []uint64 `json:"positions"`
	// Hashes are the content addresses of the encoded states, in
	// position order; a disk manifest carries these and the states
	// live as objects.
	Hashes []string `json:"hashes,omitempty"`
	// States are the in-memory checkpoints (nil entries in a manifest
	// loaded without its objects).
	States []*State `json:"-"`
}

// Check validates internal consistency.
func (l *Library) Check() error {
	if len(l.Positions) == 0 {
		return fmt.Errorf("checkpoint: library has no positions")
	}
	if len(l.States) != 0 && len(l.States) != len(l.Positions) {
		return fmt.Errorf("checkpoint: library has %d states for %d positions", len(l.States), len(l.Positions))
	}
	if len(l.Hashes) != 0 && len(l.Hashes) != len(l.Positions) {
		return fmt.Errorf("checkpoint: library has %d hashes for %d positions", len(l.Hashes), len(l.Positions))
	}
	for i := 1; i < len(l.Positions); i++ {
		if l.Positions[i] <= l.Positions[i-1] {
			return fmt.Errorf("checkpoint: library positions not strictly ascending at %d", i)
		}
	}
	return nil
}
