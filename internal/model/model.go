// Package model is the central backend registry: the single place
// that knows every timing model in the repository by name. A machine
// is its configuration value — a plain, comparable struct whose
// fingerprint is its cache identity. Every backend's config type
// implements core.Machine itself (Name, and a Run that returns a
// failing Check as an error), and Build, the one constructor, checks
// a config and returns it. Each backend registers a typed Descriptor
// (name, canonical configuration, fidelity tier, one-line
// description), and every consumer (the library facade, the service,
// the sweep engine, the validation experiments, the command-line
// tools) resolves machines through it. No layer above this package
// imports a concrete model package; the layering is enforced by a CI
// grep.
//
// Capability flags are not declared — they are *discovered*, by
// interface assertion against the config value
// (core.CheckpointRecorder, core.SampleCapable, core.StackCapable).
// A backend cannot claim a capability its type does not implement,
// and a new capability interface extends every descriptor at once.
package model

import (
	"errors"
	"fmt"

	"repro/internal/core"
)

// Tier is a backend's fidelity class. The three tiers trade accuracy
// for cost: detailed models simulate each cycle against the validated
// 21264 microarchitecture; simplified models simulate each cycle of a
// cruder pipeline; analytical models derive cycles from measured
// event counts without per-cycle simulation.
type Tier string

const (
	TierDetailed   Tier = "detailed"
	TierSimplified Tier = "simplified"
	TierAnalytical Tier = "analytical"
)

func (t Tier) valid() bool {
	switch t {
	case TierDetailed, TierSimplified, TierAnalytical:
		return true
	}
	return false
}

// ErrUnknownBackend is wrapped by every lookup and build failure for
// a name or configuration the registry does not know. Callers gate
// on it with errors.Is rather than matching message text.
var ErrUnknownBackend = errors.New("model: unknown backend")

// Capabilities reports what a backend can do, discovered by interface
// assertion (see Descriptor.Capabilities).
type Capabilities struct {
	// Checkpointable: the machine records restorable checkpoints
	// (core.CheckpointRecorder).
	Checkpointable bool `json:"checkpointable"`
	// Samplable: the machine honors Workload.Sample interval
	// sampling (core.SampleCapable).
	Samplable bool `json:"samplable"`
	// CPIStack: the machine's results carry a CPI-stack Breakdown
	// summing exactly to its cycles (core.StackCapable).
	CPIStack bool `json:"cpi_stack"`
}

// Descriptor registers one backend. Its Config is the machine: the
// config type implements core.Machine, Build(Config) checks and
// returns it, and the config's fingerprint content-addresses its
// results, so Config must be comparable structured data whose every
// field is observable — no closures or interfaces — and whose
// fingerprint changes whenever timing-relevant behavior does. Adding
// a backend means a config type with Check, Name and Run, an alias
// for it, and a Register call; Build needs no case for it.
type Descriptor struct {
	// Name is the registry key ("sim-alpha", "native-ds10l", ...).
	Name string
	// Description is the one-line catalogue entry.
	Description string
	// Tier is the fidelity class.
	Tier Tier
	// Config is the canonical configuration value (fingerprinted by
	// consumers; never mutated).
	Config any
}

// Capabilities discovers the backend's capability flags by asserting
// the relevant interfaces against its config, which is its machine.
func (d Descriptor) Capabilities() Capabilities {
	_, ckpt := d.Config.(core.CheckpointRecorder)
	_, smpl := d.Config.(core.SampleCapable)
	_, stack := d.Config.(core.StackCapable)
	return Capabilities{Checkpointable: ckpt, Samplable: smpl, CPIStack: stack}
}

// registry holds the backends in registration order; byName indexes
// it. Registration happens in this package's init (backends.go), so
// no locking is needed: the maps are read-only after init.
var (
	registry []Descriptor
	byName   = make(map[string]int)
)

// Register adds a backend. It panics on an empty or duplicate name,
// an invalid tier, or a Config that Build rejects — registration
// errors are programming errors, caught by the package's own tests.
func Register(d Descriptor) {
	if d.Name == "" {
		panic("model: Register with empty name")
	}
	if _, dup := byName[d.Name]; dup {
		panic(fmt.Sprintf("model: duplicate backend %q", d.Name))
	}
	if !d.Tier.valid() {
		panic(fmt.Sprintf("model: backend %q has invalid tier %q", d.Name, d.Tier))
	}
	if _, err := Build(d.Config); err != nil {
		panic(fmt.Sprintf("model: backend %q does not build: %v", d.Name, err))
	}
	byName[d.Name] = len(registry)
	registry = append(registry, d)
}

// Backends returns every registered backend in registration order
// (the canonical presentation order: reference first, then the
// detailed simulators, then the cheaper tiers).
func Backends() []Descriptor {
	out := make([]Descriptor, len(registry))
	copy(out, registry)
	return out
}

// ByName resolves a backend name. The bare model name is accepted as
// an alias: "interval" resolves to "sim-interval". Unknown names
// return an error wrapping ErrUnknownBackend that lists what is
// available.
func ByName(name string) (Descriptor, error) {
	if i, ok := byName[name]; ok {
		return registry[i], nil
	}
	if i, ok := byName["sim-"+name]; ok {
		return registry[i], nil
	}
	return Descriptor{}, fmt.Errorf("%w: %q (have %s)", ErrUnknownBackend, name, names())
}

// New constructs a fresh machine for a backend name: Build of its
// registered Config.
func New(name string) (core.Machine, error) {
	d, err := ByName(name)
	if err != nil {
		return nil, err
	}
	return Build(d.Config)
}

// MustNew constructs a machine for a name the caller knows is
// registered; it panics otherwise. For experiment tables and tests.
func MustNew(name string) core.Machine {
	m, err := New(name)
	if err != nil {
		panic(err)
	}
	return m
}

func names() string {
	s := ""
	for i, d := range registry {
		if i > 0 {
			s += ", "
		}
		s += d.Name
	}
	return s
}
