// Package sweep is the design-space exploration and auto-calibration
// subsystem. It generalizes the paper's central exercise — tuning an
// unvalidated simulator toward a reference machine by sweeping
// microarchitectural parameters and measuring which ones close the
// CPI gap — into a declarative engine:
//
//   - a Space is a base machine configuration plus a set of typed
//     Axes (issue width, ROB size, cache geometry, DRAM page policy,
//     predictor tables, modeling-bug switches, ...), each a field path
//     whose values are decoded over the base config by Override, the
//     strict JSON decoder that also reads a /v1/cell config, and
//     validated before anything runs;
//   - a Strategy enumerates Points of the space deterministically:
//     Grid (full cross product), Random (seeded sampling), and
//     OneFactorAtATime (the paper's Table 5 shape);
//   - the Engine runs every point's workload suite on the parallel
//     worker pool (internal/runner) with content-addressed
//     memoization (internal/simcache), so overlapping sweeps re-pay
//     nothing;
//   - Sensitivity ranks axes by how much they move CPI and its
//     per-component stack, and Calibrate runs coordinate descent
//     over the space minimizing mean |CPI error| against a reference
//     machine — the sim-initial → sim-alpha journey as a convergence
//     trace.
package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
)

// Axis is one swept knob: a named list of candidate values for one
// field of the base configuration. Field is a dot-separated path of
// exported struct fields ("ROB", "Hier.L2.SizeBytes", "DRAM.OpenPage",
// "Bugs.LateBranchRecovery"). The first value conventionally equals
// the base configuration's own value, so index 0 is the natural
// baseline for one-factor-at-a-time exploration.
type Axis struct {
	Name   string
	Field  string
	Values []any
}

// Ints builds an integer-valued axis.
func Ints(name, field string, vals ...int) Axis {
	a := Axis{Name: name, Field: field}
	for _, v := range vals {
		a.Values = append(a.Values, v)
	}
	return a
}

// Bools builds a boolean-valued axis.
func Bools(name, field string, vals ...bool) Axis {
	a := Axis{Name: name, Field: field}
	for _, v := range vals {
		a.Values = append(a.Values, v)
	}
	return a
}

// Space is a design space: a base configuration (a machine config
// struct such as alpha.Config) and the axes swept over it. Check
// validates the whole space against the base config's type before
// any simulation runs.
type Space struct {
	Base any
	Axes []Axis
}

// Point is one assignment of the space: for each axis, an index into
// its Values.
type Point []int

// Clone returns an independent copy of the point.
func (p Point) Clone() Point {
	out := make(Point, len(p))
	copy(out, p)
	return out
}

// Equal reports whether two points select the same values.
func (p Point) Equal(q Point) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// Origin returns the all-zeros point: every axis at its first value.
func (s *Space) Origin() Point { return make(Point, len(s.Axes)) }

// Size returns the number of points in the full cross product,
// saturating at math.MaxInt on overflow.
func (s *Space) Size() int {
	n := 1
	for _, a := range s.Axes {
		if len(a.Values) == 0 {
			return 0
		}
		if n > math.MaxInt/len(a.Values) {
			return math.MaxInt
		}
		n *= len(a.Values)
	}
	return n
}

// Check validates the space: the base must be a struct, axis names
// must be unique, every axis field path must name an exported field
// of the base config, by exact name, and every axis value must decode
// into that field's type by encoding/json's rules, so a fraction for
// an integer field, a negative value for an unsigned one, or a value
// that overflows its field is an error. Axes over
// fingerprint-opaque kinds (funcs, channels) are rejected outright:
// internal/simcache.Fingerprint renders those by type only, so two
// different values would alias to the same cache key and a sweep
// would silently serve one point's results for another. So is a nil
// value: a JSON null leaves its field alone, so every point would
// alias the base. So are two axes on one field, or one axis inside
// another's field ("DDR" and "DDR.TCL"): the later axis would
// silently override the earlier, making differently labelled points
// one config under one cache key.
func (s *Space) Check() error {
	if s.Base == nil {
		return fmt.Errorf("sweep: space has no base config")
	}
	bt := reflect.TypeOf(s.Base)
	if bt.Kind() != reflect.Struct {
		return fmt.Errorf("sweep: base config must be a struct, got %T", s.Base)
	}
	if len(s.Axes) == 0 {
		return fmt.Errorf("sweep: space has no axes")
	}
	seen := make(map[string]bool, len(s.Axes))
	fields := make([][]int, len(s.Axes))
	for i, a := range s.Axes {
		if a.Name == "" {
			return fmt.Errorf("sweep: axis %d has no name", i)
		}
		if seen[a.Name] {
			return fmt.Errorf("sweep: duplicate axis name %q", a.Name)
		}
		seen[a.Name] = true
		if len(a.Values) == 0 {
			return fmt.Errorf("sweep: axis %q has no values", a.Name)
		}
		ft, index, err := fieldType(bt, a.Field)
		if err != nil {
			return fmt.Errorf("sweep: axis %q: %w", a.Name, err)
		}
		for j, other := range fields[:i] {
			if overlaps(index, other) {
				return fmt.Errorf("sweep: axes %q (%s) and %q (%s) set overlapping fields; the later would override the earlier",
					s.Axes[j].Name, s.Axes[j].Field, a.Name, a.Field)
			}
		}
		fields[i] = index
		switch ft.Kind() {
		case reflect.Func, reflect.Chan, reflect.UnsafePointer:
			return fmt.Errorf("sweep: axis %q: field %q has fingerprint-opaque kind %s; sweeping it would alias distinct points to one cache key",
				a.Name, a.Field, ft.Kind())
		}
		// The values decode as one JSON array, element by element, so
		// an error names its value. Each decodes through a pointer,
		// which a JSON null leaves nil.
		raw, err := json.Marshal(a.Values)
		if err != nil {
			return fmt.Errorf("sweep: axis %q: %w", a.Name, err)
		}
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		dec.Token() // the array's opening bracket
		for vi, val := range a.Values {
			v := reflect.New(reflect.PointerTo(ft))
			if err := dec.Decode(v.Interface()); err != nil {
				return fmt.Errorf("sweep: axis %q value %d: cannot assign %T to field of type %s: %w",
					a.Name, vi, val, ft, err)
			}
			if v.Elem().IsNil() {
				return fmt.Errorf("sweep: axis %q value %d: nil is not a valid axis value", a.Name, vi)
			}
		}
	}
	return nil
}

// Config returns the base configuration with the point's value
// applied on every axis: one JSON overlay built from the axes' field
// paths, decoded over the base by Override. The result is a fresh
// value of the base's type; the base itself is never mutated.
func (s *Space) Config(p Point) (any, error) {
	if len(p) != len(s.Axes) {
		return nil, fmt.Errorf("sweep: point has %d coordinates, space has %d axes", len(p), len(s.Axes))
	}
	// The overlay's own objects have their own type, so a path never
	// descends into an axis value that happens to be a JSON object.
	type object map[string]any
	overlay := object{}
	for i, a := range s.Axes {
		if p[i] < 0 || p[i] >= len(a.Values) {
			return nil, fmt.Errorf("sweep: axis %q index %d out of range [0,%d)", a.Name, p[i], len(a.Values))
		}
		obj := overlay
		parts := strings.Split(a.Field, ".")
		for _, part := range parts[:len(parts)-1] {
			next, ok := obj[part].(object)
			if !ok {
				next = object{}
				obj[part] = next
			}
			obj = next
		}
		obj[parts[len(parts)-1]] = a.Values[p[i]]
	}
	raw, err := json.Marshal(overlay)
	if err != nil {
		return nil, fmt.Errorf("sweep: %w", err)
	}
	cfg, err := Override(s.Base, raw)
	if err != nil {
		return nil, fmt.Errorf("sweep: point %s: %w", s.Label(p), err)
	}
	return cfg, nil
}

// Override returns base, a config struct, with raw decoded over a copy
// of it: raw is a JSON object whose omitted fields keep base's values,
// so {"ROB":20} over sim-alpha's config is its ROB-20 point, and an
// empty raw is base itself.
// Decoding is strict: an unknown or unexported field, or a value its
// field cannot hold without loss, is an error.
func Override(base any, raw json.RawMessage) (any, error) {
	// A pointer base would be decoded through, overwriting what it
	// points to.
	bt := reflect.TypeOf(base)
	if bt == nil || bt.Kind() != reflect.Struct {
		return nil, fmt.Errorf("config: base must be a struct, got %T", base)
	}
	if len(raw) == 0 {
		return base, nil
	}
	cfg := reflect.New(bt)
	cfg.Elem().Set(reflect.ValueOf(base))
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(cfg.Interface()); err != nil {
		return nil, fmt.Errorf("config: %w", err)
	}
	return cfg.Elem().Interface(), nil
}

// Label renders a point as "axis=value" pairs in axis order.
func (s *Space) Label(p Point) string {
	var b strings.Builder
	for i, a := range s.Axes {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(a.Name)
		b.WriteByte('=')
		b.WriteString(s.ValueLabel(i, p[i]))
	}
	return b.String()
}

// ValueLabel renders one axis value.
func (s *Space) ValueLabel(axis, vi int) string {
	if axis < 0 || axis >= len(s.Axes) {
		return "?"
	}
	a := s.Axes[axis]
	if vi < 0 || vi >= len(a.Values) {
		return "?"
	}
	return fmt.Sprint(a.Values[vi])
}

// fieldType resolves a dot-separated path of exported struct
// fields, matched by exact name, to the named field's type and its
// index sequence from the base (as reflect.Value.FieldByIndex takes
// it).
func fieldType(t reflect.Type, path string) (reflect.Type, []int, error) {
	var index []int
	for _, part := range strings.Split(path, ".") {
		if t.Kind() != reflect.Struct {
			return nil, nil, fmt.Errorf("field path %q: %q is not reachable through a struct", path, part)
		}
		f, ok := t.FieldByName(part)
		if !ok {
			return nil, nil, fmt.Errorf("field path %q: no field %q in %s", path, part, t)
		}
		if !f.IsExported() {
			return nil, nil, fmt.Errorf("field path %q resolves to an unexported field", path)
		}
		index = append(index, f.Index...)
		t = f.Type
	}
	return t, index, nil
}

// overlaps reports whether two field index sequences name the same
// field or one field inside the other.
func overlaps(a, b []int) bool {
	n := min(len(a), len(b))
	return slices.Equal(a[:n], b[:n])
}

// Strategy enumerates the points of a space to explore, in a
// deterministic order: the same strategy on the same space always
// yields the same sequence, which is what makes sweep output
// reproducible and cache-friendly.
type Strategy interface {
	Name() string
	Enumerate(s *Space) ([]Point, error)
}

// Grid explores the full cross product in lexicographic order (first
// axis slowest, last axis fastest).
type Grid struct{}

// Name implements Strategy.
func (Grid) Name() string { return "grid" }

// Enumerate implements Strategy.
func (Grid) Enumerate(s *Space) ([]Point, error) {
	n := s.Size()
	if n == 0 {
		return nil, fmt.Errorf("sweep: grid over an empty space")
	}
	if n == math.MaxInt {
		return nil, fmt.Errorf("sweep: grid too large to enumerate")
	}
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = pointAt(s, i)
	}
	return pts, nil
}

// pointAt decodes a linear grid index into a point (mixed-radix,
// last axis fastest).
func pointAt(s *Space, idx int) Point {
	p := make(Point, len(s.Axes))
	for i := len(s.Axes) - 1; i >= 0; i-- {
		k := len(s.Axes[i].Values)
		p[i] = idx % k
		idx /= k
	}
	return p
}

// Random samples N distinct points uniformly, deterministically from
// the seed. When N covers the whole space it degrades to the full
// grid.
type Random struct {
	Seed int64
	N    int
}

// Name implements Strategy.
func (r Random) Name() string { return fmt.Sprintf("random(seed=%d,n=%d)", r.Seed, r.N) }

// Enumerate implements Strategy.
func (r Random) Enumerate(s *Space) ([]Point, error) {
	if r.N <= 0 {
		return nil, fmt.Errorf("sweep: random strategy needs n > 0")
	}
	size := s.Size()
	if size == 0 {
		return nil, fmt.Errorf("sweep: random sample of an empty space")
	}
	if r.N >= size && size != math.MaxInt {
		return Grid{}.Enumerate(s)
	}
	rng := rand.New(rand.NewSource(r.Seed))
	if size != math.MaxInt && size <= 4*r.N {
		// Dense sample: shuffle the whole index range and take N, so
		// enumeration terminates without rejection.
		perm := rng.Perm(size)
		pts := make([]Point, 0, r.N)
		for _, idx := range perm[:r.N] {
			pts = append(pts, pointAt(s, idx))
		}
		return pts, nil
	}
	// Sparse sample: rejection over linear indices; collisions are
	// rare because the space is at least 4× the sample.
	seen := make(map[int]bool, r.N)
	pts := make([]Point, 0, r.N)
	for len(pts) < r.N {
		idx := rng.Intn(size)
		if seen[idx] {
			continue
		}
		seen[idx] = true
		pts = append(pts, pointAt(s, idx))
	}
	return pts, nil
}

// OneFactorAtATime explores the baseline point plus, for each axis,
// every alternative value with all other axes held at baseline —
// the paper's Table 5 shape, and the input Sensitivity consumes.
type OneFactorAtATime struct {
	// Baseline selects the reference point (nil = Origin).
	Baseline Point
}

// Name implements Strategy.
func (OneFactorAtATime) Name() string { return "ofat" }

// Enumerate implements Strategy. The baseline is always the first
// point; alternatives follow in axis order, then value order.
func (o OneFactorAtATime) Enumerate(s *Space) ([]Point, error) {
	base := o.Baseline
	if base == nil {
		base = s.Origin()
	}
	if len(base) != len(s.Axes) {
		return nil, fmt.Errorf("sweep: baseline has %d coordinates, space has %d axes", len(base), len(s.Axes))
	}
	pts := []Point{base.Clone()}
	for i, a := range s.Axes {
		if base[i] < 0 || base[i] >= len(a.Values) {
			return nil, fmt.Errorf("sweep: baseline index %d out of range for axis %q", base[i], a.Name)
		}
		for vi := range a.Values {
			if vi == base[i] {
				continue
			}
			p := base.Clone()
			p[i] = vi
			pts = append(pts, p)
		}
	}
	return pts, nil
}
