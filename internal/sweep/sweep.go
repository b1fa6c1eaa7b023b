// Package sweep is the design-space exploration and auto-calibration
// subsystem. It generalizes the paper's central exercise — tuning an
// unvalidated simulator toward a reference machine by sweeping
// microarchitectural parameters and measuring which ones close the
// CPI gap — into a declarative engine:
//
//   - a Space is a base machine configuration plus a set of typed
//     Axes (issue width, ROB size, cache geometry, DRAM page policy,
//     predictor tables, modeling-bug switches, ...), each applied to
//     the base config through a reflection-safe field setter that is
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
	"fmt"
	"math"
	"math/rand"
	"reflect"
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
// must be unique, every axis field path must resolve to an exported,
// settable field of the base config, and every axis value must be
// assignable (or losslessly convertible) to its field. Axes over
// fingerprint-opaque kinds (funcs, channels) are rejected outright:
// internal/simcache.Fingerprint renders those by type only, so two
// different values would alias to the same cache key and a sweep
// would silently serve one point's results for another.
func (s *Space) Check() error {
	if s.Base == nil {
		return fmt.Errorf("sweep: space has no base config")
	}
	bv := reflect.ValueOf(s.Base)
	for bv.Kind() == reflect.Pointer {
		if bv.IsNil() {
			return fmt.Errorf("sweep: base config is a nil pointer")
		}
		bv = bv.Elem()
	}
	if bv.Kind() != reflect.Struct {
		return fmt.Errorf("sweep: base config must be a struct, got %T", s.Base)
	}
	if len(s.Axes) == 0 {
		return fmt.Errorf("sweep: space has no axes")
	}
	scratch := reflect.New(bv.Type()).Elem()
	scratch.Set(bv)
	seen := make(map[string]bool, len(s.Axes))
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
		f, err := fieldByPath(scratch, a.Field)
		if err != nil {
			return fmt.Errorf("sweep: axis %q: %w", a.Name, err)
		}
		switch f.Kind() {
		case reflect.Func, reflect.Chan, reflect.UnsafePointer:
			return fmt.Errorf("sweep: axis %q: field %q has fingerprint-opaque kind %s; sweeping it would alias distinct points to one cache key",
				a.Name, a.Field, f.Kind())
		}
		for vi, val := range a.Values {
			if err := assign(f, val); err != nil {
				return fmt.Errorf("sweep: axis %q value %d: %w", a.Name, vi, err)
			}
		}
	}
	return nil
}

// Config returns the base configuration with the point's value
// applied on every axis. The result is a fresh value of the base's
// type; the base itself is never mutated.
func (s *Space) Config(p Point) (any, error) {
	if len(p) != len(s.Axes) {
		return nil, fmt.Errorf("sweep: point has %d coordinates, space has %d axes", len(p), len(s.Axes))
	}
	bv := reflect.ValueOf(s.Base)
	for bv.Kind() == reflect.Pointer {
		if bv.IsNil() {
			return nil, fmt.Errorf("sweep: base config is a nil pointer")
		}
		bv = bv.Elem()
	}
	cfg := reflect.New(bv.Type()).Elem()
	cfg.Set(bv)
	for i, a := range s.Axes {
		if p[i] < 0 || p[i] >= len(a.Values) {
			return nil, fmt.Errorf("sweep: axis %q index %d out of range [0,%d)", a.Name, p[i], len(a.Values))
		}
		f, err := fieldByPath(cfg, a.Field)
		if err != nil {
			return nil, fmt.Errorf("sweep: axis %q: %w", a.Name, err)
		}
		if err := assign(f, a.Values[p[i]]); err != nil {
			return nil, fmt.Errorf("sweep: axis %q: %w", a.Name, err)
		}
	}
	return cfg.Interface(), nil
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

// fieldByPath walks a dot-separated path of exported struct fields,
// dereferencing pointers along the way, and returns the addressable
// destination field.
func fieldByPath(v reflect.Value, path string) (reflect.Value, error) {
	if path == "" {
		return reflect.Value{}, fmt.Errorf("empty field path")
	}
	for _, part := range strings.Split(path, ".") {
		for v.Kind() == reflect.Pointer {
			if v.IsNil() {
				return reflect.Value{}, fmt.Errorf("field path %q crosses a nil pointer at %q", path, part)
			}
			v = v.Elem()
		}
		if v.Kind() != reflect.Struct {
			return reflect.Value{}, fmt.Errorf("field path %q: %q is not reachable through a struct", path, part)
		}
		f := v.FieldByName(part)
		if !f.IsValid() {
			return reflect.Value{}, fmt.Errorf("field path %q: no field %q in %s", path, part, v.Type())
		}
		v = f
	}
	if !v.CanSet() {
		return reflect.Value{}, fmt.Errorf("field path %q resolves to an unsettable (unexported?) field", path)
	}
	return v, nil
}

// assign sets dst to val, allowing lossless numeric conversions (a
// JSON-decoded float64 may target an int field). Lossy assignments —
// truncation, overflow, sign flips — are errors, never silent.
func assign(dst reflect.Value, val any) error {
	if val == nil {
		return fmt.Errorf("nil is not a valid axis value")
	}
	rv := reflect.ValueOf(val)
	if rv.Type().AssignableTo(dst.Type()) {
		dst.Set(rv)
		return nil
	}
	if !rv.Type().ConvertibleTo(dst.Type()) {
		return fmt.Errorf("cannot assign %T to field of type %s", val, dst.Type())
	}
	if !isNumeric(rv.Kind()) || !isNumeric(dst.Kind()) {
		return fmt.Errorf("cannot assign %T to field of type %s", val, dst.Type())
	}
	// Same-width int<->uint conversions wrap and round-trip cleanly,
	// so sign violations need explicit checks.
	if isSigned(rv.Kind()) && isUnsigned(dst.Kind()) && rv.Int() < 0 {
		return fmt.Errorf("negative value %v cannot fill unsigned field type %s", val, dst.Type())
	}
	if isUnsigned(rv.Kind()) && isSigned(dst.Kind()) && rv.Uint() > math.MaxInt64 {
		return fmt.Errorf("value %v overflows signed field type %s", val, dst.Type())
	}
	conv := rv.Convert(dst.Type())
	// Lossless iff converting back reproduces the original exactly;
	// catches truncation (48.5 -> int) and width overflow.
	back := conv.Convert(rv.Type())
	if !back.Equal(rv) {
		return fmt.Errorf("value %v does not fit field type %s without loss", val, dst.Type())
	}
	dst.Set(conv)
	return nil
}

func isSigned(k reflect.Kind) bool {
	return k >= reflect.Int && k <= reflect.Int64
}

func isUnsigned(k reflect.Kind) bool {
	return k >= reflect.Uint && k <= reflect.Uintptr
}

func isNumeric(k reflect.Kind) bool {
	switch k {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64:
		return true
	}
	return false
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
