package model

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/macrobench"
)

// intField is one integer field of a config: its dotted path and its
// reflect index path.
type intField struct {
	path  string
	index []int
}

// intFields lists every integer field reachable through t's struct
// fields, in declaration order: the fields a sweep axis or a /v1/cell
// request can set to any number.
func intFields(t reflect.Type, prefix string, index []int) []intField {
	var out []intField
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		at := append(append([]int(nil), index...), i)
		switch f.Type.Kind() {
		case reflect.Struct:
			out = append(out, intFields(f.Type, prefix+f.Name+".", at)...)
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			out = append(out, intField{prefix + f.Name, at})
		}
	}
	return out
}

// maxCellAlloc bounds what one short cell may allocate. The largest
// configs the bounds admit (64 MB caches, 2^20-entry predictor tables)
// stay well inside it; an unbounded geometry does not.
const maxCellAlloc = 512 << 20

// FuzzBuildOneField sets one integer field of a registered config —
// backend b, field i, both taken modulo their counts — to v. Build
// must either reject the config or return a machine that runs a short
// cell to completion, without panicking and within maxCellAlloc. A
// rejected config's own Run must fail the same cell without
// panicking, since a config is a machine any layer can run. The
// committed corpus holds inputs that once crashed or wedged a daemon:
// sim-alpha ROB 2^36 (an out-of-memory throw), sim-outorder
// Hier.L2.HitLatency 2^40 (a run that could not finish), sim-inorder
// BimodalBits -1 (a negative shift) and sim-alpha ROB 2.
func FuzzBuildOneField(f *testing.F) {
	backends := Backends()
	fields := make([][]intField, len(backends))
	for j, d := range backends {
		fields[j] = intFields(reflect.TypeOf(d.Config), "", nil)
	}
	gzip, ok := macrobench.ByName("gzip")
	if !ok {
		f.Fatal("no gzip workload")
	}
	w := gzip.Capped(2000)

	f.Fuzz(func(t *testing.T, b, i int, v int64) {
		b = mod(b, len(backends))
		d, fs := backends[b], fields[b]
		field := fs[mod(i, len(fs))]
		cfg := reflect.New(reflect.TypeOf(d.Config)).Elem()
		cfg.Set(reflect.ValueOf(d.Config))
		if fv := cfg.FieldByIndex(field.index); fv.CanInt() {
			fv.SetInt(v)
		} else {
			fv.SetUint(uint64(v))
		}
		m, err := Build(cfg.Interface())
		if err != nil {
			if _, runErr := cfg.Interface().(core.Machine).Run(w); runErr == nil {
				t.Fatalf("%s with %s = %d failed Build (%v) but its Run succeeded", d.Name, field.path, v, err)
			}
			return
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := m.Run(w); err != nil {
			t.Fatalf("%s with %s = %d passed Check but failed to run: %v", d.Name, field.path, v, err)
		}
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > maxCellAlloc {
			t.Fatalf("%s with %s = %d allocated %d MB in one short cell", d.Name, field.path, v, grew>>20)
		}
	})
}

// mod maps any int onto [0, n).
func mod(x, n int) int {
	if x %= n; x < 0 {
		x += n
	}
	return x
}
