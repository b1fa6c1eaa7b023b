// Package fingerprint renders configuration values into canonical,
// deterministic strings. It is the common content-addressing
// primitive behind the simcache result cache and the checkpoint
// compatibility fingerprints: two values with equal observable
// (exported, non-opaque) content always render identically, and any
// change to an exported scalar field always changes the rendering.
package fingerprint

import (
	"fmt"
	"reflect"
	"sort"
	"strconv"
	"strings"
)

// Of renders an arbitrary configuration value into a
// canonical, deterministic string for use as a cache-key or compatibility part. The
// rendering is defined by what it observes and — just as load-bearing
// for cache correctness — what it deliberately skips:
//
//   - Struct fields are rendered in declaration order. Unexported
//     fields are SKIPPED entirely: they are private state, not
//     observable configuration, so two values differing only in
//     unexported fields fingerprint identically. Never carry
//     semantics a cache key must distinguish in an unexported field.
//   - Pointers and interfaces are dereferenced; only the pointee's
//     content is rendered, never its address, so two pointers to
//     equal values alias (that is the point: content addressing).
//     Nil renders as "<nil>".
//   - Function, channel, and unsafe-pointer values contribute only
//     their static type and nil-ness. Two DIFFERENT non-nil closures
//     of the same type therefore fingerprint identically, so a value
//     whose fingerprint is its identity must not carry one: machine
//     configs describe even their page-mapping policy as a plain
//     value (vm.Mapping), and sweep.Space.Check rejects axes over
//     fingerprint-opaque fields outright.
//   - Map entries are sorted by their rendered form; slices and
//     arrays keep element order.
//   - Floats render in shortest 64-bit round-trip form, so equal
//     values fingerprint equally regardless of how they were written.
//
// Under that contract, two configurations with equal observable
// (exported, non-opaque) content always fingerprint identically, and
// any change to a single exported scalar field — a mutated sweep
// point — always changes the fingerprint.
func Of(v any) string {
	var b strings.Builder
	writeCanonical(&b, reflect.ValueOf(v))
	return b.String()
}

func writeCanonical(b *strings.Builder, v reflect.Value) {
	if !v.IsValid() {
		b.WriteString("<nil>")
		return
	}
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			b.WriteString("<nil>")
		} else {
			writeCanonical(b, v.Elem())
		}
	case reflect.Struct:
		t := v.Type()
		b.WriteString(t.String())
		b.WriteByte('{')
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if f.PkgPath != "" { // unexported: not observable content
				continue
			}
			b.WriteString(f.Name)
			b.WriteByte('=')
			writeCanonical(b, v.Field(i))
			b.WriteByte(';')
		}
		b.WriteByte('}')
	case reflect.Map:
		kvs := make([]string, 0, v.Len())
		iter := v.MapRange()
		for iter.Next() {
			var kv strings.Builder
			writeCanonical(&kv, iter.Key())
			kv.WriteByte(':')
			writeCanonical(&kv, iter.Value())
			kvs = append(kvs, kv.String())
		}
		sort.Strings(kvs)
		b.WriteString("map[")
		for _, kv := range kvs {
			b.WriteString(kv)
			b.WriteByte(';')
		}
		b.WriteByte(']')
	case reflect.Slice, reflect.Array:
		b.WriteByte('[')
		for i := 0; i < v.Len(); i++ {
			writeCanonical(b, v.Index(i))
			b.WriteByte(';')
		}
		b.WriteByte(']')
	case reflect.Func, reflect.Chan, reflect.UnsafePointer:
		if v.Kind() != reflect.UnsafePointer && v.IsNil() {
			b.WriteString("<nil>")
		} else {
			fmt.Fprintf(b, "<opaque %s>", v.Type())
		}
	case reflect.String:
		b.WriteString(strconv.Quote(v.String()))
	case reflect.Bool:
		b.WriteString(strconv.FormatBool(v.Bool()))
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		b.WriteString(strconv.FormatInt(v.Int(), 10))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		b.WriteString(strconv.FormatUint(v.Uint(), 10))
	case reflect.Float32, reflect.Float64:
		b.WriteString(strconv.FormatFloat(v.Float(), 'g', -1, 64))
	case reflect.Complex64, reflect.Complex128:
		fmt.Fprintf(b, "%v", v.Complex())
	default:
		fmt.Fprintf(b, "<unhandled %s>", v.Type())
	}
}
