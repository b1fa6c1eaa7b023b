// Package bounds range-checks the integer fields of machine
// configurations. A sweep axis or a /v1/cell request can set any
// exported field of a config, and most of them size an allocation or
// a wait measured in cycles, so every Check gives each field a
// constant range: a value outside it is a client error, reported
// before a machine is built, never an out-of-memory crash or a
// simulation that cannot finish.
package bounds

import "fmt"

// MaxCycles bounds every latency and penalty field, the same limit
// internal/ddr puts on its command timings.
const MaxCycles = 4096

// Int is one integer field and its inclusive range.
type Int struct {
	Name   string
	V      int
	Lo, Hi int
}

// Check returns an error, prefixed by pkg, naming the first field
// outside its range.
func Check(pkg string, fields ...Int) error {
	for _, f := range fields {
		if f.V < f.Lo || f.V > f.Hi {
			return fmt.Errorf("%s: %s %d out of range [%d,%d]", pkg, f.Name, f.V, f.Lo, f.Hi)
		}
	}
	return nil
}

// Pow2 reports whether v is a positive power of two.
func Pow2(v int) bool { return v > 0 && v&(v-1) == 0 }
