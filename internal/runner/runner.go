// Package runner is the parallel experiment engine. Every experiment
// in this repository decomposes into independent (machine × workload)
// simulation cells; runner fans those cells out across a bounded
// worker pool and merges the results deterministically.
//
// Determinism is the load-bearing property: results are keyed by the
// cell's input index and assembled in input order, never in
// completion order, so a parallel run renders byte-identically to a
// serial one. That is what lets the golden-table regression tests
// compare parallel output against the checked-in serial reference.
package runner

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
)

// Workers normalizes a parallelism knob: n if positive, otherwise
// GOMAXPROCS (the number of cores the runtime will actually use).
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// CellError reports the failure of one cell, preserving its input
// index so callers can tell which unit of the experiment failed.
type CellError struct {
	Index int
	Err   error
}

// Error implements error.
func (e CellError) Error() string {
	return fmt.Sprintf("cell %d: %v", e.Index, e.Err)
}

// Unwrap exposes the underlying cause to errors.Is/As.
func (e CellError) Unwrap() error { return e.Err }

// Map applies f to every item on up to Workers(parallelism)
// goroutines and returns the results in input order. f receives the
// item's index and the item; it must not touch shared mutable state.
//
// Every cell runs even when earlier cells fail: the returned error is
// the index-ordered join of all per-cell errors (each wrapped in a
// CellError), and the result slice holds the zero value at failed
// indices. A panic inside f is recovered and reported as that cell's
// error rather than tearing down the process.
func Map[T, R any](parallelism int, items []T, f func(i int, item T) (R, error)) ([]R, error) {
	n := len(items)
	if n == 0 {
		return nil, nil
	}
	workers := Workers(parallelism)
	if workers > n {
		workers = n
	}

	results := make([]R, n)
	errs := make([]error, n)
	run := func(i int) {
		defer func() {
			if p := recover(); p != nil {
				errs[i] = fmt.Errorf("panic: %v", p)
			}
		}()
		results[i], errs[i] = f(i, items[i])
	}

	if workers == 1 {
		// Degenerate pool: run inline, sparing the scheduler.
		for i := range items {
			run(i)
		}
	} else {
		indices := make(chan int)
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for i := range indices {
					run(i)
				}
			}()
		}
		for i := range items {
			indices <- i
		}
		close(indices)
		wg.Wait()
	}

	var joined []error
	for i, err := range errs {
		if err != nil {
			joined = append(joined, CellError{Index: i, Err: err})
		}
	}
	return results, errors.Join(joined...)
}
