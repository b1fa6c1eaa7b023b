// Command validate regenerates the paper's tables and figures
// against the in-repo reference machine.
//
// Usage:
//
//	validate [-j N] [-list] [experiment ...]
//
// With no experiment arguments it runs everything in paper order;
// otherwise it runs only the named experiments, still in paper order.
// -list prints the experiment registry (shared with the simd service)
// and exits.
//
// -j sets how many simulation cells run concurrently (default: all
// CPUs). Output is byte-identical at every -j because results are
// merged by cell, never by completion order.
//
// Every experiment runs even when one fails; failures are reported on
// stderr with a trailing summary line, and the exit status is 1 when
// any experiment failed. An unknown experiment name exits 2 before
// anything runs.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"repro/internal/validate"
)

func main() {
	jobs := flag.Int("j", 0, "concurrent simulation cells (0 = all CPUs)")
	list := flag.Bool("list", false, "list registered experiments and exit")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: validate [-j N] [-list] [experiment ...]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, e := range validate.Experiments() {
			fmt.Printf("%-11s %s\n", e.Name, e.Title)
		}
		return
	}
	// The experiments come from the same registry the simd service
	// routes /v1/experiment/{name} through, so the two can never
	// disagree about which experiments exist.
	os.Exit(run(validate.Experiments(), flag.Args(),
		validate.Options{Parallelism: *jobs}, os.Stdout, os.Stderr))
}

// run executes the named experiments, or all of them when names is
// empty, one after another in the order of exps, whatever the order
// of names; each is internally parallel across its own cells. It
// prints each output to stdout as it completes and each failure to
// stderr, runs the rest past a failure, and returns the exit status:
// 0, 1 when any experiment failed, or 2 for an unknown name, reported
// before anything runs.
func run(exps []validate.Experiment, names []string, opt validate.Options, stdout, stderr io.Writer) int {
	have := make([]string, len(exps))
	for i, e := range exps {
		have[i] = e.Name
	}
	for _, name := range names {
		if !slices.Contains(have, name) {
			fmt.Fprintf(stderr, "validate: unknown experiment %q (have: %s)\n",
				name, strings.Join(have, ", "))
			return 2
		}
	}

	var failures []string
	ran := 0
	for _, e := range exps {
		if len(names) > 0 && !slices.Contains(names, e.Name) {
			continue
		}
		ran++
		out, err := e.Run(opt)
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", e.Name, err)
			failures = append(failures, e.Name)
			continue
		}
		fmt.Fprintln(stdout, out)
	}
	if len(failures) > 0 {
		fmt.Fprintf(stderr, "validate: %d of %d experiments failed: %s\n",
			len(failures), ran, strings.Join(failures, ", "))
		return 1
	}
	return 0
}
