// Command simalpha runs one workload on one machine and reports
// timing results and event counters.
//
// Usage:
//
//	simalpha [-m machine] [-limit n] [-counters] <workload>
//	simalpha [-m machine] [-limit n] [-counters] -f program.s
//
// Machines: any registered backend (sim-alpha by default), native
// for native-ds10l, or sim-alpha-without-<feature>.
// Workloads: any microbenchmark (C-Ca ... M-IP, stream, lmbench) or
// macrobenchmark (gzip ... lucas).
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro"
)

func main() {
	machineName := flag.String("m", "sim-alpha", "machine to simulate")
	limit := flag.Uint64("limit", 0, "cap dynamic instructions (0 = run to completion)")
	counters := flag.Bool("counters", false, "print event counters")
	file := flag.String("f", "", "assemble and run an AXP-lite source file (or load a .axpl object)")
	trace := flag.String("trace", "", "replay a recorded .axpt dynamic trace")
	pipetrace := flag.Bool("pipetrace", false, "print per-instruction pipeline stage times (sim-alpha only)")
	flag.Parse()

	m, err := machine(*machineName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *pipetrace {
		if *machineName != "sim-alpha" {
			fmt.Fprintln(os.Stderr, "-pipetrace requires -m sim-alpha")
			os.Exit(2)
		}
		m = repro.SimAlphaTraced(os.Stdout)
	}
	var w repro.Workload
	switch {
	case *trace != "":
		w = repro.WorkloadFromTrace(strings.TrimSuffix(filepath.Base(*trace), filepath.Ext(*trace)), *trace)
	case *file != "":
		src, err := os.ReadFile(*file)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		name := strings.TrimSuffix(filepath.Base(*file), filepath.Ext(*file))
		var p *repro.Program
		if filepath.Ext(*file) == ".axpl" {
			p, err = repro.LoadProgram(bytes.NewReader(src))
		} else {
			p, err = repro.ParseProgram(name, string(src))
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		w = repro.NewWorkload(name, p)
	case flag.NArg() == 1:
		var ok bool
		w, ok = repro.WorkloadByName(flag.Arg(0))
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown workload %q\n", flag.Arg(0))
			os.Exit(2)
		}
	default:
		fmt.Fprintln(os.Stderr, "usage: simalpha [-m machine] [-limit n] [-counters] <workload> | -f prog.s")
		os.Exit(2)
	}
	if *limit > 0 {
		w.MaxInstructions = *limit
	}
	res, err := m.Run(w)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("machine:      %s\n", res.Machine)
	fmt.Printf("workload:     %s\n", res.Workload)
	fmt.Printf("instructions: %d\n", res.Instructions)
	fmt.Printf("cycles:       %d\n", res.Cycles)
	fmt.Printf("IPC:          %.4f\n", res.IPC())
	fmt.Printf("CPI:          %.4f\n", res.CPI())
	if *counters {
		keys := make([]string, 0, len(res.Counters))
		for k := range res.Counters {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Printf("  %-20s %d\n", k, res.Counters[k])
		}
	}
}

func machine(name string) (repro.Machine, error) {
	if name == "native" {
		return repro.NativeDS10L(), nil
	}
	if f, ok := strings.CutPrefix(name, "sim-alpha-without-"); ok {
		for _, known := range repro.FeatureNames() {
			if f == known {
				return repro.SimAlphaWithout(f), nil
			}
		}
		return nil, fmt.Errorf("unknown feature in %q (features: %s)",
			name, strings.Join(repro.FeatureNames(), " "))
	}
	// Every registered machine resolves through the backend registry.
	return repro.NewMachine(name)
}
