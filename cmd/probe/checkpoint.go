// The checkpoint subcommands. Unlike the rest of probe these are
// local operations, not HTTP calls: a checkpoint library is recorded
// by running a simulator in this process and saved into an on-disk
// content-addressed store (-dir) with the layout a simd -store uses.
// Only probe and the benchmark harness load libraries back; no
// service route serves them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"

	"repro"
	"repro/internal/core"
	"repro/internal/diskstore"
)

// defaultStoreDir matches nothing in simd by default — the store
// location is an operator choice — but gives the subcommands a sane
// shared default for local use.
const defaultStoreDir = "simstore"

// localMachine builds a registered machine that records checkpoints.
func localMachine(name string) (repro.Machine, error) {
	m, err := repro.NewMachine(name)
	if err != nil {
		return nil, err
	}
	if _, ok := m.(core.CheckpointRecorder); !ok {
		return nil, fmt.Errorf("machine %q does not record checkpoints", m.Name())
	}
	return m, nil
}

func cmdCheckpoint(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("checkpoint: want save, ls, or restore")
	}
	switch args[0] {
	case "save":
		return cmdCheckpointSave(args[1:])
	case "ls":
		return cmdCheckpointLs(args[1:])
	case "restore":
		return cmdCheckpointRestore(args[1:])
	}
	return fmt.Errorf("checkpoint: unknown subcommand %q (want save, ls, or restore)", args[0])
}

// cmdCheckpointSave records a checkpoint library for each workload
// and stores it: one functional pass per workload, a warmed snapshot
// at every interval boundary, states content-addressed in the store.
func cmdCheckpointSave(args []string) error {
	fs := flag.NewFlagSet("checkpoint save", flag.ExitOnError)
	machine := fs.String("m", "sim-alpha", "machine model to record with")
	limit := fs.Uint64("limit", 0, "dynamic instruction cap (0 = workload length)")
	dir := fs.String("dir", defaultStoreDir, "checkpoint store directory")
	fs.Parse(args)
	if fs.NArg() < 1 {
		return fmt.Errorf("checkpoint save: at least one workload is required")
	}
	m, err := localMachine(*machine)
	if err != nil {
		return err
	}
	store, err := diskstore.Open(*dir)
	if err != nil {
		return err
	}
	for _, name := range fs.Args() {
		w, ok := repro.WorkloadByName(name)
		if !ok {
			return fmt.Errorf("unknown workload %q", name)
		}
		w = w.Capped(*limit)
		if w.MaxInstructions == 0 {
			return fmt.Errorf("workload %q has no instruction bound; pass -limit", name)
		}
		plan := repro.CheckpointLibraryPlan(w.MaxInstructions)
		lib, err := repro.BuildCheckpointLibrary(m, w, plan)
		if err != nil {
			return fmt.Errorf("recording %s: %w", name, err)
		}
		path, err := store.SaveLibrary(lib)
		if err != nil {
			return fmt.Errorf("saving %s: %w", name, err)
		}
		fmt.Printf("%-10s %-14s %3d checkpoints  period %-8d limit %-10d %s\n",
			lib.Workload, lib.Machine, len(lib.Positions), lib.Period, lib.Limit, path)
	}
	return nil
}

// cmdCheckpointLs lists every stored library manifest.
func cmdCheckpointLs(args []string) error {
	fs := flag.NewFlagSet("checkpoint ls", flag.ExitOnError)
	dir := fs.String("dir", defaultStoreDir, "checkpoint store directory")
	fs.Parse(args)
	store, err := diskstore.Open(*dir)
	if err != nil {
		return err
	}
	libs, err := store.Libraries()
	if err != nil {
		return err
	}
	if len(libs) == 0 {
		fmt.Printf("no checkpoint libraries in %s\n", store.Dir())
		return nil
	}
	fmt.Printf("%-10s %-14s %-12s %11s %8s %10s\n",
		"workload", "machine", "compat", "checkpoints", "period", "limit")
	for _, l := range libs {
		compat := l.Compat
		if len(compat) > 12 {
			compat = compat[:12]
		}
		fmt.Printf("%-10s %-14s %-12s %11d %8d %10d\n",
			l.Workload, l.Machine, compat, len(l.Positions), l.Period, l.Limit)
	}
	return nil
}

// cmdCheckpointRestore restores one stored checkpoint into a machine
// and runs from it — the smoke test for the determinism invariant: the
// run resumes at the checkpoint's stream position with warmed state,
// and its numbers are reproducible byte for byte.
func cmdCheckpointRestore(args []string) error {
	fs := flag.NewFlagSet("checkpoint restore", flag.ExitOnError)
	machine := fs.String("m", "sim-alpha", "machine model to restore into")
	dir := fs.String("dir", defaultStoreDir, "checkpoint store directory")
	pos := fs.Int("pos", 0, "checkpoint index within the library")
	run := fs.Uint64("run", 0, "instructions to simulate after restore (0 = to the library limit)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("checkpoint restore: exactly one workload is required")
	}
	name := fs.Arg(0)
	m, err := localMachine(*machine)
	if err != nil {
		return err
	}
	store, err := diskstore.Open(*dir)
	if err != nil {
		return err
	}
	lib, err := store.LoadLibrary(name, m.Name())
	if err != nil {
		return err
	}
	if *pos < 0 || *pos >= len(lib.States) {
		return fmt.Errorf("checkpoint index %d out of range (library has %d)", *pos, len(lib.States))
	}
	st := lib.States[*pos]

	w, ok := repro.WorkloadByName(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	w.Checkpoint = st
	w.FastForward = 0 // the checkpoint position subsumes it
	w.MaxInstructions = *run
	if w.MaxInstructions == 0 && lib.Limit > st.Position {
		w.MaxInstructions = lib.Limit - st.Position
	}
	res, err := m.Run(w)
	if err != nil {
		return err
	}
	fmt.Printf("restored %s @ %d (checkpoint %d/%d, machine %s)\n",
		name, st.Position, *pos, len(lib.States), lib.Machine)
	fmt.Printf("%-14s %-10s %12s %12s %7s %7s\n",
		"machine", "workload", "insts", "cycles", "ipc", "cpi")
	fmt.Printf("%-14s %-10s %12d %12d %7.3f %7.3f\n",
		res.Machine, res.Workload, res.Instructions, res.Cycles, res.IPC(), res.CPI())
	return nil
}

// runCheckpointSampled is `probe run -checkpoint DIR`: a local
// checkpointed-sampling run against a stored library — every interval
// restores its warmed checkpoint and simulates only its detailed
// window, in parallel across cores.
func runCheckpointSampled(machine, dir string, limit uint64, asJSON bool, names []string) error {
	m, err := localMachine(machine)
	if err != nil {
		return err
	}
	store, err := diskstore.Open(dir)
	if err != nil {
		return err
	}
	if !asJSON {
		fmt.Printf("%-14s %-10s %12s %12s %7s %7s  %s\n",
			"machine", "workload", "insts", "cycles", "ipc", "cpi", "cache")
	}
	for _, name := range names {
		lib, err := store.LoadLibrary(name, m.Name())
		if err != nil {
			return err
		}
		w, ok := repro.WorkloadByName(name)
		if !ok {
			return fmt.Errorf("unknown workload %q", name)
		}
		w.MaxInstructions = lib.Limit
		if limit > 0 && limit < lib.Limit {
			w.MaxInstructions = limit
		}
		plan := repro.CheckpointLibraryPlan(lib.Limit)
		if plan.Period != lib.Period {
			// A library recorded under a non-canonical period: keep its
			// period, scale the canonical window shape to it.
			meas := lib.Period / 30
			if meas < 10 {
				meas = 10
			}
			plan = repro.SamplePlan{Period: lib.Period, Warmup: 2 * meas, Measure: meas}
		}
		est, err := repro.RunCheckpointSampled(m, w, lib, plan, 0)
		if err != nil {
			return fmt.Errorf("run %s: %w", name, err)
		}
		if asJSON {
			out, err := json.Marshal(est)
			if err != nil {
				return err
			}
			fmt.Println(string(out))
			continue
		}
		raw := est.Raw
		fmt.Printf("%-14s %-10s %12d %12d %7.3f %7.3f  %s\n",
			raw.Machine, raw.Workload, raw.Instructions, raw.Cycles, raw.IPC(), raw.CPI(), "checkpoint")
		if s := raw.Sampled; s != nil {
			fmt.Printf("  %-12s cpi %.3f ±%.3f (%d%% CI, %d intervals, plan %d/%d/%d) detail %d/%d insts, %.1fx\n",
				"sampled", est.CPI.Mean, est.CPI.Half, int(100*est.CPI.Level), est.Intervals,
				plan.Period, plan.Warmup, plan.Measure,
				s.DetailedInstructions, s.StreamInstructions, s.Speedup())
		}
	}
	return nil
}
