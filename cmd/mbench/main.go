// Command mbench lists the workload suites, disassembles their
// programs, and manages benchmark trajectories (see
// internal/benchtrack for the schema and the comparison rules).
//
// Usage:
//
//	mbench list
//	mbench disasm <workload>
//	mbench save   <workload> <out.axpl>   (object file)
//	mbench trace  <workload> <out.axpt>   (dynamic trace)
//	mbench bench-record  <raw.txt> <dir> [note]
//	mbench bench-compare <raw.txt|BENCH.json> <dir>
//
// bench-record digests raw `go test -bench` output into the
// next-numbered BENCH_<nnnn>.json in <dir>, recording this machine's
// runtime.NumCPU as num_cpu (record on the machine that ran the
// benchmarks). bench-compare parses a
// candidate (raw output or an already-recorded trajectory), compares
// it against the highest-numbered trajectory in <dir>, and exits
// non-zero when any benchmark falls outside its tolerance band — the
// performance analogue of a golden-table diff.
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"repro"
	"repro/internal/benchtrack"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "list":
		fmt.Println("microbenchmarks:")
		for _, w := range repro.Microbenchmarks() {
			fmt.Printf("  %-8s (%s, %d instructions of code)\n",
				w.Name, w.Category, len(w.Prog.Code))
		}
		fmt.Println("calibration:")
		for _, w := range repro.CalibrationWorkloads() {
			fmt.Printf("  %-8s (%s, %d instructions of code)\n",
				w.Name, w.Category, len(w.Prog.Code))
		}
		fmt.Println("macrobenchmarks:")
		for _, w := range repro.Macrobenchmarks() {
			fmt.Printf("  %-8s (%s, %d instructions of code)\n",
				w.Name, w.Category, len(w.Prog.Code))
		}
	case "disasm":
		w := lookup(2)
		fmt.Print(w.Prog.Disassemble())
	case "save":
		if len(os.Args) != 4 {
			usage()
		}
		w := lookup(2)
		f := create(os.Args[3])
		defer f.Close()
		if err := repro.SaveProgram(f, w.Prog); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s (%d instructions)\n", os.Args[3], len(w.Prog.Code))
	case "trace":
		if len(os.Args) != 4 {
			usage()
		}
		w := lookup(2)
		f := create(os.Args[3])
		defer f.Close()
		n, err := repro.RecordTrace(f, w)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s (%d dynamic records)\n", os.Args[3], n)
	case "bench-record":
		if len(os.Args) != 4 && len(os.Args) != 5 {
			usage()
		}
		tr := parseBench(os.Args[2])
		dir := os.Args[3]
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fatal(err)
		}
		id, err := benchtrack.NextID(dir)
		if err != nil {
			fatal(err)
		}
		tr.ID = id
		tr.NumCPU = runtime.NumCPU()
		if len(os.Args) == 5 {
			tr.Note = os.Args[4]
		}
		path := filepath.Join(dir, benchtrack.FileName(id))
		if err := benchtrack.Save(path, tr); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s (%d benchmarks)\n", path, len(tr.Benchmarks))
	case "bench-compare":
		if len(os.Args) != 4 {
			usage()
		}
		cand := parseBench(os.Args[2])
		base, path, err := benchtrack.Latest(os.Args[3])
		if err != nil {
			fatal(err)
		}
		rep := benchtrack.Compare(base, cand, nil)
		fmt.Printf("baseline %s (id %d)\n%s", path, base.ID, rep)
		if !rep.OK() {
			os.Exit(1)
		}
	default:
		usage()
	}
}

// parseBench loads a candidate trajectory: a BENCH_*.json file is
// loaded directly, anything else is parsed as raw `go test -bench`
// output.
func parseBench(path string) *benchtrack.Trajectory {
	b, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	if json.Valid(b) {
		tr, err := benchtrack.Load(path)
		if err != nil {
			fatal(err)
		}
		return tr
	}
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	tr, err := benchtrack.Parse(f)
	if err != nil {
		fatal(err)
	}
	return tr
}

func lookup(arg int) repro.Workload {
	if len(os.Args) <= arg {
		usage()
	}
	w, ok := repro.WorkloadByName(os.Args[arg])
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", os.Args[arg])
		os.Exit(2)
	}
	return w
}

func create(path string) *os.File {
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	return f
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: mbench list | disasm <w> | save <w> <f.axpl> | trace <w> <f.axpt>")
	fmt.Fprintln(os.Stderr, "       mbench bench-record <raw.txt> <dir> [note] | bench-compare <raw.txt|BENCH.json> <dir>")
	os.Exit(2)
}
