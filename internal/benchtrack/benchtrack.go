// Package benchtrack records benchmark trajectories and detects
// throughput regressions, the performance analogue of the golden-table
// harness: where a golden diff pins an experiment's *output*, a
// trajectory pins its *cost*.
//
// # Schema
//
// A trajectory is the canonical digest of one `go test -bench` run,
// serialized as BENCH_<nnnn>.json ("bench/v1"):
//
//	{
//	  "schema": "bench/v1",
//	  "id": 2,
//	  "note": "post hot-loop pass",
//	  "goos": "linux", "goarch": "amd64", "cpu": "...",
//	  "pkg": "repro",
//	  "gomaxprocs": 2, "num_cpu": 2,
//	  "benchmarks": {
//	    "BenchmarkGccFull": {
//	      "samples": 3,
//	      "metrics": {
//	        "ns/op":          {"mean": ..., "min": ..., "max": ...},
//	        "allocs/op":      {"mean": ..., "min": ..., "max": ...},
//	        "detailed_insts": {"mean": ..., "min": ..., "max": ...}
//	      }
//	    }
//	  }
//	}
//
// Benchmark names are canonical: the -<GOMAXPROCS> suffix the testing
// package appends is stripped into the "gomaxprocs" header field (no
// suffix means 1; lines that disagree are a parse error), and
// repeated lines from -count=N fold into one entry with N samples per
// metric. Every value/unit pair on a benchmark line becomes a metric,
// so custom b.ReportMetric series (insts/s, detailed_insts, speedup)
// ride along with ns/op, B/op and allocs/op. "num_cpu" is the
// recording machine's logical CPU count, which the raw output does
// not carry; the recorder fills it in. Files recorded before the two
// header fields existed omit them.
//
// Files are numbered, never overwritten: BENCH_0001.json is the first
// recorded trajectory, and the comparator always measures a candidate
// against the highest-numbered committed file. Re-blessing after an
// accepted performance change means recording a new file, which keeps
// the whole performance history in the repository.
//
// # Tolerance bands
//
// Comparison is per benchmark, per metric, against a band chosen by
// unit (see DefaultBand): tight for deterministic counters (allocs/op
// must stay within 10% + 2; detailed_insts and speedup within 1–2%),
// wide for wall-clock series (ns/op, insts/s), which vary across
// machines and CI load. A benchmark present in the baseline but
// missing from the candidate is a violation (a deleted benchmark must
// be re-blessed deliberately); a benchmark new in the candidate is
// reported but never fails.
package benchtrack

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Schema identifies the trajectory file format.
const Schema = "bench/v1"

// Metric summarizes the samples of one value/unit series.
type Metric struct {
	Mean float64 `json:"mean"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
}

// Benchmark aggregates the -count repetitions of one benchmark.
type Benchmark struct {
	Samples int               `json:"samples"`
	Metrics map[string]Metric `json:"metrics"`
}

// Trajectory is one recorded benchmark run (see the package comment
// for the serialized form).
type Trajectory struct {
	Schema     string               `json:"schema"`
	ID         int                  `json:"id"`
	Note       string               `json:"note,omitempty"`
	Goos       string               `json:"goos,omitempty"`
	Goarch     string               `json:"goarch,omitempty"`
	CPU        string               `json:"cpu,omitempty"`
	Pkg        string               `json:"pkg,omitempty"`
	GOMAXPROCS int                  `json:"gomaxprocs,omitempty"`
	NumCPU     int                  `json:"num_cpu,omitempty"`
	Benchmarks map[string]Benchmark `json:"benchmarks"`
}

// series accumulates raw samples during parsing.
type series struct {
	vals map[string][]float64
	n    int
}

// Parse digests raw `go test -bench` output into a trajectory.
// Unrecognized lines (test logs, PASS/ok trailers) are skipped;
// malformed benchmark result lines are an error. At least one
// benchmark line must be present.
func Parse(r io.Reader) (*Trajectory, error) {
	tr := &Trajectory{Schema: Schema, Benchmarks: map[string]Benchmark{}}
	acc := map[string]*series{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos: "):
			tr.Goos = strings.TrimSpace(line[len("goos: "):])
		case strings.HasPrefix(line, "goarch: "):
			tr.Goarch = strings.TrimSpace(line[len("goarch: "):])
		case strings.HasPrefix(line, "cpu: "):
			tr.CPU = strings.TrimSpace(line[len("cpu: "):])
		case strings.HasPrefix(line, "pkg: "):
			tr.Pkg = strings.TrimSpace(line[len("pkg: "):])
		case strings.HasPrefix(line, "Benchmark"):
			if err := parseResultLine(line, tr, acc); err != nil {
				return nil, fmt.Errorf("line %d: %w", lineno, err)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(acc) == 0 {
		return nil, fmt.Errorf("no benchmark result lines found")
	}
	for name, s := range acc {
		b := Benchmark{Samples: s.n, Metrics: map[string]Metric{}}
		for unit, vals := range s.vals {
			m := Metric{Min: vals[0], Max: vals[0]}
			var sum float64
			for _, v := range vals {
				sum += v
				if v < m.Min {
					m.Min = v
				}
				if v > m.Max {
					m.Max = v
				}
			}
			m.Mean = sum / float64(len(vals))
			b.Metrics[unit] = m
		}
		tr.Benchmarks[name] = b
	}
	return tr, nil
}

// parseResultLine digests one `BenchmarkName-8  N  v unit  v unit...`
// line into the accumulator, recording its GOMAXPROCS in tr. A bare
// "BenchmarkX" line with no fields (the name echo printed before the
// result) is skipped.
func parseResultLine(line string, tr *Trajectory, acc map[string]*series) error {
	// Names and units become JSON object keys; invalid UTF-8 would be
	// silently rewritten to U+FFFD on save, breaking the round trip.
	if !utf8.ValidString(line) {
		return fmt.Errorf("benchmark line is not valid UTF-8: %q", line)
	}
	f := strings.Fields(line)
	if len(f) == 1 {
		return nil // name echo line, result follows on the next line
	}
	if len(f) < 2 || len(f)%2 != 0 {
		return fmt.Errorf("malformed benchmark line %q", line)
	}
	name, procs := splitProcs(f[0])
	switch {
	case procs < 1:
		return fmt.Errorf("GOMAXPROCS suffix %d in %q", procs, f[0])
	case tr.GOMAXPROCS == 0:
		tr.GOMAXPROCS = procs
	case procs != tr.GOMAXPROCS:
		return fmt.Errorf("%s ran at GOMAXPROCS %d, earlier lines at %d", name, procs, tr.GOMAXPROCS)
	}
	iters, err := strconv.ParseUint(f[1], 10, 64)
	if err != nil {
		return fmt.Errorf("bad iteration count in %q: %v", line, err)
	}
	_ = iters
	s := acc[name]
	if s == nil {
		s = &series{vals: map[string][]float64{}}
		acc[name] = s
	}
	s.n++
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return fmt.Errorf("bad value %q in %q: %v", f[i], line, err)
		}
		unit := f[i+1]
		s.vals[unit] = append(s.vals[unit], v)
	}
	return nil
}

// splitProcs splits the -<GOMAXPROCS> suffix the testing package
// appends off a result line's name, so trajectories recorded at
// different parallelism compare by name. The testing package omits
// the suffix at GOMAXPROCS 1.
func splitProcs(name string) (string, int) {
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if n, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i], n
		}
	}
	return name, 1
}
