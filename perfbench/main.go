// Command perfbench is the repository's end-to-end benchmark. It runs
// one named workload against the public Go API for a fixed time, checks
// every op's output, and prints its metrics; the last line of standard
// output is one JSON object with the result.
//
//	perfbench --workload exp-grid --seed 1 --seconds 35 --trace 0
//
// With --trace 0 it reports the end-to-end metrics. With --trace 1 it
// runs the workload untraced for half the time and traced for the other
// half, and reports the per-layer metrics. See README.md for the
// workloads, the metrics and what each layer's metric should move.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// Set-up runs from scratch setupReps times before the timed ops and
// lateSetupReps times after them; setup_s is the median of all.
const setupReps, lateSetupReps = 3, 2

// workload is one benchmark workload. A value is built fresh for every
// set-up, so set-up can be timed from scratch several times.
type workload interface {
	// setup builds everything the first op needs; it is timed.
	setup() error
	// clients is the number of closed-loop callers.
	clients() int
	// op runs one op for a caller, checks its output, and returns the
	// instructions retired by cold simulations. tr is nil when untraced;
	// when traced, every call into a layer gets a span under op id.
	op(client, id int, tr *tracer) (uint64, error)
	// finish runs the end-of-run checks.
	finish() error
	// cpiErr is sim-alpha's mean |CPI error| against native-ds10l on
	// the op's cells, in percent.
	cpiErr() float64
	// ladderSet is the representative streams the layer ladder replays.
	ladderSet() []core.Workload
	// layers derives per-layer metrics from a traced run's spans and
	// the ladder's figures.
	layers(spans []span, ladder map[string]float64) (map[string]float64, error)
	// report adds workload-specific lines to the human-readable report.
	report(add func(name string, value float64, unit string, n int))
	// close releases servers, goroutines and files.
	close()
}

func newWorkload(name string, seed int64, work string) (workload, error) {
	switch name {
	case "exp-grid":
		return newExpGrid(), nil
	case "core-long":
		return newCoreLong(work), nil
	case "serve-tiered":
		return newServeTiered(seed, work, serveDefaults), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have exp-grid, core-long, serve-tiered)", name)
}

// metricSpec names one metric of BENCHMARK.json.
type metricSpec struct{ name, unit string }

var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"sim_minst_per_s", "Minst/s"},
	{"peak_rss_mb", "MB"},
	{"cpi_err_pct", "%"},
}

var perLayer = []metricSpec{
	{"cpu.load_ms", "ms"},
	{"cpu.load_bytes", "B"},
	{"cpu.load_pages", "count"},
	{"cpu.load_share", "ratio"},
	{"cpu.ff_ns_per_inst", "ns"},
	{"cpu.step_ns_per_inst", "ns"},
	{"model.build_ms", "ms"},
	{"timing.alpha.ns_per_inst", "ns"},
	{"timing.native.ns_per_inst", "ns"},
	{"timing.ruu.ns_per_inst", "ns"},
	{"timing.inorder.ns_per_inst", "ns"},
	{"timing.interval.ns_per_inst", "ns"},
	{"timing.alpha_ddr.ns_per_inst", "ns"},
	{"timing.share", "ratio"},
	{"cache.data_ns_per_access", "ns"},
	{"cache.inst_ns_per_access", "ns"},
	{"cache.l1d_miss_ratio", "ratio"},
	{"predict.ns_per_branch", "ns"},
	{"predict.mispredict_ratio", "ratio"},
	{"dram.ns_per_access", "ns"},
	{"ddr.ns_per_access", "ns"},
	{"ddr.row_hit_ratio", "ratio"},
	{"sample.warm_ns_per_inst", "ns"},
	{"sample.detailed_frac", "ratio"},
	{"checkpoint.encode_ms", "ms"},
	{"checkpoint.decode_ms", "ms"},
	{"runner.busy_frac", "ratio"},
	{"runner.idle_ms", "ms"},
	{"simcache.key_us", "us"},
	{"simcache.get_us", "us"},
	{"diskstore.get_ms", "ms"},
	{"diskstore.put_ms", "ms"},
	{"diskstore.corrupt_total", "count"},
	{"service.handler_us", "us"},
	{"http.overhead_us", "us"},
	{"dispatch.cell_rtt_ms", "ms"},
	{"dispatch.overhead_ms", "ms"},
	{"dispatch.retry_total", "count"},
	{"dispatch.fallback_total", "count"},
	{"serve.hit_p50_ms", "ms"},
	{"serve.hit_p95_ms", "ms"},
	{"serve.disk_p50_ms", "ms"},
	{"serve.disk_p95_ms", "ms"},
	{"serve.miss_p50_ms", "ms"},
	{"serve.miss_p95_ms", "ms"},
	{"go.gc_pause_ms", "ms"},
	{"go.alloc_mb_per_op", "MB"},
	{"trace.overhead_pct", "%"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: exp-grid, core-long or serve-tiered")
	seed := flag.Int64("seed", 1, "seed for the generated inputs")
	seconds := flag.Int("seconds", 35, "seconds of timed ops")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	work := flag.String("work", ".bench_build", "directory for scratch files and the span dump")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace == 1, *work); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds int, traced bool, workRoot string) error {
	if seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	if err := os.MkdirAll(workRoot, 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(workRoot, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)

	fmt.Printf("# perfbench workload=%s seed=%d seconds=%d trace=%v\n", name, seed, seconds, traced)
	fmt.Printf("# GOMAXPROCS=%d NumCPU=%d go=%s commit=%s tree=%s\n",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), commit(), treeHash())

	// Set-up runs from scratch setupReps times before the timed ops,
	// keeping the last, and lateSetupReps times after them, so the
	// median spans the run's stretch of machine speed and not one
	// moment of it.
	w, setups, err := setUp(name, seed, work, setupReps)
	if err != nil {
		return err
	}

	budget := time.Duration(seconds) * time.Second
	if traced {
		budget /= 2
	}
	plain := runLoop(w, budget, nil, 0)
	var tr *tracer
	var tracedLoop loopStats
	if traced {
		tr = newTracer()
		tracedLoop = runLoop(w, budget, tr, plain.attempted)
	}
	finishErr := w.finish()

	res := result{Metrics: make(map[string]metricValue)}
	res.Attempted = plain.attempted + tracedLoop.attempted
	res.Failed = plain.failed + tracedLoop.failed
	for _, err := range []error{plain.err, tracedLoop.err, finishErr} {
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: check failed:", err)
		}
	}
	if finishErr != nil && res.Failed == 0 {
		res.Failed = 1
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0

	lines := &reportLines{}
	lines.add("ops_per_s", float64(plain.done)/plain.wall.Seconds(), "1/s", plain.done)
	lines.add("op_p50_ms", median(plain.opMS), "ms", len(plain.opMS))
	lines.add("sim_minst_per_s", float64(plain.insts)/1e6/plain.wall.Seconds(), "Minst/s", plain.done)
	lines.add("cpi_err_pct", w.cpiErr(), "%", 1)
	w.report(lines.add)
	var layer map[string]float64
	if traced {
		if layer, err = tracedLayers(w, tr, plain, tracedLoop, lines.values); err != nil {
			w.close()
			return err
		}
	}
	// Peak memory is read before the late set-ups, so it covers one
	// fixture and the timed ops.
	lines.add("peak_rss_mb", peakRSSMB(), "MB", 1)
	w.close()

	late, lateSetups, err := setUp(name, seed, work, lateSetupReps)
	if err != nil {
		return err
	}
	late.close()
	setups = append(setups, lateSetups...)
	lines.add("setup_s", median(setups), "s", len(setups))
	lines.add("setup_first_s", setups[0], "s", 1)

	if !traced {
		for _, m := range endToEnd {
			res.Metrics[m.name] = metricValue{lines.values[m.name], m.unit}
		}
	} else {
		for _, m := range perLayer {
			// The serving latencies are already listed with their
			// per-class sample counts.
			if _, listed := lines.values[m.name]; !listed {
				lines.add(m.name, layer[m.name], m.unit, tracedLoop.done)
			}
			res.Metrics[m.name] = metricValue{layer[m.name], m.unit}
		}
		dump := filepath.Join(filepath.Dir(work), fmt.Sprintf("spans-%s-%d.jsonl", name, seed))
		if err := tr.write(dump); err != nil {
			return err
		}
		fmt.Printf("# spans written to %s\n", dump)
		printShares(tr.snapshot())
	}
	lines.print()
	fmt.Printf("# attempted=%d failed=%d correct=%v\n", res.Attempted, res.Failed, res.Correct)
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// setUp builds the workload from scratch reps times, timing each
// set-up, and returns the last one built.
func setUp(name string, seed int64, work string, reps int) (workload, []float64, error) {
	var w workload
	var times []float64
	for rep := 0; rep < reps; rep++ {
		if w != nil {
			w.close()
		}
		var err error
		if w, err = newWorkload(name, seed, work); err != nil {
			return nil, nil, err
		}
		start := time.Now()
		if err := w.setup(); err != nil {
			w.close()
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
	}
	return w, times, nil
}

// tracedLayers assembles the per-layer metrics of a traced run.
func tracedLayers(w workload, tr *tracer, plain, traced loopStats, e2e map[string]float64) (map[string]float64, error) {
	ladder, err := runLadder(w.ladderSet())
	if err != nil {
		return nil, err
	}
	layer, err := w.layers(tr.snapshot(), ladder)
	if err != nil {
		return nil, err
	}
	for k, v := range ladder {
		if _, ok := layer[k]; !ok {
			layer[k] = v
		}
	}
	for _, k := range []string{"serve.hit_p50_ms", "serve.hit_p95_ms", "serve.disk_p50_ms",
		"serve.disk_p95_ms", "serve.miss_p50_ms", "serve.miss_p95_ms"} {
		if v, ok := e2e[k]; ok {
			layer[k] = v
		}
	}
	if plain.done > 0 {
		layer["go.gc_pause_ms"] = float64(plain.mem1.PauseTotalNs-plain.mem0.PauseTotalNs) / 1e6 / float64(plain.done)
		layer["go.alloc_mb_per_op"] = float64(plain.mem1.TotalAlloc-plain.mem0.TotalAlloc) / (1 << 20) / float64(plain.done)
	}
	if p, t := median(plain.opMS), median(traced.opMS); p > 0 && t > 0 {
		layer["trace.overhead_pct"] = (t/p - 1) * 100
	}
	return layer, nil
}

// printShares prints each span name's share of all self time recorded
// inside timed ops.
func printShares(spans []span) {
	self := selfByName(spans)
	var total int64
	names := make([]string, 0, len(self))
	for n, v := range self {
		total += v
		names = append(names, n)
	}
	if total == 0 {
		return
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	for _, n := range names {
		fmt.Printf("# self-time share %-24s %6.2f%%\n", n, 100*float64(self[n])/float64(total))
	}
}

// loopStats is the outcome of one closed-loop phase.
type loopStats struct {
	opMS       []float64
	attempted  int
	failed     int
	done       int
	insts      uint64
	wall       time.Duration
	err        error // first failed check
	mem0, mem1 runtime.MemStats
}

// runLoop runs the workload's callers in a closed loop until d has
// passed: each caller starts its next op when the previous one returns.
// Op ids start at firstID.
func runLoop(w workload, d time.Duration, tr *tracer, firstID int) loopStats {
	var st loopStats
	var mu sync.Mutex
	var next atomic.Int64
	next.Store(int64(firstID))
	runtime.GC()
	runtime.ReadMemStats(&st.mem0)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < w.clients(); c++ {
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			for time.Since(start) < d {
				id := int(next.Add(1) - 1)
				t0 := time.Now()
				insts, err := w.op(client, id, tr)
				ms := float64(time.Since(t0).Nanoseconds()) / 1e6
				mu.Lock()
				st.attempted++
				if err != nil {
					st.failed++
					if st.err == nil {
						st.err = err
					}
				} else {
					st.done++
					st.opMS = append(st.opMS, ms)
					st.insts += insts
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	st.wall = time.Since(start)
	runtime.ReadMemStats(&st.mem1)
	return st
}

// reportLines collects the human-readable report: every metric with its
// unit and sample count.
type reportLines struct {
	names  []string
	values map[string]float64
	units  map[string]string
	counts map[string]int
}

func (r *reportLines) add(name string, value float64, unit string, n int) {
	if r.values == nil {
		r.values, r.units, r.counts = map[string]float64{}, map[string]string{}, map[string]int{}
	}
	if _, dup := r.values[name]; !dup {
		r.names = append(r.names, name)
	}
	r.values[name], r.units[name], r.counts[name] = value, unit, n
}

func (r *reportLines) print() {
	for _, n := range r.names {
		fmt.Printf("%-32s %14.4f %-8s n=%d\n", n, r.values[n], r.units[n], r.counts[n])
	}
}

// peakRSSMB reads the process's peak resident set from /proc, falling
// back to the Go runtime's view of memory obtained from the OS.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}

// commit returns the git commit of the working directory when it is a
// git checkout, else "none".
func commit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "none"
	}
	ref := strings.TrimSpace(string(head))
	if r, ok := strings.CutPrefix(ref, "ref: "); ok {
		b, err := os.ReadFile(filepath.Join(".git", r))
		if err != nil {
			return "unresolved"
		}
		ref = strings.TrimSpace(string(b))
	}
	if len(ref) > 12 {
		ref = ref[:12]
	}
	return ref
}

// treeHash identifies the code under test when there is no git
// metadata: a digest over the paths and contents of every .go and
// go.mod file below the working directory.
func treeHash() string {
	h := sha256.New()
	filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			if b, err := os.ReadFile(path); err == nil {
				fmt.Fprintf(h, "%s %d\n", path, len(b))
				h.Write(b)
			}
		}
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))[:12]
}
