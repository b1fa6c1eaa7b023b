package main

import (
	"fmt"
	"math"
	"os"
	"time"

	"repro"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/diskstore"
	"repro/internal/model"
)

// longCells are core-long's full-length cells, run one at a time.
var longCells = []struct{ machine, workload string }{
	{"sim-alpha", "gcc"},
	{"native-ds10l", "gcc"},
	{"sim-interval", "gcc"},
	{"sim-inorder", "gcc"},
	{"sim-outorder", "eon"},
	{"sim-alpha-ddr", "parser"},
}

// coreLong runs a fixed round of full-length cells, then gcc under
// interval sampling and under checkpointed sampling, with one caller.
type coreLong struct {
	work    string
	dir     string
	ws      map[string]core.Workload
	lengths map[string]uint64
	gccLen  uint64
	bounded core.Workload // gcc bounded at its own length, for sampling
	plan    core.SamplePlan
	libPlan core.SamplePlan
	lib     *checkpoint.Library
	gccErr  float64

	// Instructions the traced interval-sampled runs simulated in detail
	// and streamed in total.
	tracedDetailed, tracedStream uint64
}

func newCoreLong(work string) *coreLong { return &coreLong{work: work} }

// setup resolves the programs, measures their lengths, and records the
// checkpoint library for gcc, round-tripping it through a diskstore the
// way `probe checkpoint save` and a restarted daemon would.
func (c *coreLong) setup() error {
	c.ws = make(map[string]core.Workload)
	c.lengths = make(map[string]uint64)
	for _, cell := range longCells {
		if _, ok := c.ws[cell.workload]; ok {
			continue
		}
		w, ok := repro.WorkloadByName(cell.workload)
		if !ok {
			return fmt.Errorf("no workload %q", cell.workload)
		}
		c.ws[cell.workload] = w
		c.lengths[cell.workload] = streamLength(w)
	}
	c.gccLen = c.lengths["gcc"]
	c.bounded = c.ws["gcc"]
	c.bounded.MaxInstructions = c.gccLen
	c.plan = repro.DefaultSamplePlan(c.gccLen)
	c.libPlan = repro.CheckpointLibraryPlan(c.gccLen)

	m, err := model.New("sim-alpha")
	if err != nil {
		return err
	}
	lib, err := repro.BuildCheckpointLibrary(m, c.bounded, c.libPlan)
	if err != nil {
		return err
	}
	if c.dir, err = os.MkdirTemp(c.work, "ckpt-"); err != nil {
		return err
	}
	store, err := diskstore.Open(c.dir)
	if err != nil {
		return err
	}
	if _, err := store.SaveLibrary(lib); err != nil {
		return err
	}
	if c.lib, err = store.LoadLibrary(lib.Workload, lib.Machine); err != nil {
		return err
	}
	return nil
}

func (c *coreLong) clients() int { return 1 }

func (c *coreLong) op(_, id int, tr *tracer) (uint64, error) {
	opSpan := tr.begin("op", -1, id, "core-long")
	defer tr.end(opSpan)
	var insts uint64
	var alphaGcc, nativeGcc core.RunResult
	for _, cell := range longCells {
		res, err := runCell(tr, opSpan, id, cell.machine, c.ws[cell.workload])
		if err != nil {
			return 0, err
		}
		if err := checkCell(res, c.lengths[cell.workload]); err != nil {
			return 0, err
		}
		insts += res.Instructions
		if cell.workload == "gcc" {
			switch cell.machine {
			case "sim-alpha":
				alphaGcc = res
			case "native-ds10l":
				nativeGcc = res
			}
		}
	}
	c.gccErr = math.Abs(repro.PctErrorCPI(nativeGcc.IPC(), alphaGcc.IPC()))
	full := alphaGcc.CPI()

	m, err := model.New("sim-alpha")
	if err != nil {
		return 0, err
	}
	ss := tr.begin("sample.Run", opSpan, id, "sim-alpha/gcc")
	est, err := repro.RunSampled(m, withLoadSpan(tr, ss, id, c.bounded), c.plan)
	tr.end(ss)
	if err != nil {
		return 0, err
	}
	if !est.CPI.Contains(full) {
		return 0, fmt.Errorf("sampled gcc CPI %v excludes the full run's %.4f", est.CPI, full)
	}
	insts += est.DetailedInstructions()
	if tr != nil {
		c.tracedDetailed += est.DetailedInstructions()
		c.tracedStream += est.StreamInstructions()
	}

	cs := tr.begin("sample.RunWithLibrary", opSpan, id, "sim-alpha/gcc")
	est, err = repro.RunCheckpointSampled(m, c.bounded, c.lib, c.libPlan, 1)
	tr.endWork(cs, int64(est.DetailedInstructions()))
	if err != nil {
		return 0, err
	}
	if !est.CPI.Contains(full) {
		return 0, fmt.Errorf("checkpoint-sampled gcc CPI %v excludes the full run's %.4f", est.CPI, full)
	}
	insts += est.DetailedInstructions()
	return insts, nil
}

func (c *coreLong) finish() error { return nil }

func (c *coreLong) cpiErr() float64 { return c.gccErr }

func (c *coreLong) ladderSet() []core.Workload {
	return []core.Workload{c.ws["gcc"], c.ws["eon"], c.ws["parser"]}
}

// layers adds sampling and checkpoint costs to the cell metrics. The
// warming rate charges the sampled run's self time, less its detailed
// windows at the full sim-alpha cell's per-instruction rate, to the
// instructions it fast-forwarded with warming.
func (c *coreLong) layers(spans []span, ladder map[string]float64) (map[string]float64, error) {
	out := cellLayers(spans, ladder)
	self := selfTimes(spans)
	var alphaNS, alphaInsts, sampleNS float64
	for i, s := range spans {
		if s.Op < 0 {
			continue
		}
		switch {
		case s.Name == "Machine.Run" && s.Tag == "sim-alpha":
			alphaNS += float64(self[i])
			alphaInsts += float64(s.Work)
		case s.Name == "sample.Run":
			sampleNS += float64(self[i])
		}
	}
	detailed, stream := float64(c.tracedDetailed), float64(c.tracedStream)
	if stream > 0 {
		out["sample.detailed_frac"] = detailed / stream
	}
	if alphaInsts > 0 && stream > detailed {
		out["sample.warm_ns_per_inst"] = (sampleNS - alphaNS/alphaInsts*detailed) / (stream - detailed)
	}
	enc, dec, err := c.codecTimes()
	if err != nil {
		return nil, err
	}
	out["checkpoint.encode_ms"], out["checkpoint.decode_ms"] = enc, dec
	return out, nil
}

// codecTimes encodes and decodes every state of the gcc library and
// returns the median time of each pass over the library, in ms.
func (c *coreLong) codecTimes() (float64, float64, error) {
	var encs, decs []float64
	for rep := 0; rep < ladderReps; rep++ {
		blobs := make([][]byte, len(c.lib.States))
		start := time.Now()
		for i, s := range c.lib.States {
			b, err := checkpoint.Encode(s)
			if err != nil {
				return 0, 0, err
			}
			blobs[i] = b
		}
		encs = append(encs, float64(time.Since(start).Nanoseconds())/1e6)
		start = time.Now()
		for _, b := range blobs {
			if _, err := checkpoint.Decode(b); err != nil {
				return 0, 0, err
			}
		}
		decs = append(decs, float64(time.Since(start).Nanoseconds())/1e6)
	}
	return median(encs), median(decs), nil
}

func (c *coreLong) report(func(string, float64, string, int)) {}

func (c *coreLong) close() {
	if c.dir != "" {
		os.RemoveAll(c.dir)
	}
}
