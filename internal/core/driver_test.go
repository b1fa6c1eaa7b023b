package core

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/checkpoint"
	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/events"
	"repro/internal/vm"
)

// fakeKernel has no microarchitecture: every record retires in one
// cycle. It logs the sequence number of every record Warm and Time
// receive, so tests can see exactly how the driver split the stream.
type fakeKernel struct {
	hier          *cache.Hierarchy
	col           events.Collector
	warmed, timed []uint64
	// warmedAtTime is len(warmed) when Time starts.
	warmedAtTime int
}

func newFakeKernel() *fakeKernel {
	return &fakeKernel{hier: cache.NewHierarchy(cache.DS10L(), &vm.SeqMapper{}, dram.New(dram.DS10LConfig()))}
}

// fakeSpec describes a machine whose kernels newKernel builds.
func fakeSpec(newKernel func() Kernel) Spec {
	return Spec{Machine: "fake", Family: "fake", Events: events.ModelAlpha,
		Compat: func() string { return "compat" }, New: newKernel}
}

// spec describes a machine that always drives k.
func (k *fakeKernel) spec() Spec { return fakeSpec(func() Kernel { return k }) }

func (k *fakeKernel) Hier() *cache.Hierarchy             { return k.hier }
func (k *fakeKernel) Warm(rec cpu.Record)                { k.warmed = append(k.warmed, rec.Seq) }
func (k *fakeKernel) ExportWarm(*checkpoint.State)       {}
func (k *fakeKernel) ImportWarm(*checkpoint.State) error { return nil }

func (k *fakeKernel) Time(src cpu.Source, cur *SampleCursor) (uint64, uint64, *events.Collector, error) {
	k.warmedAtTime = len(k.warmed)
	var retired uint64
	for {
		rec, ok := src.Next()
		if !ok {
			break
		}
		k.timed = append(k.timed, rec.Seq)
		retired++
		cur.OnRetire(retired, retired, &k.col)
	}
	return retired, retired, &k.col, nil
}

// streamLen counts the workload's dynamic instructions.
func streamLen(w Workload) uint64 {
	src := w.Source()
	var n uint64
	for {
		if _, ok := src.Next(); !ok {
			return n
		}
		n++
	}
}

func seqs(from, to uint64) []uint64 {
	var out []uint64
	for i := from; i < to; i++ {
		out = append(out, i)
	}
	return out
}

func TestRecordRejects(t *testing.T) {
	p := prog(t)
	trace := Workload{Name: "w", Prog: p, NewSource: func() cpu.Source { return cpu.New(p) }}
	for _, tc := range []struct {
		name      string
		w         Workload
		positions []uint64
		want      string
	}{
		{"empty positions", Workload{Name: "w", Prog: p}, nil, "no checkpoint positions"},
		{"non-ascending", Workload{Name: "w", Prog: p}, []uint64{3, 3}, "not strictly ascending at 1"},
		{"trace source", trace, []uint64{3}, "require a program workload"},
		{"nil program", Workload{Name: "w"}, []uint64{3}, "require a program workload"},
		{"stream too short", Workload{Name: "w", Prog: p}, []uint64{3, 1 << 20}, "stream ended at"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Record(newFakeKernel().spec(), tc.w, tc.positions)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Record error %v, want one containing %q", err, tc.want)
			}
		})
	}
}

func TestDriveWarmFastForwardPastEnd(t *testing.T) {
	w := Workload{Name: "w", Prog: prog(t), WarmFastForward: 1 << 20}
	_, err := Drive(newFakeKernel().spec(), w)
	if err == nil || !strings.Contains(err.Error(), "during warm fast-forward") {
		t.Fatalf("Drive error %v, want a warm fast-forward overrun", err)
	}
}

func TestDriveWarmFastForwardThroughWarm(t *testing.T) {
	w := Workload{Name: "w", Prog: prog(t)}
	n := streamLen(w)
	w.WarmFastForward = 5
	k := newFakeKernel()
	res, err := Drive(k.spec(), w)
	if err != nil {
		t.Fatal(err)
	}
	if k.warmedAtTime != 5 || !reflect.DeepEqual(k.warmed, seqs(0, 5)) {
		t.Errorf("Warm saw %v (%d before Time), want records 0..4 before Time", k.warmed, k.warmedAtTime)
	}
	if !reflect.DeepEqual(k.timed, seqs(5, n)) {
		t.Errorf("Time saw %v, want records 5..%d", k.timed, n-1)
	}
	if res.Instructions != n-5 || res.Cycles != n-5 {
		t.Errorf("result %d insts / %d cycles, want %d each", res.Instructions, res.Cycles, n-5)
	}
}

func TestDriveSampledGapsThroughWarm(t *testing.T) {
	plan := SamplePlan{Period: 4, Warmup: 1, Measure: 1}
	w := Workload{Name: "w", Prog: prog(t)}
	n := streamLen(w)
	w.Sample = &plan
	k := newFakeKernel()
	res, err := Drive(k.spec(), w)
	if err != nil {
		t.Fatal(err)
	}
	// The first two records of every period are timed; the other two
	// fill the functional gap and must be warmed.
	var wantTimed, wantWarmed []uint64
	for i := uint64(0); i < n; i++ {
		if i%plan.Period < plan.Detailed() {
			wantTimed = append(wantTimed, i)
		} else {
			wantWarmed = append(wantWarmed, i)
		}
	}
	if !reflect.DeepEqual(k.timed, wantTimed) {
		t.Errorf("Time saw %v, want %v", k.timed, wantTimed)
	}
	if !reflect.DeepEqual(k.warmed, wantWarmed) {
		t.Errorf("Warm saw %v, want %v", k.warmed, wantWarmed)
	}
	if s := res.Sampled; s == nil || s.StreamInstructions != n || s.DetailedInstructions != uint64(len(wantTimed)) {
		t.Errorf("sampled accounting %+v, want %d stream / %d detailed", s, n, len(wantTimed))
	}
}

// TestDriveRestoreMatchesWarmFastForward checks the driver's half of
// the checkpoint determinism invariant: a run restored at position N
// hands the kernel the same records as a cold run warmed forward to N.
func TestDriveRestoreMatchesWarmFastForward(t *testing.T) {
	const pos, rem = 7, 6
	w := Workload{Name: "w", Prog: prog(t)}
	states, err := Record(newFakeKernel().spec(), w, []uint64{pos})
	if err != nil {
		t.Fatal(err)
	}
	if st := states[0]; st.Model != "fake" || st.Compat != "compat" || st.Position != pos {
		t.Fatalf("state tagged %q/%q at %d", st.Model, st.Compat, st.Position)
	}

	cold := w
	cold.WarmFastForward, cold.MaxInstructions = pos, pos+rem
	ck := newFakeKernel()
	if _, err := Drive(ck.spec(), cold); err != nil {
		t.Fatal(err)
	}
	restored := w
	restored.Checkpoint, restored.MaxInstructions = states[0], rem
	rk := newFakeKernel()
	if _, err := Drive(rk.spec(), restored); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ck.timed, seqs(pos, pos+rem)) || !reflect.DeepEqual(rk.timed, ck.timed) {
		t.Errorf("restored run timed %v, cold run %v", rk.timed, ck.timed)
	}

	other := restored
	other.Name = "other"
	if _, err := Drive(newFakeKernel().spec(), other); err == nil {
		t.Error("restore accepted a checkpoint recorded for another workload")
	}
	incompatible := fakeSpec(func() Kernel { return newFakeKernel() })
	incompatible.Compat = func() string { return "changed" }
	if _, err := Drive(incompatible, restored); err == nil {
		t.Error("restore accepted a checkpoint recorded under another configuration")
	}
}
