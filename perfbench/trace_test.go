package main

import "testing"

func TestSelfTimesSubtractsUnionOfChildren(t *testing.T) {
	spans := []span{
		{Name: "op", Parent: -1, Op: 0, Start: 0, End: 100},
		// Two overlapping children cover [10, 50] once.
		{Name: "a", Parent: 0, Op: 0, Start: 10, End: 30},
		{Name: "b", Parent: 0, Op: 0, Start: 20, End: 50},
		// A child running past its parent counts only inside it.
		{Name: "c", Parent: 0, Op: 0, Start: 90, End: 120},
		// A grandchild is subtracted from its parent only.
		{Name: "d", Parent: 1, Op: 0, Start: 12, End: 18},
	}
	got := selfTimes(spans)
	want := []int64{100 - 40 - 10, 20 - 6, 30, 30, 6}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %s: self %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestSelfTimesSumToRootDuration(t *testing.T) {
	// Serial children: self times of the whole tree add up to the op.
	spans := []span{
		{Name: "op", Parent: -1, Op: 3, Start: 0, End: 1000},
		{Name: "cell", Parent: 0, Op: 3, Start: 0, End: 600},
		{Name: "Machine.Run", Parent: 1, Op: 3, Start: 5, End: 600},
		{Name: "cpu.New", Parent: 2, Op: 3, Start: 5, End: 105},
		{Name: "cell", Parent: 0, Op: 3, Start: 600, End: 1000},
	}
	var sum int64
	for _, v := range selfTimes(spans) {
		sum += v
	}
	if sum != 1000 {
		t.Fatalf("self times sum to %d, want the op's 1000", sum)
	}
	by := selfByName(spans)
	if by["cpu.New"] != 100 || by["Machine.Run"] != 495 || by["cell"] != 5+400 {
		t.Fatalf("self by name %v", by)
	}
}

func TestSelfByNameSkipsSpansOutsideOps(t *testing.T) {
	spans := []span{
		{Name: "op", Parent: -1, Op: 0, Start: 0, End: 10},
		{Name: "diskstore.Get", Parent: -1, Op: -1, Start: 2, End: 4},
	}
	by := selfByName(spans)
	if _, ok := by["diskstore.Get"]; ok || by["op"] != 10 {
		t.Fatalf("self by name %v", by)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", -1, 0, "")
	tr.end(id)
	tr.endWork(id, 5)
	if id != -1 {
		t.Fatalf("nil tracer returned span %d", id)
	}
}
