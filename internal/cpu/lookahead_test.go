package cpu

import "testing"

// seqSource yields records numbered 0..n-1.
type seqSource struct{ next, n uint64 }

func (s *seqSource) Next() (Record, bool) {
	if s.next == s.n {
		return Record{}, false
	}
	s.next++
	return Record{Seq: s.next - 1}, true
}

// TestLookahead walks a 3-record ring over a 7-record stream in
// packets of two, so reads and refills cross the ring's end, and
// checks the records come out in order and the ring drains only once
// the source is exhausted and every record is taken.
func TestLookahead(t *testing.T) {
	src := &seqSource{n: 7}
	l := NewLookahead(3)
	var want uint64
	for !l.Drained() {
		l.Fill(src)
		if l.Len() == 0 || l.Len() > 3 {
			t.Fatalf("Len = %d after Fill, want 1..3", l.Len())
		}
		n := min(2, l.Len())
		for i := 0; i < n; i++ {
			if got := l.At(i).Seq; got != want+uint64(i) {
				t.Fatalf("At(%d) = record %d, want %d", i, got, want+uint64(i))
			}
		}
		l.Take(n)
		want += uint64(n)
	}
	if want != 7 || src.next != 7 {
		t.Fatalf("drained after %d records taken and %d read, want 7 and 7", want, src.next)
	}
}
