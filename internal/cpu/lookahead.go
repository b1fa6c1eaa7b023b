package cpu

// Lookahead is a timing model's window onto the records its front end
// has pulled from a Source but not yet fetched: a fixed ring, so the
// steady-state fetch path allocates nothing. Fetch fills it, reads a
// packet's worth from the front and takes them.
type Lookahead struct {
	recs []Record
	head int
	n    int
	done bool // the source is exhausted
}

// NewLookahead returns an empty lookahead of size records.
func NewLookahead(size int) Lookahead { return Lookahead{recs: make([]Record, size)} }

// Fill tops the ring up from src until it is full or src is exhausted.
func (l *Lookahead) Fill(src Source) {
	for !l.done && l.n < len(l.recs) {
		rec, ok := src.Next()
		if !ok {
			l.done = true
			return
		}
		l.recs[l.wrap(l.head+l.n)] = rec
		l.n++
	}
}

// Len returns how many records the ring holds.
func (l *Lookahead) Len() int { return l.n }

// Full reports whether Fill would take nothing from its source: the
// ring is full or the source is exhausted.
func (l *Lookahead) Full() bool { return l.done || l.n == len(l.recs) }

// At returns the i-th record held (0 = oldest); i < Len.
func (l *Lookahead) At(i int) *Record { return &l.recs[l.wrap(l.head+i)] }

// Take removes the n oldest records; n <= Len.
func (l *Lookahead) Take(n int) {
	l.head = l.wrap(l.head + n)
	l.n -= n
}

// Drained reports whether the source is exhausted and every record it
// gave has been taken.
func (l *Lookahead) Drained() bool { return l.done && l.n == 0 }

// wrap maps i < 2*len(recs) into the ring; a conditional subtract
// replaces the modulo.
func (l *Lookahead) wrap(i int) int {
	if i >= len(l.recs) {
		i -= len(l.recs)
	}
	return i
}
