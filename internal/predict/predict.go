// Package predict implements the seven predictors of the Alpha 21264
// front end and issue stage that the paper validates: the tournament
// conditional-branch predictor (local, global, and choice components),
// the line predictor, the I-cache way predictor, the return address
// stack, the load-use (hit/miss) predictor, and the store-wait
// predictor.
//
// The predictors are pure data structures; the timing models decide
// when to consult, speculatively update, and recover them, because
// speculative update policy is itself one of the features the paper
// ablates (the "spec" feature in Tables 4 and 5).
package predict

import (
	"fmt"

	"repro/internal/bounds"
)

// SatCounter is an n-bit saturating counter. The zero value is a
// counter of width 0; use NewSatCounter.
type SatCounter struct {
	value uint32
	max   uint32
}

// NewSatCounter returns a counter with the given bit width and
// initial value.
func NewSatCounter(bits int, init uint32) SatCounter {
	c := SatCounter{max: 1<<bits - 1}
	if init > c.max {
		init = c.max
	}
	c.value = init
	return c
}

// Inc increments the counter, saturating at the maximum.
func (c *SatCounter) Inc() {
	if c.value < c.max {
		c.value++
	}
}

// Dec decrements the counter, saturating at zero.
func (c *SatCounter) Dec() {
	if c.value > 0 {
		c.value--
	}
}

// Taken reports whether the counter is in its taken (upper) half.
func (c *SatCounter) Taken() bool { return c.value > c.max/2 }

// Value returns the current count.
func (c *SatCounter) Value() uint32 { return c.value }

// Bimodal is a PC-indexed table of 2-bit saturating counters: the
// history-free direction predictor of the in-order and interval
// models. With no history to desynchronize, functional warming
// trains it exactly as a timed run does.
type Bimodal []SatCounter

// NewBimodal returns a 1<<bits-entry table, every counter weakly
// not-taken.
func NewBimodal(bits int) Bimodal {
	t := make(Bimodal, 1<<bits)
	for i := range t {
		t[i] = NewSatCounter(2, 1)
	}
	return t
}

// Predict returns the predicted direction of the branch at pc.
func (t Bimodal) Predict(pc uint64) bool {
	return t[int(pc>>2)&(len(t)-1)].Taken()
}

// Train moves the branch's counter toward its resolved direction.
func (t Bimodal) Train(pc uint64, taken bool) {
	i := int(pc>>2) & (len(t) - 1)
	if taken {
		t[i].Inc()
	} else {
		t[i].Dec()
	}
}

// TournamentConfig sizes the 21264 tournament predictor. The zero
// value is not useful; use DefaultTournamentConfig.
type TournamentConfig struct {
	LocalEntries   int // local history table entries (21264: 1024)
	LocalHistBits  int // bits per local history (21264: 10)
	LocalCtrBits   int // bits per local prediction counter (21264: 3)
	GlobalHistBits int // global history length (21264: 12)
	GlobalCtrBits  int // bits per global counter (21264: 2)
	ChoiceEntries  int // choice table entries (21264: 4096)
	ChoiceCtrBits  int // bits per choice counter (21264: 2)
}

// Check bounds the geometry: table sizes are powers of two (the
// index masks by them) and histories fit the 32-bit registers.
func (c TournamentConfig) Check() error {
	if err := bounds.Check("predict",
		bounds.Int{Name: "LocalEntries", V: c.LocalEntries, Lo: 1, Hi: 1 << 16},
		bounds.Int{Name: "LocalHistBits", V: c.LocalHistBits, Lo: 1, Hi: 16},
		bounds.Int{Name: "LocalCtrBits", V: c.LocalCtrBits, Lo: 1, Hi: 8},
		bounds.Int{Name: "GlobalHistBits", V: c.GlobalHistBits, Lo: 1, Hi: 16},
		bounds.Int{Name: "GlobalCtrBits", V: c.GlobalCtrBits, Lo: 1, Hi: 8},
		bounds.Int{Name: "ChoiceEntries", V: c.ChoiceEntries, Lo: 1, Hi: 1 << 16},
		bounds.Int{Name: "ChoiceCtrBits", V: c.ChoiceCtrBits, Lo: 1, Hi: 8},
	); err != nil {
		return err
	}
	if !bounds.Pow2(c.LocalEntries) || !bounds.Pow2(c.ChoiceEntries) {
		return fmt.Errorf("predict: LocalEntries %d and ChoiceEntries %d must be powers of two",
			c.LocalEntries, c.ChoiceEntries)
	}
	return nil
}

// DefaultTournamentConfig returns the 21264 predictor geometry.
func DefaultTournamentConfig() TournamentConfig {
	return TournamentConfig{
		LocalEntries:   1024,
		LocalHistBits:  10,
		LocalCtrBits:   3,
		GlobalHistBits: 12,
		GlobalCtrBits:  2,
		ChoiceEntries:  4096,
		ChoiceCtrBits:  2,
	}
}

// Tournament is the 21264 hybrid conditional-branch predictor. It
// maintains two copies of the global history register: the
// speculative copy (shifted at prediction time with the predicted
// outcome) and the retired copy (shifted in program order with actual
// outcomes). The timing model selects which copy indexes the tables
// via the spec argument of Predict, and calls RebuildSpec after a
// misprediction recovery to resynchronize the speculative copy, which
// is exactly the recovery the paper found the 21264 performs.
type Tournament struct {
	cfg       TournamentConfig
	localHist []uint32
	localCtr  []SatCounter
	globalCtr []SatCounter
	choiceCtr []SatCounter

	specHist uint32 // speculative global history
	retHist  uint32 // retired (architectural) global history

	// Lookups counts predictions; Mispredicts is maintained by the
	// caller via Resolve's return value but kept here for reporting.
	Lookups     uint64
	Mispredicts uint64
}

// NewTournament returns a predictor with the given geometry.
func NewTournament(cfg TournamentConfig) *Tournament {
	t := &Tournament{
		cfg:       cfg,
		localHist: make([]uint32, cfg.LocalEntries),
		localCtr:  make([]SatCounter, 1<<cfg.LocalHistBits),
		globalCtr: make([]SatCounter, 1<<cfg.GlobalHistBits),
		choiceCtr: make([]SatCounter, cfg.ChoiceEntries),
	}
	for i := range t.localCtr {
		t.localCtr[i] = NewSatCounter(cfg.LocalCtrBits, 0)
	}
	for i := range t.globalCtr {
		t.globalCtr[i] = NewSatCounter(cfg.GlobalCtrBits, 0)
	}
	for i := range t.choiceCtr {
		t.choiceCtr[i] = NewSatCounter(cfg.ChoiceCtrBits, 0)
	}
	return t
}

func (t *Tournament) localIndex(pc uint64) int {
	return int(pc>>2) & (t.cfg.LocalEntries - 1)
}

func (t *Tournament) history(spec bool) uint32 {
	if spec {
		return t.specHist
	}
	return t.retHist
}

// Predict returns the predicted direction for the conditional branch
// at pc. When spec is true the speculative global history indexes the
// global and choice tables (the validated 21264 behavior); when false
// the retired history is used (the "spec" feature removed).
func (t *Tournament) Predict(pc uint64, spec bool) bool {
	t.Lookups++
	hist := t.history(spec)
	localPred := t.localCtr[t.localHist[t.localIndex(pc)]&uint32(1<<t.cfg.LocalHistBits-1)].Taken()
	globalPred := t.globalCtr[hist&uint32(1<<t.cfg.GlobalHistBits-1)].Taken()
	choice := t.choiceCtr[int(pc>>2)&(t.cfg.ChoiceEntries-1)].Taken()
	if choice {
		return globalPred
	}
	return localPred
}

// ShiftSpec records a predicted outcome in the speculative global
// history (called at prediction time when speculative update is on).
func (t *Tournament) ShiftSpec(taken bool) {
	t.specHist = shift(t.specHist, taken, t.cfg.GlobalHistBits)
}

// RebuildSpec reconstructs the speculative history as the retired
// history extended by the given in-flight branch outcomes in program
// order (actual outcomes for resolved branches, predictions for
// unresolved ones). This is the precise recovery the 21264 performs
// when it repairs the history register after a mis-speculation.
func (t *Tournament) RebuildSpec(outcomes []bool) {
	h := t.retHist
	for _, o := range outcomes {
		h = shift(h, o, t.cfg.GlobalHistBits)
	}
	t.specHist = h
}

// Resolve trains the predictor with the actual outcome of the branch
// at pc and advances the retired history. It returns the direction
// the tables would have predicted at resolution time with the retired
// history, which callers can use for bookkeeping.
func (t *Tournament) Resolve(pc uint64, taken bool) {
	li := t.localIndex(pc)
	lh := t.localHist[li] & uint32(1<<t.cfg.LocalHistBits-1)
	localPred := t.localCtr[lh].Taken()
	gi := t.retHist & uint32(1<<t.cfg.GlobalHistBits-1)
	globalPred := t.globalCtr[gi].Taken()

	// Train direction tables.
	if taken {
		t.localCtr[lh].Inc()
		t.globalCtr[gi].Inc()
	} else {
		t.localCtr[lh].Dec()
		t.globalCtr[gi].Dec()
	}
	// Train the choice table only when the components disagree.
	if localPred != globalPred {
		ci := int(pc>>2) & (t.cfg.ChoiceEntries - 1)
		if globalPred == taken {
			t.choiceCtr[ci].Inc()
		} else {
			t.choiceCtr[ci].Dec()
		}
	}
	// Advance histories.
	t.localHist[li] = shift(t.localHist[li], taken, t.cfg.LocalHistBits)
	t.retHist = shift(t.retHist, taken, t.cfg.GlobalHistBits)
}

func shift(h uint32, taken bool, bits int) uint32 {
	h <<= 1
	if taken {
		h |= 1
	}
	return h & uint32(1<<bits-1)
}

// Line is the 21264 line predictor: one next-fetch prediction per
// I-cache octaword. A prediction is the full byte address of the next
// fetch packet. Entries are trained by the front end as it fetches
// (speculative training) and repaired on misprediction.
type Line struct {
	entries []uint64
	valid   []bool
	// InitTaken selects the initialization state discussed in the
	// paper (the "01" initialization bits): when a line has no
	// prediction yet, predict sequential fetch.
	Lookups     uint64
	Mispredicts uint64
}

// NewLine returns a line predictor with the given number of entries
// (one per I-cache octaword; 21264: 64KB/16B = 4096).
func NewLine(entries int) *Line {
	return &Line{entries: make([]uint64, entries), valid: make([]bool, entries)}
}

func (l *Line) index(fetchPC uint64) int {
	return int(fetchPC>>4) & (len(l.entries) - 1)
}

// Predict returns the predicted address of the fetch packet after the
// one at fetchPC. Untrained entries predict sequential fetch.
func (l *Line) Predict(fetchPC uint64) uint64 {
	l.Lookups++
	i := l.index(fetchPC)
	if !l.valid[i] {
		return (fetchPC + 16) &^ 15
	}
	return l.entries[i]
}

// Train records that the packet after fetchPC was actually at next.
func (l *Line) Train(fetchPC, next uint64) {
	i := l.index(fetchPC)
	l.entries[i] = next &^ 3
	l.valid[i] = true
}

// Way predicts which way of the set-associative I-cache holds the
// next fetch line, avoiding a full tag probe. A misprediction costs a
// two-cycle bubble (one cycle in sim-initial's buggy accounting,
// which charged an extra access cycle).
type Way struct {
	ways  []uint8
	valid []bool

	Lookups     uint64
	Mispredicts uint64
}

// NewWay returns a way predictor with one entry per I-cache set.
func NewWay(sets int) *Way {
	return &Way{ways: make([]uint8, sets), valid: make([]bool, sets)}
}

// Predict returns the predicted way for set, or 0 if untrained.
func (w *Way) Predict(set int) uint8 {
	w.Lookups++
	i := set & (len(w.ways) - 1)
	if !w.valid[i] {
		return 0
	}
	return w.ways[i]
}

// Train records the way that actually hit for set.
func (w *Way) Train(set int, way uint8) {
	i := set & (len(w.ways) - 1)
	w.ways[i] = way
	w.valid[i] = true
}

// RAS is a return address stack with wrap-around overflow, as on the
// 21264.
type RAS struct {
	entries []uint64
	top     int // index of next push
	depth   int
}

// NewRAS returns a stack with the given capacity (21264: 32).
func NewRAS(capacity int) *RAS {
	return &RAS{entries: make([]uint64, capacity)}
}

// Push records a return address (on BSR/JSR fetch).
func (r *RAS) Push(addr uint64) {
	r.entries[r.top] = addr
	r.top = (r.top + 1) % len(r.entries)
	if r.depth < len(r.entries) {
		r.depth++
	}
}

// Pop predicts and removes the most recent return address. ok is
// false when the stack is empty (prediction falls back elsewhere).
func (r *RAS) Pop() (uint64, bool) {
	if r.depth == 0 {
		return 0, false
	}
	r.top = (r.top - 1 + len(r.entries)) % len(r.entries)
	r.depth--
	return r.entries[r.top], true
}

// LoadUse is the 21264 load-use predictor: a single four-bit
// saturating counter that speculates whether loads hit in the L1 data
// cache, enabling consumers to issue before the hit/miss outcome is
// known.
type LoadUse struct {
	ctr SatCounter

	Lookups     uint64
	Mispredicts uint64
}

// NewLoadUse returns the predictor initialized to predict hits, as
// the real hardware quickly saturates to in cache-resident code.
func NewLoadUse() *LoadUse {
	return &LoadUse{ctr: NewSatCounter(4, 15)}
}

// PredictHit reports whether the next load is predicted to hit.
func (p *LoadUse) PredictHit() bool {
	p.Lookups++
	return p.ctr.Taken()
}

// Train records an actual load outcome. The hardware decrements by
// two on a miss and increments by one on a hit, making the predictor
// conservative after miss bursts.
func (p *LoadUse) Train(hit bool) {
	if hit {
		p.ctr.Inc()
	} else {
		p.ctr.Dec()
		p.ctr.Dec()
	}
}

// StoreWait is the 21264 store-wait predictor: a 1024 x 1-bit table
// indexed by load PC. A set bit forces the load to wait for all prior
// stores, avoiding store replay traps. The table is cleared
// periodically so stale conservatism decays.
type StoreWait struct {
	bits []bool
	// ClearInterval is the number of cycles between table flushes
	// (the hardware clears every 32K cycles). Zero disables clearing.
	ClearInterval uint64
	lastClear     uint64

	Lookups uint64
	Sets    uint64
}

// NewStoreWait returns a 1024-entry store-wait table.
func NewStoreWait() *StoreWait {
	return &StoreWait{bits: make([]bool, 1024), ClearInterval: 32768}
}

// ShouldWait reports whether the load at pc must wait for prior
// stores. now is the current cycle, used for periodic clearing.
func (s *StoreWait) ShouldWait(pc uint64, now uint64) bool {
	s.Lookups++
	if s.ClearInterval != 0 && now-s.lastClear >= s.ClearInterval {
		for i := range s.bits {
			s.bits[i] = false
		}
		s.lastClear = now
	}
	return s.bits[int(pc>>2)&(len(s.bits)-1)]
}

// MarkTrap records that the load at pc caused a store replay trap.
func (s *StoreWait) MarkTrap(pc uint64) {
	s.Sets++
	s.bits[int(pc>>2)&(len(s.bits)-1)] = true
}
