package ddr

import "repro/internal/mem"

// CmdKind enumerates DRAM commands for the trace hook.
type CmdKind uint8

// The DRAM command kinds emitted to a Trace hook.
const (
	CmdPRE CmdKind = iota // precharge (explicit or auto)
	CmdACT                // row activate
	CmdRD                 // column read
	CmdWR                 // column write
)

func (k CmdKind) String() string {
	switch k {
	case CmdPRE:
		return "PRE"
	case CmdACT:
		return "ACT"
	case CmdRD:
		return "RD"
	case CmdWR:
		return "WR"
	}
	return "?"
}

// Cmd is one scheduled DRAM command, reported to the trace hook once
// its request completes (command times are final by then — FR-FCFS
// can reschedule queued requests up to the moment they issue). At is
// in CPU cycles.
type Cmd struct {
	Kind    CmdKind
	Channel int
	Rank    int
	Bank    int
	Row     int64
	At      uint64
}

// req is one queued block access with its computed command schedule,
// all times in CPU cycles.
type req struct {
	row     int64
	write   bool
	arrival uint64 // queue-entry time (post queue-wait)
	starve  int    // times bypassed by a younger row hit

	hasPre, hasAct bool
	preAt, actAt   uint64
	casAt          uint64
	burstAt        uint64 // first data beat on the channel
	finish         uint64 // last data beat + 1 slot: request complete
	leaveOpen      bool   // row-policy decision, frozen at insertion
	readyForAct    uint64 // earliest ACT a successor may issue (auto/explicit precharge done)
	actOKAt        uint64 // earliest next same-bank ACT (tRC after the last ACT)
	preOKAt        uint64 // earliest next same-bank PRE (tRAS after ACT, tWR after write data)
}

// start returns the time of the request's first command: entries with
// start <= the current arrival horizon have issued and can no longer
// be bypassed or rescheduled.
func (e *req) start() uint64 {
	if e.hasPre {
		return e.preAt
	}
	if e.hasAct {
		return e.actAt
	}
	return e.casAt
}

// bank is one DRAM bank: the committed state left by retired requests
// plus the queue of pending (scheduled but incomplete) ones.
type bank struct {
	channel, rank, index int

	pending []*req

	// Committed state at the retire boundary.
	row         int64  // open row, -1 when precharged
	free        uint64 // completion time of the last retired request
	readyForAct uint64
	actOKAt     uint64
	preOKAt     uint64
	adapt       uint8 // adaptive-policy 2-bit saturating counter
}

// rank tracks the per-rank ACTIVATE ledger used to enforce tRRD and
// tFAW across the rank's banks. Times are CPU cycles, sorted
// ascending; the ledger keeps a bounded recent window (any legal tFAW
// window holds at most four ACTIVATEs, so 64 entries is far more
// history than the constraints can reach).
type rankState struct {
	acts []uint64
}

const ledgerCap = 64

// channelState tracks reserved data-bus burst windows as a sorted
// interval list so a rescheduled burst can release its old slot and
// an FR-FCFS hit can claim idle gaps without double-booking the bus.
type channelState struct {
	resv []ival
}

type ival struct{ start, end uint64 }

// Controller is one DDR memory subsystem implementing mem.Memory.
// It schedules each access into per-bank command timelines at
// insertion time: every command's cycle is fixed when the request
// enters the queue and revised only when a younger FR-FCFS row hit
// bypasses it (at most StarveLimit times). The zero value is
// unusable; use New.
//
// Determinism: scheduling depends only on the Access call sequence,
// never on host state, so the same stream of calls produces the same
// latencies, statistics and command trace at any parallelism.
type Controller struct {
	cfg   Config
	banks []bank
	ranks []rankState
	chans []channelState
	stats mem.Stats

	// Trace, when set, receives every command of each request in
	// issue order as the request completes (Flush drains the rest).
	// It lives on the Controller, not the Config, so configurations
	// stay plain data — fingerprintable and sweepable.
	Trace func(Cmd)

	maxStarve int    // high-water mark of req.starve, for invariant tests
	horizon   uint64 // latest arrival seen: completed work before it is prunable
}

// New returns a controller with all banks precharged and queues
// empty. The configuration must satisfy Check; New panics otherwise
// so a mis-built sweep fails loudly at construction, not mid-run.
func New(cfg Config) *Controller {
	if err := cfg.Check(); err != nil {
		panic(err)
	}
	c := &Controller{
		cfg:   cfg,
		banks: make([]bank, cfg.Channels*cfg.Ranks*cfg.Banks),
		ranks: make([]rankState, cfg.Channels*cfg.Ranks),
		chans: make([]channelState, cfg.Channels),
	}
	for i := range c.banks {
		b := &c.banks[i]
		b.channel = i / (cfg.Ranks * cfg.Banks)
		b.rank = (i / cfg.Banks) % cfg.Ranks
		b.index = i % cfg.Banks
		b.row = -1
		b.adapt = 2 // adaptive starts leaning open, like the DS-10L
	}
	return c
}

// Config returns the configuration the controller was built with.
func (c *Controller) Config() Config { return c.cfg }

// CPU-cycle versions of the DRAM-cycle timing parameters.
func (c *Controller) trcd() uint64   { return uint64(c.cfg.TRCD * c.cfg.ClockRatio) }
func (c *Controller) tcl() uint64    { return uint64(c.cfg.TCL * c.cfg.ClockRatio) }
func (c *Controller) trp() uint64    { return uint64(c.cfg.TRP * c.cfg.ClockRatio) }
func (c *Controller) tras() uint64   { return uint64(c.cfg.TRAS * c.cfg.ClockRatio) }
func (c *Controller) trrd() uint64   { return uint64(c.cfg.TRRD * c.cfg.ClockRatio) }
func (c *Controller) tfaw() uint64   { return uint64(c.cfg.TFAW * c.cfg.ClockRatio) }
func (c *Controller) twr() uint64    { return uint64(c.cfg.TWR * c.cfg.ClockRatio) }
func (c *Controller) tburst() uint64 { return uint64(c.cfg.BurstCycles * c.cfg.ClockRatio) }
func (c *Controller) trc() uint64    { return c.tras() + c.trp() }

// locate maps a physical block address onto the topology: channels
// interleave at 64-byte block granularity (adjacent blocks stream on
// different buses), banks and ranks at row granularity (a streaming
// row stays in one bank; neighbors land on other banks' row buffers).
func (c *Controller) locate(paddr uint64) (ch, rk, bk int, row int64) {
	block := paddr / 64
	ch = int(block % uint64(c.cfg.Channels))
	rest := block / uint64(c.cfg.Channels)
	unit := rest / uint64(c.cfg.RowBytes/64)
	bk = int(unit % uint64(c.cfg.Banks))
	unit /= uint64(c.cfg.Banks)
	rk = int(unit % uint64(c.cfg.Ranks))
	row = int64(unit / uint64(c.cfg.Ranks))
	return ch, rk, bk, row
}

func (c *Controller) bankAt(ch, rk, bk int) *bank {
	return &c.banks[(ch*c.cfg.Ranks+rk)*c.cfg.Banks+bk]
}

// Access implements mem.Memory: one block read or write-allocate fill
// beginning at CPU cycle now. The returned latency covers controller
// overhead, any wait for a free queue slot, queueing behind earlier
// work, and the full command-and-burst schedule. A request bypassed
// later by an FR-FCFS row hit keeps the latency reported here; the
// delay it absorbs is visible to subsequent arrivals through the
// bank's occupancy (the synchronous interface prices each access when
// it arrives, as the flat model does).
func (c *Controller) Access(paddr uint64, write bool, now uint64) int {
	c.stats.Accesses++
	chIdx, rkIdx, bkIdx, row := c.locate(paddr)
	b := c.bankAt(chIdx, rkIdx, bkIdx)
	arrival0 := now + uint64(c.cfg.ControllerCycles/2)
	if arrival0 > c.horizon {
		c.horizon = arrival0
	}
	c.retire(b, arrival0)
	c.chans[chIdx].pruneTo(c.horizon)

	// Bounded queue: wait for the oldest entry to complete, slot by
	// slot, until there is room.
	arrival := arrival0
	for len(b.pending) >= c.cfg.QueueDepth {
		if f := b.pending[0].finish; f > arrival {
			c.stats.QueueWaits += f - arrival
			arrival = f
		}
		c.retireOne(b)
	}
	c.stats.QueueOccupancy += uint64(len(b.pending))

	e := &req{row: row, write: write, arrival: arrival}
	pos := c.insertPos(b, e, arrival)

	// Classify against the row the request will actually find open at
	// its queue position, and freeze the row-policy decision.
	before := c.rowOpenBefore(b, pos)
	switch {
	case before == row:
		c.stats.RowHits++
		if c.cfg.RowPolicy == PolicyAdaptive && b.adapt < 3 {
			b.adapt++
		}
	case before < 0:
		c.stats.RowEmpty++
	default:
		c.stats.RowMisses++
		if c.cfg.RowPolicy == PolicyAdaptive && b.adapt > 0 {
			b.adapt--
		}
	}
	switch c.cfg.RowPolicy {
	case PolicyOpen:
		e.leaveOpen = true
	case PolicyClosed:
		e.leaveOpen = false
	case PolicyAdaptive:
		e.leaveOpen = b.adapt >= 2
	}
	if c.bankFreeAt(b, pos) > arrival {
		c.stats.BankConflicts++
	}

	b.pending = append(b.pending, nil)
	copy(b.pending[pos+1:], b.pending[pos:])
	b.pending[pos] = e
	c.rescheduleFrom(b, pos)

	// Latency: inbound controller half is inside arrival0; the
	// remainder of the controller overhead is the return trip.
	return int(e.finish-now) + c.cfg.ControllerCycles - c.cfg.ControllerCycles/2
}

// insertPos picks the queue position for a new request. FCFS always
// appends. FR-FCFS lets a request that hits the row buffer at some
// position bypass every queued conflicting request after it, unless
// one of them has already been bypassed StarveLimit times or has
// issued its first command.
func (c *Controller) insertPos(b *bank, e *req, arrival uint64) int {
	n := len(b.pending)
	if c.cfg.Scheduler != SchedFRFCFS {
		return n
	}
	for i := 0; i < n; i++ {
		p := b.pending[i]
		if p.start() <= arrival {
			continue // already issued: immovable
		}
		open := c.rowOpenBefore(b, i)
		if open != e.row || p.row == open {
			continue // not a hit here, or the queued entry hits too
		}
		ok := true
		for _, q := range b.pending[i:] {
			if q.starve >= c.cfg.StarveLimit {
				ok = false
				break
			}
		}
		if !ok {
			break
		}
		for _, q := range b.pending[i:] {
			q.starve++
			if q.starve > c.maxStarve {
				c.maxStarve = q.starve
			}
		}
		return i
	}
	return n
}

// rowOpenBefore reports the row a request at queue position pos finds
// open: the row left by its predecessor, or the committed bank state
// when it would be first in line.
func (c *Controller) rowOpenBefore(b *bank, pos int) int64 {
	if pos == 0 {
		return b.row
	}
	p := b.pending[pos-1]
	if p.leaveOpen {
		return p.row
	}
	return -1
}

// bankFreeAt reports when the bank finishes the work ahead of queue
// position pos.
func (c *Controller) bankFreeAt(b *bank, pos int) uint64 {
	if pos == 0 {
		return b.free
	}
	return b.pending[pos-1].finish
}

// rescheduleFrom recomputes the command schedule of every pending
// request at position pos and later, in queue order. Earlier entries
// are untouched; rescheduled ACTIVATEs release their rank-ledger
// slots and rescheduled bursts their channel reservations before the
// rewalk, so the constraints are re-solved against live state only.
func (c *Controller) rescheduleFrom(b *bank, pos int) {
	rk := &c.ranks[b.channel*c.cfg.Ranks+b.rank]
	ch := &c.chans[b.channel]
	for _, e := range b.pending[pos:] {
		if e.hasAct {
			rk.remove(e.actAt)
		}
		if e.finish > 0 {
			ch.release(e.burstAt)
		}
	}
	for i := pos; i < len(b.pending); i++ {
		c.schedule(b, rk, ch, i)
	}
}

// schedule computes the command timeline of the request at queue
// position pos from its predecessor's state and the rank/channel
// constraints.
func (c *Controller) schedule(b *bank, rk *rankState, ch *channelState, pos int) {
	e := b.pending[pos]
	var open int64
	var free, readyForAct, actOK, preOK uint64
	if pos == 0 {
		open, free, readyForAct = b.row, b.free, b.readyForAct
		actOK, preOK = b.actOKAt, b.preOKAt
	} else {
		p := b.pending[pos-1]
		if p.leaveOpen {
			open = p.row
		} else {
			open = -1
		}
		free, readyForAct = p.finish, p.readyForAct
		actOK, preOK = p.actOKAt, p.preOKAt
	}

	t0 := max64(e.arrival, free)
	e.hasPre, e.hasAct = false, false
	e.actOKAt, e.preOKAt = actOK, preOK
	if open == e.row {
		// Row hit: column access straight away.
		e.casAt = t0
	} else {
		actLB := max64(t0, readyForAct)
		if open >= 0 {
			// Row conflict: precharge first. preOK already folds in
			// tRAS after the row's ACTIVATE and tWR after write data.
			e.hasPre = true
			e.preAt = max64(t0, preOK)
			actLB = max64(actLB, e.preAt+c.trp())
		}
		e.hasAct = true
		e.actAt = rk.place(max64(actLB, actOK), c.trrd(), c.tfaw())
		e.actOKAt = e.actAt + c.trc()
		e.preOKAt = e.actAt + c.tras()
		e.casAt = e.actAt + c.trcd()
	}

	// The data burst takes the earliest free window on the channel;
	// the column command is then pinned tCL before the data, exactly
	// as the device would see it.
	e.burstAt = ch.reserve(e.casAt+c.tcl(), c.tburst())
	e.casAt = e.burstAt - c.tcl()
	e.finish = e.burstAt + c.tburst()
	if e.write {
		e.preOKAt = max64(e.preOKAt, e.finish+c.twr())
	}
	if e.leaveOpen {
		e.readyForAct = readyForAct
	} else {
		// Auto-precharge as soon as the data and the tRAS/tWR windows
		// allow, then tRP before the next ACTIVATE.
		pre := max64(e.finish, e.preOKAt)
		e.preOKAt = pre
		e.readyForAct = pre + c.trp()
	}
}

// retire completes every pending request of the bank that has
// finished by the horizon, committing its end state and emitting its
// commands to the trace hook.
func (c *Controller) retire(b *bank, horizon uint64) {
	for len(b.pending) > 0 && b.pending[0].finish <= horizon {
		c.retireOne(b)
	}
}

func (c *Controller) retireOne(b *bank) {
	e := b.pending[0]
	b.pending = b.pending[1:]
	if e.leaveOpen {
		b.row = e.row
	} else {
		b.row = -1
	}
	b.free = e.finish
	b.readyForAct = e.readyForAct
	b.actOKAt = e.actOKAt
	b.preOKAt = e.preOKAt
	if c.Trace == nil {
		return
	}
	emit := func(k CmdKind, at uint64) {
		c.Trace(Cmd{Kind: k, Channel: b.channel, Rank: b.rank, Bank: b.index, Row: e.row, At: at})
	}
	if e.hasPre {
		emit(CmdPRE, e.preAt)
	}
	if e.hasAct {
		emit(CmdACT, e.actAt)
	}
	if e.write {
		emit(CmdWR, e.casAt)
	} else {
		emit(CmdRD, e.casAt)
	}
	if !e.leaveOpen {
		emit(CmdPRE, e.readyForAct-c.trp())
	}
}

// Flush retires every pending request (the end-of-run drain for the
// trace hook and the committed statistics).
func (c *Controller) Flush() {
	for i := range c.banks {
		b := &c.banks[i]
		for len(b.pending) > 0 {
			c.retireOne(b)
		}
	}
}

// MinLatency implements mem.Memory: best case is a row hit on an idle
// bank with a free channel.
func (c *Controller) MinLatency() int {
	return c.cfg.ControllerCycles + (c.cfg.TCL+c.cfg.BurstCycles)*c.cfg.ClockRatio
}

// MemStats implements mem.Memory.
func (c *Controller) MemStats() mem.Stats { return c.stats }

// place finds the earliest cycle >= lb at which an ACTIVATE may issue
// on the rank: at least trrd from every ledger entry on either side
// (insertion between already-scheduled ACTIVATEs must respect both
// neighbors), and never a fifth ACTIVATE inside any tfaw window. The
// chosen cycle is recorded in the ledger.
func (r *rankState) place(lb, trrd, tfaw uint64) uint64 {
	t := lb
	for {
		nt, ok := r.check(t, trrd, tfaw)
		if ok {
			break
		}
		t = nt // every bump strictly increases t, so this terminates
	}
	r.insert(t)
	return t
}

// check validates a candidate ACTIVATE cycle against the ledger. It
// returns (t, true) when legal, or (bumped, false) with the earliest
// cycle worth retrying.
func (r *rankState) check(t, trrd, tfaw uint64) (uint64, bool) {
	for _, a := range r.acts {
		if a <= t && t-a < trrd {
			return a + trrd, false
		}
		if a > t && a-t < trrd {
			return a + trrd, false
		}
	}
	// tFAW: insert t into a sorted copy and verify every window of
	// five consecutive ACTIVATEs spans at least tfaw.
	ts := make([]uint64, len(r.acts), len(r.acts)+1)
	copy(ts, r.acts)
	ts = append(ts, t)
	k := len(ts) - 1
	for k > 0 && ts[k-1] > ts[k] {
		ts[k-1], ts[k] = ts[k], ts[k-1]
		k--
	}
	for i := 4; i < len(ts); i++ {
		if i-4 <= k && k <= i && ts[i]-ts[i-4] < tfaw {
			// The window starting at ts[i-4] is over-full; the first
			// cycle outside it is ts[i-4]+tfaw, which is strictly
			// after t (the window spans less than tfaw and holds t).
			return ts[i-4] + tfaw, false
		}
	}
	return t, true
}

func (r *rankState) insert(t uint64) {
	r.acts = append(r.acts, t)
	for i := len(r.acts) - 1; i > 0 && r.acts[i-1] > r.acts[i]; i-- {
		r.acts[i-1], r.acts[i] = r.acts[i], r.acts[i-1]
	}
	if len(r.acts) > ledgerCap {
		r.acts = r.acts[len(r.acts)-ledgerCap:]
	}
}

func (r *rankState) remove(t uint64) {
	for i, a := range r.acts {
		if a == t {
			r.acts = append(r.acts[:i], r.acts[i+1:]...)
			return
		}
	}
}

// reserve books the earliest burst window of the given length
// starting at or after lb on the channel's data bus and returns its
// start.
func (ch *channelState) reserve(lb, length uint64) uint64 {
	t := lb
	for i := 0; i <= len(ch.resv); i++ {
		var gapEnd uint64
		if i < len(ch.resv) {
			gapEnd = ch.resv[i].start
		} else {
			gapEnd = ^uint64(0)
		}
		if t+length <= gapEnd {
			ch.resv = append(ch.resv, ival{})
			copy(ch.resv[i+1:], ch.resv[i:])
			ch.resv[i] = ival{start: t, end: t + length}
			ch.prune()
			return t
		}
		if i < len(ch.resv) && ch.resv[i].end > t {
			t = ch.resv[i].end
		}
	}
	// Unreachable: the loop always finds the unbounded tail gap.
	panic("ddr: channel reservation fell through")
}

// release frees the reservation starting at the given cycle (used
// when a request is rescheduled).
func (ch *channelState) release(start uint64) {
	for i, v := range ch.resv {
		if v.start == start {
			ch.resv = append(ch.resv[:i], ch.resv[i+1:]...)
			return
		}
	}
}

// pruneTo drops leading reservations that completed before the
// controller's arrival horizon: with a non-decreasing clock every new
// burst lower bound is past the horizon, so they can no longer
// constrain placement. Keeps the live set at in-flight size.
func (ch *channelState) pruneTo(horizon uint64) {
	i := 0
	for i < len(ch.resv) && ch.resv[i].end <= horizon {
		i++
	}
	if i > 0 {
		ch.resv = append(ch.resv[:0], ch.resv[i:]...)
	}
}

// prune is the backstop size cap behind pruneTo (a stalled clock must
// not grow the list without bound).
func (ch *channelState) prune() {
	const resvCap = 1 << 16
	if len(ch.resv) > resvCap {
		ch.resv = ch.resv[len(ch.resv)-resvCap:]
	}
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
