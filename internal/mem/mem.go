// Package mem defines the contract between the cache hierarchy and
// whatever sits below it: a main-memory timing backend. It is a leaf
// package — no repository imports — so both the flat SDRAM model
// (internal/dram) and the cycle-accurate DDR controller (internal/ddr)
// can implement the interface without creating an import cycle with
// the hierarchy that drives them, and internal tests of the cache
// package can keep constructing concrete backends directly.
package mem

// Stats is the backend-neutral counter set every memory backend
// reports. The flat SDRAM model maps its page-hit accounting onto the
// row fields; the DDR controller fills every field. Queue fields stay
// zero on backends without a request queue.
type Stats struct {
	Accesses uint64
	// RowHits/RowMisses/RowEmpty classify each access against the
	// bank's row buffer: open-row hit (column access only), conflict
	// (wrong row open: precharge + activate + column), and empty (bank
	// closed: activate + column).
	RowHits   uint64
	RowMisses uint64
	RowEmpty  uint64
	// BankConflicts counts accesses that had to wait behind earlier
	// work on the same bank.
	BankConflicts uint64
	// QueueWaits totals the CPU cycles accesses spent waiting for a
	// slot in a bounded per-bank request queue; QueueOccupancy
	// accumulates the queue depth observed at each arrival (divide by
	// Accesses for the mean).
	QueueWaits     uint64
	QueueOccupancy uint64
}

// Memory is one main-memory timing backend under the L2: given the
// physical address of a block access and the CPU cycle it reaches the
// controller, it returns the total load-to-use latency in CPU cycles
// and advances its internal bank/bus state. Implementations must be
// deterministic: the same call sequence always produces the same
// latencies and statistics, at any host parallelism.
type Memory interface {
	// Access performs one block read (write=false) or write-allocate
	// fill (write=true) beginning at CPU cycle now and returns its
	// total latency in CPU cycles.
	Access(paddr uint64, write bool, now uint64) int
	// MinLatency returns the best-case (row hit, idle bank) access
	// latency in CPU cycles, used by tests and documentation tables.
	MinLatency() int
	// MemStats returns the backend's accumulated counters.
	MemStats() Stats
}
