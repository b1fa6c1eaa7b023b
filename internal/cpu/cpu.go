// Package cpu implements the AXP-lite functional simulator. It
// executes programs architecturally and streams dynamic instruction
// records; every timing model in this repository consumes that stream
// (trace-driven timing, see DESIGN.md).
package cpu

import (
	"fmt"
	"math"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/vm"
)

// Record describes one dynamically executed instruction: everything a
// timing model needs to account for its cost, and nothing about
// microarchitectural state.
type Record struct {
	Seq    uint64   // dynamic instruction number, from 0
	PC     uint64   // byte address of the instruction
	Inst   isa.Inst // the decoded instruction
	NextPC uint64   // architecturally correct next PC
	Taken  bool     // for branches: whether the branch was taken
	EA     uint64   // for loads/stores: virtual effective address
}

// IsBranch reports whether the record is any control transfer.
func (r Record) IsBranch() bool { return r.Inst.Op.Class().IsBranch() }

// Source yields dynamic instruction records in program order.
// Next returns ok=false after the final (HALT) instruction has been
// delivered.
type Source interface {
	Next() (Record, bool)
}

// CPU is the architectural state of one AXP-lite processor plus the
// program it runs. CPU implements Source.
type CPU struct {
	Prog *asm.Program
	Mem  *vm.Memory

	PC     uint64
	R      [isa.NumRegs]uint64  // integer register file
	F      [isa.NumRegs]float64 // floating-point register file
	halted bool
	seq    uint64
	err    error
}

// New returns a CPU with the program loaded: data segments copied
// into memory, SP at the top of the stack, PC at the entry point.
func New(p *asm.Program) *CPU {
	c := &CPU{Prog: p, Mem: vm.NewMemory(), PC: p.Entry}
	for _, seg := range p.Segments {
		c.Mem.SetBytes(seg.Addr, seg.Bytes)
	}
	c.R[isa.SP] = asm.StackTop
	return c
}

// Halted reports whether the program has executed HALT.
func (c *CPU) Halted() bool { return c.halted }

// Err returns the first execution error (illegal PC, etc.), if any.
func (c *CPU) Err() error { return c.err }

// Next implements Source: it executes one instruction and returns its
// record. After HALT (which is itself delivered) or an error it
// returns ok=false.
func (c *CPU) Next() (Record, bool) {
	if c.halted || c.err != nil {
		return Record{}, false
	}
	in, ok := c.Prog.InstAt(c.PC)
	if !ok {
		c.err = fmt.Errorf("cpu: PC %#x outside text segment", c.PC)
		return Record{}, false
	}
	rec := Record{Seq: c.seq, PC: c.PC, Inst: in}
	c.seq++
	nextPC := c.PC + isa.WordBytes

	rb := func() uint64 {
		if in.UseLit {
			return uint64(in.Lit)
		}
		return c.R[in.Rb]
	}
	setR := func(r isa.Reg, v uint64) {
		if r != isa.Zero {
			c.R[r] = v
		}
	}
	setF := func(r isa.Reg, v float64) {
		if r != isa.Zero {
			c.F[r] = v
		}
	}
	boolTo := func(b bool) uint64 {
		if b {
			return 1
		}
		return 0
	}

	switch in.Op {
	case isa.OpUnop:
	case isa.OpHalt:
		c.halted = true

	case isa.OpAddq:
		setR(in.Rc, c.R[in.Ra]+rb())
	case isa.OpSubq:
		setR(in.Rc, c.R[in.Ra]-rb())
	case isa.OpMulq:
		setR(in.Rc, c.R[in.Ra]*rb())
	case isa.OpAnd:
		setR(in.Rc, c.R[in.Ra]&rb())
	case isa.OpBis:
		setR(in.Rc, c.R[in.Ra]|rb())
	case isa.OpXor:
		setR(in.Rc, c.R[in.Ra]^rb())
	case isa.OpSll:
		setR(in.Rc, c.R[in.Ra]<<(rb()&63))
	case isa.OpSrl:
		setR(in.Rc, c.R[in.Ra]>>(rb()&63))
	case isa.OpSra:
		setR(in.Rc, uint64(int64(c.R[in.Ra])>>(rb()&63)))
	case isa.OpCmpeq:
		setR(in.Rc, boolTo(c.R[in.Ra] == rb()))
	case isa.OpCmplt:
		setR(in.Rc, boolTo(int64(c.R[in.Ra]) < int64(rb())))
	case isa.OpCmple:
		setR(in.Rc, boolTo(int64(c.R[in.Ra]) <= int64(rb())))
	case isa.OpCmpult:
		setR(in.Rc, boolTo(c.R[in.Ra] < rb()))
	case isa.OpCmoveq:
		if c.R[in.Ra] == 0 {
			setR(in.Rc, rb())
		}
	case isa.OpCmovne:
		if c.R[in.Ra] != 0 {
			setR(in.Rc, rb())
		}
	case isa.OpS4addq:
		setR(in.Rc, c.R[in.Ra]*4+rb())
	case isa.OpS8addq:
		setR(in.Rc, c.R[in.Ra]*8+rb())
	case isa.OpZapnot:
		mask := rb()
		var keep uint64
		for b := uint64(0); b < 8; b++ {
			if mask>>b&1 == 1 {
				keep |= uint64(0xff) << (8 * b)
			}
		}
		setR(in.Rc, c.R[in.Ra]&keep)
	case isa.OpExtbl:
		shift := (rb() & 7) * 8
		setR(in.Rc, c.R[in.Ra]>>shift&0xff)

	case isa.OpLda:
		setR(in.Ra, c.R[in.Rb]+uint64(int64(in.Disp)))
	case isa.OpLdah:
		setR(in.Ra, c.R[in.Rb]+uint64(int64(in.Disp)*65536))
	case isa.OpLdq:
		rec.EA = c.R[in.Rb] + uint64(int64(in.Disp))
		setR(in.Ra, c.Mem.Read64(rec.EA))
	case isa.OpLdl:
		rec.EA = c.R[in.Rb] + uint64(int64(in.Disp))
		setR(in.Ra, uint64(int64(int32(c.Mem.Read32(rec.EA)))))
	case isa.OpStq:
		rec.EA = c.R[in.Rb] + uint64(int64(in.Disp))
		c.Mem.Write64(rec.EA, c.R[in.Ra])
	case isa.OpStl:
		rec.EA = c.R[in.Rb] + uint64(int64(in.Disp))
		c.Mem.Write32(rec.EA, uint32(c.R[in.Ra]))
	case isa.OpLdbu:
		rec.EA = c.R[in.Rb] + uint64(int64(in.Disp))
		setR(in.Ra, uint64(c.Mem.Byte(rec.EA)))
	case isa.OpStb:
		rec.EA = c.R[in.Rb] + uint64(int64(in.Disp))
		c.Mem.SetByte(rec.EA, byte(c.R[in.Ra]))
	case isa.OpLdt:
		rec.EA = c.R[in.Rb] + uint64(int64(in.Disp))
		setF(in.Ra, math.Float64frombits(c.Mem.Read64(rec.EA)))
	case isa.OpLds:
		rec.EA = c.R[in.Rb] + uint64(int64(in.Disp))
		setF(in.Ra, float64(math.Float32frombits(c.Mem.Read32(rec.EA))))
	case isa.OpStt:
		rec.EA = c.R[in.Rb] + uint64(int64(in.Disp))
		c.Mem.Write64(rec.EA, math.Float64bits(c.F[in.Ra]))
	case isa.OpSts:
		rec.EA = c.R[in.Rb] + uint64(int64(in.Disp))
		c.Mem.Write32(rec.EA, math.Float32bits(float32(c.F[in.Ra])))

	case isa.OpBeq, isa.OpBne, isa.OpBlt, isa.OpBle, isa.OpBgt, isa.OpBge,
		isa.OpBlbc, isa.OpBlbs:
		v := int64(c.R[in.Ra])
		var take bool
		switch in.Op {
		case isa.OpBeq:
			take = v == 0
		case isa.OpBne:
			take = v != 0
		case isa.OpBlt:
			take = v < 0
		case isa.OpBle:
			take = v <= 0
		case isa.OpBgt:
			take = v > 0
		case isa.OpBge:
			take = v >= 0
		case isa.OpBlbc:
			take = v&1 == 0
		case isa.OpBlbs:
			take = v&1 == 1
		}
		if take {
			nextPC = in.BranchTarget(c.PC)
			rec.Taken = true
		}
	case isa.OpFbeq, isa.OpFbne:
		v := c.F[in.Ra]
		take := (in.Op == isa.OpFbeq) == (v == 0)
		if take {
			nextPC = in.BranchTarget(c.PC)
			rec.Taken = true
		}
	case isa.OpBr, isa.OpBsr:
		setR(in.Ra, c.PC+isa.WordBytes)
		nextPC = in.BranchTarget(c.PC)
		rec.Taken = true
	case isa.OpJmp, isa.OpJsr, isa.OpRet:
		target := c.R[in.Rb] &^ 3
		setR(in.Ra, c.PC+isa.WordBytes)
		nextPC = target
		rec.Taken = true

	case isa.OpAddt:
		setF(in.Rc, c.F[in.Ra]+c.F[in.Rb])
	case isa.OpSubt:
		setF(in.Rc, c.F[in.Ra]-c.F[in.Rb])
	case isa.OpMult:
		setF(in.Rc, c.F[in.Ra]*c.F[in.Rb])
	case isa.OpDivt:
		setF(in.Rc, c.F[in.Ra]/c.F[in.Rb])
	case isa.OpSqrtt:
		setF(in.Rc, math.Sqrt(c.F[in.Rb]))
	case isa.OpAdds:
		setF(in.Rc, float64(float32(c.F[in.Ra])+float32(c.F[in.Rb])))
	case isa.OpDivs:
		setF(in.Rc, float64(float32(c.F[in.Ra])/float32(c.F[in.Rb])))
	case isa.OpSqrts:
		setF(in.Rc, float64(float32(math.Sqrt(c.F[in.Rb]))))
	case isa.OpCmpteq:
		if c.F[in.Ra] == c.F[in.Rb] {
			setF(in.Rc, 2.0)
		} else {
			setF(in.Rc, 0.0)
		}
	case isa.OpCmptlt:
		if c.F[in.Ra] < c.F[in.Rb] {
			setF(in.Rc, 2.0)
		} else {
			setF(in.Rc, 0.0)
		}
	case isa.OpCvtqt:
		setF(in.Rc, float64(int64(math.Float64bits(c.F[in.Ra]))))
	case isa.OpCvttq:
		setF(in.Rc, math.Float64frombits(uint64(int64(c.F[in.Ra]))))

	default:
		c.err = fmt.Errorf("cpu: unimplemented opcode %v at %#x", in.Op, c.PC)
		return Record{}, false
	}

	rec.NextPC = nextPC
	c.PC = nextPC
	return rec, true
}

// Run executes until HALT or limit instructions, returning the count
// executed. It is a convenience for functional-only tests.
func (c *CPU) Run(limit uint64) (uint64, error) {
	var n uint64
	for n < limit {
		if _, ok := c.Next(); !ok {
			break
		}
		n++
	}
	if c.err != nil {
		return n, c.err
	}
	if !c.halted && n == limit {
		return n, fmt.Errorf("cpu: instruction limit %d reached without HALT", limit)
	}
	return n, nil
}

// Skip advances the source by up to n records functionally —
// architectural state updates, no records retained — and returns how
// many were consumed. A return below n means the source ended first.
// This is the fast-forward primitive behind workload warmup offsets
// and the sampling engine's inter-interval skips.
func Skip(src Source, n uint64) uint64 {
	for i := uint64(0); i < n; i++ {
		if _, ok := src.Next(); !ok {
			return i
		}
	}
	return n
}

// Limited wraps a Source and stops it after max records, used to
// bound macrobenchmark runs. The final record is delivered.
type Limited struct {
	Src Source
	Max uint64
	n   uint64
}

// Err forwards the wrapped source's error (see Err).
func (l *Limited) Err() error { return Err(l.Src) }

// Err reports why a source's stream ended, if it failed: the error of
// a source that can fail (a CPU that faulted, a malformed trace), nil
// for one that ran to its end.
func Err(src Source) error {
	if f, ok := src.(interface{ Err() error }); ok {
		return f.Err()
	}
	return nil
}

// Next implements Source.
func (l *Limited) Next() (Record, bool) {
	if l.n >= l.Max {
		return Record{}, false
	}
	r, ok := l.Src.Next()
	if ok {
		l.n++
	}
	return r, ok
}
