package isa

import "fmt"

// Inst is one decoded AXP-lite instruction. The zero value is UNOP.
//
// Field use by format:
//
//	FmtOperate: Rc <- Ra OP Rb, or Rc <- Ra OP Lit when UseLit is set.
//	FmtMemory:  Ra <-> mem[Rb + Disp]; LDA/LDAH compute Ra = Rb +/- Disp.
//	FmtBranch:  test (or write) Ra; target = PC + 4 + Disp*4.
//	FmtJump:    PC = Rb &^ 3; Ra = return address.
type Inst struct {
	Op     Op
	Ra     Reg
	Rb     Reg
	Rc     Reg
	UseLit bool
	Lit    uint8
	Disp   int32 // sign-extended displacement (bytes for memory, words for branch)
}

// Unop is the canonical no-op instruction.
var Unop = Inst{Op: OpUnop}

// Halt is the canonical program-terminating instruction.
var Halt = Inst{Op: OpHalt}

// Encoding layout (32 bits), following the Alpha AXP word layout:
//
//	[31:26] opcode (6 bits)
//	[25:21] ra
//	FmtOperate: [20:16] rb (or [20:13] lit8), [12] lit flag, [4:0] rc
//	FmtMemory:  [20:16] rb, [15:0] signed 16-bit byte displacement
//	FmtBranch:  [20:0]  signed 21-bit word displacement
//	FmtJump:    [20:16] rb
const (
	// MaxMemDisp is the most positive memory displacement (bytes).
	MaxMemDisp = 1<<15 - 1
	// MinMemDisp is the most negative memory displacement (bytes).
	MinMemDisp = -(1 << 15)
	// MaxBranchDisp is the most positive branch displacement (words).
	MaxBranchDisp = 1<<20 - 1
	// MinBranchDisp is the most negative branch displacement (words).
	MinBranchDisp = -(1 << 20)
)

// Encode packs the instruction into a 32-bit word. It returns an error
// if a field is out of range for the opcode's format.
func (in Inst) Encode() (uint32, error) {
	if !in.Op.Valid() {
		return 0, fmt.Errorf("isa: invalid opcode %d", uint8(in.Op))
	}
	if in.Ra >= NumRegs || in.Rb >= NumRegs || in.Rc >= NumRegs {
		return 0, fmt.Errorf("isa: %s: register out of range", in.Op)
	}
	w := uint32(in.Op)<<26 | uint32(in.Ra)<<21
	switch in.Op.Format() {
	case FmtOperate:
		if in.UseLit {
			w |= 1 << 12
			w |= uint32(in.Lit) << 13
		} else {
			w |= uint32(in.Rb) << 16
		}
		w |= uint32(in.Rc)
	case FmtMemory:
		if in.Disp < MinMemDisp || in.Disp > MaxMemDisp {
			return 0, fmt.Errorf("isa: %s: memory displacement %d out of range", in.Op, in.Disp)
		}
		w |= uint32(in.Rb) << 16
		w |= uint32(in.Disp) & 0xffff
	case FmtBranch:
		if in.Disp < MinBranchDisp || in.Disp > MaxBranchDisp {
			return 0, fmt.Errorf("isa: %s: branch displacement %d out of range", in.Op, in.Disp)
		}
		w |= uint32(in.Disp) & 0x1fffff
	case FmtJump:
		w |= uint32(in.Rb) << 16
	case FmtNone:
		// opcode only
	}
	return w, nil
}

// Decode unpacks a 32-bit instruction word.
func Decode(w uint32) (Inst, error) {
	op := Op(w >> 26)
	if !op.Valid() {
		return Inst{}, fmt.Errorf("isa: illegal instruction word %#08x", w)
	}
	in := Inst{Op: op, Ra: Reg(w >> 21 & 31)}
	switch op.Format() {
	case FmtOperate:
		in.UseLit = w>>12&1 == 1
		in.Rc = Reg(w & 31)
		if in.UseLit {
			in.Lit = uint8(w >> 13)
		} else {
			in.Rb = Reg(w >> 16 & 31)
		}
	case FmtMemory:
		in.Rb = Reg(w >> 16 & 31)
		in.Disp = int32(w<<16) >> 16 // sign-extend 16 bits
	case FmtBranch:
		in.Disp = int32(w<<11) >> 11 // sign-extend 21 bits
	case FmtJump:
		in.Rb = Reg(w >> 16 & 31)
	case FmtNone:
		in = Inst{Op: op}
	}
	return in, nil
}

// RegRef identifies one architectural register operand, tagged with
// the file it lives in.
type RegRef struct {
	Reg Reg
	FP  bool
}

// Valid reports whether the reference names a real, non-zero register.
// References to the zero register carry no dependence.
func (r RegRef) Valid() bool { return r.Reg != Zero }

// Sources returns the architectural registers the instruction reads,
// excluding the zero register. The result has at most three entries
// (conditional moves read the old destination).
func (in Inst) Sources() []RegRef {
	var buf [3]RegRef
	n := in.SourcesInto(&buf)
	out := make([]RegRef, n)
	copy(out, buf[:n])
	return out
}

// SourcesInto writes the instruction's source registers into buf and
// returns how many there are. It is the allocation-free form of
// Sources for per-instruction hot paths (rename/dispatch in the
// timing models), where the caller owns the scratch buffer.
func (in Inst) SourcesInto(buf *[3]RegRef) int {
	n := 0
	add := func(r Reg, fp bool) {
		if r != Zero {
			buf[n] = RegRef{r, fp}
			n++
		}
	}
	fpa, fpb, fpc := in.Op.FPOperands()
	switch in.Op.Format() {
	case FmtOperate:
		add(in.Ra, fpa)
		if !in.UseLit {
			add(in.Rb, fpb)
		}
		if in.Op == OpCmoveq || in.Op == OpCmovne {
			add(in.Rc, fpc) // cmov merges with the old destination value
		}
	case FmtMemory:
		switch in.Op {
		case OpLda, OpLdah, OpLdq, OpLdl, OpLdt, OpLds, OpLdbu:
			add(in.Rb, false)
		case OpStq, OpStl, OpStt, OpSts, OpStb:
			add(in.Rb, false)
			add(in.Ra, fpa) // store data
		}
	case FmtBranch:
		if in.Op.Class() == ClassCondBr {
			add(in.Ra, fpa)
		}
	case FmtJump:
		add(in.Rb, false)
	}
	return n
}

// Dest returns the architectural register the instruction writes, if
// any. Writes to the zero register report ok=false.
func (in Inst) Dest() (RegRef, bool) {
	fpa, _, fpc := in.Op.FPOperands()
	var r RegRef
	switch in.Op.Format() {
	case FmtOperate:
		r = RegRef{in.Rc, fpc}
	case FmtMemory:
		switch in.Op {
		case OpLda, OpLdah, OpLdq, OpLdl, OpLdt, OpLds, OpLdbu:
			r = RegRef{in.Ra, fpa}
		default:
			return RegRef{}, false
		}
	case FmtBranch:
		if in.Op == OpBr || in.Op == OpBsr {
			r = RegRef{in.Ra, false}
		} else {
			return RegRef{}, false
		}
	case FmtJump:
		r = RegRef{in.Ra, false}
	default:
		return RegRef{}, false
	}
	if r.Reg == Zero {
		return RegRef{}, false
	}
	return r, true
}

// MemBytes returns the access width in bytes for memory-class
// instructions, and 0 otherwise.
func (in Inst) MemBytes() int {
	switch in.Op {
	case OpLdq, OpStq, OpLdt, OpStt:
		return 8
	case OpLdl, OpStl, OpLds, OpSts:
		return 4
	case OpLdbu, OpStb:
		return 1
	}
	return 0
}

// String disassembles the instruction.
func (in Inst) String() string {
	fpa, fpb, fpc := in.Op.FPOperands()
	reg := func(r Reg, fp bool) string {
		if fp {
			return fmt.Sprintf("f%d", r)
		}
		return fmt.Sprintf("r%d", r)
	}
	switch in.Op.Format() {
	case FmtOperate:
		if in.UseLit {
			return fmt.Sprintf("%s %s, #%d, %s", in.Op, reg(in.Ra, fpa), in.Lit, reg(in.Rc, fpc))
		}
		return fmt.Sprintf("%s %s, %s, %s", in.Op, reg(in.Ra, fpa), reg(in.Rb, fpb), reg(in.Rc, fpc))
	case FmtMemory:
		return fmt.Sprintf("%s %s, %d(%s)", in.Op, reg(in.Ra, fpa), in.Disp, reg(in.Rb, false))
	case FmtBranch:
		if in.Op.Class() == ClassUncondBr {
			return fmt.Sprintf("%s %s, %+d", in.Op, reg(in.Ra, false), in.Disp)
		}
		return fmt.Sprintf("%s %s, %+d", in.Op, reg(in.Ra, fpa), in.Disp)
	case FmtJump:
		return fmt.Sprintf("%s %s, (%s)", in.Op, reg(in.Ra, false), reg(in.Rb, false))
	}
	return in.Op.String()
}

// BranchTarget returns the byte address a PC-relative branch at pc
// transfers to when taken.
func (in Inst) BranchTarget(pc uint64) uint64 {
	return pc + WordBytes + uint64(int64(in.Disp))*WordBytes
}
