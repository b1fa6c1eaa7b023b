// Package isa defines AXP-lite, a compact 64-bit RISC instruction set
// modeled on the Compaq Alpha AXP architecture that the 21264
// implements. It is the common contract between the assembler, the
// functional simulator, and every timing model in this repository.
//
// AXP-lite keeps the properties of the Alpha ISA that the paper's
// microbenchmarks depend on: fixed 32-bit instructions fetched four at
// a time on aligned "octaword" boundaries, 32 integer and 32
// floating-point registers with a hardwired zero register, PC-relative
// conditional branches and subroutine calls, register-indirect jumps
// whose targets cannot be computed in the front end, a universal
// no-op (UNOP), and conditional moves.
package isa

import "fmt"

// WordBytes is the size of one instruction word.
const WordBytes = 4

// OctawordBytes is the size of one aligned fetch packet (four
// instructions), called an octaword in the Alpha literature.
const OctawordBytes = 16

// Reg names an integer or floating-point register. Integer and FP
// register files are separate; an operand's file is implied by the
// opcode. Register 31 in either file reads as zero and ignores writes.
type Reg uint8

// NumRegs is the number of architectural registers in each file.
const NumRegs = 32

// Zero is the hardwired zero register in both files (R31 / F31).
const Zero Reg = 31

// Conventional integer register names (subset of the Alpha calling
// standard, used by the assembler and the microbenchmarks).
const (
	V0  Reg = 0 // return value
	T0  Reg = 1 // temporaries t0..t7 = r1..r8
	T1  Reg = 2
	T2  Reg = 3
	T3  Reg = 4
	T4  Reg = 5
	T5  Reg = 6
	T6  Reg = 7
	T7  Reg = 8
	S0  Reg = 9 // saved s0..s5 = r9..r14
	S1  Reg = 10
	S2  Reg = 11
	S3  Reg = 12
	S4  Reg = 13
	S5  Reg = 14
	FP  Reg = 15 // frame pointer
	A0  Reg = 16 // arguments a0..a5 = r16..r21
	A1  Reg = 17
	A2  Reg = 18
	A3  Reg = 19
	A4  Reg = 20
	A5  Reg = 21
	T8  Reg = 22
	T9  Reg = 23
	T10 Reg = 24
	T11 Reg = 25
	RA  Reg = 26 // return address
	T12 Reg = 27
	AT  Reg = 28 // assembler temporary
	GP  Reg = 29 // global pointer
	SP  Reg = 30 // stack pointer
	R31 Reg = 31
)

// Format identifies the encoding layout of an instruction word.
type Format uint8

const (
	// FmtOperate is a three-register (or register/literal) ALU form:
	// rc <- ra OP rb, or rc <- ra OP lit8 when the literal bit is set.
	FmtOperate Format = iota
	// FmtMemory is a base+displacement form: ra <-> mem[rb + disp].
	// LDA/LDAH also use it for address arithmetic.
	FmtMemory
	// FmtBranch is a PC-relative form testing (or writing) ra with a
	// signed word displacement.
	FmtBranch
	// FmtJump is a register-indirect form: target in rb, return
	// address written to ra.
	FmtJump
	// FmtNone has no operands (UNOP, HALT).
	FmtNone
)

// Class groups opcodes by execution resource and latency, mirroring
// Table 1 of the paper.
type Class uint8

const (
	ClassNop     Class = iota
	ClassIntALU        // 1-cycle integer operate
	ClassIntMul        // 7-cycle integer multiply
	ClassIntLoad       // 3-cycle load-to-use on a D-cache hit
	ClassIntStore
	ClassFPAdd   // 4-cycle FP add/compare/convert
	ClassFPMul   // 4-cycle FP multiply
	ClassFPDivS  // 12-cycle single-precision divide
	ClassFPDivT  // 15-cycle double-precision divide
	ClassFPSqrtS // 18-cycle single-precision square root
	ClassFPSqrtT // 33-cycle double-precision square root
	ClassFPLoad  // 4-cycle FP load-to-use on a D-cache hit
	ClassFPStore
	ClassCondBr   // conditional branch, resolved in execute
	ClassUncondBr // BR/BSR: PC-relative, target computable in front end
	ClassJump     // JMP/JSR/RET: register-indirect, 3 cycles
	ClassHalt
)

// String returns the lower-case class mnemonic.
func (c Class) String() string {
	switch c {
	case ClassNop:
		return "nop"
	case ClassIntALU:
		return "intalu"
	case ClassIntMul:
		return "intmul"
	case ClassIntLoad:
		return "intload"
	case ClassIntStore:
		return "intstore"
	case ClassFPAdd:
		return "fpadd"
	case ClassFPMul:
		return "fpmul"
	case ClassFPDivS:
		return "fpdivs"
	case ClassFPDivT:
		return "fpdivt"
	case ClassFPSqrtS:
		return "fpsqrts"
	case ClassFPSqrtT:
		return "fpsqrtt"
	case ClassFPLoad:
		return "fpload"
	case ClassFPStore:
		return "fpstore"
	case ClassCondBr:
		return "condbr"
	case ClassUncondBr:
		return "uncondbr"
	case ClassJump:
		return "jump"
	case ClassHalt:
		return "halt"
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// Latency returns the class's execution latency in cycles as Table 1
// gives it for the 21264: from issue until a dependent instruction
// can use the result. A load's figure is its D-cache hit; a timing
// model prices each actual access through its cache hierarchy
// instead. No-ops, stores and PC-relative branches take one cycle.
func (c Class) Latency() int {
	switch c {
	case ClassIntMul:
		return 7
	case ClassIntLoad, ClassJump:
		return 3
	case ClassFPAdd, ClassFPMul, ClassFPLoad:
		return 4
	case ClassFPDivS:
		return 12
	case ClassFPDivT:
		return 15
	case ClassFPSqrtS:
		return 18
	case ClassFPSqrtT:
		return 33
	}
	return 1
}

// IsLoad reports whether the class reads data memory.
func (c Class) IsLoad() bool { return c == ClassIntLoad || c == ClassFPLoad }

// IsStore reports whether the class writes data memory.
func (c Class) IsStore() bool { return c == ClassIntStore || c == ClassFPStore }

// IsMem reports whether the class accesses data memory.
func (c Class) IsMem() bool { return c.IsLoad() || c.IsStore() }

// IsBranch reports whether the class can redirect the PC.
func (c Class) IsBranch() bool {
	return c == ClassCondBr || c == ClassUncondBr || c == ClassJump
}

// IsFP reports whether the class executes in the floating-point
// cluster.
func (c Class) IsFP() bool {
	switch c {
	case ClassFPAdd, ClassFPMul, ClassFPDivS, ClassFPDivT,
		ClassFPSqrtS, ClassFPSqrtT, ClassFPLoad, ClassFPStore:
		return true
	}
	return false
}

// Op is an AXP-lite opcode.
type Op uint8

// Integer operate instructions.
const (
	OpUnop Op = iota // universal no-op (the Alpha unop)
	OpHalt           // stops the functional simulator

	OpAddq   // rc = ra + rb
	OpSubq   // rc = ra - rb
	OpMulq   // rc = ra * rb
	OpAnd    // rc = ra & rb
	OpBis    // rc = ra | rb (Alpha mnemonic for OR)
	OpXor    // rc = ra ^ rb
	OpSll    // rc = ra << (rb & 63)
	OpSrl    // rc = ra >> (rb & 63) logical
	OpSra    // rc = ra >> (rb & 63) arithmetic
	OpCmpeq  // rc = (ra == rb) ? 1 : 0
	OpCmplt  // rc = (ra < rb) signed ? 1 : 0
	OpCmple  // rc = (ra <= rb) signed ? 1 : 0
	OpCmpult // rc = (ra < rb) unsigned ? 1 : 0
	OpCmoveq // if ra == 0 { rc = rb }
	OpCmovne // if ra != 0 { rc = rb }

	// Memory format.
	OpLda  // ra = rb + disp
	OpLdah // ra = rb + disp*65536
	OpLdq  // ra = mem64[rb + disp]
	OpLdl  // ra = sign-extended mem32[rb + disp]
	OpStq  // mem64[rb + disp] = ra
	OpStl  // mem32[rb + disp] = low 32 bits of ra
	OpLdt  // fa = memf64[rb + disp]
	OpLds  // fa = widened memf32[rb + disp]
	OpStt  // memf64[rb + disp] = fa
	OpSts  // memf32[rb + disp] = narrowed fa

	// Branch format (integer conditions test ra).
	OpBeq // branch if ra == 0
	OpBne // branch if ra != 0
	OpBlt // branch if ra < 0 signed
	OpBle // branch if ra <= 0 signed
	OpBgt // branch if ra > 0 signed
	OpBge // branch if ra >= 0 signed
	OpBr  // unconditional, ra = return address
	OpBsr // subroutine call, ra = return address (pushes RAS)

	// Jump format.
	OpJmp // PC = rb &^ 3, ra = return address
	OpJsr // like JMP but predicted as a call (pushes RAS)
	OpRet // like JMP but predicted as a return (pops RAS)

	// Floating-point operate (registers are in the FP file).
	OpAddt   // fc = fa + fb (double)
	OpSubt   // fc = fa - fb
	OpMult   // fc = fa * fb
	OpDivt   // fc = fa / fb
	OpSqrtt  // fc = sqrt(fb)
	OpAdds   // single-precision add (rounds to float32)
	OpDivs   // single-precision divide
	OpSqrts  // single-precision square root
	OpCmpteq // fc = (fa == fb) ? 2.0 : 0.0
	OpCmptlt // fc = (fa < fb) ? 2.0 : 0.0
	OpCvtqt  // fc = float64(int64 bits of fa)
	OpCvttq  // fc = int64(fa) as bits

	// FP branch format (conditions test fa).
	OpFbeq // branch if fa == 0.0
	OpFbne // branch if fa != 0.0

	// Extended integer operations the Alpha compilers rely on.
	OpS4addq // rc = ra*4 + rb (scaled address arithmetic)
	OpS8addq // rc = ra*8 + rb
	OpZapnot // rc = ra with bytes NOT selected by the literal cleared
	OpExtbl  // rc = byte of ra selected by rb&7, zero-extended
	OpLdbu   // ra = zero-extended mem8[rb + disp]
	OpStb    // mem8[rb + disp] = low byte of ra
	OpBlbc   // branch if low bit of ra clear
	OpBlbs   // branch if low bit of ra set

	numOps
)

// NumOps is the number of defined opcodes.
const NumOps = int(numOps)

// opInfo is the static description of one opcode.
type opInfo struct {
	name   string
	format Format
	class  Class
	// fpRA, fpRB, fpRC mark which operand fields address the FP file.
	fpRA, fpRB, fpRC bool
}

var opTable = [NumOps]opInfo{
	OpUnop: {"unop", FmtNone, ClassNop, false, false, false},
	OpHalt: {"halt", FmtNone, ClassHalt, false, false, false},

	OpAddq:   {"addq", FmtOperate, ClassIntALU, false, false, false},
	OpSubq:   {"subq", FmtOperate, ClassIntALU, false, false, false},
	OpMulq:   {"mulq", FmtOperate, ClassIntMul, false, false, false},
	OpAnd:    {"and", FmtOperate, ClassIntALU, false, false, false},
	OpBis:    {"bis", FmtOperate, ClassIntALU, false, false, false},
	OpXor:    {"xor", FmtOperate, ClassIntALU, false, false, false},
	OpSll:    {"sll", FmtOperate, ClassIntALU, false, false, false},
	OpSrl:    {"srl", FmtOperate, ClassIntALU, false, false, false},
	OpSra:    {"sra", FmtOperate, ClassIntALU, false, false, false},
	OpCmpeq:  {"cmpeq", FmtOperate, ClassIntALU, false, false, false},
	OpCmplt:  {"cmplt", FmtOperate, ClassIntALU, false, false, false},
	OpCmple:  {"cmple", FmtOperate, ClassIntALU, false, false, false},
	OpCmpult: {"cmpult", FmtOperate, ClassIntALU, false, false, false},
	OpCmoveq: {"cmoveq", FmtOperate, ClassIntALU, false, false, false},
	OpCmovne: {"cmovne", FmtOperate, ClassIntALU, false, false, false},

	OpLda:  {"lda", FmtMemory, ClassIntALU, false, false, false},
	OpLdah: {"ldah", FmtMemory, ClassIntALU, false, false, false},
	OpLdq:  {"ldq", FmtMemory, ClassIntLoad, false, false, false},
	OpLdl:  {"ldl", FmtMemory, ClassIntLoad, false, false, false},
	OpStq:  {"stq", FmtMemory, ClassIntStore, false, false, false},
	OpStl:  {"stl", FmtMemory, ClassIntStore, false, false, false},
	OpLdt:  {"ldt", FmtMemory, ClassFPLoad, true, false, false},
	OpLds:  {"lds", FmtMemory, ClassFPLoad, true, false, false},
	OpStt:  {"stt", FmtMemory, ClassFPStore, true, false, false},
	OpSts:  {"sts", FmtMemory, ClassFPStore, true, false, false},

	OpBeq: {"beq", FmtBranch, ClassCondBr, false, false, false},
	OpBne: {"bne", FmtBranch, ClassCondBr, false, false, false},
	OpBlt: {"blt", FmtBranch, ClassCondBr, false, false, false},
	OpBle: {"ble", FmtBranch, ClassCondBr, false, false, false},
	OpBgt: {"bgt", FmtBranch, ClassCondBr, false, false, false},
	OpBge: {"bge", FmtBranch, ClassCondBr, false, false, false},
	OpBr:  {"br", FmtBranch, ClassUncondBr, false, false, false},
	OpBsr: {"bsr", FmtBranch, ClassUncondBr, false, false, false},

	OpJmp: {"jmp", FmtJump, ClassJump, false, false, false},
	OpJsr: {"jsr", FmtJump, ClassJump, false, false, false},
	OpRet: {"ret", FmtJump, ClassJump, false, false, false},

	OpAddt:   {"addt", FmtOperate, ClassFPAdd, true, true, true},
	OpSubt:   {"subt", FmtOperate, ClassFPAdd, true, true, true},
	OpMult:   {"mult", FmtOperate, ClassFPMul, true, true, true},
	OpDivt:   {"divt", FmtOperate, ClassFPDivT, true, true, true},
	OpSqrtt:  {"sqrtt", FmtOperate, ClassFPSqrtT, true, true, true},
	OpAdds:   {"adds", FmtOperate, ClassFPAdd, true, true, true},
	OpDivs:   {"divs", FmtOperate, ClassFPDivS, true, true, true},
	OpSqrts:  {"sqrts", FmtOperate, ClassFPSqrtS, true, true, true},
	OpCmpteq: {"cmpteq", FmtOperate, ClassFPAdd, true, true, true},
	OpCmptlt: {"cmptlt", FmtOperate, ClassFPAdd, true, true, true},
	OpCvtqt:  {"cvtqt", FmtOperate, ClassFPAdd, true, true, true},
	OpCvttq:  {"cvttq", FmtOperate, ClassFPAdd, true, true, true},

	OpFbeq: {"fbeq", FmtBranch, ClassCondBr, true, false, false},
	OpFbne: {"fbne", FmtBranch, ClassCondBr, true, false, false},

	OpS4addq: {"s4addq", FmtOperate, ClassIntALU, false, false, false},
	OpS8addq: {"s8addq", FmtOperate, ClassIntALU, false, false, false},
	OpZapnot: {"zapnot", FmtOperate, ClassIntALU, false, false, false},
	OpExtbl:  {"extbl", FmtOperate, ClassIntALU, false, false, false},
	OpLdbu:   {"ldbu", FmtMemory, ClassIntLoad, false, false, false},
	OpStb:    {"stb", FmtMemory, ClassIntStore, false, false, false},
	OpBlbc:   {"blbc", FmtBranch, ClassCondBr, false, false, false},
	OpBlbs:   {"blbs", FmtBranch, ClassCondBr, false, false, false},
}

// Valid reports whether o is a defined opcode.
func (o Op) Valid() bool { return int(o) < NumOps }

// String returns the assembler mnemonic for the opcode.
func (o Op) String() string {
	if !o.Valid() {
		return fmt.Sprintf("op(%d)", uint8(o))
	}
	return opTable[o].name
}

// Format returns the encoding layout of the opcode.
func (o Op) Format() Format { return opTable[o].format }

// Class returns the latency/resource class of the opcode.
func (o Op) Class() Class { return opTable[o].class }

// FPOperands reports which operand fields (ra, rb, rc) of the opcode
// address the floating-point register file.
func (o Op) FPOperands() (ra, rb, rc bool) {
	inf := opTable[o]
	return inf.fpRA, inf.fpRB, inf.fpRC
}

// OpByName returns the opcode with the given assembler mnemonic.
func OpByName(name string) (Op, bool) {
	op, ok := opsByName[name]
	return op, ok
}

var opsByName = func() map[string]Op {
	m := make(map[string]Op, NumOps)
	for i := 0; i < NumOps; i++ {
		m[opTable[i].name] = Op(i)
	}
	return m
}()
