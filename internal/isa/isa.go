// Package isa defines a MIPS-I-like 32-bit instruction set: register
// names and conventions, opcodes, a decoded instruction representation,
// and a binary encoding (encode/decode round-trip).
//
// The ISA follows the classic MIPS o32 conventions used by the paper's
// experimental setup (gcc 2.6.3 targeting "a MIPS-1 like instruction
// set"): 32 general registers with $gp pointing at the small-data area,
// $sp/$fp for the stack, $a0..$a3 argument registers, $v0/$v1 result
// registers, and $s0..$s7 callee-saved registers. Branch delay slots are
// not modeled; the simulator is functional (see DESIGN.md).
package isa

import "fmt"

// Register numbers, MIPS o32 names.
const (
	RegZero = 0 // $zero: hardwired zero
	RegAT   = 1 // $at: assembler temporary
	RegV0   = 2 // $v0: result / syscall number
	RegV1   = 3 // $v1: result
	RegA0   = 4 // $a0: argument 0
	RegA1   = 5 // $a1
	RegA2   = 6 // $a2
	RegA3   = 7 // $a3
	RegT0   = 8 // $t0: caller-saved temporaries
	RegT1   = 9
	RegT2   = 10
	RegT3   = 11
	RegT4   = 12
	RegT5   = 13
	RegT6   = 14
	RegT7   = 15
	RegS0   = 16 // $s0: callee-saved
	RegS1   = 17
	RegS2   = 18
	RegS3   = 19
	RegS4   = 20
	RegS5   = 21
	RegS6   = 22
	RegS7   = 23
	RegT8   = 24
	RegT9   = 25
	RegK0   = 26 // reserved for OS
	RegK1   = 27
	RegGP   = 28 // $gp: global pointer (data-segment anchor)
	RegSP   = 29 // $sp: stack pointer
	RegFP   = 30 // $fp / $s8: frame pointer (callee-saved)
	RegRA   = 31 // $ra: return address

	// NumRegs is the number of general-purpose registers.
	NumRegs = 32
)

// regNames maps register numbers to their conventional names.
var regNames = [NumRegs]string{
	"zero", "at", "v0", "v1", "a0", "a1", "a2", "a3",
	"t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7",
	"s0", "s1", "s2", "s3", "s4", "s5", "s6", "s7",
	"t8", "t9", "k0", "k1", "gp", "sp", "fp", "ra",
}

// RegName returns the conventional name ("$sp", "$a0", ...) of register r.
func RegName(r int) string {
	if r < 0 || r >= NumRegs {
		return fmt.Sprintf("$?%d", r)
	}
	return "$" + regNames[r]
}

// RegByName returns the register number for a name like "sp", "$sp", or
// a numeric name like "$29". ok is false if the name is unknown.
func RegByName(name string) (reg int, ok bool) {
	if len(name) > 0 && name[0] == '$' {
		name = name[1:]
	}
	for i, n := range regNames {
		if n == name {
			return i, true
		}
	}
	// Numeric form: $0..$31.
	n := 0
	if len(name) == 0 {
		return 0, false
	}
	for _, c := range name {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	if n >= NumRegs {
		return 0, false
	}
	return n, true
}

// Op is a machine operation.
type Op uint8

// Operations. The set mirrors the MIPS-I integer core.
const (
	OpInvalid Op = iota

	// Three-register ALU.
	OpADDU
	OpSUBU
	OpAND
	OpOR
	OpXOR
	OpNOR
	OpSLT
	OpSLTU
	OpSLLV
	OpSRLV
	OpSRAV

	// Shift by immediate amount (shamt in Imm).
	OpSLL
	OpSRL
	OpSRA

	// Multiply/divide unit.
	OpMULT
	OpMULTU
	OpDIV
	OpDIVU
	OpMFHI
	OpMFLO
	OpMTHI
	OpMTLO

	// Immediate ALU.
	OpADDIU
	OpSLTI
	OpSLTIU
	OpANDI
	OpORI
	OpXORI
	OpLUI

	// Loads and stores.
	OpLB
	OpLBU
	OpLH
	OpLHU
	OpLW
	OpSB
	OpSH
	OpSW

	// Control transfer.
	OpBEQ
	OpBNE
	OpBLEZ
	OpBGTZ
	OpBLTZ
	OpBGEZ
	OpJ
	OpJAL
	OpJR
	OpJALR

	// System.
	OpSYSCALL
	OpBREAK

	numOps
)

var opNames = [numOps]string{
	OpInvalid: "invalid",
	OpADDU:    "addu", OpSUBU: "subu", OpAND: "and", OpOR: "or",
	OpXOR: "xor", OpNOR: "nor", OpSLT: "slt", OpSLTU: "sltu",
	OpSLLV: "sllv", OpSRLV: "srlv", OpSRAV: "srav",
	OpSLL: "sll", OpSRL: "srl", OpSRA: "sra",
	OpMULT: "mult", OpMULTU: "multu", OpDIV: "div", OpDIVU: "divu",
	OpMFHI: "mfhi", OpMFLO: "mflo", OpMTHI: "mthi", OpMTLO: "mtlo",
	OpADDIU: "addiu", OpSLTI: "slti", OpSLTIU: "sltiu",
	OpANDI: "andi", OpORI: "ori", OpXORI: "xori", OpLUI: "lui",
	OpLB: "lb", OpLBU: "lbu", OpLH: "lh", OpLHU: "lhu", OpLW: "lw",
	OpSB: "sb", OpSH: "sh", OpSW: "sw",
	OpBEQ: "beq", OpBNE: "bne", OpBLEZ: "blez", OpBGTZ: "bgtz",
	OpBLTZ: "bltz", OpBGEZ: "bgez",
	OpJ: "j", OpJAL: "jal", OpJR: "jr", OpJALR: "jalr",
	OpSYSCALL: "syscall", OpBREAK: "break",
}

// String returns the assembler mnemonic for op.
func (op Op) String() string {
	if op >= numOps {
		return "op?"
	}
	return opNames[op]
}

// OpByName returns the Op with the given mnemonic.
func OpByName(name string) (Op, bool) {
	for i := Op(1); i < numOps; i++ {
		if opNames[i] == name {
			return i, true
		}
	}
	return OpInvalid, false
}

// Kind classifies operations by operand shape and behaviour.
type Kind uint8

// Operation kinds.
const (
	KindALU3    Kind = iota // rd = rs OP rt
	KindShift               // rd = rt OP shamt
	KindMulDiv              // hi/lo = rs OP rt
	KindMoveHL              // mfhi/mflo/mthi/mtlo
	KindALUImm              // rt = rs OP imm
	KindLUI                 // rt = imm << 16
	KindLoad                // rt = mem[rs+imm]
	KindStore               // mem[rs+imm] = rt
	KindBranch              // PC-relative conditional
	KindJump                // j/jal absolute
	KindJumpReg             // jr/jalr
	KindSys                 // syscall/break

	// NumKinds counts the operation kinds (for per-kind tallies).
	NumKinds = int(KindSys) + 1
)

var kindNames = [NumKinds]string{
	"alu", "shift", "mul/div", "movehl", "aluimm", "lui",
	"load", "store", "branch", "jump", "jumpreg", "sys",
}

// String returns a short lowercase label for the kind.
func (k Kind) String() string {
	if int(k) < NumKinds {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// opKinds precomputes classifyOp for every valid op so the hot-path
// OpKind call is an array load instead of a switch dispatch.
var opKinds = func() (t [numOps]Kind) {
	for op := Op(0); op < numOps; op++ {
		t[op] = classifyOp(op)
	}
	return
}()

// OpKind returns the Kind of op.
func OpKind(op Op) Kind {
	if op < numOps {
		return opKinds[op]
	}
	return KindSys
}

// HasImmediateInput reports whether op consumes an immediate field as a
// data input (shift amounts and j/jal targets included), so the dataflow
// analyses count the program-internal slice among its inputs.
func HasImmediateInput(op Op) bool {
	switch OpKind(op) {
	case KindALUImm, KindLUI, KindShift, KindJump:
		return true
	default:
		return false
	}
}

func classifyOp(op Op) Kind {
	switch op {
	case OpADDU, OpSUBU, OpAND, OpOR, OpXOR, OpNOR, OpSLT, OpSLTU, OpSLLV, OpSRLV, OpSRAV:
		return KindALU3
	case OpSLL, OpSRL, OpSRA:
		return KindShift
	case OpMULT, OpMULTU, OpDIV, OpDIVU:
		return KindMulDiv
	case OpMFHI, OpMFLO, OpMTHI, OpMTLO:
		return KindMoveHL
	case OpADDIU, OpSLTI, OpSLTIU, OpANDI, OpORI, OpXORI:
		return KindALUImm
	case OpLUI:
		return KindLUI
	case OpLB, OpLBU, OpLH, OpLHU, OpLW:
		return KindLoad
	case OpSB, OpSH, OpSW:
		return KindStore
	case OpBEQ, OpBNE, OpBLEZ, OpBGTZ, OpBLTZ, OpBGEZ:
		return KindBranch
	case OpJ, OpJAL:
		return KindJump
	case OpJR, OpJALR:
		return KindJumpReg
	default:
		return KindSys
	}
}

// Inst is a decoded instruction. Field use depends on OpKind:
//
//	ALU3:    Rd = Rs op Rt
//	Shift:   Rd = Rt op Imm (shamt)
//	MulDiv:  HI,LO = Rs op Rt
//	MoveHL:  mfhi/mflo: Rd; mthi/mtlo: Rs
//	ALUImm:  Rt = Rs op Imm (sign- or zero-extended per op)
//	LUI:     Rt = Imm<<16
//	Load:    Rt = mem[Rs+Imm]
//	Store:   mem[Rs+Imm] = Rt
//	Branch:  compare Rs (and Rt for beq/bne); Imm = word offset
//	Jump:    Imm = target word address (PC-region absolute)
//	JumpReg: jr: Rs; jalr: Rd, Rs
type Inst struct {
	Op  Op
	Rd  uint8
	Rs  uint8
	Rt  uint8
	Imm int32
}

// String renders the instruction in assembler syntax.
func (in Inst) String() string {
	switch OpKind(in.Op) {
	case KindALU3:
		return fmt.Sprintf("%s %s, %s, %s", in.Op, RegName(int(in.Rd)), RegName(int(in.Rs)), RegName(int(in.Rt)))
	case KindShift:
		return fmt.Sprintf("%s %s, %s, %d", in.Op, RegName(int(in.Rd)), RegName(int(in.Rt)), in.Imm)
	case KindMulDiv:
		return fmt.Sprintf("%s %s, %s", in.Op, RegName(int(in.Rs)), RegName(int(in.Rt)))
	case KindMoveHL:
		if in.Op == OpMFHI || in.Op == OpMFLO {
			return fmt.Sprintf("%s %s", in.Op, RegName(int(in.Rd)))
		}
		return fmt.Sprintf("%s %s", in.Op, RegName(int(in.Rs)))
	case KindALUImm:
		return fmt.Sprintf("%s %s, %s, %d", in.Op, RegName(int(in.Rt)), RegName(int(in.Rs)), in.Imm)
	case KindLUI:
		return fmt.Sprintf("lui %s, %d", RegName(int(in.Rt)), in.Imm)
	case KindLoad:
		return fmt.Sprintf("%s %s, %d(%s)", in.Op, RegName(int(in.Rt)), in.Imm, RegName(int(in.Rs)))
	case KindStore:
		return fmt.Sprintf("%s %s, %d(%s)", in.Op, RegName(int(in.Rt)), in.Imm, RegName(int(in.Rs)))
	case KindBranch:
		switch in.Op {
		case OpBEQ, OpBNE:
			return fmt.Sprintf("%s %s, %s, %d", in.Op, RegName(int(in.Rs)), RegName(int(in.Rt)), in.Imm)
		default:
			return fmt.Sprintf("%s %s, %d", in.Op, RegName(int(in.Rs)), in.Imm)
		}
	case KindJump:
		return fmt.Sprintf("%s 0x%x", in.Op, uint32(in.Imm)<<2)
	case KindJumpReg:
		if in.Op == OpJR {
			return fmt.Sprintf("jr %s", RegName(int(in.Rs)))
		}
		return fmt.Sprintf("jalr %s, %s", RegName(int(in.Rd)), RegName(int(in.Rs)))
	default:
		return in.Op.String()
	}
}

// Nop returns the canonical no-op (sll $zero, $zero, 0).
func Nop() Inst { return Inst{Op: OpSLL} }
