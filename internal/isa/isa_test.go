package isa

import "testing"

func TestRegNames(t *testing.T) {
	cases := []struct {
		reg  int
		name string
	}{
		{RegZero, "$zero"}, {RegAT, "$at"}, {RegV0, "$v0"}, {RegA0, "$a0"},
		{RegT0, "$t0"}, {RegS0, "$s0"}, {RegGP, "$gp"}, {RegSP, "$sp"},
		{RegFP, "$fp"}, {RegRA, "$ra"},
	}
	for _, c := range cases {
		if got := RegName(c.reg); got != c.name {
			t.Errorf("RegName(%d) = %q, want %q", c.reg, got, c.name)
		}
		r, ok := RegByName(c.name)
		if !ok || r != c.reg {
			t.Errorf("RegByName(%q) = %d,%v want %d", c.name, r, ok, c.reg)
		}
	}
}

func TestRegByNameNumeric(t *testing.T) {
	for i := 0; i < NumRegs; i++ {
		r, ok := RegByName("$" + itoa(i))
		if !ok || r != i {
			t.Errorf("RegByName($%d) = %d,%v", i, r, ok)
		}
	}
	if _, ok := RegByName("$32"); ok {
		t.Error("RegByName($32) should fail")
	}
	if _, ok := RegByName("bogus"); ok {
		t.Error("RegByName(bogus) should fail")
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

func TestOpByName(t *testing.T) {
	for op := Op(1); op < numOps; op++ {
		got, ok := OpByName(op.String())
		if !ok || got != op {
			t.Errorf("OpByName(%q) = %v,%v want %v", op.String(), got, ok, op)
		}
	}
	if _, ok := OpByName("frobnicate"); ok {
		t.Error("OpByName(frobnicate) should fail")
	}
}

func TestOpKindCoverage(t *testing.T) {
	// Every op maps to a kind consistent with its String rendering not
	// panicking and its encodability.
	for op := Op(1); op < numOps; op++ {
		in := Inst{Op: op, Rd: 2, Rs: 3, Rt: 4, Imm: 4}
		_ = in.String()
		if _, err := Encode(in); err != nil {
			t.Errorf("Encode(%v) failed: %v", op, err)
		}
	}
}

func TestNop(t *testing.T) {
	w, err := Encode(Nop())
	if err != nil || w != 0 {
		t.Errorf("Encode(nop) = %#x, %v; want 0", w, err)
	}
}

func TestInstString(t *testing.T) {
	cases := []struct {
		in   Inst
		want string
	}{
		{Inst{Op: OpADDU, Rd: RegV0, Rs: RegA0, Rt: RegA1}, "addu $v0, $a0, $a1"},
		{Inst{Op: OpADDIU, Rt: RegSP, Rs: RegSP, Imm: -32}, "addiu $sp, $sp, -32"},
		{Inst{Op: OpLW, Rt: RegRA, Rs: RegSP, Imm: 28}, "lw $ra, 28($sp)"},
		{Inst{Op: OpSW, Rt: RegS0, Rs: RegSP, Imm: 24}, "sw $s0, 24($sp)"},
		{Inst{Op: OpJR, Rs: RegRA}, "jr $ra"},
		{Inst{Op: OpSLL, Rd: RegT0, Rt: RegT1, Imm: 2}, "sll $t0, $t1, 2"},
		{Inst{Op: OpBEQ, Rs: RegT0, Rt: RegZero, Imm: -3}, "beq $t0, $zero, -3"},
		{Inst{Op: OpLUI, Rt: RegAT, Imm: 0x1000}, "lui $at, 4096"},
		{Inst{Op: OpSYSCALL}, "syscall"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}
