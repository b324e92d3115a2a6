package cpu_test

// Differential harness for the basic-block translation cache: the
// Step interpreter is the reference semantics, and every test here
// runs the same program through both paths (and through the EventSink
// slot protocol) asserting identical event streams, call/return
// streams, retirement counters, faults, and final machine state. See
// the correctness contract at the top of translate.go.

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/program"
	"repro/internal/workloads"
)

// outcome is everything observable about a finished (or budget- or
// fault-stopped) run apart from the event streams.
type outcome struct {
	executed uint64
	errStr   string
	count    uint64
	halted   bool
	exitCode int32
	pc       uint32
	brk      uint32
	regs     [cpu.NumRegs]uint32
	stats    cpu.Counters
	output   string
	dataSum  uint64
	stackSum uint64
}

const fnvPrime = 1099511628211

// memSum hashes the byte range [lo, hi) of m's memory.
func memSum(m *cpu.Machine, lo, hi uint32) uint64 {
	h := uint64(14695981039346656037)
	for a := lo; a < hi; a++ {
		h = (h ^ uint64(m.Mem.LoadByte(a))) * fnvPrime
	}
	return h
}

// snapshot captures m's final state. The data sum covers the static
// data segment plus the heap up to the break; the stack sum covers the
// top 64 KiB (all the workloads and generated programs stay within it).
func snapshot(m *cpu.Machine, executed uint64, err error) outcome {
	o := outcome{
		executed: executed,
		count:    m.Count,
		halted:   m.Halted,
		exitCode: m.ExitCode,
		pc:       m.PC,
		brk:      m.Brk,
		regs:     m.Regs,
		stats:    m.Stats,
		output:   m.Output.String(),
	}
	if err != nil {
		o.errStr = err.Error()
	}
	dataEnd := m.Brk
	if max := program.DataBase + 4<<20; dataEnd > max {
		dataEnd = max
	}
	o.dataSum = memSum(m, program.DataBase, dataEnd)
	o.stackSum = memSum(m, program.StackTop-64<<10, program.StackTop)
	return o
}

// sinkRecorder is a recorder that additionally implements
// cpu.EventSink, so a machine with it as sole observer exercises the
// build-in-slot protocol (the same one internal/core's pipeline uses).
type sinkRecorder struct {
	events []cpu.Event
}

func (r *sinkRecorder) NextSlot() *cpu.Event {
	if len(r.events) == cap(r.events) {
		grown := make([]cpu.Event, len(r.events), 2*cap(r.events)+64)
		copy(grown, r.events)
		r.events = grown
	}
	return &r.events[:cap(r.events)][len(r.events)]
}

func (r *sinkRecorder) OnInst(ev *cpu.Event) {
	if n := len(r.events); n < cap(r.events) && ev == &r.events[:n+1][n] {
		r.events = r.events[:n+1]
		return
	}
	r.events = append(r.events, *ev)
}

// runPath executes im/input for at most budget instructions on one of
// the three machine configurations.
type pathConfig struct {
	name        string
	noTranslate bool
	sink        bool
}

var paths = []pathConfig{
	{"interpreted", true, false},
	{"translated", false, false},
	{"translated-sink", false, true},
}

func runPath(im *program.Image, input []byte, budget uint64, pc pathConfig) (outcome, []cpu.Event, []cpu.CallEvent, []cpu.RetEvent) {
	m := cpu.New(im, input)
	m.NoTranslate = pc.noTranslate
	if pc.sink {
		r := &sinkRecorder{}
		m.Attach(r)
		executed, err := m.Run(budget)
		return snapshot(m, executed, err), r.events, nil, nil
	}
	r := &recorder{}
	m.Attach(r)
	executed, err := m.Run(budget)
	return snapshot(m, executed, err), r.events, r.calls, r.returns
}

// diffStreams reports the first divergence between two event streams.
func diffStreams(t *testing.T, tag string, want, got []cpu.Event) {
	t.Helper()
	if len(want) != len(got) {
		t.Errorf("%s: event count %d, want %d", tag, len(got), len(want))
	}
	n := len(want)
	if len(got) < n {
		n = len(got)
	}
	for i := 0; i < n; i++ {
		if want[i] != got[i] {
			t.Errorf("%s: event %d diverged\ninterpreted: %+v\ngot:         %+v", tag, i, want[i], got[i])
			return
		}
	}
}

// assertEquivalent runs im through all three paths and asserts they
// are indistinguishable.
func assertEquivalent(t *testing.T, im *program.Image, input []byte, budget uint64) {
	t.Helper()
	refOut, refEvs, refCalls, refRets := runPath(im, input, budget, paths[0])
	for _, pc := range paths[1:] {
		out, evs, calls, rets := runPath(im, input, budget, pc)
		if out != refOut {
			t.Errorf("%s: outcome diverged\ninterpreted: %+v\ngot:         %+v", pc.name, refOut, out)
		}
		diffStreams(t, pc.name, refEvs, evs)
		if !pc.sink {
			if !reflect.DeepEqual(refCalls, calls) {
				t.Errorf("%s: call stream diverged (%d vs %d calls)", pc.name, len(refCalls), len(calls))
			}
			if !reflect.DeepEqual(refRets, rets) {
				t.Errorf("%s: return stream diverged (%d vs %d returns)", pc.name, len(refRets), len(rets))
			}
		}
	}
}

// TestTranslateDifferentialAssembled pits the paths against a
// handwritten program covering calls (known callees, so CallEvent.Args
// population runs), recursion, loops, loads/stores of every width,
// mult/div through the uGeneric fallback, and syscall exit.
func TestTranslateDifferentialAssembled(t *testing.T) {
	src := exitStub + `
		.func fact 1
		fact:
			addiu $sp, $sp, -8
			sw $ra, 4($sp)
			sw $a0, 0($sp)
			blez $a0, fbase
			addiu $a0, $a0, -1
			jal fact
			lw $a0, 0($sp)
			mult $v0, $a0
			mflo $v0
			j fdone
		fbase:
			li $v0, 1
		fdone:
			lw $ra, 4($sp)
			addiu $sp, $sp, 8
			jr $ra
		.endfunc

		.func main 0
		main:
			addiu $sp, $sp, -4
			sw $ra, 0($sp)
			li $a0, 7
			jal fact
			li $t0, 0x10000000
			sw $v0, 0($t0)
			lh $t1, 0($t0)
			lb $t2, 1($t0)
			lbu $t3, 2($t0)
			sh $t1, 4($t0)
			sb $t2, 6($t0)
			lhu $t4, 4($t0)
			li $t5, 100
			div $v0, $t5
			mflo $t6
			mfhi $t7
			addu $v0, $t6, $t7
			lw $ra, 0($sp)
			addiu $sp, $sp, 4
			jr $ra
		.endfunc
	`
	m := load(t, src, "")
	assertEquivalent(t, m.Image, nil, 1_000_000)
}

// genProgram builds a random decodable program. The generator biases
// toward long-running code — a dedicated base register keeps most
// memory accesses inside the data segment and branch offsets stay in
// text — but deliberately includes unaligned accesses, wild jumps,
// and stray syscalls: faults must be identical across paths too.
func genProgram(rng *rand.Rand, n int) *program.Image {
	text := make([]isa.Inst, 0, n+3)
	// Prologue: $s0 -> DataBase (the mostly-valid memory base).
	text = append(text, isa.Inst{Op: isa.OpLUI, Rt: 16, Imm: 0x1000})
	reg := func() uint8 { return uint8(1 + rng.Intn(25)) }
	dst := func() uint8 {
		// Rarely clobber $s0 (16) or write $zero — both legal, both
		// must behave identically.
		if rng.Intn(40) == 0 {
			return uint8(rng.Intn(32))
		}
		r := reg()
		if r == 16 {
			r = 17
		}
		return r
	}
	alu3 := []isa.Op{isa.OpADDU, isa.OpSUBU, isa.OpAND, isa.OpOR, isa.OpXOR,
		isa.OpNOR, isa.OpSLT, isa.OpSLTU, isa.OpSLLV, isa.OpSRLV, isa.OpSRAV}
	aluImm := []isa.Op{isa.OpADDIU, isa.OpSLTI, isa.OpSLTIU, isa.OpANDI, isa.OpORI, isa.OpXORI}
	shifts := []isa.Op{isa.OpSLL, isa.OpSRL, isa.OpSRA}
	loads := []isa.Op{isa.OpLB, isa.OpLBU, isa.OpLH, isa.OpLHU, isa.OpLW}
	stores := []isa.Op{isa.OpSB, isa.OpSH, isa.OpSW}
	branches := []isa.Op{isa.OpBEQ, isa.OpBNE, isa.OpBLEZ, isa.OpBGTZ, isa.OpBLTZ, isa.OpBGEZ}
	memOff := func(width int) int32 {
		off := int32(rng.Intn(2048))
		if rng.Intn(50) != 0 { // mostly aligned; occasionally not
			off &^= int32(width - 1)
		}
		return off
	}
	for len(text) < n {
		i := len(text)
		switch pick := rng.Intn(100); {
		case pick < 30:
			text = append(text, isa.Inst{Op: alu3[rng.Intn(len(alu3))], Rd: dst(), Rs: reg(), Rt: reg()})
		case pick < 50:
			text = append(text, isa.Inst{Op: aluImm[rng.Intn(len(aluImm))], Rt: dst(), Rs: reg(),
				Imm: int32(int16(rng.Uint32()))})
		case pick < 56:
			text = append(text, isa.Inst{Op: shifts[rng.Intn(len(shifts))], Rd: dst(), Rt: reg(),
				Imm: int32(rng.Intn(32))})
		case pick < 58:
			text = append(text, isa.Inst{Op: isa.OpLUI, Rt: dst(), Imm: int32(rng.Intn(0x2000))})
		case pick < 70:
			op := loads[rng.Intn(len(loads))]
			width := 1
			if op == isa.OpLH || op == isa.OpLHU {
				width = 2
			} else if op == isa.OpLW {
				width = 4
			}
			text = append(text, isa.Inst{Op: op, Rt: dst(), Rs: 16, Imm: memOff(width)})
		case pick < 80:
			op := stores[rng.Intn(len(stores))]
			width := 1
			if op == isa.OpSH {
				width = 2
			} else if op == isa.OpSW {
				width = 4
			}
			text = append(text, isa.Inst{Op: op, Rt: reg(), Rs: 16, Imm: memOff(width)})
		case pick < 92:
			// Branch to a nearby instruction (forward or back), offset
			// clamped into text so taken edges stay decodable.
			target := i + 1 + rng.Intn(8) - 3
			if target < 1 {
				target = 1
			}
			if target >= n {
				target = n - 1
			}
			text = append(text, isa.Inst{Op: branches[rng.Intn(len(branches))],
				Rs: reg(), Rt: reg(), Imm: int32(target - (i + 1))})
		case pick < 95:
			muldiv := []isa.Op{isa.OpMULT, isa.OpMULTU, isa.OpDIV, isa.OpDIVU}
			text = append(text, isa.Inst{Op: muldiv[rng.Intn(len(muldiv))], Rs: reg(), Rt: reg()})
			hilo := []isa.Op{isa.OpMFHI, isa.OpMFLO}
			text = append(text, isa.Inst{Op: hilo[rng.Intn(len(hilo))], Rd: dst()})
		case pick < 98:
			// Direct jump to a random instruction: superblock chaining
			// fodder (J does not terminate translation).
			target := 1 + rng.Intn(n-1)
			text = append(text, isa.Inst{Op: isa.OpJ,
				Imm: int32((program.TextBase >> 2) + uint32(target))})
		case pick < 99:
			// JR through a register that is almost never a text
			// address: exercises the fetch-fault fallback identically.
			text = append(text, isa.Inst{Op: isa.OpJR, Rs: reg()})
		default:
			text = append(text, isa.Inst{Op: isa.OpSYSCALL})
		}
	}
	text = text[:n]
	// Epilogue: loop forever; the run budget is the terminator.
	text = append(text, isa.Inst{Op: isa.OpJ, Imm: int32(program.TextBase>>2) + 1})

	data := make([]byte, 4096)
	for i := range data {
		data[i] = byte(rng.Uint32())
	}
	im := &program.Image{
		Text:           text,
		Data:           data,
		InitializedLen: len(data),
		Entry:          program.TextBase,
		Symbols:        map[string]uint32{},
	}
	im.Finalize()
	return im
}

// TestTranslateDifferentialRandom fuzzes the paths against each other
// with seeded random programs. Any divergence — event field, fault
// string, counter, final register or memory byte — fails with the
// first differing instruction.
func TestTranslateDifferentialRandom(t *testing.T) {
	progs, budget := 64, uint64(3000)
	if testing.Short() {
		progs = 16
	}
	rng := rand.New(rand.NewSource(20260807))
	for p := 0; p < progs; p++ {
		im := genProgram(rng, 60+rng.Intn(200))
		t.Run(fmt.Sprintf("prog%02d", p), func(t *testing.T) {
			assertEquivalent(t, im, nil, budget)
		})
	}
}

// TestTranslateDifferentialWorkloads holds the paths equal on the real
// benchmark programs: every workload runs a 200k-instruction prefix
// through the interpreter, the translator, and the translator with the
// EventSink slot protocol, and all three must agree on every event and
// every piece of final state.
func TestTranslateDifferentialWorkloads(t *testing.T) {
	budget := uint64(200_000)
	if testing.Short() {
		budget = 50_000
	}
	for _, w := range workloads.All() {
		t.Run(w.Name, func(t *testing.T) {
			im, err := w.Image()
			if err != nil {
				t.Fatalf("Image: %v", err)
			}
			assertEquivalent(t, im, w.Input(1), budget)
		})
	}
}

// TestTranslateAllocs bounds what translation allocates: a fresh
// machine running each workload's 200k-instruction prefix translated
// may allocate at most two objects per block it translates beyond what
// the same run allocates interpreted (machine, pages, output). Blocks
// are built in per-machine scratch, so a block costs only its ops
// slice.
func TestTranslateAllocs(t *testing.T) {
	for _, w := range workloads.All() {
		t.Run(w.Name, func(t *testing.T) {
			im, err := w.Image()
			if err != nil {
				t.Fatalf("Image: %v", err)
			}
			input := w.Input(1)
			var blocks uint64
			allocs := func(noTranslate bool) float64 {
				return testing.AllocsPerRun(3, func() {
					m := cpu.New(im, input)
					m.NoTranslate = noTranslate
					if _, err := m.Run(200_000); err != nil {
						t.Fatal(err)
					}
					blocks = m.Trans.Blocks
				})
			}
			interpreted := allocs(true)
			translated := allocs(false)
			if blocks == 0 {
				t.Fatal("no block translated")
			}
			if extra := translated - interpreted; extra > 2*float64(blocks) {
				t.Errorf("translating %d blocks allocated %.0f objects, want at most %d", blocks, extra, 2*blocks)
			}
		})
	}
}
