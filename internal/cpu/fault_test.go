package cpu_test

// Regression tests pinning the simulator fault-message format: every
// fault names the PC (and the containing function when the image knows
// it), so a watchdog or fault report locates where a run died without
// a debugger. Also pinned here: Run stops at an exact retire count on
// either path, which is what lets the run loop inject faults and
// publish progress at stop points instead of intercepting every step.

import (
	"reflect"
	"regexp"
	"testing"

	"repro/internal/cpu"
	"repro/internal/workloads"
)

// faultFormat is the contract for every simulator fault message.
var faultFormat = regexp.MustCompile(`^cpu: pc=0x[0-9a-f]+( in \S+)?: .+`)

func TestHaltedErrorNamesPC(t *testing.T) {
	m := run(t, exitStub+`
		.func main 0
main:
		li $v0, 0
		jr $ra
		.endfunc
	`, "")
	err := m.Step()
	if err == nil {
		t.Fatal("Step on a halted machine must fail")
	}
	if !faultFormat.MatchString(err.Error()) {
		t.Errorf("halted error %q does not match fault format %v", err, faultFormat)
	}
	if want := "machine is halted"; !regexp.MustCompile(regexp.QuoteMeta(want) + `$`).MatchString(err.Error()) {
		t.Errorf("halted error %q does not end with %q", err, want)
	}
	// Run on a halted machine is a no-op, not a fault: the loop
	// condition sees Halted and retires nothing.
	if n, rerr := m.Run(10); n != 0 || rerr != nil {
		t.Errorf("Run on a halted machine = (%d, %v), want (0, nil)", n, rerr)
	}
}

func TestFaultErrorsNamePC(t *testing.T) {
	// An unaligned load faults mid-program; the message must carry the
	// PC and the function name from the image.
	m := load(t, exitStub+`
		.func main 0
main:
		li $t0, 3
		lw $t1, 0($t0)
		jr $ra
		.endfunc
	`, "")
	_, err := m.Run(100)
	if err == nil {
		t.Fatal("unaligned load must fault")
	}
	if !faultFormat.MatchString(err.Error()) {
		t.Errorf("fault %q does not match fault format %v", err, faultFormat)
	}
}

// countLoop sums 1..100: long enough to stop mid-loop many times.
const countLoop = exitStub + `
		.func main 0
main:
		li $t0, 0
		li $t1, 1
loop:
		addu $t0, $t0, $t1
		addiu $t1, $t1, 1
		li $t2, 100
		ble $t1, $t2, loop
		move $v0, $t0
		jr $ra
		.endfunc
	`

// TestRunStopsAtExactCount: on both paths Run(k) retires exactly k
// instructions and leaves the machine running, mid-block included, so
// a caller can act at an exact retire count and then continue.
func TestRunStopsAtExactCount(t *testing.T) {
	for _, noTranslate := range []bool{false, true} {
		m := load(t, countLoop, "")
		m.NoTranslate = noTranslate
		for _, k := range []uint64{1, 2, 7, 13, 1} {
			before := m.Count
			n, err := m.Run(k)
			if err != nil || n != k || m.Count != before+k || m.Halted {
				t.Fatalf("noTranslate=%v: Run(%d) at count %d = (%d, %v), count %d, halted %v",
					noTranslate, k, before, n, err, m.Count, m.Halted)
			}
		}
		if _, err := m.Run(0); err != nil || m.ExitCode != 5050 {
			t.Errorf("noTranslate=%v: continued run = %v, exit %d, want 5050", noTranslate, err, m.ExitCode)
		}
	}
}

// TestSplitRunMatchesStraightRun runs a workload prefix in uneven
// pieces, the shape of the run loop's sub-chunks and stop points: the
// translated path leaves blocks mid-superblock at every split, and the
// event streams and final state must still equal one straight Run.
func TestSplitRunMatchesStraightRun(t *testing.T) {
	const budget = 50_000
	w := workloads.All()[0]
	im, err := w.Image()
	if err != nil {
		t.Fatal(err)
	}
	input := w.Input(1)

	straight := cpu.New(im, input)
	want := &recorder{}
	straight.Attach(want)
	if _, err := straight.Run(budget); err != nil {
		t.Fatal(err)
	}

	split := cpu.New(im, input)
	got := &recorder{}
	split.Attach(got)
	for k := uint64(1); split.Count < budget && !split.Halted; k = k%97 + 1 {
		if left := budget - split.Count; k > left {
			k = left
		}
		if _, err := split.Run(k); err != nil {
			t.Fatal(err)
		}
	}
	if a, b := snapshot(straight, budget, nil), snapshot(split, budget, nil); a != b {
		t.Errorf("split run state diverged\nstraight: %+v\nsplit:    %+v", a, b)
	}
	diffStreams(t, "split", want.events, got.events)
	if !reflect.DeepEqual(want.calls, got.calls) || !reflect.DeepEqual(want.returns, got.returns) {
		t.Error("split run call/return streams diverged")
	}
}

// TestTransCounters pins the counters behind RunMetrics' exec path: the
// translated loop counts the blocks it builds and the Step calls it
// falls back to (here one, a jump out of the text segment that faults
// on fetch); the interpreter counts neither.
func TestTransCounters(t *testing.T) {
	src := exitStub + ".func main 0\nmain: li $t0, 0x10000000\njr $t0\n.endfunc"
	m := load(t, src, "")
	if _, err := m.Run(100); err == nil {
		t.Fatal("jump out of text must fault")
	}
	if m.Trans.Blocks == 0 || m.Trans.FallbackSteps != 1 {
		t.Errorf("translated counters = %+v, want blocks > 0 and 1 fallback step", m.Trans)
	}
	mi := load(t, src, "")
	mi.NoTranslate = true
	if _, err := mi.Run(100); err == nil {
		t.Fatal("jump out of text must fault")
	}
	if mi.Trans != (cpu.TransCounters{}) {
		t.Errorf("interpreted counters = %+v, want zero", mi.Trans)
	}
}
