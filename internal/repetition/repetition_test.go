package repetition

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cpu"
	"repro/internal/isa"
)

// testWords sizes every test tracker's text segment: PCs from
// 0x400000 to 0x400ffc.
const testWords = 1024

// ev builds an ALU event at pc with two inputs and an output.
func ev(pc uint32, in1, in2, out uint32) *cpu.Event {
	return &cpu.Event{
		PC:   pc,
		Inst: isa.Inst{Op: isa.OpADDU, Rd: 2, Rs: 4, Rt: 5},
		Src1: 4, Src1Val: in1,
		Src2: 5, Src2Val: in2,
		Dst: 2, DstVal: out,
		Aux: -1,
	}
}

// TestUniqueRepeatableInstancesFigure2 reproduces the paper's Figure 2
// scenario: one static instruction generates seven dynamic instances
// I1..I7; I2 and I4 are the unique repeatable instances (I3 repeats I2;
// I5, I6, I7 repeat I4); I1 is unique but never repeated.
func TestUniqueRepeatableInstancesFigure2(t *testing.T) {
	tr := NewTracker(testWords)
	seq := []struct {
		in1, in2, out uint32
		wantRepeat    bool
	}{
		{10, 1, 11, false}, // I1: unique, never repeated
		{20, 2, 22, false}, // I2: first occurrence
		{20, 2, 22, true},  // I3: repeats I2
		{30, 3, 33, false}, // I4: first occurrence
		{30, 3, 33, true},  // I5
		{30, 3, 33, true},  // I6
		{30, 3, 33, true},  // I7
	}
	for i, s := range seq {
		got := tr.Observe(ev(0x400000, s.in1, s.in2, s.out))
		if got != s.wantRepeat {
			t.Errorf("I%d: repeated = %v, want %v", i+1, got, s.wantRepeat)
		}
	}
	if tr.DynamicInstructions() != 7 {
		t.Errorf("dyn = %d", tr.DynamicInstructions())
	}
	if tr.RepeatedInstructions() != 4 {
		t.Errorf("repeated = %d", tr.RepeatedInstructions())
	}
	count, avg := tr.UniqueRepeatableInstances()
	if count != 2 {
		t.Errorf("unique repeatable instances = %d, want 2", count)
	}
	if avg != 2.0 { // 4 repeats over 2 instances
		t.Errorf("avg repeats = %v, want 2", avg)
	}
	if tr.StaticExecuted() != 1 || tr.StaticRepeated() != 1 {
		t.Errorf("static executed/repeated = %d/%d", tr.StaticExecuted(), tr.StaticRepeated())
	}
}

func TestDifferentOutputsSameInputsNotRepeated(t *testing.T) {
	// A load reading a changed value: same inputs, different output —
	// not repeated (Section 2's load example).
	tr := NewTracker(testWords)
	if tr.Observe(ev(0x400000, 100, 0, 7)) {
		t.Error("first instance repeated")
	}
	if tr.Observe(ev(0x400000, 100, 0, 8)) {
		t.Error("changed output classified repeated")
	}
	if !tr.Observe(ev(0x400000, 100, 0, 8)) {
		t.Error("third instance should repeat the second")
	}
}

func TestBranchDirectionIsOutput(t *testing.T) {
	tr := NewTracker(testWords)
	br := func(a, b uint32, taken bool) *cpu.Event {
		return &cpu.Event{
			PC:   0x400010,
			Inst: isa.Inst{Op: isa.OpBEQ, Rs: 4, Rt: 5},
			Src1: 4, Src1Val: a, Src2: 5, Src2Val: b,
			Dst: -1, Aux: -1, IsBranch: true, Taken: taken,
		}
	}
	if tr.Observe(br(1, 1, true)) {
		t.Error("first branch repeated")
	}
	if !tr.Observe(br(1, 1, true)) {
		t.Error("identical branch not repeated")
	}
	if tr.Observe(br(1, 2, false)) {
		t.Error("different-inputs branch repeated")
	}
}

func TestBufferLimit(t *testing.T) {
	tr := NewTracker(testWords)
	tr.MaxInstances = 4
	// Fill the buffer with 4 unique instances.
	for i := uint32(0); i < 4; i++ {
		if tr.Observe(ev(0x400000, i, 0, i)) {
			t.Error("fill classified repeated")
		}
	}
	// A fifth unique instance is dropped.
	if tr.Observe(ev(0x400000, 99, 0, 99)) {
		t.Error("overflow instance classified repeated")
	}
	// It was not inserted: the same instance again still misses.
	if tr.Observe(ev(0x400000, 99, 0, 99)) {
		t.Error("dropped instance matched later")
	}
	// Buffered instances still match.
	if !tr.Observe(ev(0x400000, 2, 0, 2)) {
		t.Error("buffered instance missed")
	}
}

func TestStaticCoverage(t *testing.T) {
	tr := NewTracker(testWords)
	// Two static instructions: one contributing 90 repeats, one 10.
	for i := 0; i < 91; i++ {
		tr.Observe(ev(0x400000, 1, 1, 2))
	}
	for i := 0; i < 11; i++ {
		tr.Observe(ev(0x400004, 1, 1, 2))
	}
	cov := tr.StaticCoverage([]float64{50, 90, 100})
	// The top instruction (50% of contributors) covers 90%.
	if cov[0] != 50 || cov[1] != 50 {
		t.Errorf("coverage = %v, want [50 50 100]", cov)
	}
	if cov[2] != 100 {
		t.Errorf("full coverage needs all contributors: %v", cov)
	}
}

func TestInstanceBuckets(t *testing.T) {
	tr := NewTracker(testWords)
	// pc A: one unique repeatable instance with 5 repeats.
	for i := 0; i < 6; i++ {
		tr.Observe(ev(0x4000a0, 1, 1, 2))
	}
	// pc B: three unique repeatable instances, 2 repeats each.
	for v := uint32(0); v < 3; v++ {
		for i := 0; i < 3; i++ {
			tr.Observe(ev(0x4000b0, v, v, v))
		}
	}
	b := tr.InstanceBuckets()
	if b.One != 5 {
		t.Errorf("bucket One = %d, want 5", b.One)
	}
	if b.UpTo10 != 6 {
		t.Errorf("bucket 2-10 = %d, want 6", b.UpTo10)
	}
	p := b.Percents()
	var sum float64
	for _, v := range p {
		sum += v
	}
	if sum < 99.9 || sum > 100.1 {
		t.Errorf("bucket percents sum to %v", sum)
	}
}

func TestInstanceCoverage(t *testing.T) {
	tr := NewTracker(testWords)
	// One instance with 99 repeats, 9 instances with 1 repeat each.
	for i := 0; i < 100; i++ {
		tr.Observe(ev(0x4000c0, 7, 7, 14))
	}
	for v := uint32(0); v < 9; v++ {
		tr.Observe(ev(0x4000d0, v, v, 2*v))
		tr.Observe(ev(0x4000d0, v, v, 2*v))
	}
	// Total repeats = 108; top instance covers 99/108 = 91.7%.
	cov := tr.InstanceCoverage([]float64{50, 90, 100})
	if cov[0] != 10 { // 1 of 10 instances
		t.Errorf("50%% coverage needs %v%% of instances, want 10", cov[0])
	}
	if cov[2] != 100 {
		t.Errorf("100%% coverage = %v, want 100", cov[2])
	}
	// Monotone.
	if !(cov[0] <= cov[1] && cov[1] <= cov[2]) {
		t.Errorf("coverage not monotone: %v", cov)
	}
}

// Property: counts are conserved — dyn = repeated + unique instances
// observed + dropped, for any random event stream.
func TestCountConservation(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	f := func() bool {
		tr := NewTracker(testWords)
		tr.MaxInstances = 8
		n := 200 + r.Intn(200)
		var repeats uint64
		for i := 0; i < n; i++ {
			pc := uint32(0x400000 + 4*r.Intn(5))
			v := uint32(r.Intn(12))
			if tr.Observe(ev(pc, v, v+1, 2*v)) {
				repeats++
			}
		}
		if tr.DynamicInstructions() != uint64(n) {
			return false
		}
		if tr.RepeatedInstructions() != repeats {
			return false
		}
		count, avg := tr.UniqueRepeatableInstances()
		if count > 0 && avg*float64(count) != float64(repeats) {
			// avg is exactly repeats/count
			d := avg*float64(count) - float64(repeats)
			if d > 1e-6 || d < -1e-6 {
				return false
			}
		}
		return tr.RepeatedPercent() >= 0 && tr.RepeatedPercent() <= 100
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: coverage curves are monotone nondecreasing and bounded for
// random streams.
func TestCoverageMonotone(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	targets := []float64{10, 25, 50, 75, 90, 99, 100}
	f := func() bool {
		tr := NewTracker(testWords)
		n := 300 + r.Intn(300)
		for i := 0; i < n; i++ {
			pc := uint32(0x400000 + 4*r.Intn(20))
			v := uint32(r.Intn(6))
			tr.Observe(ev(pc, v, v, v))
		}
		for _, curve := range [][]float64{tr.StaticCoverage(targets), tr.InstanceCoverage(targets)} {
			prev := 0.0
			for _, v := range curve {
				if v < prev-1e-9 || v > 100+1e-9 {
					return false
				}
				prev = v
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestInstanceCoverageFullTargetExact is the Figure 4 overshoot
// regression: the 100% target must report exactly 100% of instances
// used — never more — including on repeat-count distributions where
// the float-rounded need demands a fractional instance.
func TestInstanceCoverageFullTargetExact(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for trial := 0; trial < 40; trial++ {
		tr := NewTracker(testWords)
		n := 50 + r.Intn(400)
		for i := 0; i < n; i++ {
			pc := uint32(0x400000 + 4*r.Intn(9))
			v := uint32(r.Intn(7))
			tr.Observe(ev(pc, v, v+1, 2*v))
		}
		targets := []float64{33.3, 66.7, 95, 99.9, 100}
		cov := tr.InstanceCoverage(targets)
		for i, c := range cov {
			if c > 100 {
				t.Fatalf("trial %d: coverage[%d] = %v exceeds 100%%", trial, i, c)
			}
		}
		if tr.RepeatedInstructions() > 0 && cov[len(cov)-1] != 100 {
			t.Fatalf("trial %d: 100%% target returned %v, want exactly 100", trial, cov[len(cov)-1])
		}
	}
}
