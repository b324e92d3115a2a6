package vpred

import (
	"testing"

	"repro/internal/cpu"
	"repro/internal/isa"
)

// testWords is the text length the tests build predictors for: every
// PC they observe lies in its first words.
const testWords = 4096

func ev(pc, out uint32) *cpu.Event {
	return &cpu.Event{
		PC:   pc,
		Inst: isa.Inst{Op: isa.OpADDU, Rd: 2},
		Src1: 4, Src2: 5, Dst: 2, DstVal: out, Aux: -1,
	}
}

func TestLastValue(t *testing.T) {
	p := New(0, testWords)
	p.Observe(ev(0x400000, 7)) // fill
	p.Observe(ev(0x400000, 7)) // last-value correct
	p.Observe(ev(0x400000, 7)) // correct
	p.Observe(ev(0x400000, 9)) // miss
	r := p.Result(4)
	if r.EligiblePct != 100 {
		t.Errorf("eligible = %v", r.EligiblePct)
	}
	if r.LastValuePct != 50 {
		t.Errorf("last-value = %v, want 50", r.LastValuePct)
	}
}

func TestStride(t *testing.T) {
	p := New(0, testWords)
	// Sequence 10, 14, 18, 22: strides established after the second.
	for _, v := range []uint32{10, 14, 18, 22} {
		p.Observe(ev(0x400000, v))
	}
	r := p.Result(4)
	// Predictions: #2 no stride yet, #3 predicts 14+4=18 OK, #4
	// predicts 18+4=22 OK.
	if r.StridePct != 50 {
		t.Errorf("stride = %v, want 50", r.StridePct)
	}
	if r.LastValuePct != 0 {
		t.Errorf("last-value = %v, want 0 on a striding sequence", r.LastValuePct)
	}
	if r.HybridPct != 50 {
		t.Errorf("hybrid = %v, want 50", r.HybridPct)
	}
}

func TestHybridTakesBest(t *testing.T) {
	p := New(0, testWords)
	// Constant at one pc, striding at another.
	for i := 0; i < 10; i++ {
		p.Observe(ev(0x400000, 5))
		p.Observe(ev(0x400004, uint32(100+4*i)))
	}
	r := p.Result(20)
	if r.HybridPct < r.LastValuePct || r.HybridPct < r.StridePct {
		t.Errorf("hybrid %v must dominate last %v and stride %v",
			r.HybridPct, r.LastValuePct, r.StridePct)
	}
}

func TestNonProducersIgnored(t *testing.T) {
	p := New(0, testWords)
	store := &cpu.Event{
		PC:   0x400000,
		Inst: isa.Inst{Op: isa.OpSW},
		Src1: 4, Src2: 5, Dst: -1, Aux: -1, IsStore: true,
	}
	p.Observe(store)
	r := p.Result(1)
	if r.EligiblePct != 0 {
		t.Errorf("stores must not be eligible: %v", r.EligiblePct)
	}
}

func TestTableConflict(t *testing.T) {
	// Two PCs mapping to the same slot evict each other (tagged
	// table): neither trains.
	p := New(1, testWords)
	for i := 0; i < 10; i++ {
		p.Observe(ev(0x400000, 5))
		p.Observe(ev(0x400004, 9))
	}
	r := p.Result(20)
	if r.LastValuePct != 0 {
		t.Errorf("conflicting PCs should never predict: %v", r.LastValuePct)
	}
}

func TestZeroTotal(t *testing.T) {
	p := New(0, testWords)
	r := p.Result(0)
	if r.EligiblePct != 0 || r.LastValuePct != 0 {
		t.Error("empty predictor must report zeros")
	}
}
