package vprofile

import (
	"testing"

	"repro/internal/cpu"
	"repro/internal/isa"
)

func ev(pc, out uint32) *cpu.Event {
	return &cpu.Event{
		PC:   pc,
		Inst: isa.Inst{Op: isa.OpADDU, Rd: 2},
		Src1: 4, Src2: 5, Dst: 2, DstVal: out, Aux: -1,
	}
}

func TestConstantSiteFullyInvariant(t *testing.T) {
	p := New(16)
	for i := 0; i < 100; i++ {
		p.Observe(ev(0x400000, 7))
	}
	r := p.Result()
	if r.Sites != 1 || r.Top1Pct != 100 || r.InvariantSitesPct != 100 {
		t.Errorf("result = %+v", r)
	}
}

func TestMixedValues(t *testing.T) {
	p := New(16)
	// 80x value 1, 20x value 2.
	for i := 0; i < 80; i++ {
		p.Observe(ev(0x400000, 1))
	}
	for i := 0; i < 20; i++ {
		p.Observe(ev(0x400000, 2))
	}
	r := p.Result()
	if r.Top1Pct != 80 {
		t.Errorf("Inv(1) = %v, want 80", r.Top1Pct)
	}
	if r.Top4Pct != 100 {
		t.Errorf("Inv(4) = %v, want 100", r.Top4Pct)
	}
	if r.InvariantSitesPct != 0 {
		t.Errorf("80%% top value must not count as invariant (threshold 90)")
	}
}

func TestTNVReplacement(t *testing.T) {
	p := New(16)
	// Establish a heavy hitter, then stream many one-off values: the
	// heavy hitter must survive the TNV replacement policy.
	for i := 0; i < 1000; i++ {
		p.Observe(ev(0x400000, 42))
	}
	for v := uint32(100); v < 200; v++ {
		p.Observe(ev(0x400000, v))
	}
	for i := 0; i < 1000; i++ {
		p.Observe(ev(0x400000, 42))
	}
	r := p.Result()
	// 2000 of 2100 executions produced 42.
	if r.Top1Pct < 90 {
		t.Errorf("Inv(1) = %v: heavy hitter evicted by noise", r.Top1Pct)
	}
}

func TestNonProducersSkipped(t *testing.T) {
	p := New(16)
	store := &cpu.Event{
		PC: 0x400000, Inst: isa.Inst{Op: isa.OpSW},
		Src1: 4, Src2: 5, Dst: -1, Aux: -1, IsStore: true,
	}
	p.Observe(store)
	if r := p.Result(); r.Sites != 0 {
		t.Errorf("stores must not create sites: %+v", r)
	}
}

func TestMultipleSites(t *testing.T) {
	p := New(16)
	p.Observe(ev(0x400000, 1))
	p.Observe(ev(0x400004, 2))
	p.Observe(ev(0x400008, 3))
	if r := p.Result(); r.Sites != 3 {
		t.Errorf("sites = %d", r.Sites)
	}
}

func TestEmptyResult(t *testing.T) {
	p := New(16)
	r := p.Result()
	if r.Sites != 0 || r.Top1Pct != 0 || r.InvariantSitesPct != 0 {
		t.Errorf("empty profiler result = %+v", r)
	}
}
