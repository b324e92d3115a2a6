package mem

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestZeroDefault(t *testing.T) {
	m := New()
	if m.LoadByte(0x1234) != 0 || m.ReadWord(0x1000) != 0 || m.ReadHalf(0x2) != 0 {
		t.Error("fresh memory should read zero")
	}
	if m.PagesAllocated() != 0 {
		t.Error("reads should not allocate pages")
	}
}

func TestByteHalfWordRoundTrip(t *testing.T) {
	m := New()
	m.StoreByte(100, 0xab)
	if got := m.LoadByte(100); got != 0xab {
		t.Errorf("byte = %#x", got)
	}
	m.WriteHalf(200, 0xbeef)
	if got := m.ReadHalf(200); got != 0xbeef {
		t.Errorf("half = %#x", got)
	}
	m.WriteWord(300, 0xdeadbeef)
	if got := m.ReadWord(300); got != 0xdeadbeef {
		t.Errorf("word = %#x", got)
	}
}

func TestLittleEndian(t *testing.T) {
	m := New()
	m.WriteWord(0x1000, 0x04030201)
	for i, want := range []byte{1, 2, 3, 4} {
		if got := m.LoadByte(0x1000 + uint32(i)); got != want {
			t.Errorf("byte %d = %d, want %d", i, got, want)
		}
	}
	m.StoreByte(0x2000, 0x11)
	m.StoreByte(0x2001, 0x22)
	if got := m.ReadHalf(0x2000); got != 0x2211 {
		t.Errorf("half = %#x", got)
	}
}

func TestPageBoundary(t *testing.T) {
	m := New()
	// Word write straddling a page boundary (only possible unaligned;
	// the slow path must still work).
	addr := uint32(PageSize - 2)
	m.WriteWord(addr, 0xcafebabe)
	if got := m.ReadWord(addr); got != 0xcafebabe {
		t.Errorf("straddling word = %#x", got)
	}
	if m.PagesAllocated() != 2 {
		t.Errorf("pages = %d, want 2", m.PagesAllocated())
	}
}

func TestBulkBytes(t *testing.T) {
	m := New()
	data := []byte("hello, world")
	m.StoreBytes(0x5000, data)
	got := make([]byte, len(data))
	for i := range got {
		got[i] = m.LoadByte(0x5000 + uint32(i))
	}
	if string(got) != string(data) {
		t.Errorf("round trip = %q", got)
	}
}

func TestReadCString(t *testing.T) {
	m := New()
	m.StoreBytes(0x100, []byte("abc\x00def"))
	if got := m.ReadCString(0x100, 100); got != "abc" {
		t.Errorf("cstring = %q", got)
	}
	if got := m.ReadCString(0x100, 2); got != "ab" {
		t.Errorf("bounded cstring = %q", got)
	}
}

// Property: the memory behaves like a map of bytes — random writes then
// reads agree with a Go map model.
func TestMemoryModelProperty(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	f := func() bool {
		m := New()
		model := map[uint32]byte{}
		for i := 0; i < 500; i++ {
			addr := uint32(r.Intn(3 * PageSize))
			switch r.Intn(3) {
			case 0:
				b := byte(r.Intn(256))
				m.StoreByte(addr, b)
				model[addr] = b
			case 1:
				v := uint32(r.Uint32())
				m.WriteWord(addr, v)
				model[addr] = byte(v)
				model[addr+1] = byte(v >> 8)
				model[addr+2] = byte(v >> 16)
				model[addr+3] = byte(v >> 24)
			case 2:
				if m.LoadByte(addr) != model[addr] {
					return false
				}
			}
		}
		for addr, want := range model {
			if m.LoadByte(addr) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestShadow(t *testing.T) {
	s := NewShadow()
	if s.Get(0x1000) != 0 {
		t.Error("fresh shadow should read 0")
	}
	s.Set(0x1000, 3)
	if s.Get(0x1000) != 3 || s.Get(0x1003) != 3 {
		t.Error("tag should cover the whole word")
	}
	if s.Get(0x1004) != 0 {
		t.Error("adjacent word tagged")
	}
	// Setting zero on an absent page must not allocate.
	s2 := NewShadow()
	s2.Set(0x5000, 0)
	if s2.Get(0x5000) != 0 {
		t.Error("zero set should be a no-op")
	}
}

func TestShadowSetRange(t *testing.T) {
	s := NewShadow()
	s.SetRange(0x1002, 6, 9) // covers words 0x1000, 0x1004
	for _, addr := range []uint32{0x1000, 0x1003, 0x1004, 0x1007} {
		if s.Get(addr) != 9 {
			t.Errorf("addr %#x tag = %d, want 9", addr, s.Get(addr))
		}
	}
	if s.Get(0x1008) != 0 {
		t.Error("range overshoot")
	}
	s.SetRange(0x2000, 0, 5)
	if s.Get(0x2000) != 0 {
		t.Error("empty range should be a no-op")
	}
}

func TestShadowRangeAcrossPages(t *testing.T) {
	s := NewShadow()
	start := uint32(PageSize - 8)
	s.SetRange(start, 16, 2)
	for a := start; a < start+16; a += 4 {
		if s.Get(a) != 2 {
			t.Errorf("addr %#x not tagged", a)
		}
	}
}
