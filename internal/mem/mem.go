// Package mem provides a sparse, paged 32-bit byte-addressable memory
// for the functional simulator, plus parallel "shadow" spaces used by
// the dataflow analyses to tag memory words.
package mem

// PageBits is the log2 of the page size in bytes.
const PageBits = 12

// PageSize is the size of one page in bytes.
const PageSize = 1 << PageBits

const pageMask = PageSize - 1

// The 20-bit page number is resolved through a two-level radix table
// (10+10 bits) instead of a map: a page lookup is two array indexes
// with no hashing, which matters because every simulated load and
// store resolves a page. A second-level node covers 4 MiB of address
// space, so a typical workload touches a handful of nodes.
const (
	radixBits = 10
	radixSize = 1 << radixBits
	radixMask = radixSize - 1
)

type pageNode = [radixSize]*[PageSize]byte

// Memory is a sparse paged memory. The zero value is an empty memory in
// which every byte reads as zero. Memory is little-endian, matching the
// MIPS little-endian configuration used by SimpleScalar.
type Memory struct {
	l1     [radixSize]*pageNode
	npages int

	// One-entry page cache: consecutive accesses overwhelmingly land on
	// the same page, and pages are never freed, so the cached pointer
	// can only go stale by pointing at a still-valid page. cpn is
	// meaningful only while cpage != nil.
	cpn   uint32
	cpage *[PageSize]byte
}

// New returns an empty memory.
func New() *Memory {
	return &Memory{}
}

func (m *Memory) page(addr uint32, create bool) *[PageSize]byte {
	pn := addr >> PageBits
	if p := m.cpage; p != nil && m.cpn == pn {
		return p
	}
	l2 := m.l1[pn>>radixBits]
	if l2 == nil {
		if !create {
			return nil
		}
		l2 = new(pageNode)
		m.l1[pn>>radixBits] = l2
	}
	p := l2[pn&radixMask]
	if p == nil && create {
		p = new([PageSize]byte)
		l2[pn&radixMask] = p
		m.npages++
	}
	if p != nil {
		m.cpn, m.cpage = pn, p
	}
	return p
}

// LoadByte returns the byte at addr.
func (m *Memory) LoadByte(addr uint32) byte {
	p := m.page(addr, false)
	if p == nil {
		return 0
	}
	return p[addr&pageMask]
}

// StoreByte stores b at addr.
func (m *Memory) StoreByte(addr uint32, b byte) {
	m.page(addr, true)[addr&pageMask] = b
}

// ReadHalf returns the little-endian 16-bit value at addr.
func (m *Memory) ReadHalf(addr uint32) uint16 {
	return uint16(m.LoadByte(addr)) | uint16(m.LoadByte(addr+1))<<8
}

// WriteHalf stores the little-endian 16-bit value v at addr.
func (m *Memory) WriteHalf(addr uint32, v uint16) {
	m.StoreByte(addr, byte(v))
	m.StoreByte(addr+1, byte(v>>8))
}

// ReadWord returns the little-endian 32-bit value at addr. The fast path
// assumes word accesses do not straddle pages (true for aligned
// accesses, which is all the simulator issues for words).
func (m *Memory) ReadWord(addr uint32) uint32 {
	off := addr & pageMask
	if off <= PageSize-4 {
		p := m.page(addr, false)
		if p == nil {
			return 0
		}
		return uint32(p[off]) | uint32(p[off+1])<<8 | uint32(p[off+2])<<16 | uint32(p[off+3])<<24
	}
	return uint32(m.ReadHalf(addr)) | uint32(m.ReadHalf(addr+2))<<16
}

// WriteWord stores the little-endian 32-bit value v at addr.
func (m *Memory) WriteWord(addr uint32, v uint32) {
	off := addr & pageMask
	if off <= PageSize-4 {
		p := m.page(addr, true)
		p[off] = byte(v)
		p[off+1] = byte(v >> 8)
		p[off+2] = byte(v >> 16)
		p[off+3] = byte(v >> 24)
		return
	}
	m.WriteHalf(addr, uint16(v))
	m.WriteHalf(addr+2, uint16(v>>16))
}

// StoreBytes copies b into memory starting at addr.
func (m *Memory) StoreBytes(addr uint32, b []byte) {
	for i, c := range b {
		m.StoreByte(addr+uint32(i), c)
	}
}

// ReadCString reads a NUL-terminated string at addr, up to max bytes.
func (m *Memory) ReadCString(addr uint32, max int) string {
	var out []byte
	for i := 0; i < max; i++ {
		b := m.LoadByte(addr + uint32(i))
		if b == 0 {
			break
		}
		out = append(out, b)
	}
	return string(out)
}

// PagesAllocated returns the number of resident pages (for tests and
// resource accounting).
func (m *Memory) PagesAllocated() int { return m.npages }

type shadowNode = [radixSize]*[PageSize / 4]byte

// Shadow is a sparse paged tag space with one byte of metadata per
// 32-bit word of simulated memory. The dataflow analyses use it to
// track value origins through memory. Pages resolve through the same
// two-level radix layout Memory uses.
type Shadow struct {
	l1 [radixSize]*shadowNode

	// One-entry page cache (same rationale as Memory's): tag pages are
	// never freed, so the cached pointer cannot dangle.
	cpn   uint32
	cpage *[PageSize / 4]byte
}

// NewShadow returns an empty shadow space; every word's tag reads as 0.
func NewShadow() *Shadow {
	return &Shadow{}
}

// Get returns the tag of the word containing addr.
func (s *Shadow) Get(addr uint32) byte {
	pn := addr >> PageBits
	if p := s.cpage; p != nil && s.cpn == pn {
		return p[addr&pageMask>>2]
	}
	l2 := s.l1[pn>>radixBits]
	if l2 == nil {
		return 0
	}
	p := l2[pn&radixMask]
	if p == nil {
		return 0
	}
	s.cpn, s.cpage = pn, p
	return p[addr&pageMask>>2]
}

// Set assigns tag to the word containing addr.
func (s *Shadow) Set(addr uint32, tag byte) {
	pn := addr >> PageBits
	if p := s.cpage; p != nil && s.cpn == pn {
		p[addr&pageMask>>2] = tag
		return
	}
	l2 := s.l1[pn>>radixBits]
	if l2 == nil {
		if tag == 0 {
			return
		}
		l2 = new(shadowNode)
		s.l1[pn>>radixBits] = l2
	}
	p := l2[pn&radixMask]
	if p == nil {
		if tag == 0 {
			return
		}
		p = new([PageSize / 4]byte)
		l2[pn&radixMask] = p
	}
	s.cpn, s.cpage = pn, p
	p[addr&pageMask>>2] = tag
}

// SetRange assigns tag to every word overlapping [addr, addr+n).
func (s *Shadow) SetRange(addr uint32, n int, tag byte) {
	if n <= 0 {
		return
	}
	first := addr &^ 3
	last := (addr + uint32(n) - 1) &^ 3
	for a := first; ; a += 4 {
		s.Set(a, tag)
		if a == last {
			break
		}
	}
}
