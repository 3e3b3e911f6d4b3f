// Package mem provides the memory substrate under the memory stream
// engine: a functional byte-addressable backing store, a set-associative
// cache timing model (the L2-like cache Softbrain's wide interface
// accesses directly), and a System that combines them with DRAM latency
// and bandwidth limits.
package mem

import (
	"encoding/binary"
	"sort"
)

const pageShift = 12
const pageSize = 1 << pageShift

// Memory is a sparse, byte-addressable functional memory, built by
// NewMemory; unwritten bytes read as zero. A Memory is not safe for
// concurrent use: a cluster's units share one, stepped by a single run
// loop.
type Memory struct {
	pages map[uint64]*[pageSize]byte
}

// NewMemory returns an empty memory.
func NewMemory() *Memory {
	return &Memory{pages: make(map[uint64]*[pageSize]byte)}
}

func (m *Memory) page(addr uint64, create bool) *[pageSize]byte {
	pn := addr >> pageShift
	p := m.pages[pn]
	if p == nil && create {
		p = new([pageSize]byte)
		m.pages[pn] = p
	}
	return p
}

// Read fills buf with the bytes starting at addr.
func (m *Memory) Read(addr uint64, buf []byte) {
	for len(buf) > 0 {
		off := addr & (pageSize - 1)
		n := copy(buf, emptyPage[:pageSize-off])
		if p := m.page(addr, false); p != nil {
			copy(buf[:n], p[off:])
		} else {
			for i := 0; i < n; i++ {
				buf[i] = 0
			}
		}
		addr += uint64(n)
		buf = buf[n:]
	}
}

var emptyPage [pageSize]byte

// Write stores data starting at addr.
func (m *Memory) Write(addr uint64, data []byte) {
	for len(data) > 0 {
		p := m.page(addr, true)
		off := addr & (pageSize - 1)
		n := copy(p[off:], data)
		addr += uint64(n)
		data = data[n:]
	}
}

// LoadByte returns the byte at addr.
func (m *Memory) LoadByte(addr uint64) byte {
	if p := m.page(addr, false); p != nil {
		return p[addr&(pageSize-1)]
	}
	return 0
}

// StoreByte stores one byte at addr.
func (m *Memory) StoreByte(addr uint64, b byte) {
	m.page(addr, true)[addr&(pageSize-1)] = b
}

// ReadU64 reads a little-endian 64-bit word at addr.
func (m *Memory) ReadU64(addr uint64) uint64 {
	var buf [8]byte
	m.Read(addr, buf[:])
	return binary.LittleEndian.Uint64(buf[:])
}

// WriteU64 stores a little-endian 64-bit word at addr.
func (m *Memory) WriteU64(addr uint64, v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	m.Write(addr, buf[:])
}

// ReadUint reads a little-endian unsigned integer of size bytes (1,2,4,8).
func (m *Memory) ReadUint(addr uint64, size int) uint64 {
	var buf [8]byte
	m.Read(addr, buf[:size])
	return binary.LittleEndian.Uint64(buf[:])
}

// WriteUint stores the low size bytes of v little-endian at addr.
func (m *Memory) WriteUint(addr uint64, size int, v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	m.Write(addr, buf[:size])
}

// FootprintBytes returns the number of bytes of allocated pages, a debug
// aid for workload builders.
func (m *Memory) FootprintBytes() uint64 {
	return uint64(len(m.pages)) * pageSize
}

// FirstDiff returns the lowest address at which m and o differ, with
// ok false when the two memories hold identical contents. Unwritten
// bytes compare as zero, so allocation layout does not matter.
func (m *Memory) FirstDiff(o *Memory) (addr uint64, ok bool) {
	seen := map[uint64]bool{}
	var pns []uint64
	for pn := range m.pages {
		seen[pn] = true
		pns = append(pns, pn)
	}
	for pn := range o.pages {
		if !seen[pn] {
			pns = append(pns, pn)
		}
	}
	sort.Slice(pns, func(i, j int) bool { return pns[i] < pns[j] })
	for _, pn := range pns {
		a, b := m.pages[pn], o.pages[pn]
		if a == nil {
			a = &emptyPage
		}
		if b == nil {
			b = &emptyPage
		}
		if *a == *b {
			continue
		}
		for i := range a {
			if a[i] != b[i] {
				return pn<<pageShift + uint64(i), true
			}
		}
	}
	return 0, false
}

// Equal reports whether m and o hold identical contents.
func (m *Memory) Equal(o *Memory) bool {
	_, diff := m.FirstDiff(o)
	return !diff
}
