// Package isa defines the stream-dataflow instruction-set architecture:
// the access patterns, stream commands and barriers of Table 2 of the
// paper, plus a compact binary encoding suitable for embedding in a
// fixed-width RISC ISA (1-3 instruction words per command).
//
// The ISA is the hardware/software contract. Everything here is purely
// architectural: no microarchitectural state appears in this package.
package isa

import (
	"fmt"
	"math/bits"
)

// LineBytes is the width of the memory interface in bytes. Stream engines
// move data in aligned lines of this size (the paper's 512-bit buses).
const LineBytes = 64

// Affine describes a two-dimensional affine access pattern (Figure 5):
// accesses of the form a[C*i+j] where i counts strides and j counts bytes
// within one access. The four classic shapes fall out of the parameters:
//
//	Linear:     Stride == AccessSize
//	Strided:    Stride > AccessSize
//	Overlapped: 0 < Stride < AccessSize
//	Repeating:  Stride == 0
type Affine struct {
	Start      uint64 // byte address of the first access
	AccessSize uint64 // bytes per contiguous access (the "access size")
	Stride     uint64 // bytes between consecutive access starts
	Strides    uint64 // number of accesses ("number of strides")
}

// Linear returns the pattern for a contiguous region of n bytes at start.
func Linear(start, n uint64) Affine {
	return Affine{Start: start, AccessSize: n, Stride: n, Strides: 1}
}

// Strided2D returns the pattern reading rows of rowBytes bytes separated
// by pitch bytes, rows times.
func Strided2D(start, rowBytes, pitch, rows uint64) Affine {
	return Affine{Start: start, AccessSize: rowBytes, Stride: pitch, Strides: rows}
}

// Repeat returns the pattern that re-reads the same n bytes times times.
func Repeat(start, n, times uint64) Affine {
	return Affine{Start: start, AccessSize: n, Stride: 0, Strides: times}
}

// TotalBytes is the number of bytes the pattern touches in stream order
// (bytes revisited by overlapped or repeating patterns count every visit).
func (a Affine) TotalBytes() uint64 { return a.AccessSize * a.Strides }

// Empty reports whether the pattern generates no bytes.
func (a Affine) Empty() bool { return a.AccessSize == 0 || a.Strides == 0 }

// Shape classifies the pattern per Figure 5. Purely informational.
func (a Affine) Shape() string {
	switch {
	case a.Empty():
		return "empty"
	case a.Strides == 1 || a.Stride == a.AccessSize:
		return "linear"
	case a.Stride == 0:
		return "repeating"
	case a.Stride < a.AccessSize:
		return "overlapped"
	default:
		return "strided"
	}
}

// TotalBytesChecked is TotalBytes with overflow detection: ok is false
// when AccessSize*Strides does not fit in uint64.
func (a Affine) TotalBytesChecked() (n uint64, ok bool) {
	hi, lo := bits.Mul64(a.AccessSize, a.Strides)
	return lo, hi == 0
}

// Extent returns the half-open byte range [lo, hi) the pattern touches.
// ok is false when the last byte address overflows uint64 — the pattern
// wraps the address space and hi is meaningless. Empty patterns return
// an empty range at Start.
func (a Affine) Extent() (lo, hi uint64, ok bool) {
	if a.Empty() {
		return a.Start, a.Start, true
	}
	// Last byte offset from Start: (Strides-1)*Stride + AccessSize - 1.
	h, span := bits.Mul64(a.Strides-1, a.Stride)
	if h != 0 {
		return a.Start, 0, false
	}
	span, carry := bits.Add64(span, a.AccessSize, 0)
	if carry != 0 {
		return a.Start, 0, false
	}
	end, carry := bits.Add64(a.Start, span, 0)
	if carry != 0 || end < a.Start { // end == 0 after exact wrap
		return a.Start, 0, false
	}
	return a.Start, end, true
}

// dense reports whether the pattern touches every byte of its extent:
// linear, overlapped, and repeating shapes have no holes.
func (a Affine) dense() bool {
	return a.Strides <= 1 || a.Stride <= a.AccessSize
}

// touchesInterval reports whether any access of the pattern intersects
// the half-open byte interval [lo, hi). Patterns whose extent overflows
// are conservatively reported as touching.
func (a Affine) touchesInterval(lo, hi uint64) bool {
	if hi <= lo || a.Empty() {
		return false
	}
	alo, ahi, ok := a.Extent()
	if !ok {
		return true
	}
	if ahi <= lo || alo >= hi {
		return false
	}
	if a.dense() {
		return true
	}
	// Sparse strided pattern: access s covers [alo+s*Stride, +AccessSize).
	// It ends after lo when s > (lo - alo - AccessSize)/Stride, and starts
	// before hi when s <= (hi-1-alo)/Stride.
	var smin uint64
	if lo >= alo+a.AccessSize { // no underflow: alo+AccessSize <= ahi fits
		smin = (lo-alo-a.AccessSize)/a.Stride + 1
	}
	smax := (hi - 1 - alo) / a.Stride // alo < hi, so no underflow
	if last := a.Strides - 1; smax > last {
		smax = last
	}
	return smin <= smax
}

// overlapEnumCap bounds the per-access enumeration Overlaps falls back
// to for two sparse strided patterns; beyond it the check is
// conservatively true.
const overlapEnumCap = 1 << 16

// Overlaps reports whether the byte footprints of a and b intersect.
// The check is exact except for two cases reported conservatively as
// overlapping: patterns whose extent overflows uint64, and pairs of
// sparse strided patterns with more than overlapEnumCap accesses each.
func (a Affine) Overlaps(b Affine) bool {
	if a.Empty() || b.Empty() {
		return false
	}
	alo, ahi, aok := a.Extent()
	blo, bhi, bok := b.Extent()
	if !aok || !bok {
		return true
	}
	if ahi <= blo || bhi <= alo {
		return false
	}
	// Extents intersect. Dense patterns cover their extent completely.
	if a.dense() || b.dense() {
		if a.dense() && b.dense() {
			return true
		}
		// One dense: restrict to the sparse side's access grid.
		sparse, dense := a, b
		if a.dense() {
			sparse, dense = b, a
		}
		dlo, dhi, _ := dense.Extent()
		return sparse.touchesInterval(dlo, dhi)
	}
	// Both sparse: enumerate the pattern with fewer accesses.
	p, q := a, b
	if b.Strides < a.Strides {
		p, q = b, a
	}
	if p.Strides > overlapEnumCap {
		return true
	}
	plo, _, _ := p.Extent()
	for s := uint64(0); s < p.Strides; s++ {
		start := plo + s*p.Stride
		if q.touchesInterval(start, start+p.AccessSize) {
			return true
		}
	}
	return false
}

func (a Affine) String() string {
	return fmt.Sprintf("affine{start=%#x size=%d stride=%d n=%d}", a.Start, a.AccessSize, a.Stride, a.Strides)
}

// IndexFootprint over-approximates the footprint of an indirect stream
// (SD_IndPort_*) whose index values are statically bounded to [lo, hi]:
// each access touches elem bytes at offset + v*scale for some v in the
// range, so the footprint is contained in the strided pattern starting
// at offset + lo*scale with stride scale, hi-lo+1 strides. The
// approximation is exact when the index stream visits every value of
// the range, conservative (a superset) otherwise. ok is false when the
// address arithmetic overflows uint64 or the range covers the full
// index space; callers must then treat the footprint as unknown.
func IndexFootprint(offset uint64, scale uint8, elem ElemSize, lo, hi uint64) (Affine, bool) {
	if hi < lo || hi-lo == ^uint64(0) {
		return Affine{}, false
	}
	if scale == 0 {
		// Every index resolves to the same elem bytes at offset.
		return Linear(offset, uint64(elem)), true
	}
	h, base := bits.Mul64(lo, uint64(scale))
	if h != 0 {
		return Affine{}, false
	}
	start, carry := bits.Add64(offset, base, 0)
	if carry != 0 {
		return Affine{}, false
	}
	return Affine{Start: start, AccessSize: uint64(elem), Stride: uint64(scale), Strides: hi - lo + 1}, true
}

// EachByte calls fn with every byte address of the pattern in stream
// order. It is the reference enumeration the AGU hardware model is tested
// against; simulation uses the incremental AffineCursor instead.
func (a Affine) EachByte(fn func(addr uint64)) {
	for s := uint64(0); s < a.Strides; s++ {
		base := a.Start + s*a.Stride
		for b := uint64(0); b < a.AccessSize; b++ {
			fn(base + b)
		}
	}
}

// AffineCursor walks an Affine pattern incrementally, one byte at a time,
// mirroring the running state a hardware AGU keeps per stream-table entry.
// The zero cursor is exhausted; position one with NewAffineCursor or
// Reset.
type AffineCursor struct {
	pat    Affine
	stride uint64 // current access index
	off    uint64 // byte offset within current access
}

// NewAffineCursor returns a cursor positioned at the first byte of p.
func NewAffineCursor(p Affine) *AffineCursor {
	c := new(AffineCursor)
	c.Reset(p)
	return c
}

// Reset positions the cursor at the first byte of p, so a stream-table
// entry can hold its cursor by value and reuse it.
func (c *AffineCursor) Reset(p Affine) {
	*c = AffineCursor{pat: p}
	if p.AccessSize == 0 {
		c.stride = p.Strides // an empty access size exhausts the pattern
	}
}

// Done reports whether the pattern is exhausted.
func (c *AffineCursor) Done() bool { return c.stride >= c.pat.Strides }

// Peek returns the next byte address without advancing.
// It must not be called when Done.
func (c *AffineCursor) Peek() uint64 {
	return c.pat.Start + c.stride*c.pat.Stride + c.off
}

// Next returns the next byte address and advances the cursor.
// It must not be called when Done.
func (c *AffineCursor) Next() uint64 {
	addr := c.Peek()
	c.off++
	if c.off == c.pat.AccessSize {
		c.off = 0
		c.stride++
	}
	return addr
}

// Remaining is the number of bytes the cursor has yet to produce.
func (c *AffineCursor) Remaining() uint64 {
	if c.Done() {
		return 0
	}
	return (c.pat.Strides-c.stride)*c.pat.AccessSize - c.off
}

// Take returns the start address of the longest contiguous byte run at
// the cursor's position, capped at max, and advances past it. The run
// covers the rest of the current access — or the rest of the pattern
// when consecutive accesses abut (Stride == AccessSize). It must not be
// called when Done or with max == 0.
func (c *AffineCursor) Take(max uint64) (start, n uint64) {
	start = c.Peek()
	if c.pat.Stride == c.pat.AccessSize {
		n = c.Remaining()
		if n > max {
			n = max
		}
		// Contiguous across accesses: plain byte arithmetic advances.
		off := c.off + n
		c.stride += off / c.pat.AccessSize
		c.off = off % c.pat.AccessSize
		return start, n
	}
	n = c.pat.AccessSize - c.off
	if n > max {
		n = max
	}
	c.off += n
	if c.off == c.pat.AccessSize {
		c.off = 0
		c.stride++
	}
	return start, n
}
