// Package engine implements the three stream engines of Section 4.3 —
// memory (MSE), scratchpad (SSE) and recurrence (RSE) — together with
// their stream request pipelines: stream tables, ready logic, affine and
// indirect address generation units (AGUs), line coalescing, and the
// balance arbitration unit of Section 4.5.
//
// Engines move real bytes between the memory system, the scratchpad and
// the vector ports, and model timing: each engine owns a 512-bit bus
// (64 bytes/cycle) and issues at most one address-generation operation
// per cycle.
package engine

import (
	"softbrain/internal/isa"
)

// LineBytes is the memory interface width (one request per cycle covers
// one aligned 64-byte line).
const LineBytes = isa.LineBytes

// LineReq is one coalesced, line-aligned request produced by an AGU.
// Offsets lists the byte offsets within the line in stream order; offsets
// may repeat (overlapped and repeating patterns re-read bytes). Contig
// marks the common fast case — Offsets is one consecutive increasing
// run — letting data movement use a single copy instead of a byte loop.
type LineReq struct {
	Line    uint64 // line-aligned base address
	Offsets []uint8
	Contig  bool
}

// Bytes is the payload size of the request.
func (r LineReq) Bytes() int { return len(r.Offsets) }

// Mask returns the 64-bit byte mask of the touched offsets, the view a
// memory interface sees (repeats collapse).
func (r LineReq) Mask() uint64 {
	var m uint64
	for _, o := range r.Offsets {
		m |= 1 << o
	}
	return m
}

// nextAffineLine pulls the longest same-line run of bytes (up to max)
// from the cursor, forming the minimal next request for the stream. It
// returns a zero request when the cursor is exhausted. Offsets are
// appended into scratch (reset to length 0) — the caller owns the
// request only until its next call with the same scratch.
func nextAffineLine(c *isa.AffineCursor, max int, scratch []uint8) (LineReq, bool) {
	if c.Done() {
		return LineReq{}, false
	}
	first := c.Peek()
	req := LineReq{Line: first &^ (LineBytes - 1), Offsets: scratch[:0], Contig: true}
	prev := -1
	for !c.Done() && len(req.Offsets) < max {
		a := c.Peek()
		if a&^(LineBytes-1) != req.Line {
			break
		}
		off := a & (LineBytes - 1)
		if prev >= 0 && int(off) != prev {
			req.Contig = false
		}
		room := uint64(max - len(req.Offsets))
		if lineRoom := LineBytes - off; lineRoom < room {
			room = lineRoom
		}
		_, n := c.Take(room)
		for i := uint64(0); i < n; i++ {
			req.Offsets = append(req.Offsets, uint8(off+i))
		}
		prev = int(off + n)
	}
	return req, true
}

// indirectAGU turns a stream of element addresses (derived from indices
// popped off an indirect vector port) into line requests. It coalesces
// up to CoalesceDegree elements into one request when they share a line.
// The staging queue is head-indexed, so a stream reuses its storage.
type indirectAGU struct {
	queue []uint64 // staged byte addresses, stream order; queue[head:] is pending
	head  int
}

// CoalesceDegree is how many indirect elements the AGU examines per
// cycle ("this unit will attempt to coalesce up to four increasing
// addresses in the current 64-byte line").
const CoalesceDegree = 4

// reuse empties the AGU for a new stream, keeping its storage.
func (g *indirectAGU) reuse() indirectAGU { return indirectAGU{queue: g.queue[:0]} }

// pushElem appends the byte addresses of one element at addr. Consumed
// entries are reclaimed before the queue would grow.
func (g *indirectAGU) pushElem(addr uint64, size int) {
	if g.head > 0 && len(g.queue)+size > cap(g.queue) {
		g.queue = g.queue[:copy(g.queue, g.queue[g.head:])]
		g.head = 0
	}
	for i := 0; i < size; i++ {
		g.queue = append(g.queue, addr+uint64(i))
	}
}

// pending is the number of buffered element bytes.
func (g *indirectAGU) pending() int { return len(g.queue) - g.head }

// peekAddr returns the byte address the next line request starts at;
// only valid when pending() > 0.
func (g *indirectAGU) peekAddr() uint64 { return g.queue[g.head] }

// next forms one line request from the head of the queue: the longest
// same-line prefix, capped at max bytes. Offsets append into scratch
// (reset to length 0), like nextAffineLine. A caller rolls a rejected
// request back by restoring head.
func (g *indirectAGU) next(max int, scratch []uint8) (LineReq, bool) {
	q := g.queue[g.head:]
	if len(q) == 0 {
		return LineReq{}, false
	}
	req := LineReq{Line: q[0] &^ (LineBytes - 1), Offsets: scratch[:0], Contig: true}
	n := 0
	for n < len(q) && n < max {
		a := q[n]
		if a&^(LineBytes-1) != req.Line {
			break
		}
		off := uint8(a & (LineBytes - 1))
		if n > 0 && off != req.Offsets[n-1]+1 {
			req.Contig = false
		}
		req.Offsets = append(req.Offsets, off)
		n++
	}
	g.head += n
	return req, true
}
