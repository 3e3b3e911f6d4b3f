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
	"encoding/binary"

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

// gather appends the bytes r selects from line to dst, in stream order:
// the one line-gather step of every engine's read path. A nil dst gets
// a fresh line-sized buffer.
func (r LineReq) gather(dst []byte, line *[LineBytes]byte) []byte {
	if dst == nil {
		dst = make([]byte, 0, LineBytes)
	}
	if r.Contig {
		o := int(r.Offsets[0])
		return append(dst, line[o:o+len(r.Offsets)]...)
	}
	for _, off := range r.Offsets {
		dst = append(dst, line[off])
	}
	return dst
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

// aguStageCap bounds the bytes of generated-but-unissued indirect
// addresses each stream's AGU stages ahead of the request port.
const aguStageCap = 4 * LineBytes

// addrSource is a memory stream's address generator, shared by the
// MSE's read and write streams: an affine cursor, or the indirect AGU
// fed with indices popped from an input port.
type addrSource struct {
	cur isa.AffineCursor // affine source

	// left counts the generated but unissued address bytes: the rest of
	// the affine pattern, or the indirect AGU's staged elements. A line
	// address is staged to issue while it is positive.
	left uint64

	// Indirect source (SD_IndPort_*): each of idxRemaining indices, idx,
	// addresses dataElem bytes at offset + idx*scale. idxPort is -1 for
	// an affine source.
	idxPort      int
	idxElem      int
	idxRemaining uint64
	offset       uint64
	scale        uint64
	dataElem     int
	agu          indirectAGU
}

// fromAffine points the source at pattern p, keeping the AGU's storage.
func (a *addrSource) fromAffine(p isa.Affine) {
	*a = addrSource{idxPort: -1, agu: a.agu.reuse()}
	a.cur.Reset(p)
	a.left = a.cur.Remaining()
}

// fromIndices points the source at count indices of idxElem bytes on
// input port idx, keeping the AGU's storage.
func (a *addrSource) fromIndices(idx isa.InPortID, idxElem isa.ElemSize, count, offset uint64, scale uint8, dataElem isa.ElemSize) {
	*a = addrSource{
		idxPort: int(idx), idxElem: int(idxElem), idxRemaining: count,
		offset: offset, scale: uint64(scale), dataElem: int(dataElem),
		agu: a.agu.reuse(),
	}
}

// issuedAll reports whether every address has been issued.
func (a *addrSource) issuedAll() bool { return a.left == 0 && a.idxRemaining == 0 }

// peek is the byte address the next line request starts at; only valid
// while left is positive.
func (a *addrSource) peek() uint64 {
	if a.idxPort < 0 {
		return a.cur.Peek()
	}
	return a.agu.peekAddr()
}

// next forms the next line request of at most max bytes (see
// nextAffineLine and indirectAGU.next).
func (a *addrSource) next(max int, scratch []uint8) (req LineReq, ok bool) {
	if a.idxPort < 0 {
		req, ok = nextAffineLine(&a.cur, max, scratch)
	} else {
		req, ok = a.agu.next(max, scratch)
	}
	a.left -= uint64(req.Bytes())
	return req, ok
}

// canStage reports whether the AGU can stage another index: one is owed,
// the staging queue has room and the index port holds a whole index.
func (a *addrSource) canStage(p *Ports) bool {
	return a.idxRemaining > 0 && a.agu.pending() < aguStageCap && p.In[a.idxPort].Len() >= a.idxElem
}

// stage models the indirect AGU path: it pops up to CoalesceDegree
// indices from the source's index port and stages their element
// addresses.
func (a *addrSource) stage(p *Ports) {
	q := p.In[a.idxPort]
	for k := 0; k < CoalesceDegree && a.canStage(p); k++ {
		var buf [8]byte
		copy(buf[:], q.Pop(a.idxElem))
		a.agu.pushElem(a.offset+binary.LittleEndian.Uint64(buf[:])*a.scale, a.dataElem)
		a.left += uint64(a.dataElem)
		a.idxRemaining--
	}
}
