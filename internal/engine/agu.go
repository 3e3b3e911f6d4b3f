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
	"softbrain/internal/mem"
)

// LineBytes is the memory interface width (one request per cycle covers
// one aligned 64-byte line).
const LineBytes = isa.LineBytes

// Run is one stretch of a line request's payload: Len consecutive bytes
// starting at line offset Off.
type Run struct{ Off, Len uint8 }

// LineReq is one coalesced, line-aligned request produced by an AGU.
// Runs lists the byte runs it touches within the line, in stream order;
// runs may overlap or repeat (overlapped and repeating patterns re-read
// bytes). A run that starts where the previous one ends extends it, so
// a contiguous request is a single run.
type LineReq struct {
	Line uint64 // line-aligned base address
	Runs []Run
	size int // payload bytes: the runs' total length
}

// Bytes is the payload size of the request.
func (r LineReq) Bytes() int { return r.size }

// Mask returns the 64-bit byte mask of the touched offsets, the view a
// memory interface sees (repeats collapse).
func (r LineReq) Mask() uint64 {
	var m uint64
	for _, run := range r.Runs {
		m |= (uint64(1)<<run.Len - 1) << run.Off
	}
	return m
}

// add appends n payload bytes at line offset off, extending the last
// run when they abut it.
func (r *LineReq) add(off, n int) {
	if k := len(r.Runs) - 1; k >= 0 && int(r.Runs[k].Off)+int(r.Runs[k].Len) == off {
		r.Runs[k].Len += uint8(n)
	} else {
		r.Runs = append(r.Runs, Run{Off: uint8(off), Len: uint8(n)})
	}
	r.size += n
}

// gather appends the bytes r selects from line to dst, in stream order:
// the one line-gather step of every engine's read path. A nil dst gets
// a fresh line-sized buffer.
func (r LineReq) gather(dst []byte, line *[LineBytes]byte) []byte {
	if dst == nil {
		dst = make([]byte, 0, LineBytes)
	}
	for _, run := range r.Runs {
		dst = append(dst, line[run.Off:run.Off+run.Len]...)
	}
	return dst
}

// scatter stores data, r's payload in stream order, into m at the bytes
// r selects: the line-scatter step of the MSE's write path. A repeated
// offset keeps the later byte.
func (r LineReq) scatter(m *mem.Memory, data []byte) {
	for _, run := range r.Runs {
		m.Write(r.Line+uint64(run.Off), data[:run.Len])
		data = data[run.Len:]
	}
}

// nextAffineLine pulls the longest same-line stretch of the pattern (up
// to max bytes) from the cursor, forming the minimal next request for
// the stream: one run per AffineCursor.Take. It returns a zero request
// when the cursor is exhausted. Runs are appended into scratch (reset to
// length 0) — the caller owns the request only until its next call with
// the same scratch.
func nextAffineLine(c *isa.AffineCursor, max int, scratch []Run) (LineReq, bool) {
	if c.Done() {
		return LineReq{}, false
	}
	req := LineReq{Line: c.Peek() &^ (LineBytes - 1), Runs: scratch[:0]}
	for !c.Done() && req.size < max {
		a := c.Peek()
		if a&^(LineBytes-1) != req.Line {
			break
		}
		off := a & (LineBytes - 1)
		_, n := c.Take(min(uint64(max-req.size), LineBytes-off))
		req.add(int(off), int(n))
	}
	return req, true
}

// indirectAGU turns a stream of element addresses (derived from indices
// popped off an indirect vector port) into line requests. It coalesces
// up to CoalesceDegree elements into one request when they share a line.
// The staging queue holds whole elements and is head-indexed, so a
// stream reuses its storage. A request that ends inside the head element
// (at a line boundary or the byte budget) records the bytes it took in
// done; next never edits a queued element, so restoring a copy of the
// AGU rolls a refused request back exactly.
type indirectAGU struct {
	queue []element // staged elements, stream order; queue[head:] is pending
	head  int
	done  int // bytes of queue[head] already issued
	bytes int // staged bytes not yet issued
}

// element is one staged indirect element: size bytes at addr.
type element struct {
	addr uint64
	size int
}

// CoalesceDegree is how many indirect elements the AGU examines per
// cycle ("this unit will attempt to coalesce up to four increasing
// addresses in the current 64-byte line").
const CoalesceDegree = 4

// reuse empties the AGU for a new stream, keeping its storage.
func (g *indirectAGU) reuse() indirectAGU { return indirectAGU{queue: g.queue[:0]} }

// pushElem stages one element of size bytes at addr. Consumed entries
// are reclaimed before the queue would grow.
func (g *indirectAGU) pushElem(addr uint64, size int) {
	if g.head > 0 && len(g.queue) == cap(g.queue) {
		g.queue = g.queue[:copy(g.queue, g.queue[g.head:])]
		g.head = 0
	}
	g.queue = append(g.queue, element{addr: addr, size: size})
	g.bytes += size
}

// pending is the number of buffered element bytes.
func (g *indirectAGU) pending() int { return g.bytes }

// peekAddr returns the byte address the next line request starts at;
// only valid when pending() > 0.
func (g *indirectAGU) peekAddr() uint64 { return g.queue[g.head].addr + uint64(g.done) }

// next forms one line request from the head of the queue: the longest
// same-line prefix, capped at max bytes, one run per element piece.
// Runs append into scratch (reset to length 0), like nextAffineLine. A
// caller rolls a rejected request back by restoring its copy of the AGU.
func (g *indirectAGU) next(max int, scratch []Run) (LineReq, bool) {
	if g.bytes == 0 {
		return LineReq{}, false
	}
	req := LineReq{Line: g.peekAddr() &^ (LineBytes - 1), Runs: scratch[:0]}
	for req.size < max && g.head < len(g.queue) {
		el := g.queue[g.head]
		a := el.addr + uint64(g.done)
		if a&^(LineBytes-1) != req.Line {
			break
		}
		off := int(a & (LineBytes - 1))
		n := min(el.size-g.done, LineBytes-off, max-req.size)
		req.add(off, n)
		if g.done += n; g.done == el.size {
			g.head, g.done = g.head+1, 0
		}
	}
	g.bytes -= req.size
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
func (a *addrSource) next(max int, scratch []Run) (req LineReq, ok bool) {
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
