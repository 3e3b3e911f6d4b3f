package engine

import (
	"bytes"
	"math/rand"
	"testing"

	"softbrain/internal/isa"
	"softbrain/internal/mem"
)

// The reference line-request forms: the per-byte AGUs and data movers
// the engines used before requests carried byte runs, kept verbatim as
// the oracle FuzzLineReq compares the engines' forms against. A request
// lists one byte offset per payload byte, in stream order.

type refLineReq struct {
	Line    uint64 // line-aligned base address
	Offsets []uint8
	Contig  bool
}

func (r refLineReq) Bytes() int { return len(r.Offsets) }

func (r refLineReq) Mask() uint64 {
	var m uint64
	for _, o := range r.Offsets {
		m |= 1 << o
	}
	return m
}

func (r refLineReq) gather(dst []byte, line *[LineBytes]byte) []byte {
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

// scatter is the MSE's write path: one store per payload byte.
func (r refLineReq) scatter(m *mem.Memory, data []byte) {
	if r.Contig {
		m.Write(r.Line+uint64(r.Offsets[0]), data)
		return
	}
	for i, off := range r.Offsets {
		m.StoreByte(r.Line+uint64(off), data[i])
	}
}

func refNextAffineLine(c *isa.AffineCursor, max int, scratch []uint8) (refLineReq, bool) {
	if c.Done() {
		return refLineReq{}, false
	}
	first := c.Peek()
	req := refLineReq{Line: first &^ (LineBytes - 1), Offsets: scratch[:0], Contig: true}
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

// refIndirectAGU stages one queue entry per element byte.
type refIndirectAGU struct {
	queue []uint64
	head  int
}

func (g *refIndirectAGU) pushElem(addr uint64, size int) {
	if g.head > 0 && len(g.queue)+size > cap(g.queue) {
		g.queue = g.queue[:copy(g.queue, g.queue[g.head:])]
		g.head = 0
	}
	for i := 0; i < size; i++ {
		g.queue = append(g.queue, addr+uint64(i))
	}
}

func (g *refIndirectAGU) pending() int { return len(g.queue) - g.head }

func (g *refIndirectAGU) peekAddr() uint64 { return g.queue[g.head] }

func (g *refIndirectAGU) next(max int, scratch []uint8) (refLineReq, bool) {
	q := g.queue[g.head:]
	if len(q) == 0 {
		return refLineReq{}, false
	}
	req := refLineReq{Line: q[0] &^ (LineBytes - 1), Offsets: scratch[:0], Contig: true}
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

// reqOffsets expands r's runs into the line offsets of its payload
// bytes, in stream order.
func reqOffsets(r LineReq) []uint8 {
	var offs []uint8
	for _, run := range r.Runs {
		for i := uint8(0); i < run.Len; i++ {
			offs = append(offs, run.Off+i)
		}
	}
	return offs
}

// lineChecker compares an engine request with the reference request for
// the same stream position: line, offsets, Bytes, Mask, the gathered
// payload, and the memory a scatter of that payload leaves.
type lineChecker struct {
	t        *testing.T
	line     [LineBytes]byte // the line gathers read
	got, ref *mem.Memory     // scatter targets, kept across requests
	rng      *rand.Rand
}

func newLineChecker(t *testing.T, rng *rand.Rand) *lineChecker {
	c := &lineChecker{t: t, got: mem.NewMemory(), ref: mem.NewMemory(), rng: rng}
	rng.Read(c.line[:])
	return c
}

func (c *lineChecker) check(step int, got LineReq, want refLineReq) {
	c.t.Helper()
	if got.Line != want.Line || !bytes.Equal(reqOffsets(got), want.Offsets) {
		c.t.Fatalf("request %d: line %#x offsets %v, want line %#x offsets %v",
			step, got.Line, reqOffsets(got), want.Line, want.Offsets)
	}
	if got.Bytes() != want.Bytes() || got.Mask() != want.Mask() {
		c.t.Fatalf("request %d: Bytes %d Mask %#x, want %d %#x", step, got.Bytes(), got.Mask(), want.Bytes(), want.Mask())
	}
	if g, w := got.gather(nil, &c.line), want.gather(nil, &c.line); !bytes.Equal(g, w) {
		c.t.Fatalf("request %d: gathered % x, want % x", step, g, w)
	}
	data := make([]byte, want.Bytes())
	c.rng.Read(data)
	got.scatter(c.got, data)
	want.scatter(c.ref, data)
	if at, diff := c.got.FirstDiff(c.ref); diff {
		c.t.Fatalf("request %d: scatter differs at %#x", step, at)
	}
}

// FuzzLineReq drives the engines' line-request forms (addrSource over an
// affine cursor or the indirect AGU, gather, Mask, scatter) and the
// reference forms above through the same stream with the same byte
// budgets, and requires identical requests, payloads and end states. At
// random requests the memory system refuses: the source rolls back as
// MSE.request does, and the retried request must match the reference.
//
// An affine input walks its pattern from every start offset in a line;
// the seeds cover access sizes 1 to beyond a line and strides of 0,
// below, equal to and above the access size. An indirect input stages
// elements of 1, 2, 4 or 8 bytes (mixed when size is 0), some of them
// crossing a line, CoalesceDegree at a time while the stage has room.
func FuzzLineReq(f *testing.F) {
	for _, a := range []uint16{1, 2, 3, 7, 8, 16, 63, 64, 65, 100, 129} {
		for _, s := range []uint16{0, a - 1, a, a + 1, 64, 3 * a} {
			f.Add(false, int64(a)<<16|int64(s), a, s, uint8(5), uint8(0))
		}
	}
	for _, size := range []uint8{0, 1, 2, 4, 8} {
		for seed := int64(0); seed < 4; seed++ {
			f.Add(true, seed, uint16(0), uint16(0), uint8(40), size)
		}
	}
	f.Fuzz(func(t *testing.T, indirect bool, seed int64, access, stride uint16, count, size uint8) {
		rng := rand.New(rand.NewSource(seed))
		if indirect {
			fuzzIndirectLines(t, rng, int(count), int(size))
			return
		}
		access = (access-1)%200 + 1 // 1 to beyond three lines
		strides := uint64(count%24) + 1
		base := uint64(rng.Intn(64)) * LineBytes
		for off := uint64(0); off < LineBytes; off++ {
			fuzzAffineLines(t, rng, isa.Affine{Start: base + off, AccessSize: uint64(access), Stride: uint64(stride % 400), Strides: strides})
		}
	})
}

func fuzzAffineLines(t *testing.T, rng *rand.Rand, pat isa.Affine) {
	c := newLineChecker(t, rng)
	var src addrSource
	src.fromAffine(pat)
	ref := isa.NewAffineCursor(pat)
	for step := 0; ; step++ {
		max := 1 + rng.Intn(LineBytes)
		if rng.Intn(4) == 0 { // refused: roll back as MSE.request does
			saved, savedRef := src, *ref
			src.next(max, nil)
			refNextAffineLine(ref, max, nil)
			src, *ref = saved, savedRef
		}
		got, ok := src.next(max, nil)
		want, wantOK := refNextAffineLine(ref, max, nil)
		if ok != wantOK {
			t.Fatalf("%v request %d: ok %v, want %v", pat, step, ok, wantOK)
		}
		if !ok {
			break
		}
		c.check(step, got, want)
		if src.cur != *ref || src.left != ref.Remaining() {
			t.Fatalf("%v request %d: cursor %+v left %d, want %+v left %d", pat, step, src.cur, src.left, *ref, ref.Remaining())
		}
	}
	if !src.issuedAll() {
		t.Fatalf("%v: %d bytes left after the last request", pat, src.left)
	}
}

func fuzzIndirectLines(t *testing.T, rng *rand.Rand, elems, size int) {
	c := newLineChecker(t, rng)
	src := addrSource{idxPort: 0}
	var ref refIndirectAGU
	for step := 0; elems > 0 || src.left > 0; step++ {
		for k := 0; k < CoalesceDegree && elems > 0 && src.agu.pending() < aguStageCap; k++ {
			sz := size
			if sz == 0 {
				sz = []int{1, 2, 4, 8}[rng.Intn(4)]
			}
			addr := uint64(rng.Intn(1 << 10))
			if rng.Intn(3) == 0 { // straddle a line boundary
				addr = uint64(rng.Intn(16))*LineBytes + LineBytes - uint64(1+rng.Intn(sz))
			}
			src.agu.pushElem(addr, sz)
			src.left += uint64(sz)
			ref.pushElem(addr, sz)
			elems--
		}
		max := 1 + rng.Intn(LineBytes)
		if rng.Intn(4) == 0 { // refused: roll back as MSE.request does
			saved, savedHead := src, ref.head
			src.next(max, nil)
			ref.next(max, nil)
			src, ref.head = saved, savedHead
		}
		got, ok := src.next(max, nil)
		want, wantOK := ref.next(max, nil)
		if ok != wantOK {
			t.Fatalf("request %d: ok %v, want %v", step, ok, wantOK)
		}
		if !ok {
			continue
		}
		c.check(step, got, want)
		if src.agu.pending() != ref.pending() || src.left != uint64(ref.pending()) {
			t.Fatalf("request %d: %d bytes pending (left %d), want %d", step, src.agu.pending(), src.left, ref.pending())
		}
		if ref.pending() > 0 && src.peek() != ref.peekAddr() {
			t.Fatalf("request %d: next address %#x, want %#x", step, src.peek(), ref.peekAddr())
		}
	}
}
