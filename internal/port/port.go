// Package port models vector ports: the wide FIFOs that sit between the
// stream engines and the CGRA (Figure 7). Input vector ports buffer data
// flowing toward the fabric, output vector ports buffer results flowing
// out, and indirect vector ports (not connected to the CGRA) buffer the
// address streams of indirect loads and stores.
package port

import (
	"encoding/binary"
	"fmt"

	"softbrain/internal/sim"
)

// WordBytes is the datapath word size in bytes (64-bit words).
const WordBytes = 8

// Queue is one vector port: a bounded byte FIFO. Capacity and transfer
// width are architectural parameters; the dispatcher's scoreboard state
// for the port lives in the dispatcher, not here.
type Queue struct {
	name     string
	width    int // max words transferable per cycle (1..8)
	capacity int // buffer size in bytes
	buf      []byte
	head     int // index of the oldest byte in buf

	moved sim.Signal // the wake signal (see Moved)

	// Statistics.
	totalIn  uint64
	totalOut uint64
}

// Invariant is the panic value raised when a FIFO operation violates
// the port's hardware contract (push past free space, pop past buffered
// data). These states are unreachable through the credit/reservation
// protocol the engines follow; raising one means simulator-internal
// state is corrupt, so the machine's Run boundary recovers it into a
// typed MachineError rather than letting it kill the host process.
type Invariant struct {
	Port string // port name
	Op   string // "push", "pop" or "peek"
	Msg  string
}

func (i Invariant) Error() string {
	return fmt.Sprintf("port %s: %s: %s", i.Port, i.Op, i.Msg)
}

// Component names the machine component for MachineError attribution.
func (i Invariant) Component() string { return "port" }

// New returns a port named name with the given per-cycle width in words
// and depth in words. Invalid parameters are construction-time
// configuration errors, returned rather than raised.
func New(name string, widthWords, depthWords int) (*Queue, error) {
	if widthWords < 1 || widthWords > 8 {
		return nil, fmt.Errorf("port %s: width %d words out of range 1..8", name, widthWords)
	}
	if depthWords < widthWords {
		return nil, fmt.Errorf("port %s: depth %d < width %d", name, depthWords, widthWords)
	}
	return &Queue{name: name, width: widthWords, capacity: depthWords * WordBytes}, nil
}

// Name returns the port's name.
func (q *Queue) Name() string { return q.name }

// WidthWords is the port's per-cycle transfer width in words.
func (q *Queue) WidthWords() int { return q.width }

// CapacityBytes is the port's total buffer size in bytes.
func (q *Queue) CapacityBytes() int { return q.capacity }

// Len is the number of buffered bytes.
func (q *Queue) Len() int { return len(q.buf) - q.head }

// Space is the number of bytes that can be pushed without overflow.
func (q *Queue) Space() int { return q.capacity - q.Len() }

// Empty reports whether the port holds no data.
func (q *Queue) Empty() bool { return q.Len() == 0 }

// TotalIn is the cumulative number of bytes ever pushed.
func (q *Queue) TotalIn() uint64 { return q.totalIn }

// TotalOut is the cumulative number of bytes ever popped.
func (q *Queue) TotalOut() uint64 { return q.totalOut }

// Moved is the port's wake signal, raised by every Push or Pop that
// moves at least one byte. A zero-byte move changes nothing a watcher
// could act on, so it raises nothing.
func (q *Queue) Moved() *sim.Signal { return &q.moved }

// Push appends data to the FIFO. It raises an Invariant panic if data
// exceeds Space: callers (the stream engines) must check backpressure
// first, as hardware does with credit signals, so an overflow here is
// internal state corruption, recovered at the machine's Run boundary.
func (q *Queue) Push(data []byte) {
	if len(data) > q.Space() {
		panic(Invariant{Port: q.name, Op: "push",
			Msg: fmt.Sprintf("%d bytes with %d free", len(data), q.Space())})
	}
	q.compact()
	q.buf = append(q.buf, data...)
	q.totalIn += uint64(len(data))
	if len(data) > 0 {
		q.moved.Raise()
	}
}

// Pop removes and returns the oldest n bytes. It raises an Invariant
// panic (recovered at the machine's Run boundary) if fewer than n bytes
// are buffered. The returned slice is valid until the next Push.
func (q *Queue) Pop(n int) []byte {
	if n > q.Len() {
		panic(Invariant{Port: q.name, Op: "pop",
			Msg: fmt.Sprintf("%d bytes with %d buffered", n, q.Len())})
	}
	out := q.buf[q.head : q.head+n]
	q.head += n
	q.totalOut += uint64(n)
	if n > 0 {
		q.moved.Raise()
	}
	return out
}

// Peek returns the oldest n bytes without removing them, raising an
// Invariant panic (recovered at the machine's Run boundary) when fewer
// are buffered.
func (q *Queue) Peek(n int) []byte {
	if n > q.Len() {
		panic(Invariant{Port: q.name, Op: "peek",
			Msg: fmt.Sprintf("%d bytes with %d buffered", n, q.Len())})
	}
	return q.buf[q.head : q.head+n]
}

// Discard drops the oldest n bytes (SD_Clean_Port's engine-side action).
func (q *Queue) Discard(n int) { q.Pop(n) }

// PopWords removes and returns n 64-bit words (little-endian), the unit
// in which the CGRA consumes port data.
func (q *Queue) PopWords(n int) []uint64 {
	return q.PopWordsInto(make([]uint64, 0, n), n)
}

// PopWordsInto is PopWords appending into dst (reset to length 0),
// letting a hot caller reuse one buffer across cycles.
func (q *Queue) PopWordsInto(dst []uint64, n int) []uint64 {
	raw := q.Pop(n * WordBytes)
	dst = dst[:0]
	for i := 0; i < n; i++ {
		dst = append(dst, binary.LittleEndian.Uint64(raw[i*WordBytes:]))
	}
	return dst
}

// PushWords appends n 64-bit words (little-endian).
func (q *Queue) PushWords(words []uint64) {
	data := make([]byte, len(words)*WordBytes)
	for i, w := range words {
		binary.LittleEndian.PutUint64(data[i*WordBytes:], w)
	}
	q.Push(data)
}

// HasWords reports whether at least n full words are buffered.
func (q *Queue) HasWords(n int) bool { return q.Len() >= n*WordBytes }

// compact reclaims consumed space when the dead prefix grows large.
func (q *Queue) compact() {
	if q.head > 0 && (q.head >= 4096 || q.head == len(q.buf)) {
		q.buf = append(q.buf[:0], q.buf[q.head:]...)
		q.head = 0
	}
}
