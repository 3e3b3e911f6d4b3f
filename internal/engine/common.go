package engine

import (
	"fmt"

	"softbrain/internal/isa"
	"softbrain/internal/obs"
	"softbrain/internal/port"
	"softbrain/internal/sim"
)

// Invariant is the panic value raised when engine-internal bookkeeping
// (reservations, buffer slots) contradicts itself. Like port.Invariant,
// these states are unreachable through the architectural protocol; one
// firing means the simulator's own state is corrupt, and the machine's
// Run boundary recovers it into a typed MachineError.
type Invariant struct {
	Comp string // engine component, e.g. "ports", "padbuf"
	Msg  string
}

func (i Invariant) Error() string { return fmt.Sprintf("engine: %s: %s", i.Comp, i.Msg) }

// Component names the machine component for MachineError attribution.
func (i Invariant) Component() string { return i.Comp }

// Wait classifies why a stream cannot make progress this cycle. Each
// stream kind decides its wait in one place — MSE.readWait/writeWait,
// SSE.readWait/writeWait and RSE.wait — and every reader of a stream's
// state reads that decision: the issue arbiter, Streams (the core's
// hang diagnosis), StallCause (attribution) and NextWake (the wake
// hint). Each reader ranks the stream's responses against that wait its
// own way: attribution charges an in-flight response first, diagnosis
// treats a deliverable response as unblocked. WaitNone and WaitTimed
// streams are not stuck: they can progress now or at a known future
// cycle.
type Wait uint8

const (
	WaitNone    Wait = iota // can progress (or only transiently blocked)
	WaitTimed               // a response or write completion is in flight
	WaitInSpace             // destination input port has no free credit
	WaitOutData             // source output port is empty
	WaitIndex               // indirect stream has no staged indices
	WaitPadBuf              // MSE-to-SSE write buffer has no free slot, or holds the stream's writes

	// waitIssued: every request is issued; only the stream's own
	// responses or completions remain. Streams reports it as WaitNone.
	waitIssued
)

func (w Wait) String() string {
	switch w {
	case WaitNone:
		return "none"
	case WaitTimed:
		return "timed"
	case WaitInSpace:
		return "in-space"
	case WaitOutData:
		return "out-data"
	case WaitIndex:
		return "index"
	case WaitPadBuf:
		return "padbuf"
	}
	return fmt.Sprintf("Wait(%d)", uint8(w))
}

// cause is the stall cause a stream waiting on w charges its engine on
// a workless cycle. WaitNone and waitIssued charge nothing: an engine
// whose stream could issue, yet did no work, names the refusal itself.
func (w Wait) cause() obs.Cause {
	switch w {
	case WaitInSpace, WaitPadBuf:
		return obs.PortFull
	case WaitOutData, WaitIndex:
		return obs.PortEmpty
	}
	return obs.CauseIdle
}

// streamWait is the wait Streams reports for a stream whose issue side
// waits on w and whose oldest response or completion has the wake hint
// resp: timed while that is in flight; none while it is deliverable
// (its space was reserved at issue) or when nothing is left to issue;
// w otherwise.
func streamWait(resp sim.Hint, w Wait) Wait {
	switch {
	case resp.Kind == sim.WakeTimed:
		return WaitTimed
	case resp.Kind == sim.WakeReady, w == waitIssued:
		return WaitNone
	}
	return w
}

// StreamInfo is one active stream's identity and blocking state, the
// unit of the core's wait-for graph. Port fields are machine port
// indices, -1 when the stream has no port in that role.
type StreamInfo struct {
	ID   int      // dispatcher stream id
	Kind isa.Kind // originating command kind
	Eng  string   // "MSE", "SSE" or "RSE"

	DstIn  int // input port the stream writes
	SrcOut int // output port the stream reads
	IdxIn  int // input port supplying indirect indices

	Wait Wait
}

// Name renders the stream for diagnostics, e.g. "SD_Port_Port#3".
func (s StreamInfo) Name() string { return fmt.Sprintf("%v#%d", s.Kind, s.ID) }

// Ports bundles the machine's vector ports with the in-flight space
// reservations engines hold against input ports. A read stream reserves
// destination space when it issues a request so that a response can
// never arrive to a full FIFO (the backpressure credit scheme of
// Section 4.3); the reservation converts to real occupancy on delivery.
type Ports struct {
	In  []*port.Queue
	Out []*port.Queue

	resIn []int // reserved bytes per input port
}

// NewPorts wraps the given port sets.
func NewPorts(in, out []*port.Queue) *Ports {
	return &Ports{In: in, Out: out, resIn: make([]int, len(in))}
}

// InAvail is the unreserved free space of input port i, in bytes.
func (p *Ports) InAvail(i int) int { return p.In[i].Space() - p.resIn[i] }

// Reserve holds n bytes of input port i for an in-flight response. Over-
// reservation violates the credit protocol and raises an Invariant panic
// (recovered at the machine's Run boundary).
func (p *Ports) Reserve(i, n int) {
	if n > p.InAvail(i) {
		panic(Invariant{Comp: "ports",
			Msg: fmt.Sprintf("reserving %d bytes on port %d with %d available", n, i, p.InAvail(i))})
	}
	p.resIn[i] += n
}

// Deliver converts a reservation on input port i into real occupancy.
// Delivering more than was reserved raises an Invariant panic (recovered
// at the machine's Run boundary).
func (p *Ports) Deliver(i int, data []byte) {
	if p.resIn[i] < len(data) {
		panic(Invariant{Comp: "ports",
			Msg: fmt.Sprintf("delivering %d bytes on port %d with %d reserved", len(data), i, p.resIn[i])})
	}
	p.resIn[i] -= len(data)
	p.In[i].Push(data)
}

// Reserved is the number of in-flight bytes reserved on input port i,
// the signal the balance unit watches.
func (p *Ports) Reserved(i int) int { return p.resIn[i] }

// Name and Work attribute the vector ports, which the kernel never
// ticks: Work is the data moved through every port.
func (p *Ports) Name() string { return "ports" }
func (p *Ports) Work() uint64 {
	var w uint64
	for _, q := range p.In {
		w += q.TotalIn() + q.TotalOut()
	}
	for _, q := range p.Out {
		w += q.TotalIn() + q.TotalOut()
	}
	return w
}

// StallCause classifies the vector ports on a cycle no data moved: a
// completely full port is hard backpressure (PortFull); otherwise
// buffered-but-unmoved data means the consumer's operand set is
// incomplete — the CGRA fires only when every mapped port has data, so
// data sits because a sibling port is empty (PortEmpty).
func (p *Ports) StallCause(uint64) obs.Cause {
	worst := obs.CauseIdle
	for _, qs := range [][]*port.Queue{p.In, p.Out} {
		for _, q := range qs {
			switch {
			case q.Space() == 0:
				worst = obs.Worse(worst, obs.PortFull)
			case q.Len() > 0:
				worst = obs.Worse(worst, obs.PortEmpty)
			}
		}
	}
	return worst
}

// table is the stream-table plumbing the three engines share: the
// entry count, the completions the dispatcher drains, the wake signals,
// watch-set handle and retire hook the machine wires up, and the
// round-robin pointer OnSkip replays.
type table struct {
	size   int   // stream-table entries per direction
	done   []int // streams completed since the last Done
	doneFb []int // spare done buffer (Done double-buffers)
	rr     int   // round-robin pointer over the delivery set
	joined int   // streams that joined the delivery set since the last Tick (see skip)

	// Retired, when non-nil, reports each stream's total data movement
	// as it leaves the table (see internal/obs).
	Retired func(id int, kind isa.Kind, bytes uint64)

	// Wake signals (see sim.Signal). Kicks is raised by every stream
	// entering the table; Lifecycle by every stream completing or
	// reaching all-requests-in-flight — the events the dispatcher's
	// scoreboards care about.
	Kicks     sim.Signal
	Lifecycle sim.Signal

	// Stale marks the engine's watch set (its Watch method) for
	// re-declaration: a stream entering or leaving the table changes
	// the ports the engine watches.
	Stale sim.Stale
}

// Done drains the IDs of streams completed since the last call. The
// returned slice is valid until the next call (double-buffered).
func (t *table) Done() []int {
	d := t.done
	t.done, t.doneFb = t.doneFb[:0], d
	return d
}

// kick records a stream entering the table; a joiner also enters the
// delivery round-robin set.
func (t *table) kick(joiner bool) {
	if joiner {
		t.joined++
	}
	t.Kicks.Raise()
	t.Stale.Mark()
}

// finish records stream id leaving the table after moving bytes.
func (t *table) finish(id int, kind isa.Kind, bytes uint64) {
	if t.Retired != nil {
		t.Retired(id, kind, bytes)
	}
	t.done = append(t.done, id)
	t.Lifecycle.Raise()
	t.Stale.Mark()
}

// first is the index the round robin starts at this tick in a delivery
// set of n streams: the pointer, wrapped only when the set shrank since
// it last moved, so the common case divides nothing.
func (t *table) first(n int) int {
	if t.rr < n || n == 0 {
		return t.rr
	}
	return t.rr % n
}

// rotate advances the round-robin pointer over a delivery set of n
// streams, once per tick.
func (t *table) rotate(n int) {
	if n == 0 {
		return
	}
	if t.rr++; t.rr >= n {
		t.rr %= n
	}
}

// skip replays the per-tick rotation over an elided idle span [from,
// to) of a delivery set now holding n streams. The dispatcher ticks
// after the engines, so a stream it started during the span's final
// cycle (forcing the wake that ends the span) was never part of the
// elided arbitration: the rotation replays modulo the set as it stood
// during the span, excluding joiners.
func (t *table) skip(n int, from, to uint64) {
	if n -= t.joined; n > 0 {
		t.rr = (t.rr + int((to-from)%uint64(n))) % n
	}
}

// entryPool recycles an engine's retired stream-table entries. The
// table has a fixed number of slots, so the pool stops allocating once
// the table has filled, and a recycled entry keeps its buffers.
type entryPool[T any] struct{ free []*T }

// get returns a retired entry, or a new one while the table is filling.
func (p *entryPool[T]) get() *T {
	n := len(p.free)
	if n == 0 {
		return new(T)
	}
	s := p.free[n-1]
	p.free = p.free[:n-1]
	return s
}

// put retires an entry for reuse.
func (p *entryPool[T]) put(s *T) { p.free = append(p.free, s) }

// freeList recycles line-sized data buffers.
type freeList [][]byte

// take returns an emptied recycled buffer, or nil when none is free.
func (f *freeList) take() []byte {
	n := len(*f)
	if n == 0 {
		return nil
	}
	d := (*f)[n-1][:0]
	*f = (*f)[:n-1]
	return d
}

// put recycles buffer d.
func (f *freeList) put(d []byte) { *f = append(*f, d[:0]) }

// readPending is one issued read request awaiting its data-ready time.
type readPending struct {
	ready   uint64
	data    []byte
	padAddr uint64 // destination for scratch-bound streams
}

// responses holds a read stream's issued requests, oldest first. They
// deliver strictly in issue order, preserving stream order into the
// destination.
type responses []readPending

// wake is the timed-response probe every reader of a read stream
// shares: Ready once the oldest response is deliverable, WakeAt its
// ready cycle while it is in flight, Idle when nothing is pending.
func (q responses) wake(now uint64) sim.Hint {
	switch {
	case len(q) == 0:
		return sim.Idle()
	case q[0].ready > now:
		return sim.WakeAt(q[0].ready)
	}
	return sim.ReadyNow()
}

// take pops the oldest response if it is deliverable at now within
// budget bytes, keeping the queue's capacity.
func (q *responses) take(now uint64, budget int) (readPending, bool) {
	r := *q
	if len(r) == 0 || r[0].ready > now || len(r[0].data) > budget {
		return readPending{}, false
	}
	head := r[0]
	*q = r[:copy(r, r[1:])]
	return head, true
}

// PadWrite is one line-sized write traveling from the memory stream
// engine to the scratchpad stream engine.
type PadWrite struct {
	Addr   uint64
	Data   []byte
	notify *int // outstanding-write counter of the producing stream
}

// PadWriteBuf is the bounded buffer between the MSE and the SSE
// ("a buffer sits between the MSE and SSE... allocated on a request to
// memory to ensure space exists").
type PadWriteBuf struct {
	entries  []PadWrite // entries[head:] are queued, oldest first
	head     int
	reserved int // slots promised to issued-but-undelivered requests
	slots    int // free slots: the capacity less queued and reserved entries

	// free recycles drained Data buffers back to the producing MSE
	// (the SSE copies bytes into the pad before PopHead).
	free freeList

	// The buffer's state changes split into three wake signals so each
	// watcher subscribes only to the transitions that can unblock it
	// (see sim.Component.Watch). A reservation raises nothing: taking
	// capacity cannot unblock anyone, and the reserving MSE's own wake
	// bit is cleared when its tick ends.
	fillSig    sim.Signal // Fill: a queued write the SSE can drain
	drainSig   sim.Signal // PopHead: a slot the MSE can re-reserve
	emptiedSig sim.Signal // entries hit zero: a scratch-write barrier can clear
}

// FillSig is raised by every entry arrival — the consumer-side (SSE)
// wake signal.
func (b *PadWriteBuf) FillSig() *sim.Signal { return &b.fillSig }

// DrainSig is raised by every entry departure — the producer-side
// (MSE) wake signal: a pop both frees a slot and decrements the
// producing stream's outstanding-write counter.
func (b *PadWriteBuf) DrainSig() *sim.Signal { return &b.drainSig }

// EmptiedSig is raised by every transition to fully drained. The
// dispatcher watches this one: a scratch-write barrier clears only
// when every outstanding pad write has landed, and the last landing is
// always the pop that empties the buffer.
func (b *PadWriteBuf) EmptiedSig() *sim.Signal { return &b.emptiedSig }

// NewPadWriteBuf returns a buffer of the given entry capacity.
func NewPadWriteBuf(capacity int) *PadWriteBuf {
	return &PadWriteBuf{slots: capacity}
}

// CanReserve reports whether a slot can be promised to a new request.
func (b *PadWriteBuf) CanReserve() bool { return b.slots > 0 }

// ReserveSlot promises one slot to an in-flight memory request.
// Reserving past capacity raises an Invariant panic (recovered at the
// machine's Run boundary): the MSE must check CanReserve first.
func (b *PadWriteBuf) ReserveSlot() {
	if !b.CanReserve() {
		panic(Invariant{Comp: "padbuf", Msg: "pad write buffer over-reserved"})
	}
	b.reserved++
	b.slots--
}

// Fill converts a reserved slot into a queued write. Filling without a
// reservation raises an Invariant panic (recovered at the machine's Run
// boundary).
func (b *PadWriteBuf) Fill(w PadWrite) {
	if b.reserved == 0 {
		panic(Invariant{Comp: "padbuf", Msg: "pad write buffer fill without reservation"})
	}
	b.reserved--
	if b.head > 0 && len(b.entries) == cap(b.entries) {
		b.entries = b.entries[:copy(b.entries, b.entries[b.head:])]
		b.head = 0
	}
	b.entries = append(b.entries, w)
	b.fillSig.Raise()
}

// Head returns the oldest queued write, if any.
func (b *PadWriteBuf) Head() (PadWrite, bool) {
	if b.Len() == 0 {
		return PadWrite{}, false
	}
	return b.entries[b.head], true
}

// PopHead removes the oldest queued write and decrements its producer's
// outstanding counter. The drained Data buffer moves to the freelist.
func (b *PadWriteBuf) PopHead() {
	w := b.entries[b.head]
	b.entries[b.head] = PadWrite{}
	b.head++
	if w.notify != nil {
		*w.notify--
	}
	b.free.put(w.Data)
	b.slots++
	b.drainSig.Raise()
	if b.Len() == 0 {
		b.entries, b.head = b.entries[:0], 0
		b.emptiedSig.Raise()
	}
}

// Len is the number of queued (filled) writes.
func (b *PadWriteBuf) Len() int { return len(b.entries) - b.head }
