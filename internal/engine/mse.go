package engine

import (
	"encoding/binary"
	"fmt"

	"softbrain/internal/faults"
	"softbrain/internal/isa"
	"softbrain/internal/mem"
	"softbrain/internal/obs"
	"softbrain/internal/sim"
)

// MSE is the memory stream engine: it walks memory-side streams
// (SD_Mem_Port, SD_Mem_Scratch, SD_Config, SD_IndPort_Port on the read
// side; SD_Port_Mem, SD_IndPort_Mem on the write side), generating one
// coalesced line request per cycle per direction and moving up to 64
// bytes per cycle over its response bus.
type MSE struct {
	sys    *mem.System
	ports  *Ports
	padBuf *PadWriteBuf
	table  int

	reads   []*memRead
	writes  []*memWrite
	done    []int
	doneFb  []int // spare done buffer (Done double-buffers)
	drained []int // Drained's result, reused every call
	rr      int   // round-robin pointer for response delivery
	joined  int   // reads appended since the last Tick (see OnSkip)

	// Retired table entries, recycled with their buffers.
	readPool  entryPool[memRead]
	writePool entryPool[memWrite]

	// Hot-path scratch: line-offset buffer for the AGUs (one request is
	// in flight at a time inside a tick) and a freelist of delivered
	// response buffers (Queue.Push copies, so they recycle; buffers
	// handed to the pad write buffer do not — the SSE holds them).
	offScratch [LineBytes]uint8
	freeData   [][]byte

	onConfig func(addr uint64)

	// Ablation switches (normally false; see core.Config).
	DisableBalance bool // issue reads first-come instead of least-outstanding
	DisableDrain   bool // never report all-requests-in-flight

	// Faults, when non-nil, perturbs response timing, bus bandwidth and
	// line contents (see internal/faults). Nil costs one comparison per
	// hook site.
	Faults *faults.Injector

	// Retired, when non-nil, reports each stream's total data movement
	// as it leaves the table (see internal/obs).
	Retired func(id int, kind isa.Kind, bytes uint64)

	// Wake signals (see sim.Signal). Kicks counts streams entering the
	// table; Lifecycle counts streams completing or reaching
	// all-requests-in-flight — the events the dispatcher's scoreboards
	// care about.
	Kicks     sim.Signal
	Lifecycle sim.Signal

	// Statistics.
	LinesRead      uint64
	LinesWritten   uint64
	BytesDelivered uint64
	BytesStored    uint64
	BusyCycles     uint64
}

// NewMSE builds a memory stream engine with the given stream-table size
// per direction. onConfig is called when an SD_Config stream finishes
// loading its bitstream.
func NewMSE(sys *mem.System, ports *Ports, padBuf *PadWriteBuf, table int, onConfig func(addr uint64)) *MSE {
	return &MSE{sys: sys, ports: ports, padBuf: padBuf, table: table, onConfig: onConfig}
}

const (
	dstScratch = -1
	dstDiscard = -2
)

// aguStageCap bounds the bytes of generated-but-unissued indirect
// addresses each stream's AGU stages ahead of the request port.
const aguStageCap = 4 * LineBytes

// memRead is one read-stream table entry.
type memRead struct {
	id   int
	kind isa.Kind

	affine bool             // cur is the source; false for indirect
	cur    isa.AffineCursor // affine source

	// Indirect source state (SD_IndPort_Port).
	idxPort      int
	idxElem      int
	idxRemaining uint64
	offset       uint64
	scale        uint64
	dataElem     int
	agu          indirectAGU

	dstPort        int // >= 0: input vector port; dstScratch; dstDiscard
	padCur         uint64
	padOutstanding int
	cfgAddr        uint64

	announced bool // all-requests-in-flight reported to the dispatcher
	pending   []readPending
	bytes     uint64 // data moved so far, for the bandwidth report
}

func (s *memRead) issuedAll() bool {
	if s.affine {
		return s.cur.Done()
	}
	return s.idxRemaining == 0 && s.agu.pending() == 0
}

func (s *memRead) finished() bool {
	return s.issuedAll() && len(s.pending) == 0 && s.padOutstanding == 0
}

// memWrite is one write-stream table entry.
type memWrite struct {
	id   int
	kind isa.Kind

	affine bool             // cur is the destination; false for indirect
	cur    isa.AffineCursor // affine destination

	idxPort      int
	idxElem      int
	idxRemaining uint64
	offset       uint64
	scale        uint64
	dataElem     int
	agu          indirectAGU

	srcPort   int
	lastReady uint64
	bytes     uint64 // data moved so far, for the bandwidth report
}

func (s *memWrite) issuedAll() bool {
	if s.affine {
		return s.cur.Done()
	}
	return s.idxRemaining == 0 && s.agu.pending() == 0
}

// CanAcceptRead reports whether a read-stream table entry is free.
func (e *MSE) CanAcceptRead() bool { return len(e.reads) < e.table }

// CanAcceptWrite reports whether a write-stream table entry is free.
func (e *MSE) CanAcceptWrite() bool { return len(e.writes) < e.table }

// StartRead installs a read-side stream. id identifies the stream in
// Done() completions.
func (e *MSE) StartRead(id int, cmd isa.Command) error {
	if !e.CanAcceptRead() {
		return fmt.Errorf("engine: MSE read table full")
	}
	// The pool only holds finished entries: no pad write still points
	// at a recycled entry's padOutstanding.
	s := e.readPool.get()
	*s = memRead{id: id, kind: cmd.Kind(), pending: s.pending[:0], agu: s.agu.reuse()}
	switch c := cmd.(type) {
	case isa.MemPort:
		s.affine = true
		s.cur.Reset(c.Src)
		s.dstPort = int(c.Dst)
	case isa.MemScratch:
		s.affine = true
		s.cur.Reset(c.Src)
		s.dstPort = dstScratch
		s.padCur = c.ScratchAddr
	case isa.Config:
		s.affine = true
		s.cur.Reset(isa.Linear(c.Addr, c.Size))
		s.dstPort = dstDiscard
		s.cfgAddr = c.Addr
	case isa.IndPortPort:
		s.idxPort = int(c.Idx)
		s.idxElem = int(c.IdxElem)
		s.idxRemaining = c.Count
		s.offset = c.Offset
		s.scale = uint64(c.Scale)
		s.dataElem = int(c.DataElem)
		s.dstPort = int(c.Dst)
	default:
		e.readPool.put(s)
		return fmt.Errorf("engine: MSE cannot read for %v", cmd)
	}
	e.reads = append(e.reads, s)
	e.joined++
	e.Kicks.Raise()
	return nil
}

// StartWrite installs a write-side stream.
func (e *MSE) StartWrite(id int, cmd isa.Command) error {
	if !e.CanAcceptWrite() {
		return fmt.Errorf("engine: MSE write table full")
	}
	s := e.writePool.get()
	*s = memWrite{id: id, kind: cmd.Kind(), agu: s.agu.reuse()}
	switch c := cmd.(type) {
	case isa.PortMem:
		s.affine = true
		s.cur.Reset(c.Dst)
		s.srcPort = int(c.Src)
	case isa.IndPortMem:
		s.idxPort = int(c.Idx)
		s.idxElem = int(c.IdxElem)
		s.idxRemaining = c.Count
		s.offset = c.Offset
		s.scale = uint64(c.Scale)
		s.dataElem = int(c.DataElem)
		s.srcPort = int(c.Src)
	default:
		e.writePool.put(s)
		return fmt.Errorf("engine: MSE cannot write for %v", cmd)
	}
	e.writes = append(e.writes, s)
	e.Kicks.Raise()
	return nil
}

// Done drains the list of streams completed since the last call. The
// returned slice is valid until the next call (double-buffered).
func (e *MSE) Done() []int {
	d := e.done
	e.done, e.doneFb = e.doneFb[:0], d
	return d
}

// Drained reports read streams that have just issued their last memory
// request: the "all-requests-in-flight" state of Section 4.2, which
// lets the dispatcher release their destination port to a successor
// stream early. Each stream is reported once. The returned slice is
// valid until the next call.
func (e *MSE) Drained() []int {
	if e.DisableDrain {
		return nil
	}
	e.drained = e.drained[:0]
	for _, s := range e.reads {
		if !s.announced && s.issuedAll() {
			s.announced = true
			e.drained = append(e.drained, s.id)
		}
	}
	return e.drained
}

// Active is the number of live streams (both directions).
func (e *MSE) Active() int { return len(e.reads) + len(e.writes) }

// ActiveScratchWrites counts live streams that still owe scratchpad
// writes, for SD_Barrier_Scratch_Wr.
func (e *MSE) ActiveScratchWrites() int {
	n := 0
	for _, s := range e.reads {
		if s.kind == isa.KindMemScratch {
			n++
		}
	}
	return n
}

// Tick advances the engine one cycle.
func (e *MSE) Tick(now uint64) error {
	e.joined = 0
	busy := false
	if e.deliver(now) {
		busy = true
	}
	e.refillIndirect()
	if e.issueRead(now) {
		busy = true
	}
	if err := e.issueWrite(now, &busy); err != nil {
		return err
	}
	e.retire(now)
	if busy {
		e.BusyCycles++
	}
	return nil
}

// deliver moves ready read responses, in per-stream issue order, to
// their destinations under the 64-byte bus budget. When several streams
// target the same port (the all-requests-in-flight overlap), only the
// oldest may deliver, preserving stream order into the port.
func (e *MSE) deliver(now uint64) bool {
	budget := LineBytes
	if e.Faults != nil {
		budget = e.Faults.BusBudget(faults.EngMSE, budget)
	}
	moved := false
	n := len(e.reads)
	for i := 0; i < n && budget > 0; i++ {
		s := e.reads[(e.rr+i)%n]
		if len(s.pending) == 0 || s.pending[0].ready > now {
			continue // nothing deliverable: skip the order scan
		}
		if s.dstPort >= 0 && !e.oldestFor(s) {
			continue
		}
		for len(s.pending) > 0 && budget > 0 {
			head := s.pending[0]
			if head.ready > now || len(head.data) > budget {
				break
			}
			switch {
			case s.dstPort >= 0:
				e.ports.Deliver(s.dstPort, head.data)
				e.freeData = append(e.freeData, head.data[:0]) // Deliver copied
			case s.dstPort == dstScratch:
				e.padBuf.Fill(PadWrite{Addr: head.padAddr, Data: head.data, notify: &s.padOutstanding})
				s.padOutstanding++
			}
			budget -= len(head.data)
			e.BytesDelivered += uint64(len(head.data))
			s.bytes += uint64(len(head.data))
			k := copy(s.pending, s.pending[1:]) // pop-front in place: keeps capacity
			s.pending = s.pending[:k]
			moved = true
		}
	}
	if n > 0 {
		e.rr = (e.rr + 1) % n
	}
	return moved
}

// oldestFor reports whether s is the oldest (smallest-id) active stream
// targeting its destination port; only the oldest may deliver, so
// overlapped successors stay in stream order. The table is tiny, so a
// scan beats building a port map each cycle.
func (e *MSE) oldestFor(s *memRead) bool {
	for _, o := range e.reads {
		if o.dstPort == s.dstPort && o.id < s.id {
			return false
		}
	}
	return true
}

// refillIndirect models the indirect AGU path: each indirect stream pops
// up to CoalesceDegree indices per cycle from its indirect vector port.
func (e *MSE) refillIndirect() {
	refill := func(idxPort, idxElem int, remaining *uint64, agu *indirectAGU, offset, scale uint64, dataElem int) {
		q := e.ports.In[idxPort]
		for k := 0; k < CoalesceDegree && *remaining > 0 && agu.pending() < aguStageCap; k++ {
			if q.Len() < idxElem {
				break
			}
			raw := q.Pop(idxElem)
			var buf [8]byte
			copy(buf[:], raw)
			idx := binary.LittleEndian.Uint64(buf[:])
			agu.pushElem(offset+idx*scale, dataElem)
			*remaining--
		}
	}
	// With overlapped streams, only the oldest consumer of each indirect
	// port that still needs indices may pop, preserving index order. The
	// tables are tiny, so a per-stream scan beats a per-cycle port map.
	oldestIdx := func(port, id int) bool {
		for _, o := range e.reads {
			if o.kind == isa.KindIndPortPort && o.idxRemaining > 0 && o.idxPort == port && o.id < id {
				return false
			}
		}
		for _, o := range e.writes {
			if o.kind == isa.KindIndPortMem && o.idxRemaining > 0 && o.idxPort == port && o.id < id {
				return false
			}
		}
		return true
	}
	for _, s := range e.reads {
		if s.kind == isa.KindIndPortPort && s.idxRemaining > 0 && oldestIdx(s.idxPort, s.id) {
			refill(s.idxPort, s.idxElem, &s.idxRemaining, &s.agu, s.offset, s.scale, s.dataElem)
		}
	}
	for _, s := range e.writes {
		if s.kind == isa.KindIndPortMem && s.idxRemaining > 0 && oldestIdx(s.idxPort, s.id) {
			refill(s.idxPort, s.idxElem, &s.idxRemaining, &s.agu, s.offset, s.scale, s.dataElem)
		}
	}
}

// issueRead selects one ready read stream — the balance unit: least
// outstanding bytes toward its destination first — and issues its next
// line request.
func (e *MSE) issueRead(now uint64) bool {
	var best *memRead
	bestScore := 0
	for _, s := range e.reads {
		if s.issuedAll() {
			continue
		}
		var score int
		switch {
		case s.dstPort >= 0:
			if e.ports.InAvail(s.dstPort) <= 0 {
				continue // backpressure: no credit for a response
			}
			score = e.ports.Reserved(s.dstPort)
		case s.dstPort == dstScratch:
			if !e.padBuf.CanReserve() {
				continue
			}
			score = e.padBuf.Len()
		default:
			score = len(s.pending)
		}
		if !s.affine && s.agu.pending() == 0 {
			continue // indirect stream waiting for indices
		}
		if e.DisableBalance {
			if best == nil {
				best = s
			}
			continue
		}
		if best == nil || score < bestScore {
			best, bestScore = s, score
		}
	}
	if best == nil {
		return false
	}

	maxBytes := LineBytes
	if best.dstPort >= 0 {
		if avail := e.ports.InAvail(best.dstPort); avail < maxBytes {
			maxBytes = avail
		}
	}
	// Generate tentatively; roll back if the memory system rejects.
	var req LineReq
	var ok bool
	if best.affine {
		saved := best.cur
		req, ok = nextAffineLine(&best.cur, maxBytes, e.offScratch[:])
		if ok {
			if ready, accepted := e.sys.Request(now, req.Line, false, req.Bytes()); accepted {
				e.commitRead(best, req, ready)
				return true
			}
		}
		best.cur = saved
		return false
	}
	saved := best.agu.head
	req, ok = best.agu.next(maxBytes, e.offScratch[:])
	if ok {
		if ready, accepted := e.sys.Request(now, req.Line, false, req.Bytes()); accepted {
			e.commitRead(best, req, ready)
			return true
		}
	}
	best.agu.head = saved
	return false
}

// commitRead reads the data functionally and queues the response.
func (e *MSE) commitRead(s *memRead, req LineReq, ready uint64) {
	var line [LineBytes]byte
	e.sys.Mem.Read(req.Line, line[:])
	var data []byte
	if n := len(e.freeData); n > 0 {
		data, e.freeData = e.freeData[n-1][:0], e.freeData[:n-1]
	} else if d := e.padBuf.TakeFree(); d != nil {
		data = d[:0]
	} else {
		data = make([]byte, 0, LineBytes)
	}
	if req.Contig {
		o := int(req.Offsets[0])
		data = append(data, line[o:o+len(req.Offsets)]...)
	} else {
		for _, off := range req.Offsets {
			data = append(data, line[off])
		}
	}
	if e.Faults != nil {
		ready += e.Faults.MemDelay()
		e.Faults.CorruptLine(data)
	}
	p := readPending{ready: ready, data: data}
	if s.dstPort >= 0 {
		e.ports.Reserve(s.dstPort, len(data))
	} else if s.dstPort == dstScratch {
		e.padBuf.ReserveSlot()
		p.padAddr = s.padCur
		s.padCur += uint64(len(data))
	}
	s.pending = append(s.pending, p)
	e.LinesRead++
	if s.issuedAll() {
		// The stream just reached all-requests-in-flight: Drained() will
		// announce it, which can unblock a sleeping dispatcher.
		e.Lifecycle.Raise()
	}
}

// issueWrite selects the write stream with the most data available (the
// paper's data-available priority) and issues one line write.
func (e *MSE) issueWrite(now uint64, busy *bool) error {
	var best *memWrite
	bestAvail := 0
	for _, s := range e.writes {
		if s.issuedAll() {
			continue
		}
		avail := e.ports.Out[s.srcPort].Len()
		if avail == 0 {
			continue
		}
		if !s.affine && s.agu.pending() == 0 {
			continue
		}
		if best == nil || avail > bestAvail {
			best, bestAvail = s, avail
		}
	}
	if best == nil {
		return nil
	}
	maxBytes := LineBytes
	if bestAvail < maxBytes {
		maxBytes = bestAvail
	}
	var req LineReq
	var ok bool
	if best.affine {
		saved := best.cur
		req, ok = nextAffineLine(&best.cur, maxBytes, e.offScratch[:])
		if !ok {
			return nil
		}
		ready, accepted := e.sys.Request(now, req.Line, true, req.Bytes())
		if !accepted {
			best.cur = saved
			return nil
		}
		e.commitWrite(best, req, ready)
		*busy = true
		return nil
	}
	saved := best.agu.head
	req, ok = best.agu.next(maxBytes, e.offScratch[:])
	if !ok {
		return nil
	}
	ready, accepted := e.sys.Request(now, req.Line, true, req.Bytes())
	if !accepted {
		best.agu.head = saved
		return nil
	}
	e.commitWrite(best, req, ready)
	*busy = true
	return nil
}

// commitWrite pops the stream's bytes from its output port and stores
// them functionally.
func (e *MSE) commitWrite(s *memWrite, req LineReq, ready uint64) {
	if e.Faults != nil {
		ready += e.Faults.MemDelay()
	}
	data := e.ports.Out[s.srcPort].Pop(req.Bytes())
	if req.Contig {
		e.sys.Mem.Write(req.Line+uint64(req.Offsets[0]), data)
	} else {
		for i, off := range req.Offsets {
			e.sys.Mem.StoreByte(req.Line+uint64(off), data[i])
		}
	}
	if ready > s.lastReady {
		s.lastReady = ready
	}
	e.LinesWritten++
	e.BytesStored += uint64(req.Bytes())
	s.bytes += uint64(req.Bytes())
}

// retire removes finished streams and reports their IDs.
func (e *MSE) retire(now uint64) {
	reads := e.reads[:0]
	for _, s := range e.reads {
		if s.finished() {
			if s.kind == isa.KindConfig && e.onConfig != nil {
				e.onConfig(s.cfgAddr)
			}
			if e.Retired != nil {
				e.Retired(s.id, s.kind, s.bytes)
			}
			e.done = append(e.done, s.id)
			e.Lifecycle.Raise()
			e.readPool.put(s)
		} else {
			reads = append(reads, s)
		}
	}
	e.reads = reads
	writes := e.writes[:0]
	for _, s := range e.writes {
		if s.issuedAll() && now >= s.lastReady {
			if e.Retired != nil {
				e.Retired(s.id, s.kind, s.bytes)
			}
			e.done = append(e.done, s.id)
			e.Lifecycle.Raise()
			e.writePool.put(s)
		} else {
			writes = append(writes, s)
		}
	}
	e.writes = writes
}

// Streams reports every active stream with its blocking state at cycle
// now, for the core's structured hang diagnosis.
func (e *MSE) Streams(now uint64) []StreamInfo {
	var out []StreamInfo
	for _, s := range e.reads {
		si := StreamInfo{ID: s.id, Kind: s.kind, Eng: "MSE", DstIn: -1, SrcOut: -1, IdxIn: -1}
		if s.dstPort >= 0 {
			si.DstIn = s.dstPort
		}
		if s.kind == isa.KindIndPortPort {
			si.IdxIn = s.idxPort
		}
		switch {
		case len(s.pending) > 0 && s.pending[0].ready > now:
			si.Wait = WaitTimed
		case len(s.pending) > 0:
			si.Wait = WaitNone // head deliverable: space was reserved at issue
		case !s.issuedAll():
			switch {
			case !s.affine && s.agu.pending() == 0 && s.idxRemaining > 0:
				si.Wait = WaitIndex
			case s.dstPort >= 0 && e.ports.InAvail(s.dstPort) <= 0:
				si.Wait = WaitInSpace
			case s.dstPort == dstScratch && !e.padBuf.CanReserve():
				si.Wait = WaitPadBuf
			default:
				si.Wait = WaitNone // can issue; memory rejection is transient
			}
		case s.padOutstanding > 0:
			si.Wait = WaitPadBuf // SSE drains the buffer unconditionally
		default:
			si.Wait = WaitNone
		}
		out = append(out, si)
	}
	for _, s := range e.writes {
		si := StreamInfo{ID: s.id, Kind: s.kind, Eng: "MSE", DstIn: -1, SrcOut: s.srcPort, IdxIn: -1}
		if s.kind == isa.KindIndPortMem {
			si.IdxIn = s.idxPort
		}
		switch {
		case s.issuedAll() && now < s.lastReady:
			si.Wait = WaitTimed
		case s.issuedAll():
			si.Wait = WaitNone
		case !s.affine && s.agu.pending() == 0 && s.idxRemaining > 0:
			si.Wait = WaitIndex
		case e.ports.Out[s.srcPort].Len() == 0:
			si.Wait = WaitOutData
		default:
			si.Wait = WaitNone
		}
		out = append(out, si)
	}
	return out
}

// StallCause classifies the engine's state on a cycle it did no work
// (the machine attributes Busy from work-counter deltas and consults
// this only otherwise). The classification is purely state-based so it
// evaluates identically on a ticked cycle and across a frozen skip
// span. Across streams, the most actionable blocker wins (obs.Worse).
func (e *MSE) StallCause(now uint64) obs.Cause {
	worst := obs.CauseIdle
	for _, s := range e.reads {
		c := obs.CauseIdle
		switch {
		case len(s.pending) > 0 && s.pending[0].ready > now:
			c = obs.DRAMBW // response in flight
		case !s.issuedAll():
			switch {
			case !s.affine && s.agu.pending() == 0:
				c = obs.PortEmpty // indirect stream starved of indices
			case s.dstPort >= 0 && e.ports.InAvail(s.dstPort) <= 0:
				c = obs.PortFull // no credit for a response
			case s.dstPort == dstScratch && !e.padBuf.CanReserve():
				c = obs.PortFull
			default:
				// A line address is staged and the destination has
				// credit, yet nothing issued this cycle: the memory
				// system refused the request, and on a workless cycle
				// (the accept budget resets per cycle, and spending it
				// implies work) that means every MSHR is occupied.
				c = obs.MSHRFull
			}
		case s.padOutstanding > 0:
			c = obs.PortFull // scratch write buffer still draining
		}
		worst = obs.Worse(worst, c)
	}
	for _, s := range e.writes {
		c := obs.CauseIdle
		switch {
		case !s.issuedAll():
			switch {
			case !s.affine && s.agu.pending() == 0:
				c = obs.PortEmpty
			case e.ports.Out[s.srcPort].Len() == 0:
				c = obs.PortEmpty // waiting for CGRA output data
			default:
				c = obs.MSHRFull
			}
		case s.lastReady > now:
			c = obs.DRAMBW // write completion in flight
		}
		worst = obs.Worse(worst, c)
	}
	return worst
}

// PendingTimed reports whether the engine holds state that resolves at a
// known future cycle: an undelivered read response or an in-flight write
// completion with a ready time past now. While any exists the machine is
// not quiescent — progress will resume without external input.
func (e *MSE) PendingTimed(now uint64) bool {
	for _, s := range e.reads {
		for _, p := range s.pending {
			if p.ready > now {
				return true
			}
		}
	}
	for _, s := range e.writes {
		if s.lastReady > now {
			return true
		}
	}
	return false
}

// OnSkip replays the per-tick state an elided idle span would have
// accumulated: the delivery round-robin pointer rotates once per tick
// whenever any read stream is active, even when nothing moves. The
// dispatcher ticks after this engine, so a stream it started during
// the span's final cycle (forcing the wake that ends the span) was
// never part of the elided arbitration set — the rotation replays
// modulo the set as it stood during the span, excluding joiners.
func (e *MSE) OnSkip(from, to uint64) {
	if n := len(e.reads) - e.joined; n > 0 {
		e.rr = (e.rr + int((to-from)%uint64(n))) % n
	}
}

// nextLineAccept returns the earliest cycle at which the stream's next
// line request (starting at byte address addr) could be accepted: now
// unless the request would miss while every MSHR is occupied, in which
// case the earliest outstanding completion. The per-cycle accept-port
// budget resets every cycle and so never defers the wake (that
// over-reports Ready, which is sound).
func (e *MSE) nextLineAccept(now, addr uint64) uint64 {
	at := e.sys.NextMissAccept(now)
	if at <= now {
		return now
	}
	if c := e.sys.Cache; c != nil && c.Contains(addr&^uint64(LineBytes-1)) {
		return now // a hit needs no MSHR
	}
	return at
}

// WatchSig sums the external signals the engine's wake hint depends on
// (see sim.Component.WatchSig): the ports its active streams read or
// write, the pad write buffer, and the stream-kick counter. The stream
// set itself changes only inside the engine's own tick or under a
// Kicks raise, so between two snapshots every term is monotone.
func (e *MSE) WatchSig() uint64 {
	sig := e.Kicks.Value() + e.padBuf.DrainVer()
	for _, s := range e.reads {
		if s.dstPort >= 0 {
			q := e.ports.In[s.dstPort]
			sig += q.TotalIn() + q.TotalOut()
		}
		if s.kind == isa.KindIndPortPort {
			q := e.ports.In[s.idxPort]
			sig += q.TotalIn() + q.TotalOut()
		}
	}
	for _, s := range e.writes {
		q := e.ports.Out[s.srcPort]
		sig += q.TotalIn() + q.TotalOut()
		if s.kind == isa.KindIndPortMem {
			qi := e.ports.In[s.idxPort]
			sig += qi.TotalIn() + qi.TotalOut()
		}
	}
	return sig
}

// NextWake implements the sim.Component wake-hint contract (see
// docs/SIMKERNEL.md): Ready when any stream can act this cycle or the
// next, the earliest timed event when every stream waits on one, Idle
// when only another component's action can unblock the engine. The
// hint may over-report Ready (a request rejected on a shared accept
// port, say) — that is sound, it only forfeits a skip.
func (e *MSE) NextWake(now uint64) sim.Hint {
	h := sim.Idle()
	for _, s := range e.reads {
		if len(s.pending) > 0 {
			r := s.pending[0].ready
			if r <= now {
				return sim.ReadyNow() // deliverable
			}
			h = h.Earliest(sim.WakeAt(r))
		}
		if s.finished() {
			return sim.ReadyNow() // retires next tick
		}
		if s.issuedAll() {
			continue
		}
		if s.affine || s.agu.pending() > 0 {
			switch {
			case s.dstPort == dstDiscard,
				s.dstPort >= 0 && e.ports.InAvail(s.dstPort) > 0,
				s.dstPort == dstScratch && e.padBuf.CanReserve():
				var addr uint64
				if s.affine {
					addr = s.cur.Peek()
				} else {
					addr = s.agu.peekAddr()
				}
				if at := e.nextLineAccept(now, addr); at <= now {
					return sim.ReadyNow() // can issue the next line request
				} else {
					h = h.Earliest(sim.WakeAt(at)) // miss waiting on an MSHR
				}
			}
		}
		if s.idxRemaining > 0 && s.agu.pending() < aguStageCap && e.ports.In[s.idxPort].Len() >= s.idxElem {
			return sim.ReadyNow() // can stage more indirect addresses
		}
	}
	for _, s := range e.writes {
		if !s.issuedAll() {
			if (s.affine || s.agu.pending() > 0) && e.ports.Out[s.srcPort].Len() > 0 {
				var addr uint64
				if s.affine {
					addr = s.cur.Peek()
				} else {
					addr = s.agu.peekAddr()
				}
				at := e.nextLineAccept(now, addr)
				if at <= now {
					return sim.ReadyNow()
				}
				h = h.Earliest(sim.WakeAt(at))
			}
			if s.idxRemaining > 0 && s.agu.pending() < aguStageCap && e.ports.In[s.idxPort].Len() >= s.idxElem {
				return sim.ReadyNow()
			}
			continue
		}
		if s.lastReady <= now {
			return sim.ReadyNow() // retires next tick
		}
		h = h.Earliest(sim.WakeAt(s.lastReady))
	}
	return h
}
