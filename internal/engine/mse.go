package engine

import (
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
	table
	sys    *mem.System
	ports  *Ports
	padBuf *PadWriteBuf

	reads   []*memRead
	writes  []*memWrite
	drained []int // Drained's result, reused every call

	// Retired table entries, recycled with their buffers.
	readPool  entryPool[memRead]
	writePool entryPool[memWrite]

	// Hot-path scratch: line-run buffer for the AGUs (one request is
	// in flight at a time inside a tick) and a freelist of delivered
	// response buffers (Queue.Push copies, so they recycle; buffers
	// handed to the pad write buffer do not — the SSE holds them).
	runScratch [LineBytes]Run
	freeData   freeList

	onConfig func(addr uint64)

	// Ablation switches (normally false; see core.Config).
	DisableBalance bool // issue reads first-come instead of least-outstanding
	DisableDrain   bool // never report all-requests-in-flight

	// Faults, when non-nil, perturbs response timing, bus bandwidth and
	// line contents (see internal/faults). Nil costs one comparison per
	// hook site.
	Faults *faults.Injector

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
func NewMSE(sys *mem.System, ports *Ports, padBuf *PadWriteBuf, size int, onConfig func(addr uint64)) *MSE {
	return &MSE{table: table{size: size}, sys: sys, ports: ports, padBuf: padBuf, onConfig: onConfig}
}

const (
	dstScratch = -1
	dstDiscard = -2
)

// memRead is one read-stream table entry.
type memRead struct {
	id   int
	kind isa.Kind
	addrSource

	dstPort        int // >= 0: input vector port; dstScratch; dstDiscard
	padCur         uint64
	padOutstanding int
	cfgAddr        uint64

	announced bool // all-requests-in-flight reported to the dispatcher
	pending   responses
	bytes     uint64 // data moved so far, for the bandwidth report
}

// memWrite is one write-stream table entry.
type memWrite struct {
	id   int
	kind isa.Kind
	addrSource

	srcPort   int
	lastReady uint64
	bytes     uint64 // data moved so far, for the bandwidth report
}

// completion is the timed probe of a write stream: Ready once its last
// issued write has completed, WakeAt that cycle while it is in flight.
func (s *memWrite) completion(now uint64) sim.Hint {
	if s.lastReady > now {
		return sim.WakeAt(s.lastReady)
	}
	return sim.ReadyNow()
}

// CanAcceptRead reports whether a read-stream table entry is free.
func (e *MSE) CanAcceptRead() bool { return len(e.reads) < e.size }

// CanAcceptWrite reports whether a write-stream table entry is free.
func (e *MSE) CanAcceptWrite() bool { return len(e.writes) < e.size }

// StartRead installs a read-side stream. id identifies the stream in
// Done() completions.
func (e *MSE) StartRead(id int, cmd isa.Command) error {
	if !e.CanAcceptRead() {
		return fmt.Errorf("engine: MSE read table full")
	}
	// The pool only holds finished entries: no pad write still points
	// at a recycled entry's padOutstanding.
	s := e.readPool.get()
	*s = memRead{id: id, kind: cmd.Kind(), addrSource: s.addrSource, pending: s.pending[:0]}
	switch c := cmd.(type) {
	case isa.MemPort:
		s.fromAffine(c.Src)
		s.dstPort = int(c.Dst)
	case isa.MemScratch:
		s.fromAffine(c.Src)
		s.dstPort = dstScratch
		s.padCur = c.ScratchAddr
	case isa.Config:
		s.fromAffine(isa.Linear(c.Addr, c.Size))
		s.dstPort = dstDiscard
		s.cfgAddr = c.Addr
	case isa.IndPortPort:
		s.fromIndices(c.Idx, c.IdxElem, c.Count, c.Offset, c.Scale, c.DataElem)
		s.dstPort = int(c.Dst)
	default:
		e.readPool.put(s)
		return fmt.Errorf("engine: MSE cannot read for %v", cmd)
	}
	e.reads = append(e.reads, s)
	e.kick(true)
	return nil
}

// StartWrite installs a write-side stream.
func (e *MSE) StartWrite(id int, cmd isa.Command) error {
	if !e.CanAcceptWrite() {
		return fmt.Errorf("engine: MSE write table full")
	}
	s := e.writePool.get()
	*s = memWrite{id: id, kind: cmd.Kind(), addrSource: s.addrSource}
	switch c := cmd.(type) {
	case isa.PortMem:
		s.fromAffine(c.Dst)
		s.srcPort = int(c.Src)
	case isa.IndPortMem:
		s.fromIndices(c.Idx, c.IdxElem, c.Count, c.Offset, c.Scale, c.DataElem)
		s.srcPort = int(c.Src)
	default:
		e.writePool.put(s)
		return fmt.Errorf("engine: MSE cannot write for %v", cmd)
	}
	e.writes = append(e.writes, s)
	e.kick(false)
	return nil
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
	delivered := e.deliver(now)
	e.refillIndirect()
	read, wrote := e.issueRead(now), e.issueWrite(now)
	e.retire(now)
	if delivered || read || wrote {
		e.BusyCycles++
	}
	return nil
}

// deliver moves ready read responses, in per-stream issue order, to
// their destinations under the 64-byte bus budget. Only a stream in its
// turn (inTurn) delivers.
func (e *MSE) deliver(now uint64) bool {
	budget := LineBytes
	if e.Faults != nil {
		budget = e.Faults.BusBudget(faults.EngMSE, budget)
	}
	moved := false
	n := len(e.reads)
	for i, j := 0, e.first(n); i < n && budget > 0; i, j = i+1, j+1 {
		if j == n {
			j = 0
		}
		s := e.reads[j]
		if s.pending.wake(now).Kind != sim.WakeReady || !e.inTurn(s) {
			continue // testing readiness first skips the order scan
		}
		for budget > 0 {
			head, ok := s.pending.take(now, budget)
			if !ok {
				break
			}
			switch {
			case s.dstPort >= 0:
				e.ports.Deliver(s.dstPort, head.data)
				e.freeData.put(head.data) // Deliver copied
			case s.dstPort == dstScratch:
				e.padBuf.Fill(PadWrite{Addr: head.padAddr, Data: head.data, notify: &s.padOutstanding})
				s.padOutstanding++
			}
			budget -= len(head.data)
			e.BytesDelivered += uint64(len(head.data))
			s.bytes += uint64(len(head.data))
			moved = true
		}
	}
	e.rotate(n)
	return moved
}

// inTurn reports whether read stream s may deliver its ready responses:
// always when it does not target a vector port, otherwise only while it
// is the oldest (smallest-id) active stream targeting that port, so the
// successors the all-requests-in-flight overlap starts stay in stream
// order. deliver and NextWake both ask it, so the tick and the wake hint
// agree on what is deliverable. The table is tiny, so a scan beats
// building a port map each cycle.
func (e *MSE) inTurn(s *memRead) bool {
	if s.dstPort < 0 {
		return true
	}
	for _, o := range e.reads {
		if o.dstPort == s.dstPort && o.id < s.id {
			return false
		}
	}
	return true
}

// refillIndirect lets each indirect stream stage indices from its
// index port (addrSource.stage). With overlapped streams, only the
// oldest consumer of each index port that still needs indices may pop,
// preserving index order.
func (e *MSE) refillIndirect() {
	for _, s := range e.reads {
		if s.idxRemaining > 0 && e.oldestIdx(s.idxPort, s.id) {
			s.stage(e.ports)
		}
	}
	for _, s := range e.writes {
		if s.idxRemaining > 0 && e.oldestIdx(s.idxPort, s.id) {
			s.stage(e.ports)
		}
	}
}

// oldestIdx reports whether stream id is the oldest stream still owed
// indices from index port idx. The tables are tiny, so a scan beats a
// per-cycle port map.
func (e *MSE) oldestIdx(idx, id int) bool {
	for _, o := range e.reads {
		if o.idxRemaining > 0 && o.idxPort == idx && o.id < id {
			return false
		}
	}
	for _, o := range e.writes {
		if o.idxRemaining > 0 && o.idxPort == idx && o.id < id {
			return false
		}
	}
	return true
}

// readWait classifies what read stream s waits on to issue its next
// line request: staged indices (WaitIndex), a response credit in its
// destination port (WaitInSpace) or a pad write buffer slot
// (WaitPadBuf); WaitNone when it can issue now. Once every request is
// issued, a scratch-bound stream still waits on the buffer to drain its
// writes, and any other is waitIssued. It reads the source's left count
// and the buffer's slot count directly to stay within the inlining
// budget: every issue arbitration and wake hint calls it per stream.
func (e *MSE) readWait(s *memRead) Wait {
	switch {
	case s.left == 0: // nothing staged
		if s.idxRemaining > 0 {
			return WaitIndex
		}
		if s.padOutstanding > 0 {
			return WaitPadBuf
		}
		return waitIssued
	case s.dstPort >= 0:
		if e.ports.InAvail(s.dstPort) <= 0 {
			return WaitInSpace
		}
	case s.dstPort == dstScratch && e.padBuf.slots == 0:
		return WaitPadBuf
	}
	return WaitNone
}

// writeWait classifies what write stream s waits on to issue its next
// line write: staged indices (WaitIndex) or data in its source port
// (WaitOutData); WaitNone when it can issue now, waitIssued once every
// write is issued.
func (e *MSE) writeWait(s *memWrite) Wait {
	switch {
	case s.left == 0:
		if s.idxRemaining > 0 {
			return WaitIndex
		}
		return waitIssued
	case e.ports.Out[s.srcPort].Len() == 0:
		return WaitOutData
	}
	return WaitNone
}

// request generates the next line request of at most max bytes from
// src and offers it to the memory system, returning the request and
// its data-ready cycle. A rejected request rolls src back: generating
// moves only the source's own cursor or AGU position and its left count.
func (e *MSE) request(now uint64, src *addrSource, max int, write bool) (LineReq, uint64, bool) {
	saved := *src
	if req, ok := src.next(max, e.runScratch[:]); ok {
		if ready, accepted := e.sys.Request(now, req.Line, write, req.Bytes()); accepted {
			return req, ready, true
		}
	}
	*src = saved
	return LineReq{}, 0, false
}

// issueRead selects one read stream that can issue — the balance unit:
// least outstanding bytes toward its destination first — and issues its
// next line request.
func (e *MSE) issueRead(now uint64) bool {
	var best *memRead
	bestScore := 0
	for _, s := range e.reads {
		if e.readWait(s) != WaitNone {
			continue
		}
		score := len(s.pending)
		switch {
		case s.dstPort >= 0:
			score = e.ports.Reserved(s.dstPort)
		case s.dstPort == dstScratch:
			score = e.padBuf.Len()
		}
		if best == nil || !e.DisableBalance && score < bestScore {
			best, bestScore = s, score
		}
	}
	if best == nil {
		return false
	}
	maxBytes := LineBytes
	if best.dstPort >= 0 {
		maxBytes = min(maxBytes, e.ports.InAvail(best.dstPort))
	}
	req, ready, ok := e.request(now, &best.addrSource, maxBytes, false)
	if ok {
		e.commitRead(best, req, ready)
	}
	return ok
}

// commitRead reads the data functionally and queues the response.
func (e *MSE) commitRead(s *memRead, req LineReq, ready uint64) {
	var line [LineBytes]byte
	e.sys.Mem.Read(req.Line, line[:])
	data := e.freeData.take()
	if data == nil {
		data = e.padBuf.free.take()
	}
	data = req.gather(data, &line)
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
func (e *MSE) issueWrite(now uint64) bool {
	var best *memWrite
	bestAvail := 0
	for _, s := range e.writes {
		if e.writeWait(s) != WaitNone {
			continue
		}
		if avail := e.ports.Out[s.srcPort].Len(); best == nil || avail > bestAvail {
			best, bestAvail = s, avail
		}
	}
	if best == nil {
		return false
	}
	req, ready, ok := e.request(now, &best.addrSource, min(LineBytes, bestAvail), true)
	if ok {
		e.commitWrite(best, req, ready)
	}
	return ok
}

// commitWrite pops the stream's bytes from its output port and stores
// them functionally.
func (e *MSE) commitWrite(s *memWrite, req LineReq, ready uint64) {
	if e.Faults != nil {
		ready += e.Faults.MemDelay()
	}
	req.scatter(e.sys.Mem, e.ports.Out[s.srcPort].Pop(req.Bytes()))
	if ready > s.lastReady {
		s.lastReady = ready
	}
	e.LinesWritten++
	e.BytesStored += uint64(req.Bytes())
	s.bytes += uint64(req.Bytes())
}

// retire removes finished streams and reports their IDs: reads with
// every response delivered and every scratch write landed, writes whose
// last write has completed.
func (e *MSE) retire(now uint64) {
	reads := e.reads[:0]
	for _, s := range e.reads {
		if len(s.pending) > 0 || e.readWait(s) != waitIssued {
			reads = append(reads, s)
			continue
		}
		if s.kind == isa.KindConfig && e.onConfig != nil {
			e.onConfig(s.cfgAddr)
		}
		e.finish(s.id, s.kind, s.bytes)
		e.readPool.put(s)
	}
	e.reads = reads
	writes := e.writes[:0]
	for _, s := range e.writes {
		if !s.issuedAll() || s.lastReady > now {
			writes = append(writes, s)
			continue
		}
		e.finish(s.id, s.kind, s.bytes)
		e.writePool.put(s)
	}
	e.writes = writes
}

// Streams reports every active stream with its blocking state at cycle
// now, for the core's structured hang diagnosis.
func (e *MSE) Streams(now uint64) []StreamInfo {
	var out []StreamInfo
	for _, s := range e.reads {
		out = append(out, StreamInfo{ID: s.id, Kind: s.kind, Eng: "MSE", DstIn: max(s.dstPort, -1), SrcOut: -1, IdxIn: s.idxPort,
			Wait: streamWait(s.pending.wake(now), e.readWait(s))})
	}
	for _, s := range e.writes {
		w := e.writeWait(s)
		if w == waitIssued {
			w = streamWait(s.completion(now), w)
		}
		out = append(out, StreamInfo{ID: s.id, Kind: s.kind, Eng: "MSE", DstIn: -1, SrcOut: s.srcPort, IdxIn: s.idxPort, Wait: w})
	}
	return out
}

// StallCause classifies the engine's state on a cycle it did no work
// (the machine attributes Busy from work-counter deltas and consults
// this only otherwise). The classification is purely state-based so it
// evaluates identically on a ticked cycle and across a frozen skip
// span. Across streams, the most actionable blocker wins (obs.Worse).
// A read charges its in-flight response first; a stream that could
// issue yet issued nothing on a workless cycle was refused by the
// memory system, and with the accept budget reset every cycle (spending
// it implies work) that means every MSHR is occupied.
func (e *MSE) StallCause(now uint64) obs.Cause {
	worst := obs.CauseIdle
	for _, s := range e.reads {
		c := obs.DRAMBW // response in flight
		if s.pending.wake(now).Kind != sim.WakeTimed {
			c = issueCause(e.readWait(s))
		}
		worst = obs.Worse(worst, c)
	}
	for _, s := range e.writes {
		w := e.writeWait(s)
		c := issueCause(w)
		if w == waitIssued && s.completion(now).Kind == sim.WakeTimed {
			c = obs.DRAMBW // write completion in flight
		}
		worst = obs.Worse(worst, c)
	}
	return worst
}

// issueCause is the cause an MSE stream whose issue side waits on w
// charges a workless cycle: a stream that could issue was refused for
// want of an MSHR.
func issueCause(w Wait) obs.Cause {
	if w == WaitNone {
		return obs.MSHRFull
	}
	return w.cause()
}

// PendingTimed reports whether the engine holds state that resolves at a
// known future cycle: an undelivered read response or an in-flight write
// completion with a ready time past now. While any exists the machine is
// not quiescent — progress will resume without external input.
func (e *MSE) PendingTimed(now uint64) bool {
	for _, s := range e.reads {
		if s.pending.wake(now).Kind == sim.WakeTimed {
			return true
		}
	}
	for _, s := range e.writes {
		if s.completion(now).Kind == sim.WakeTimed {
			return true
		}
	}
	return false
}

// OnSkip replays the per-tick state an elided idle span would have
// accumulated: the delivery round-robin pointer rotates once per tick
// whenever any read stream is active, even when nothing moves.
func (e *MSE) OnSkip(from, to uint64) { e.skip(len(e.reads), from, to) }

// issueWake is the wake of a stream that can issue its next line
// request, starting at byte address addr: now unless the request would
// miss while every MSHR is occupied, in which case the earliest
// outstanding completion. The per-cycle accept-port budget resets every
// cycle and so never defers the wake (that over-reports Ready, which is
// sound).
func (e *MSE) issueWake(now, addr uint64) sim.Hint {
	at := e.sys.NextMissAccept(now)
	if at <= now {
		return sim.ReadyNow()
	}
	if c := e.sys.Cache; c != nil && c.Contains(addr&^uint64(LineBytes-1)) {
		return sim.ReadyNow() // a hit needs no MSHR
	}
	return sim.WakeAt(at)
}

// Watch appends the signals the engine's wake hint depends on (see
// sim.Component.Watch): the stream-kick signal, the pad write buffer's
// drain signal, and the ports its active streams read or write. The
// stream set changes only inside the engine's own tick (a retire) or
// under a Kicks raise (a start), and both mark the set stale.
func (e *MSE) Watch(dst []*sim.Signal) []*sim.Signal {
	dst = append(dst, &e.Kicks, e.padBuf.DrainSig())
	for _, s := range e.reads {
		if s.dstPort >= 0 {
			dst = append(dst, e.ports.In[s.dstPort].Moved())
		}
		dst = e.watchIdx(dst, &s.addrSource)
	}
	for _, s := range e.writes {
		dst = append(dst, e.ports.Out[s.srcPort].Moved())
		dst = e.watchIdx(dst, &s.addrSource)
	}
	return dst
}

// watchIdx appends the signal of an indirect source's index port;
// an affine source watches none.
func (e *MSE) watchIdx(dst []*sim.Signal, a *addrSource) []*sim.Signal {
	if a.idxPort < 0 {
		return dst
	}
	return append(dst, e.ports.In[a.idxPort].Moved())
}

// NextWake implements the sim.Component wake-hint contract (see
// docs/SIMKERNEL.md): Ready when any stream can act this cycle or the
// next, the earliest timed event when every stream waits on one, Idle
// when only another component's action can unblock the engine. The
// hint may over-report Ready (a request rejected on a shared accept
// port, say) — that is sound, it only forfeits a skip. A ready response
// counts only while its stream is in its turn, as in deliver: a
// successor waiting behind an older stream to the same port wakes the
// engine through that stream's hint, whose last delivery retires it. An
// in-flight response counts either way, since StallCause changes when
// it lands, and a frozen span is classified from its first cycle.
func (e *MSE) NextWake(now uint64) sim.Hint {
	h := sim.Idle()
	for _, s := range e.reads {
		switch resp := s.pending.wake(now); {
		case resp.Kind == sim.WakeReady && e.inTurn(s):
			return resp // deliverable
		case resp.Kind == sim.WakeTimed:
			h = h.Earliest(resp)
		}
		switch e.readWait(s) {
		case WaitNone:
			if h = h.Earliest(e.issueWake(now, s.peek())); h.Kind == sim.WakeReady {
				return h // can issue the next line request
			}
		case waitIssued:
			if len(s.pending) == 0 {
				return sim.ReadyNow() // retires next tick
			}
		}
		if s.canStage(e.ports) {
			return sim.ReadyNow() // can stage more indirect addresses
		}
	}
	for _, s := range e.writes {
		switch e.writeWait(s) {
		case WaitNone:
			h = h.Earliest(e.issueWake(now, s.peek()))
		case waitIssued:
			h = h.Earliest(s.completion(now)) // Ready: retires next tick
		}
		if h.Kind == sim.WakeReady || s.canStage(e.ports) {
			return sim.ReadyNow()
		}
	}
	return h
}
