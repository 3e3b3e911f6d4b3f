package engine

import (
	"fmt"

	"softbrain/internal/faults"
	"softbrain/internal/isa"
	"softbrain/internal/obs"
	"softbrain/internal/scratch"
	"softbrain/internal/sim"
)

// ReadLatency is the scratchpad SRAM read latency in cycles.
const ReadLatency = 2

// SSE is the scratchpad stream engine: it walks SD_Scratch_Port reads
// and SD_Port_Scratch writes, and drains the MSE-to-scratchpad write
// buffer. The scratchpad has one read and one write port, each 64 bytes
// wide per cycle.
type SSE struct {
	table
	pad    *scratch.Pad
	ports  *Ports
	padBuf *PadWriteBuf

	reads  []*sseRead
	writes []*sseWrite

	// Retired table entries, recycled with their buffers.
	readPool  entryPool[sseRead]
	writePool entryPool[sseWrite]

	// Hot-path scratch: line-run buffer for the AGU and a freelist of
	// delivered response buffers (Queue.Push copies, so they recycle).
	runScratch [LineBytes]Run
	freeData   freeList

	// Faults, when non-nil, perturbs bus bandwidth and read line
	// contents (see internal/faults).
	Faults *faults.Injector

	// Statistics.
	ReadGrants  uint64
	WriteGrants uint64
	BytesOut    uint64
	BytesIn     uint64
	BusyCycles  uint64
}

// NewSSE builds a scratchpad stream engine.
func NewSSE(pad *scratch.Pad, ports *Ports, padBuf *PadWriteBuf, size int) *SSE {
	return &SSE{table: table{size: size}, pad: pad, ports: ports, padBuf: padBuf}
}

type sseRead struct {
	id      int
	cur     isa.AffineCursor
	dstPort int
	pending responses
	bytes   uint64 // data moved so far, for the bandwidth report
}

type sseWrite struct {
	id        int
	srcPort   int
	addr      uint64
	remaining uint64
	bytes     uint64 // data moved so far, for the bandwidth report
}

// CanAcceptRead reports whether a read-stream table entry is free.
func (e *SSE) CanAcceptRead() bool { return len(e.reads) < e.size }

// CanAcceptWrite reports whether a write-stream table entry is free.
func (e *SSE) CanAcceptWrite() bool { return len(e.writes) < e.size }

// StartRead installs an SD_Scratch_Port stream.
func (e *SSE) StartRead(id int, c isa.ScratchPort) error {
	if !e.CanAcceptRead() {
		return fmt.Errorf("engine: SSE read table full")
	}
	s := e.readPool.get()
	*s = sseRead{id: id, dstPort: int(c.Dst), pending: s.pending[:0]}
	s.cur.Reset(c.Src)
	e.reads = append(e.reads, s)
	e.kick(true)
	return nil
}

// StartWrite installs an SD_Port_Scratch stream.
func (e *SSE) StartWrite(id int, c isa.PortScratch) error {
	if !e.CanAcceptWrite() {
		return fmt.Errorf("engine: SSE write table full")
	}
	s := e.writePool.get()
	*s = sseWrite{
		id: id, srcPort: int(c.Src), addr: c.ScratchAddr,
		remaining: c.Count * uint64(c.Elem),
	}
	e.writes = append(e.writes, s)
	e.kick(false)
	return nil
}

// Active is the number of live streams.
func (e *SSE) Active() int { return len(e.reads) + len(e.writes) }

// ActiveScratchReads counts live scratchpad read streams, for
// SD_Barrier_Scratch_Rd.
func (e *SSE) ActiveScratchReads() int { return len(e.reads) }

// ActiveScratchWrites counts live scratchpad write streams plus buffered
// memory-to-scratch writes, for SD_Barrier_Scratch_Wr.
func (e *SSE) ActiveScratchWrites() int {
	n := len(e.writes)
	if e.padBuf.Len() > 0 {
		n++
	}
	return n
}

// Tick advances the engine one cycle: deliver ready read data, grant the
// read port to one stream, grant the write port to the MSE buffer or a
// port-to-scratch stream.
func (e *SSE) Tick(now uint64) error {
	e.joined = 0
	busy := e.deliver(now)
	if err := e.issueRead(now); err != nil {
		return err
	}
	if err := e.issueWrite(); err != nil {
		return err
	}
	e.retire()
	if busy {
		e.BusyCycles++
	}
	return nil
}

func (e *SSE) deliver(now uint64) bool {
	budget := LineBytes
	if e.Faults != nil {
		budget = e.Faults.BusBudget(faults.EngSSE, budget)
	}
	moved := false
	n := len(e.reads)
	for i, j := 0, e.first(n); i < n && budget > 0; i, j = i+1, j+1 {
		if j == n {
			j = 0
		}
		s := e.reads[j]
		for budget > 0 {
			head, ok := s.pending.take(now, budget)
			if !ok {
				break
			}
			e.ports.Deliver(s.dstPort, head.data)
			e.freeData.put(head.data) // Deliver copied
			budget -= len(head.data)
			e.BytesOut += uint64(len(head.data))
			s.bytes += uint64(len(head.data))
			moved = true
		}
	}
	e.rotate(n)
	return moved
}

// readWait classifies what read stream s waits on to issue its next
// SRAM read: a response credit in its destination port (WaitInSpace);
// WaitNone when it can read now, waitIssued once its pattern is done.
func (e *SSE) readWait(s *sseRead) Wait {
	switch {
	case s.cur.Done():
		return waitIssued
	case e.ports.InAvail(s.dstPort) <= 0:
		return WaitInSpace
	}
	return WaitNone
}

// writeWait classifies what write stream s waits on to write: data in
// its source port (WaitOutData); WaitNone when it can write now,
// waitIssued once it has written everything.
func (e *SSE) writeWait(s *sseWrite) Wait {
	switch {
	case s.remaining == 0:
		return waitIssued
	case e.ports.Out[s.srcPort].Len() == 0:
		return WaitOutData
	}
	return WaitNone
}

// issueRead grants the single SRAM read port to the stream with the
// least outstanding data toward its destination.
func (e *SSE) issueRead(now uint64) error {
	var best *sseRead
	bestScore := 0
	for _, s := range e.reads {
		if e.readWait(s) != WaitNone {
			continue
		}
		if score := e.ports.Reserved(s.dstPort); best == nil || score < bestScore {
			best, bestScore = s, score
		}
	}
	if best == nil {
		return nil
	}
	req, ok := nextAffineLine(&best.cur, min(LineBytes, e.ports.InAvail(best.dstPort)), e.runScratch[:])
	if !ok {
		return nil
	}
	var line [LineBytes]byte
	if err := e.pad.Read(req.Line, line[:]); err != nil {
		// Reads at the very end of the pad may cover a partial row.
		if err2 := e.padReadTail(req, line[:]); err2 != nil {
			return err2
		}
	}
	data := req.gather(e.freeData.take(), &line)
	if e.Faults != nil {
		e.Faults.CorruptLine(data)
	}
	e.ports.Reserve(best.dstPort, len(data))
	best.pending = append(best.pending, readPending{ready: now + ReadLatency, data: data})
	e.ReadGrants++
	return nil
}

// padReadTail re-reads a row that extends past the end of the pad by
// fetching only the runs the request actually touches. A run that
// crosses the end is read byte by byte, so the bytes before the end
// still count and the error names the first byte past it.
func (e *SSE) padReadTail(req LineReq, line []byte) error {
	for _, r := range req.Runs {
		addr, seg := req.Line+uint64(r.Off), line[r.Off:r.Off+r.Len]
		if e.pad.Read(addr, seg) == nil {
			continue
		}
		for i := range seg {
			if err := e.pad.Read(addr+uint64(i), seg[i:i+1]); err != nil {
				return err
			}
		}
	}
	return nil
}

// issueWrite grants the single SRAM write port: the MSE buffer and the
// port-to-scratch streams alternate fairly via round-robin preference.
func (e *SSE) issueWrite() error {
	if w, ok := e.padBuf.Head(); ok {
		if err := e.pad.Write(w.Addr, w.Data); err != nil {
			return err
		}
		e.padBuf.PopHead()
		e.WriteGrants++
		e.BytesIn += uint64(len(w.Data))
		return nil
	}
	var best *sseWrite
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
		return nil
	}
	n := min(LineBytes, bestAvail)
	if uint64(n) > best.remaining {
		n = int(best.remaining)
	}
	data := e.ports.Out[best.srcPort].Pop(n)
	if err := e.pad.Write(best.addr, data); err != nil {
		return err
	}
	best.addr += uint64(n)
	best.remaining -= uint64(n)
	best.bytes += uint64(n)
	e.WriteGrants++
	e.BytesIn += uint64(n)
	return nil
}

// Streams reports every active stream with its blocking state at cycle
// now, for the core's structured hang diagnosis.
func (e *SSE) Streams(now uint64) []StreamInfo {
	var out []StreamInfo
	for _, s := range e.reads {
		out = append(out, StreamInfo{ID: s.id, Kind: isa.KindScratchPort, Eng: "SSE", DstIn: s.dstPort, SrcOut: -1, IdxIn: -1,
			Wait: streamWait(s.pending.wake(now), e.readWait(s))})
	}
	for _, s := range e.writes {
		out = append(out, StreamInfo{ID: s.id, Kind: isa.KindPortScratch, Eng: "SSE", DstIn: -1, SrcOut: s.srcPort, IdxIn: -1,
			Wait: streamWait(sim.Idle(), e.writeWait(s))})
	}
	return out
}

// StallCause classifies the engine's state on a cycle it did no work
// (see MSE.StallCause for the contract: purely state-based, unit-local,
// skip-stable). A pending SRAM read inside its fixed latency counts as
// Busy — the SRAM is working and needs no external input.
func (e *SSE) StallCause(now uint64) obs.Cause {
	worst := obs.CauseIdle
	for _, s := range e.reads {
		c := obs.Busy // inside the SRAM read latency
		if s.pending.wake(now).Kind != sim.WakeTimed {
			c = e.readWait(s).cause()
		}
		worst = obs.Worse(worst, c)
	}
	for _, s := range e.writes {
		worst = obs.Worse(worst, e.writeWait(s).cause())
	}
	return worst
}

// OnSkip replays the per-tick delivery round-robin rotation over an
// elided idle span, excluding streams that joined at the span's final
// cycle (see MSE.OnSkip).
func (e *SSE) OnSkip(from, to uint64) { e.skip(len(e.reads), from, to) }

// Watch appends the signals the engine's wake hint depends on (see
// sim.Component.Watch and MSE.Watch).
func (e *SSE) Watch(dst []*sim.Signal) []*sim.Signal {
	dst = append(dst, &e.Kicks, e.padBuf.FillSig())
	for _, s := range e.reads {
		dst = append(dst, e.ports.In[s.dstPort].Moved())
	}
	for _, s := range e.writes {
		dst = append(dst, e.ports.Out[s.srcPort].Moved())
	}
	return dst
}

// NextWake implements the sim.Component wake-hint contract (see
// docs/SIMKERNEL.md): Ready while the pad write buffer has entries to
// drain or any stream can move data, the earliest SRAM response time
// when every stream waits on one, Idle otherwise.
func (e *SSE) NextWake(now uint64) sim.Hint {
	if e.padBuf.Len() > 0 {
		return sim.ReadyNow() // the write port drains the buffer first
	}
	h := sim.Idle()
	for _, s := range e.reads {
		if h = h.Earliest(s.pending.wake(now)); h.Kind == sim.WakeReady || e.readWait(s) == WaitNone {
			return sim.ReadyNow() // deliverable, or can issue the next SRAM read
		}
	}
	for _, s := range e.writes {
		if e.writeWait(s) == WaitNone {
			return sim.ReadyNow()
		}
	}
	return h
}

// PendingTimed reports whether any read response is still inside the
// SRAM read latency at cycle now.
func (e *SSE) PendingTimed(now uint64) bool {
	for _, s := range e.reads {
		if s.pending.wake(now).Kind == sim.WakeTimed {
			return true
		}
	}
	return false
}

func (e *SSE) retire() {
	reads := e.reads[:0]
	for _, s := range e.reads {
		if len(s.pending) > 0 || e.readWait(s) != waitIssued {
			reads = append(reads, s)
			continue
		}
		e.finish(s.id, isa.KindScratchPort, s.bytes)
		e.readPool.put(s)
	}
	e.reads = reads
	writes := e.writes[:0]
	for _, s := range e.writes {
		if e.writeWait(s) != waitIssued {
			writes = append(writes, s)
			continue
		}
		e.finish(s.id, isa.KindPortScratch, s.bytes)
		e.writePool.put(s)
	}
	e.writes = writes
}
