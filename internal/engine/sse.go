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
	pad    *scratch.Pad
	ports  *Ports
	padBuf *PadWriteBuf
	table  int

	reads  []*sseRead
	writes []*sseWrite
	done   []int
	doneFb []int // spare done buffer (Done double-buffers)
	rr     int
	joined int // reads appended since the last Tick (see OnSkip)

	// Retired table entries, recycled with their buffers.
	readPool  entryPool[sseRead]
	writePool entryPool[sseWrite]

	// Hot-path scratch: line-offset buffer for the AGU and a freelist of
	// delivered response buffers (Queue.Push copies, so they recycle).
	offScratch [LineBytes]uint8
	freeData   [][]byte

	// Faults, when non-nil, perturbs bus bandwidth and read line
	// contents (see internal/faults).
	Faults *faults.Injector

	// Retired, when non-nil, reports each stream's total data movement
	// as it leaves the table (see internal/obs).
	Retired func(id int, kind isa.Kind, bytes uint64)

	// Wake signals (see sim.Signal and MSE's counterparts).
	Kicks     sim.Signal
	Lifecycle sim.Signal

	// Statistics.
	ReadGrants  uint64
	WriteGrants uint64
	BytesOut    uint64
	BytesIn     uint64
	BusyCycles  uint64
}

// NewSSE builds a scratchpad stream engine.
func NewSSE(pad *scratch.Pad, ports *Ports, padBuf *PadWriteBuf, table int) *SSE {
	return &SSE{pad: pad, ports: ports, padBuf: padBuf, table: table}
}

type sseRead struct {
	id      int
	cur     isa.AffineCursor
	dstPort int
	pending []readPending
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
func (e *SSE) CanAcceptRead() bool { return len(e.reads) < e.table }

// CanAcceptWrite reports whether a write-stream table entry is free.
func (e *SSE) CanAcceptWrite() bool { return len(e.writes) < e.table }

// StartRead installs an SD_Scratch_Port stream.
func (e *SSE) StartRead(id int, c isa.ScratchPort) error {
	if !e.CanAcceptRead() {
		return fmt.Errorf("engine: SSE read table full")
	}
	s := e.readPool.get()
	*s = sseRead{id: id, dstPort: int(c.Dst), pending: s.pending[:0]}
	s.cur.Reset(c.Src)
	e.reads = append(e.reads, s)
	e.joined++
	e.Kicks.Raise()
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
	e.Kicks.Raise()
	return nil
}

// Done drains completed stream IDs. The returned slice is valid until
// the next call (double-buffered).
func (e *SSE) Done() []int {
	d := e.done
	e.done, e.doneFb = e.doneFb[:0], d
	return d
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
	busy := false
	if e.deliver(now) {
		busy = true
	}
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
	for i := 0; i < n && budget > 0; i++ {
		s := e.reads[(e.rr+i)%n]
		for len(s.pending) > 0 && budget > 0 {
			head := s.pending[0]
			if head.ready > now || len(head.data) > budget {
				break
			}
			e.ports.Deliver(s.dstPort, head.data)
			e.freeData = append(e.freeData, head.data[:0]) // Deliver copied
			budget -= len(head.data)
			e.BytesOut += uint64(len(head.data))
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

// issueRead grants the single SRAM read port to the stream with the
// least outstanding data toward its destination.
func (e *SSE) issueRead(now uint64) error {
	var best *sseRead
	bestScore := 0
	for _, s := range e.reads {
		if s.cur.Done() {
			continue
		}
		if e.ports.InAvail(s.dstPort) <= 0 {
			continue
		}
		score := e.ports.Reserved(s.dstPort)
		if best == nil || score < bestScore {
			best, bestScore = s, score
		}
	}
	if best == nil {
		return nil
	}
	maxBytes := LineBytes
	if avail := e.ports.InAvail(best.dstPort); avail < maxBytes {
		maxBytes = avail
	}
	req, ok := nextAffineLine(&best.cur, maxBytes, e.offScratch[:])
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
	var data []byte
	if n := len(e.freeData); n > 0 {
		data, e.freeData = e.freeData[n-1][:0], e.freeData[:n-1]
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
		e.Faults.CorruptLine(data)
	}
	e.ports.Reserve(best.dstPort, len(data))
	best.pending = append(best.pending, readPending{ready: now + ReadLatency, data: data})
	e.ReadGrants++
	return nil
}

// padReadTail re-reads a row that extends past the end of the pad by
// fetching only the bytes the request actually touches.
func (e *SSE) padReadTail(req LineReq, line []byte) error {
	for _, off := range req.Offsets {
		var b [1]byte
		if err := e.pad.Read(req.Line+uint64(off), b[:]); err != nil {
			return err
		}
		line[off] = b[0]
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
		if s.remaining == 0 {
			continue
		}
		avail := e.ports.Out[s.srcPort].Len()
		if avail == 0 {
			continue
		}
		if best == nil || avail > bestAvail {
			best, bestAvail = s, avail
		}
	}
	if best == nil {
		return nil
	}
	n := LineBytes
	if bestAvail < n {
		n = bestAvail
	}
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
		si := StreamInfo{ID: s.id, Kind: isa.KindScratchPort, Eng: "SSE", DstIn: s.dstPort, SrcOut: -1, IdxIn: -1}
		switch {
		case len(s.pending) > 0 && s.pending[0].ready > now:
			si.Wait = WaitTimed
		case len(s.pending) > 0:
			si.Wait = WaitNone
		case !s.cur.Done() && e.ports.InAvail(s.dstPort) <= 0:
			si.Wait = WaitInSpace
		default:
			si.Wait = WaitNone
		}
		out = append(out, si)
	}
	for _, s := range e.writes {
		si := StreamInfo{ID: s.id, Kind: isa.KindPortScratch, Eng: "SSE", DstIn: -1, SrcOut: s.srcPort, IdxIn: -1}
		if s.remaining > 0 && e.ports.Out[s.srcPort].Len() == 0 {
			si.Wait = WaitOutData
		}
		out = append(out, si)
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
		c := obs.CauseIdle
		switch {
		case len(s.pending) > 0 && s.pending[0].ready > now:
			c = obs.Busy // inside the SRAM read latency
		case !s.cur.Done() && e.ports.InAvail(s.dstPort) <= 0:
			c = obs.PortFull
		}
		worst = obs.Worse(worst, c)
	}
	for _, s := range e.writes {
		if s.remaining > 0 && e.ports.Out[s.srcPort].Len() == 0 {
			worst = obs.Worse(worst, obs.PortEmpty)
		}
	}
	return worst
}

// OnSkip replays the per-tick delivery round-robin rotation over an
// elided idle span, excluding streams that joined at the span's final
// cycle (see MSE.OnSkip).
func (e *SSE) OnSkip(from, to uint64) {
	if n := len(e.reads) - e.joined; n > 0 {
		e.rr = (e.rr + int((to-from)%uint64(n))) % n
	}
}

// WatchSig sums the external signals the engine's wake hint depends on
// (see sim.Component.WatchSig and MSE.WatchSig).
func (e *SSE) WatchSig() uint64 {
	sig := e.Kicks.Value() + e.padBuf.FillVer()
	for _, s := range e.reads {
		q := e.ports.In[s.dstPort]
		sig += q.TotalIn() + q.TotalOut()
	}
	for _, s := range e.writes {
		q := e.ports.Out[s.srcPort]
		sig += q.TotalIn() + q.TotalOut()
	}
	return sig
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
		if len(s.pending) > 0 {
			r := s.pending[0].ready
			if r <= now {
				return sim.ReadyNow()
			}
			h = h.Earliest(sim.WakeAt(r))
		}
		if !s.cur.Done() && e.ports.InAvail(s.dstPort) > 0 {
			return sim.ReadyNow() // can issue the next SRAM read
		}
	}
	for _, s := range e.writes {
		if s.remaining > 0 && e.ports.Out[s.srcPort].Len() > 0 {
			return sim.ReadyNow()
		}
	}
	return h
}

// PendingTimed reports whether any read response is still inside the
// SRAM read latency at cycle now.
func (e *SSE) PendingTimed(now uint64) bool {
	for _, s := range e.reads {
		for _, p := range s.pending {
			if p.ready > now {
				return true
			}
		}
	}
	return false
}

func (e *SSE) retire() {
	reads := e.reads[:0]
	for _, s := range e.reads {
		if s.cur.Done() && len(s.pending) == 0 {
			if e.Retired != nil {
				e.Retired(s.id, isa.KindScratchPort, s.bytes)
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
		if s.remaining == 0 {
			if e.Retired != nil {
				e.Retired(s.id, isa.KindPortScratch, s.bytes)
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
