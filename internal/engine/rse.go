package engine

import (
	"encoding/binary"
	"fmt"

	"softbrain/internal/faults"
	"softbrain/internal/isa"
	"softbrain/internal/obs"
	"softbrain/internal/sim"
)

// RSE is the reduction/recurrence stream engine: it forwards data from
// output ports back to input ports (SD_Port_Port), generates constant
// streams from the core (SD_Const_Port), and discards unneeded output
// elements (SD_Clean_Port). It has no AGU; its bus moves up to 64 bytes
// per cycle.
type RSE struct {
	table
	ports *Ports

	streams []*rseStream

	// Retired table entries, recycled.
	pool entryPool[rseStream]

	// Hot-path scratch for constant generation (Queue.Push copies).
	constScratch [LineBytes]byte

	// Faults, when non-nil, stalls the engine and perturbs the bus
	// bandwidth.
	Faults *faults.Injector

	// Statistics.
	BytesMoved uint64
	BusyCycles uint64
}

// NewRSE builds a recurrence stream engine.
func NewRSE(ports *Ports, size int) *RSE {
	return &RSE{table: table{size: size}, ports: ports}
}

type rseStream struct {
	id        int
	kind      isa.Kind
	srcPort   int // output port (PortPort, CleanPort), else -1
	dstPort   int // input port (PortPort, ConstPort), else -1
	remaining uint64
	bytes     uint64 // data moved so far, for the bandwidth report

	// Constant generation state.
	pattern [8]byte // one element of the constant, little-endian
	elem    int     // pattern bytes in use
	phase   int     // next byte of the pattern to emit
}

// CanAccept reports whether a stream-table entry is free.
func (e *RSE) CanAccept() bool { return len(e.streams) < e.size }

// Start installs a recurrence, constant, or clean stream.
func (e *RSE) Start(id int, cmd isa.Command) error {
	if !e.CanAccept() {
		return fmt.Errorf("engine: RSE table full")
	}
	s := e.pool.get()
	*s = rseStream{id: id, kind: cmd.Kind(), srcPort: -1, dstPort: -1}
	switch c := cmd.(type) {
	case isa.PortPort:
		s.srcPort = int(c.Src)
		s.dstPort = int(c.Dst)
		s.remaining = c.Count * uint64(c.Elem)
	case isa.ConstPort:
		s.dstPort = int(c.Dst)
		s.remaining = c.Count * uint64(c.Elem)
		binary.LittleEndian.PutUint64(s.pattern[:], c.Value)
		s.elem = int(c.Elem)
	case isa.CleanPort:
		s.srcPort = int(c.Src)
		s.remaining = c.Count * uint64(c.Elem)
	default:
		e.pool.put(s)
		return fmt.Errorf("engine: RSE cannot execute %v", cmd)
	}
	e.streams = append(e.streams, s)
	e.kick(true)
	return nil
}

// Active is the number of live streams.
func (e *RSE) Active() int { return len(e.streams) }

// Name, Progress and Work make the engine a kernel component and an
// attributed one: Progress counts the data it moved, Work the cycles it
// moved any.
func (e *RSE) Name() string     { return "rse" }
func (e *RSE) Progress() uint64 { return e.BytesMoved }
func (e *RSE) Work() uint64     { return e.BusyCycles }

// Tick moves data for the active streams under the shared bus budget.
// A fault-injected stall freezes the engine for the cycle.
func (e *RSE) Tick(now uint64) error {
	if e.Faults != nil && e.Faults.Stalled(faults.EngRSE, now) {
		return nil
	}
	e.joined = 0
	budget := LineBytes
	if e.Faults != nil {
		budget = e.Faults.BusBudget(faults.EngRSE, budget)
	}
	n := len(e.streams)
	for i, j := 0, e.first(n); i < n && budget > 0; i, j = i+1, j+1 {
		if j == n {
			j = 0
		}
		s := e.streams[j]
		moved := e.step(s, budget)
		budget -= moved
		e.BytesMoved += uint64(moved)
		s.bytes += uint64(moved)
	}
	e.rotate(n)
	if budget < LineBytes {
		e.BusyCycles++
	}
	e.retire()
	return nil
}

// wait classifies what stream s waits on: data in its source port
// (WaitOutData) before space in its destination (WaitInSpace); WaitNone
// when it can move data now. The RSE has no timed state.
func (e *RSE) wait(s *rseStream) Wait {
	switch {
	case s.srcPort >= 0 && e.ports.Out[s.srcPort].Len() == 0:
		return WaitOutData
	case s.dstPort >= 0 && e.ports.InAvail(s.dstPort) <= 0:
		return WaitInSpace
	}
	return WaitNone
}

// step moves up to budget bytes for one stream and returns how many.
func (e *RSE) step(s *rseStream, budget int) int {
	n := budget
	if uint64(n) > s.remaining {
		n = int(s.remaining)
	}
	if n == 0 || e.wait(s) != WaitNone {
		return 0
	}
	if s.srcPort >= 0 {
		n = min(n, e.ports.Out[s.srcPort].Len())
	}
	if s.dstPort >= 0 {
		n = min(n, e.ports.InAvail(s.dstPort))
	}
	switch s.kind {
	case isa.KindPortPort:
		e.ports.In[s.dstPort].Push(e.ports.Out[s.srcPort].Pop(n))
	case isa.KindConstPort:
		data := e.constScratch[:n]
		s.fill(data)
		e.ports.In[s.dstPort].Push(data)
	case isa.KindCleanPort:
		e.ports.Out[s.srcPort].Discard(n)
	}
	s.remaining -= uint64(n)
	return n
}

// fill writes the next len(dst) bytes of constant stream s into dst
// and advances its phase: one element rotated to the phase, then
// doubled up to the budget.
func (s *rseStream) fill(dst []byte) {
	n := copy(dst, s.pattern[s.phase:s.elem])
	n += copy(dst[n:], s.pattern[:s.phase])
	for n < len(dst) {
		n += copy(dst[n:], dst[:n])
	}
	s.phase = (s.phase + len(dst)) % s.elem
}

// Streams reports every active stream with its blocking state, for the
// core's structured hang diagnosis. The RSE has no timed state: a stuck
// stream always waits on a port.
func (e *RSE) Streams(uint64) []StreamInfo {
	var out []StreamInfo
	for _, s := range e.streams {
		out = append(out, StreamInfo{ID: s.id, Kind: s.kind, Eng: "RSE", DstIn: s.dstPort, SrcOut: s.srcPort, IdxIn: -1, Wait: e.wait(s)})
	}
	return out
}

// StallCause classifies the engine's state on a cycle it moved no data
// (see MSE.StallCause for the contract). The RSE has no timed state: a
// stalled stream waits on a full destination or an empty source.
func (e *RSE) StallCause(uint64) obs.Cause {
	worst := obs.CauseIdle
	for _, s := range e.streams {
		worst = obs.Worse(worst, e.wait(s).cause())
	}
	return worst
}

// OnSkip replays the per-tick arbitration round-robin rotation over an
// elided idle span, excluding streams that joined at the span's final
// cycle (see MSE.OnSkip).
func (e *RSE) OnSkip(from, to uint64) { e.skip(len(e.streams), from, to) }

// Watch appends the signals the engine's wake hint depends on (see
// sim.Component.Watch and MSE.Watch).
func (e *RSE) Watch(dst []*sim.Signal) []*sim.Signal {
	dst = append(dst, &e.Kicks)
	for _, s := range e.streams {
		if s.srcPort >= 0 {
			dst = append(dst, e.ports.Out[s.srcPort].Moved())
		}
		if s.dstPort >= 0 {
			dst = append(dst, e.ports.In[s.dstPort].Moved())
		}
	}
	return dst
}

// NextWake implements the sim.Component wake-hint contract (see
// docs/SIMKERNEL.md). The RSE has no timed state: it is Ready when any
// stream has both data and space, Idle otherwise.
func (e *RSE) NextWake(uint64) sim.Hint {
	for _, s := range e.streams {
		if e.wait(s) == WaitNone {
			return sim.ReadyNow()
		}
	}
	return sim.Idle()
}

func (e *RSE) retire() {
	live := e.streams[:0]
	for _, s := range e.streams {
		if s.remaining > 0 {
			live = append(live, s)
			continue
		}
		e.finish(s.id, s.kind, s.bytes)
		e.pool.put(s)
	}
	e.streams = live
}
