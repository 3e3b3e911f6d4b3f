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
	ports *Ports
	table int

	streams []*rseStream
	done    []int
	doneFb  []int // spare done buffer (Done double-buffers)
	rr      int
	joined  int // streams appended since the last Tick (see OnSkip)

	// Retired table entries, recycled.
	pool entryPool[rseStream]

	// Hot-path scratch for constant generation (Queue.Push copies).
	constScratch [LineBytes]byte

	// Faults, when non-nil, perturbs the bus bandwidth.
	Faults *faults.Injector

	// Retired, when non-nil, reports each stream's total data movement
	// as it leaves the table (see internal/obs).
	Retired func(id int, kind isa.Kind, bytes uint64)

	// Wake signals (see sim.Signal and MSE's counterparts).
	Kicks     sim.Signal
	Lifecycle sim.Signal

	// Statistics.
	BytesMoved uint64
	BusyCycles uint64
}

// NewRSE builds a recurrence stream engine.
func NewRSE(ports *Ports, table int) *RSE {
	return &RSE{ports: ports, table: table}
}

type rseStream struct {
	id        int
	kind      isa.Kind
	srcPort   int // output port (PortPort, CleanPort)
	dstPort   int // input port (PortPort, ConstPort)
	remaining uint64
	bytes     uint64 // data moved so far, for the bandwidth report

	// Constant generation state.
	pattern [8]byte // one element of the constant, little-endian
	elem    int     // pattern bytes in use
	phase   int     // next byte of the pattern to emit
}

// CanAccept reports whether a stream-table entry is free.
func (e *RSE) CanAccept() bool { return len(e.streams) < e.table }

// Start installs a recurrence, constant, or clean stream.
func (e *RSE) Start(id int, cmd isa.Command) error {
	if !e.CanAccept() {
		return fmt.Errorf("engine: RSE table full")
	}
	s := e.pool.get()
	*s = rseStream{id: id, kind: cmd.Kind()}
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
	e.joined++
	e.Kicks.Raise()
	return nil
}

// Done drains completed stream IDs. The returned slice is valid until
// the next call (double-buffered).
func (e *RSE) Done() []int {
	d := e.done
	e.done, e.doneFb = e.doneFb[:0], d
	return d
}

// Active is the number of live streams.
func (e *RSE) Active() int { return len(e.streams) }

// Tick moves data for the active streams under the shared bus budget.
func (e *RSE) Tick(now uint64) error {
	e.joined = 0
	budget := LineBytes
	if e.Faults != nil {
		budget = e.Faults.BusBudget(faults.EngRSE, budget)
	}
	n := len(e.streams)
	for i := 0; i < n && budget > 0; i++ {
		s := e.streams[(e.rr+i)%n]
		moved := e.step(s, budget)
		budget -= moved
		e.BytesMoved += uint64(moved)
		s.bytes += uint64(moved)
	}
	if n > 0 {
		e.rr = (e.rr + 1) % n
	}
	if budget < LineBytes {
		e.BusyCycles++
	}
	e.retire()
	return nil
}

// step moves up to budget bytes for one stream and returns how many.
func (e *RSE) step(s *rseStream, budget int) int {
	n := budget
	if uint64(n) > s.remaining {
		n = int(s.remaining)
	}
	if n == 0 {
		return 0
	}
	switch s.kind {
	case isa.KindPortPort:
		if avail := e.ports.Out[s.srcPort].Len(); avail < n {
			n = avail
		}
		if space := e.ports.InAvail(s.dstPort); space < n {
			n = space
		}
		if n <= 0 {
			return 0
		}
		data := e.ports.Out[s.srcPort].Pop(n)
		e.ports.In[s.dstPort].Push(data)
	case isa.KindConstPort:
		if space := e.ports.InAvail(s.dstPort); space < n {
			n = space
		}
		if n <= 0 {
			return 0
		}
		data := e.constScratch[:n]
		for i := range data {
			data[i] = s.pattern[s.phase]
			s.phase = (s.phase + 1) % s.elem
		}
		e.ports.In[s.dstPort].Push(data)
	case isa.KindCleanPort:
		if avail := e.ports.Out[s.srcPort].Len(); avail < n {
			n = avail
		}
		if n <= 0 {
			return 0
		}
		e.ports.Out[s.srcPort].Discard(n)
	}
	s.remaining -= uint64(n)
	return n
}

// Streams reports every active stream with its blocking state, for the
// core's structured hang diagnosis. The RSE has no timed state: a stuck
// stream always waits on a port.
func (e *RSE) Streams(now uint64) []StreamInfo {
	var out []StreamInfo
	for _, s := range e.streams {
		si := StreamInfo{ID: s.id, Kind: s.kind, Eng: "RSE", DstIn: -1, SrcOut: -1, IdxIn: -1}
		switch s.kind {
		case isa.KindPortPort:
			si.SrcOut, si.DstIn = s.srcPort, s.dstPort
			switch {
			case e.ports.Out[s.srcPort].Len() == 0:
				si.Wait = WaitOutData
			case e.ports.InAvail(s.dstPort) <= 0:
				si.Wait = WaitInSpace
			}
		case isa.KindConstPort:
			si.DstIn = s.dstPort
			if e.ports.InAvail(s.dstPort) <= 0 {
				si.Wait = WaitInSpace
			}
		case isa.KindCleanPort:
			si.SrcOut = s.srcPort
			if e.ports.Out[s.srcPort].Len() == 0 {
				si.Wait = WaitOutData
			}
		}
		out = append(out, si)
	}
	return out
}

// StallCause classifies the engine's state on a cycle it moved no data
// (see MSE.StallCause for the contract). The RSE has no timed state: a
// stalled stream waits on a full destination or an empty source.
func (e *RSE) StallCause(uint64) obs.Cause {
	worst := obs.CauseIdle
	for _, s := range e.streams {
		c := obs.CauseIdle
		switch s.kind {
		case isa.KindPortPort:
			switch {
			case e.ports.Out[s.srcPort].Len() == 0:
				c = obs.PortEmpty
			case e.ports.InAvail(s.dstPort) <= 0:
				c = obs.PortFull
			}
		case isa.KindConstPort:
			if e.ports.InAvail(s.dstPort) <= 0 {
				c = obs.PortFull
			}
		case isa.KindCleanPort:
			if e.ports.Out[s.srcPort].Len() == 0 {
				c = obs.PortEmpty
			}
		}
		worst = obs.Worse(worst, c)
	}
	return worst
}

// OnSkip replays the per-tick arbitration round-robin rotation over an
// elided idle span, excluding streams that joined at the span's final
// cycle (see MSE.OnSkip).
func (e *RSE) OnSkip(from, to uint64) {
	if n := len(e.streams) - e.joined; n > 0 {
		e.rr = (e.rr + int((to-from)%uint64(n))) % n
	}
}

// WatchSig sums the external signals the engine's wake hint depends on
// (see sim.Component.WatchSig and MSE.WatchSig).
func (e *RSE) WatchSig() uint64 {
	sig := e.Kicks.Value()
	for _, s := range e.streams {
		switch s.kind {
		case isa.KindPortPort:
			qo, qi := e.ports.Out[s.srcPort], e.ports.In[s.dstPort]
			sig += qo.TotalIn() + qo.TotalOut() + qi.TotalIn() + qi.TotalOut()
		case isa.KindConstPort:
			q := e.ports.In[s.dstPort]
			sig += q.TotalIn() + q.TotalOut()
		case isa.KindCleanPort:
			q := e.ports.Out[s.srcPort]
			sig += q.TotalIn() + q.TotalOut()
		}
	}
	return sig
}

// NextWake implements the sim.Component wake-hint contract (see
// docs/SIMKERNEL.md). The RSE has no timed state: it is Ready when any
// stream has both data and space, Idle otherwise.
func (e *RSE) NextWake(now uint64) sim.Hint {
	for _, s := range e.streams {
		switch s.kind {
		case isa.KindPortPort:
			if e.ports.Out[s.srcPort].Len() > 0 && e.ports.InAvail(s.dstPort) > 0 {
				return sim.ReadyNow()
			}
		case isa.KindConstPort:
			if e.ports.InAvail(s.dstPort) > 0 {
				return sim.ReadyNow()
			}
		case isa.KindCleanPort:
			if e.ports.Out[s.srcPort].Len() > 0 {
				return sim.ReadyNow()
			}
		}
	}
	return sim.Idle()
}

func (e *RSE) retire() {
	live := e.streams[:0]
	for _, s := range e.streams {
		if s.remaining == 0 {
			if e.Retired != nil {
				e.Retired(s.id, s.kind, s.bytes)
			}
			e.done = append(e.done, s.id)
			e.Lifecycle.Raise()
			e.pool.put(s)
		} else {
			live = append(live, s)
		}
	}
	e.streams = live
}
