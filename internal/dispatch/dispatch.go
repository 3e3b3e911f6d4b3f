// Package dispatch implements the stream dispatcher of Section 4.2: the
// unit that enforces architectural (resource) dependences between stream
// commands and coordinates the stream engines. It tracks vector-port and
// stream-engine state in scoreboards, issues commands in program order
// when their resources are free, and implements barrier semantics.
package dispatch

import (
	"fmt"
	"sort"

	"softbrain/internal/engine"
	"softbrain/internal/isa"
	"softbrain/internal/obs"
	"softbrain/internal/sim"
	"softbrain/internal/trace"
)

// engineKind selects which stream-engine pipeline executes a command.
type engineKind uint8

const (
	engMSERead engineKind = iota
	engMSEWrite
	engSSERead
	engSSEWrite
	engRSE
	engBarrier
)

// resources lists the scoreboard entries a command needs. A port may be
// held in the writer role (a stream producing into it) and the reader
// role (a stream consuming from it) by different streams simultaneously —
// that is how index streams feed indirect streams concurrently.
type resources struct {
	engine    engineKind
	inWriters []int // input ports written
	inReaders []int // input (indirect) ports consumed
	outReader int   // output port consumed, -1 if none
}

// classify derives the resource needs of a command.
func classify(cmd isa.Command) (resources, error) {
	r := resources{outReader: -1}
	var err error
	r.inWriters, r.inReaders, r.outReader, err = CommandPorts(cmd)
	if err != nil {
		return r, err
	}
	switch cmd.(type) {
	case isa.Config, isa.MemScratch, isa.MemPort, isa.IndPortPort:
		r.engine = engMSERead
	case isa.ScratchPort:
		r.engine = engSSERead
	case isa.ConstPort, isa.PortPort, isa.CleanPort:
		r.engine = engRSE
	case isa.PortScratch:
		r.engine = engSSEWrite
	case isa.PortMem, isa.IndPortMem:
		r.engine = engMSEWrite
	case isa.BarrierScratchRd, isa.BarrierScratchWr, isa.BarrierAll:
		r.engine = engBarrier
	}
	return r, nil
}

// CommandPorts lists the vector ports cmd touches: input ports it
// writes, input ports it consumes for indirect indices, and the output
// port it reads (-1 when none). The core's hang diagnosis uses it to
// find the future supplier of a starved port among queued and unfetched
// commands.
func CommandPorts(cmd isa.Command) (inWriters, inReaders []int, outReader int, err error) {
	outReader = -1
	switch c := cmd.(type) {
	case isa.Config, isa.MemScratch,
		isa.BarrierScratchRd, isa.BarrierScratchWr, isa.BarrierAll:
	case isa.MemPort:
		inWriters = []int{int(c.Dst)}
	case isa.IndPortPort:
		inWriters = []int{int(c.Dst)}
		inReaders = []int{int(c.Idx)}
	case isa.ScratchPort:
		inWriters = []int{int(c.Dst)}
	case isa.ConstPort:
		inWriters = []int{int(c.Dst)}
	case isa.PortPort:
		inWriters = []int{int(c.Dst)}
		outReader = int(c.Src)
	case isa.CleanPort:
		outReader = int(c.Src)
	case isa.PortScratch:
		outReader = int(c.Src)
	case isa.PortMem:
		outReader = int(c.Src)
	case isa.IndPortMem:
		inReaders = []int{int(c.Idx)}
		outReader = int(c.Src)
	default:
		err = fmt.Errorf("dispatch: unknown command %v", cmd)
	}
	return inWriters, inReaders, outReader, err
}

// holder is one stream occupying a scoreboard entry. A draining holder
// has all its memory requests in flight (the "all-requests-in-flight"
// state); its port may be re-issued to a successor memory stream, whose
// data the MSE delivers strictly after the drainer's.
type holder struct {
	id       int
	draining bool
}

// Dispatcher owns the command queue and the scoreboards.
type Dispatcher struct {
	mse *engine.MSE
	sse *engine.SSE
	rse *engine.RSE

	numIn, numOut int
	queueDepth    int
	queue         []queued
	now           uint64

	inWriter  map[int][]holder // port -> holding streams (youngest last)
	inReader  map[int]int
	outReader map[int]int
	active    map[int]resources
	nextID    int

	configActive bool
	configID     int

	// InOrderIssue restricts dispatch to the queue head (disables the
	// dispatch window); an ablation switch.
	InOrderIssue bool

	// Tracer, when set, records stream lifetimes (see internal/trace).
	Tracer *trace.Recorder

	// Lat, installed by EnableLatency, observes each stream's
	// issue-to-retire latency. issuedAt exists only while enabled, so
	// the tick path allocates nothing when metrics are off.
	Lat      *obs.Histogram
	issuedAt map[int]uint64

	// Statistics.
	Issued        uint64
	BarrierCycles uint64 // cycles a barrier held the queue head
	ResourceStall uint64 // cycles the head command waited on resources
	StallByKind   map[isa.Kind]uint64

	// Per-barrier drain accounting, keyed by the trace position the
	// core passed to EnqueueAt (-1 entries are not tracked). A barrier
	// is recorded at enqueue time so zero-drain barriers appear too.
	drainByPos map[int]uint64
	drainKind  map[int]isa.Kind

	// Wake-hint state (see NextWake / OnSkip). tickProgress records
	// whether the last Tick changed scoreboard or queue state;
	// queueAfter is the queue length when it returned (the core
	// enqueues after the dispatcher in machine tick order, so a longer
	// queue means new work). The repeat fields record which per-cycle
	// stall counters the last Tick incremented, so OnSkip can replay
	// them exactly over a skipped span in which the same stall holds.
	tickProgress   bool
	queueAfter     int
	repeatBarrier  bool
	repeatPos      int
	repeatResource bool
	repeatKind     isa.Kind

	// Wake signals (see sim.Signal). EnqSeq counts accepted enqueues —
	// the dispatcher's own watch includes it so a command arriving from
	// the core wakes a sleeping dispatcher. StateVer counts every
	// scoreboard or queue change — the control core watches it, since
	// BlocksCore can only clear when the dispatcher changes state.
	EnqSeq   sim.Signal
	StateVer sim.Signal

	// Scan stamps for the dispatch window's port-conflict check: a port
	// stamped with the current generation is referenced by an older
	// unissued command. Replaces a per-Tick map allocation.
	touchIn  []uint64
	touchOut []uint64
	touchGen uint64
}

// BarrierDrain is one barrier's drain cost: the cycles it held the
// queue head waiting for in-flight streams, keyed by trace position.
type BarrierDrain struct {
	Pos    int
	Kind   isa.Kind
	Cycles uint64
}

// New builds a dispatcher over the three engines.
func New(mse *engine.MSE, sse *engine.SSE, rse *engine.RSE, numIn, numOut, queueDepth int) *Dispatcher {
	return &Dispatcher{
		mse: mse, sse: sse, rse: rse,
		numIn: numIn, numOut: numOut, queueDepth: queueDepth,
		inWriter:    map[int][]holder{},
		inReader:    map[int]int{},
		outReader:   map[int]int{},
		active:      map[int]resources{},
		nextID:      1,
		StallByKind: map[isa.Kind]uint64{},
		touchIn:     make([]uint64, numIn),
		touchOut:    make([]uint64, numOut),
	}
}

// EnableLatency installs a histogram observing each stream's
// issue-to-retire latency in cycles.
func (d *Dispatcher) EnableLatency(h *obs.Histogram) {
	d.Lat = h
	d.issuedAt = map[int]uint64{}
}

// CanEnqueue reports whether the command queue has room; when it does
// not, the control core stalls.
func (d *Dispatcher) CanEnqueue() bool { return len(d.queue) < d.queueDepth }

// Enqueue accepts a command from the control core. The command's ports
// are validated here, at the architectural boundary.
func (d *Dispatcher) Enqueue(cmd isa.Command) error { return d.EnqueueAt(cmd, -1, d.now) }

// EnqueueAt is Enqueue with the command's trace position and the
// current cycle attached: the position keys barrier-drain attribution
// (see BarrierDrains), and the cycle stamps the command's enqueue time
// for the trace — the core may enqueue on a cycle the dispatcher slept
// through, so the dispatcher's own clock can be stale. Pass -1 when the
// position is unknown.
func (d *Dispatcher) EnqueueAt(cmd isa.Command, pos int, now uint64) error {
	if !d.CanEnqueue() {
		return fmt.Errorf("dispatch: command queue full")
	}
	r, err := classify(cmd)
	if err != nil {
		return err
	}
	for _, p := range r.inWriters {
		if p < 0 || p >= d.numIn {
			return fmt.Errorf("dispatch: %v references input port %d of %d", cmd, p, d.numIn)
		}
	}
	for _, p := range r.inReaders {
		if p < 0 || p >= d.numIn {
			return fmt.Errorf("dispatch: %v references input port %d of %d", cmd, p, d.numIn)
		}
	}
	if r.outReader >= d.numOut {
		return fmt.Errorf("dispatch: %v references output port %d of %d", cmd, r.outReader, d.numOut)
	}
	if r.engine == engBarrier && pos >= 0 {
		if d.drainByPos == nil {
			d.drainByPos = map[int]uint64{}
			d.drainKind = map[int]isa.Kind{}
		}
		if _, ok := d.drainByPos[pos]; !ok {
			d.drainByPos[pos] = 0
			d.drainKind[pos] = cmd.Kind()
		}
	}
	d.queue = append(d.queue, queued{cmd: cmd, res: r, at: now, pos: pos})
	d.EnqSeq.Raise()
	return nil
}

// BarrierDrains reports the per-barrier drain cycles accumulated so
// far, sorted by trace position. Only barriers enqueued via EnqueueAt
// with a non-negative position appear; zero-drain barriers are
// included so a profile distinguishes "free" from "never executed".
func (d *Dispatcher) BarrierDrains() []BarrierDrain {
	out := make([]BarrierDrain, 0, len(d.drainByPos))
	for pos, cy := range d.drainByPos {
		out = append(out, BarrierDrain{Pos: pos, Kind: d.drainKind[pos], Cycles: cy})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pos < out[j].Pos })
	return out
}

// ResetProfile clears the per-run profiles, barrier drains and stall
// counts by command kind, for a dispatcher starting a new run.
func (d *Dispatcher) ResetProfile() {
	d.drainByPos, d.drainKind = nil, nil
	clear(d.StallByKind)
}

// BlocksCore reports whether the core must stall: the queue is full or
// an SD_Barrier_All is pending.
func (d *Dispatcher) BlocksCore() bool {
	if !d.CanEnqueue() {
		return true
	}
	for _, q := range d.queue {
		if q.cmd.Kind() == isa.KindBarrierAll {
			return true
		}
	}
	return false
}

// Idle reports whether no commands are queued or executing.
func (d *Dispatcher) Idle() bool {
	return len(d.queue) == 0 && len(d.active) == 0
}

// QueueLen is the number of commands waiting to issue.
func (d *Dispatcher) QueueLen() int { return len(d.queue) }

// Tick retires completed streams and issues at most one queued command.
// The queue is a small dispatch window: the oldest eligible command
// issues, where eligibility preserves program order per vector port (a
// younger command never bypasses an older queued command that touches
// any of the same ports) and barriers block everything behind them.
func (d *Dispatcher) Tick(now uint64) error {
	d.now = now
	d.tickProgress = false
	d.repeatBarrier, d.repeatResource = false, false
	defer func() { d.queueAfter = len(d.queue) }()
	d.retire(now)
	if len(d.queue) == 0 {
		return nil
	}
	if d.configActive {
		// A configuration is loading; the fabric must quiesce, so no
		// command may issue under it.
		return nil
	}
	d.touchGen++
	gen := d.touchGen // ports stamped gen: referenced by older unissued commands
	for i := range d.queue {
		q := &d.queue[i]
		cmd := q.cmd
		r := q.res
		if cmd.Kind() == isa.KindConfig {
			// Reconfiguration serializes: it issues only once the fabric
			// is idle, and nothing younger may start before it finishes.
			if i == 0 && len(d.active) == 0 {
				id := d.nextID
				d.nextID++
				if err := d.start(id, cmd, r.engine); err != nil {
					return err
				}
				d.active[id] = r
				d.configActive = true
				d.configID = id
				if d.Tracer != nil {
					d.Tracer.Issued(id, cmd.String(), q.at, now)
				}
				if d.issuedAt != nil {
					d.issuedAt[id] = now
				}
				d.queue = d.queue[1:]
				d.Issued++
				d.tickProgress = true
				d.StateVer.Raise()
			} else if i == 0 {
				d.ResourceStall++
				d.StallByKind[cmd.Kind()]++
				d.repeatResource, d.repeatKind = true, cmd.Kind()
			}
			return nil
		}
		if r.engine == engBarrier {
			if i == 0 && d.barrierMet(cmd.Kind()) {
				d.queue = d.queue[1:]
				d.tickProgress = true
				d.StateVer.Raise()
			} else if i == 0 {
				d.BarrierCycles++
				d.repeatBarrier, d.repeatPos = true, q.pos
				if q.pos >= 0 {
					d.drainByPos[q.pos]++
				}
			}
			// Nothing younger may pass a barrier.
			return nil
		}
		conflict := false
		for _, p := range r.inWriters {
			if d.touchIn[p] == gen {
				conflict = true
			}
			d.touchIn[p] = gen
		}
		for _, p := range r.inReaders {
			if d.touchIn[p] == gen {
				conflict = true
			}
			d.touchIn[p] = gen
		}
		if r.outReader >= 0 {
			if d.touchOut[r.outReader] == gen {
				conflict = true
			}
			d.touchOut[r.outReader] = gen
		}
		if conflict || !d.resourcesFree(r) {
			if i == 0 {
				d.ResourceStall++
				d.StallByKind[cmd.Kind()]++
				d.repeatResource, d.repeatKind = true, cmd.Kind()
				if d.InOrderIssue {
					return nil
				}
			}
			continue
		}
		id := d.nextID
		d.nextID++
		if err := d.start(id, cmd, r.engine); err != nil {
			return err
		}
		for _, p := range r.inWriters {
			d.inWriter[p] = append(d.inWriter[p], holder{id: id})
		}
		for _, p := range r.inReaders {
			d.inReader[p] = id
		}
		if r.outReader >= 0 {
			d.outReader[r.outReader] = id
		}
		d.active[id] = r
		if d.Tracer != nil {
			d.Tracer.Issued(id, cmd.String(), q.at, now)
		}
		if d.issuedAt != nil {
			d.issuedAt[id] = now
		}
		d.queue = append(d.queue[:i], d.queue[i+1:]...)
		d.Issued++
		d.tickProgress = true
		d.StateVer.Raise()
		return nil
	}
	return nil
}

// NextWake implements the sim.Component wake-hint contract (see
// docs/SIMKERNEL.md). The dispatcher has no timed state of its own: it
// is Ready while its last Tick changed anything or the core enqueued
// behind it, Idle while it is provably re-running the same stalled scan
// (an engine completing, or a skip-span replay via OnSkip, wakes it).
func (d *Dispatcher) NextWake(now uint64) sim.Hint {
	if len(d.queue) == 0 && len(d.active) == 0 {
		return sim.Idle()
	}
	if d.tickProgress || len(d.queue) != d.queueAfter {
		return sim.ReadyNow()
	}
	return sim.Idle()
}

// StallCause classifies the dispatcher's state this cycle for the
// stall attribution (see internal/obs). Unlike the engines it reports
// Busy itself — tickProgress covers retires and barrier pops that no
// monotone counter records. Skip-stable: on any cycle a skip span can
// cover, tickProgress is false (NextWake would have pinned the machine
// Ready) and the repeat flags are frozen, so the ticked and replayed
// classifications agree.
func (d *Dispatcher) StallCause(uint64) obs.Cause {
	switch {
	case len(d.queue) == 0 && len(d.active) == 0:
		return obs.CauseIdle
	case d.tickProgress:
		return obs.Busy
	case d.configActive:
		return obs.BarrierDrain // fabric quiescing under SD_Config
	case len(d.queue) == 0:
		return obs.CauseIdle // streams running; nothing left to dispatch
	case d.repeatBarrier:
		return obs.BarrierDrain
	case d.repeatResource:
		return obs.PortFull // scoreboard conflict or engine table full
	}
	return obs.CauseIdle
}

// OnSkip replays the per-cycle stall accounting over an elided span.
// The run loop skips [from, to) only when the whole machine was frozen,
// so each skipped cycle's Tick would have repeated exactly the stall
// pattern of the last executed one.
func (d *Dispatcher) OnSkip(from, to uint64) {
	dc := to - from
	if d.repeatBarrier {
		d.BarrierCycles += dc
		if d.repeatPos >= 0 {
			d.drainByPos[d.repeatPos] += dc
		}
	}
	if d.repeatResource {
		d.ResourceStall += dc
		d.StallByKind[d.repeatKind] += dc
	}
}

// queued is one command waiting in the dispatch window.
type queued struct {
	cmd isa.Command
	res resources // classified once at enqueue
	at  uint64    // enqueue cycle
	pos int       // trace position, -1 when unknown
}

func (d *Dispatcher) start(id int, cmd isa.Command, k engineKind) error {
	switch k {
	case engMSERead:
		return d.mse.StartRead(id, cmd)
	case engMSEWrite:
		return d.mse.StartWrite(id, cmd)
	case engSSERead:
		return d.sse.StartRead(id, cmd.(isa.ScratchPort))
	case engSSEWrite:
		return d.sse.StartWrite(id, cmd.(isa.PortScratch))
	case engRSE:
		return d.rse.Start(id, cmd)
	}
	return fmt.Errorf("dispatch: cannot start %v", cmd)
}

func (d *Dispatcher) resourcesFree(r resources) bool {
	switch r.engine {
	case engMSERead:
		if !d.mse.CanAcceptRead() {
			return false
		}
	case engMSEWrite:
		if !d.mse.CanAcceptWrite() {
			return false
		}
	case engSSERead:
		if !d.sse.CanAcceptRead() {
			return false
		}
	case engSSEWrite:
		if !d.sse.CanAcceptWrite() {
			return false
		}
	case engRSE:
		if !d.rse.CanAccept() {
			return false
		}
	}
	for _, p := range r.inWriters {
		for _, h := range d.inWriter[p] {
			if !h.draining {
				return false
			}
		}
		// Draining holders may be overlapped, but only by another memory
		// read stream: the MSE serializes same-port delivery by age.
		if len(d.inWriter[p]) > 0 && r.engine != engMSERead {
			return false
		}
	}
	for _, p := range r.inReaders {
		if _, held := d.inReader[p]; held {
			return false
		}
	}
	if r.outReader >= 0 {
		if _, held := d.outReader[r.outReader]; held {
			return false
		}
	}
	return true
}

func (d *Dispatcher) barrierMet(k isa.Kind) bool {
	switch k {
	case isa.KindBarrierScratchRd:
		return d.sse.ActiveScratchReads() == 0
	case isa.KindBarrierScratchWr:
		return d.sse.ActiveScratchWrites() == 0 && d.mse.ActiveScratchWrites() == 0
	case isa.KindBarrierAll:
		return len(d.active) == 0
	}
	return false
}

// retire frees the scoreboard entries of completed streams and
// downgrades drained memory streams to the all-requests-in-flight state.
func (d *Dispatcher) retire(now uint64) {
	free := func(ids []int) {
		for _, id := range ids {
			d.Tracer.Completed(id, now)
			if d.issuedAt != nil {
				if t, ok := d.issuedAt[id]; ok {
					d.Lat.Observe(now - t)
					delete(d.issuedAt, id)
				}
			}
			r, ok := d.active[id]
			if !ok {
				continue
			}
			d.tickProgress = true
			d.StateVer.Raise()
			for _, p := range r.inWriters {
				hs := d.inWriter[p][:0]
				for _, h := range d.inWriter[p] {
					if h.id != id {
						hs = append(hs, h)
					}
				}
				if len(hs) == 0 {
					delete(d.inWriter, p)
				} else {
					d.inWriter[p] = hs
				}
			}
			for _, p := range r.inReaders {
				if d.inReader[p] == id {
					delete(d.inReader, p)
				}
			}
			if r.outReader >= 0 && d.outReader[r.outReader] == id {
				delete(d.outReader, r.outReader)
			}
			if d.configActive && id == d.configID {
				d.configActive = false
			}
			delete(d.active, id)
		}
	}
	free(d.mse.Done())
	free(d.sse.Done())
	free(d.rse.Done())

	// All-requests-in-flight: mark destination ports takeover-ready and
	// release indirect-port reader holds (indices fully consumed).
	for _, id := range d.mse.Drained() {
		r, ok := d.active[id]
		if !ok {
			continue
		}
		d.tickProgress = true
		d.StateVer.Raise()
		for _, p := range r.inWriters {
			for i := range d.inWriter[p] {
				if d.inWriter[p][i].id == id {
					d.inWriter[p][i].draining = true
				}
			}
		}
		for _, p := range r.inReaders {
			if d.inReader[p] == id {
				delete(d.inReader, p)
			}
		}
	}
}

// Queue returns the queued commands, oldest first, for the core's hang
// diagnosis (a starved port's supply may be sitting unissued behind a
// barrier or scoreboard conflict).
func (d *Dispatcher) Queue() []isa.Command {
	out := make([]isa.Command, len(d.queue))
	for i, q := range d.queue {
		out[i] = q.cmd
	}
	return out
}

// Holder reports which active stream holds input port p in the writer
// role (the earliest non-draining holder), or -1.
func (d *Dispatcher) Holder(p int) int {
	for _, h := range d.inWriter[p] {
		if !h.draining {
			return h.id
		}
	}
	return -1
}

// QueueKinds lists the queued commands' kinds, oldest first (debug aid).
func (d *Dispatcher) QueueKinds() []isa.Kind {
	out := make([]isa.Kind, len(d.queue))
	for i, q := range d.queue {
		out[i] = q.cmd.Kind()
	}
	return out
}
