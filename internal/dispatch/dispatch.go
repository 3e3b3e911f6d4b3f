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

// resources lists the scoreboard entries a command needs: every command
// touches at most one port per role, -1 when it has none. A port may be
// held in the writer role (a stream producing into it) and the reader
// role (a stream consuming from it) by different streams simultaneously —
// that is how index streams feed indirect streams concurrently.
type resources struct {
	engine    engineKind
	kind      isa.Kind // cmd.Kind(), read once when classified
	inWriter  int      // input port written
	inReader  int      // input (indirect) port consumed
	outReader int      // output port consumed
}

// classify derives the resource needs of a command.
func classify(cmd isa.Command) (resources, error) {
	r := resources{kind: cmd.Kind()}
	var err error
	r.inWriter, r.inReader, r.outReader, err = CommandPorts(cmd)
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

// CommandPorts names the vector ports cmd touches, -1 for a role it does
// not have: the input port it writes, the input port it consumes for
// indirect indices, and the output port it reads. The core's hang
// diagnosis uses it to find the future supplier of a starved port among
// queued and unfetched commands.
func CommandPorts(cmd isa.Command) (inWriter, inReader, outReader int, err error) {
	inWriter, inReader, outReader = -1, -1, -1
	switch c := cmd.(type) {
	case isa.Config, isa.MemScratch,
		isa.BarrierScratchRd, isa.BarrierScratchWr, isa.BarrierAll:
	case isa.MemPort:
		inWriter = int(c.Dst)
	case isa.IndPortPort:
		inWriter = int(c.Dst)
		inReader = int(c.Idx)
	case isa.ScratchPort:
		inWriter = int(c.Dst)
	case isa.ConstPort:
		inWriter = int(c.Dst)
	case isa.PortPort:
		inWriter = int(c.Dst)
		outReader = int(c.Src)
	case isa.CleanPort:
		outReader = int(c.Src)
	case isa.PortScratch:
		outReader = int(c.Src)
	case isa.PortMem:
		outReader = int(c.Src)
	case isa.IndPortMem:
		inReader = int(c.Idx)
		outReader = int(c.Src)
	default:
		err = fmt.Errorf("dispatch: unknown command %v", cmd)
	}
	return inWriter, inReader, outReader, err
}

// holder is one stream occupying a scoreboard entry. A draining holder
// has all its memory requests in flight (the "all-requests-in-flight"
// state); its port may be re-issued to a successor memory stream, whose
// data the MSE delivers strictly after the drainer's.
type holder struct {
	id       int
	draining bool
}

// activeStream is one issued stream holding scoreboard entries.
type activeStream struct {
	id  int
	res resources
	at  uint64 // issue cycle, for the latency histogram
}

// Dispatcher owns the command queue and the scoreboards.
type Dispatcher struct {
	mse *engine.MSE
	sse *engine.SSE
	rse *engine.RSE

	numIn, numOut int
	queueDepth    int
	queue         []queued
	barrierAlls   int // queued SD_Barrier_All commands, for BlocksCore
	now           uint64

	// Scoreboards, indexed by port. Stream ids start at 1, so a free
	// reader entry reads 0. active is the issued streams, a table small
	// enough to scan.
	inWriter  [][]holder // holding streams per input port (youngest last)
	inReader  []int
	outReader []int
	active    []activeStream
	nextID    int

	configActive bool
	configID     int

	// InOrderIssue restricts dispatch to the queue head (disables the
	// dispatch window); an ablation switch.
	InOrderIssue bool

	// Life, when set, records stream lifetimes (traced runs).
	Life *obs.Lifetimes

	// Lat, when set, observes each stream's issue-to-retire latency in
	// cycles.
	Lat *obs.Histogram

	// Statistics.
	Issued        uint64
	BarrierCycles uint64 // cycles a barrier held the queue head
	ResourceStall uint64 // cycles the head command waited on resources

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

	// Wake signals (see sim.Signal). EnqSeq is raised by every accepted
	// enqueue — the dispatcher watches it so a command arriving from
	// the core wakes a sleeping dispatcher. Dequeued is raised by every
	// command leaving the queue (an issue or a barrier pop) — the
	// control core watches it, since BlocksCore (a full queue, or an
	// SD_Barrier_All queued) can only clear when the queue shrinks.
	EnqSeq   sim.Signal
	Dequeued sim.Signal

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
		queue:     make([]queued, 0, queueDepth),
		inWriter:  make([][]holder, numIn),
		inReader:  make([]int, numIn),
		outReader: make([]int, numOut),
		nextID:    1,
		touchIn:   make([]uint64, numIn),
		touchOut:  make([]uint64, numOut),
	}
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
	for _, p := range [...]int{r.inWriter, r.inReader} {
		if p >= d.numIn {
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
			d.drainKind[pos] = r.kind
		}
	}
	if r.kind == isa.KindBarrierAll {
		d.barrierAlls++
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

// ResetProfile clears the per-run barrier-drain profile, for a
// dispatcher starting a new run.
func (d *Dispatcher) ResetProfile() {
	d.drainByPos, d.drainKind = nil, nil
}

// BlocksCore reports whether the core must stall: the queue is full or
// an SD_Barrier_All is pending.
func (d *Dispatcher) BlocksCore() bool { return !d.CanEnqueue() || d.barrierAlls > 0 }

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
		if r.kind == isa.KindConfig {
			// Reconfiguration serializes: it issues only once the fabric
			// is idle, and nothing younger may start before it finishes.
			if i == 0 && len(d.active) == 0 {
				id := d.nextID
				d.nextID++
				if err := d.start(id, cmd, r.engine); err != nil {
					return err
				}
				d.active = append(d.active, activeStream{id: id, res: r, at: now})
				d.configActive = true
				d.configID = id
				if d.Life != nil {
					d.Life.Issued(id, cmd.String(), q.at, now)
				}
				d.dequeue(0)
				d.Issued++
				d.tickProgress = true
				d.Dequeued.Raise()
			} else if i == 0 {
				d.ResourceStall++
				d.repeatResource = true
			}
			return nil
		}
		if r.engine == engBarrier {
			if i == 0 && d.barrierMet(r.kind) {
				d.dequeue(0)
				d.tickProgress = true
				d.Dequeued.Raise()
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
		for _, p := range [...]int{r.inWriter, r.inReader} {
			if p < 0 {
				continue
			}
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
				d.repeatResource = true
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
		if p := r.inWriter; p >= 0 {
			d.inWriter[p] = append(d.inWriter[p], holder{id: id})
		}
		if p := r.inReader; p >= 0 {
			d.inReader[p] = id
		}
		if r.outReader >= 0 {
			d.outReader[r.outReader] = id
		}
		d.active = append(d.active, activeStream{id: id, res: r, at: now})
		if d.Life != nil {
			d.Life.Issued(id, cmd.String(), q.at, now)
		}
		d.dequeue(i)
		d.Issued++
		d.tickProgress = true
		d.Dequeued.Raise()
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
	}
}

// queued is one command waiting in the dispatch window.
type queued struct {
	cmd isa.Command
	res resources // classified once at enqueue
	at  uint64    // enqueue cycle
	pos int       // trace position, -1 when unknown
}

// dequeue removes queue entry i in place, keeping the window's storage.
func (d *Dispatcher) dequeue(i int) {
	if d.queue[i].res.kind == isa.KindBarrierAll {
		d.barrierAlls--
	}
	d.queue = append(d.queue[:i], d.queue[i+1:]...)
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
	if p := r.inWriter; p >= 0 {
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
	if r.inReader >= 0 && d.inReader[r.inReader] != 0 {
		return false
	}
	return r.outReader < 0 || d.outReader[r.outReader] == 0
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
	d.free(d.mse.Done(), now)
	d.free(d.sse.Done(), now)
	d.free(d.rse.Done(), now)

	// All-requests-in-flight: mark destination ports takeover-ready and
	// release indirect-port reader holds (indices fully consumed).
	for _, id := range d.mse.Drained() {
		i := d.activeIndex(id)
		if i < 0 {
			continue
		}
		r := d.active[i].res
		d.tickProgress = true
		if p := r.inWriter; p >= 0 {
			for j := range d.inWriter[p] {
				if d.inWriter[p][j].id == id {
					d.inWriter[p][j].draining = true
				}
			}
		}
		if p := r.inReader; p >= 0 && d.inReader[p] == id {
			d.inReader[p] = 0
		}
	}
}

// free releases the scoreboard entries of the completed streams ids.
func (d *Dispatcher) free(ids []int, now uint64) {
	for _, id := range ids {
		if d.Life != nil {
			d.Life.Completed(id, now)
		}
		i := d.activeIndex(id)
		if i < 0 {
			continue
		}
		a := d.active[i]
		if d.Lat != nil {
			d.Lat.Observe(now - a.at)
		}
		d.tickProgress = true
		r := a.res
		if p := r.inWriter; p >= 0 {
			hs := d.inWriter[p][:0]
			for _, h := range d.inWriter[p] {
				if h.id != id {
					hs = append(hs, h)
				}
			}
			d.inWriter[p] = hs
		}
		if p := r.inReader; p >= 0 && d.inReader[p] == id {
			d.inReader[p] = 0
		}
		if p := r.outReader; p >= 0 && d.outReader[p] == id {
			d.outReader[p] = 0
		}
		if d.configActive && id == d.configID {
			d.configActive = false
		}
		d.active = append(d.active[:i], d.active[i+1:]...)
	}
}

// activeIndex is the position of stream id in the active table, or -1.
func (d *Dispatcher) activeIndex(id int) int {
	for i := range d.active {
		if d.active[i].id == id {
			return i
		}
	}
	return -1
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
