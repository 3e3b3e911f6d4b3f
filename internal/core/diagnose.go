package core

import (
	"errors"
	"fmt"
	"strings"

	"softbrain/internal/dispatch"
	"softbrain/internal/engine"
	"softbrain/internal/isa"
)

// DeadlockError reports a simulation that stopped making progress —
// the situation Section 4.5 discusses — with a structured diagnosis
// from the wait-for analysis: what class of hang, which stream and
// port are the culprits, and the chain of waits that leads there.
type DeadlockError struct {
	Cycle  uint64
	Class  HangClass
	Stream string   // culprit stream ("MemPort#3"), or the requester
	Port   string   // culprit port ("in2", "out0")
	Unit   int      // cluster unit index; 0 in a one-unit cluster
	Detail string   // one-sentence explanation
	Chain  []string // the wait chain from requester to root cause
	State  string   // machine snapshot at diagnosis
}

func (e *DeadlockError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "core: deadlock at cycle %d: %s", e.Cycle, e.Class)
	if e.Stream != "" {
		fmt.Fprintf(&b, " (stream %s", e.Stream)
		if e.Port != "" {
			fmt.Fprintf(&b, ", port %s", e.Port)
		}
		b.WriteString(")")
	} else if e.Port != "" {
		fmt.Fprintf(&b, " (port %s)", e.Port)
	}
	fmt.Fprintf(&b, "\n  %s\n", e.Detail)
	b.WriteString(renderChain(e.Chain))
	b.WriteString(e.State)
	return b.String()
}

// quiesceGrace is how many progress-free cycles the machine waits
// before testing for quiescence. A machine with no timed state (no
// in-flight memory response, pipeline instance, core delay or fault
// stall) that has made no progress for this long is provably stuck:
// every remaining state transition is untimed and gated on another
// component, so the wait-for analysis runs and the run ends — tens of
// cycles after the hang instead of the watchdog's tens of thousands.
const quiesceGrace = 64

// HangClass classifies a diagnosed deadlock.
type HangClass uint8

const (
	// HangUnknown: the machine is stuck but the wait-for analysis could
	// not name a structural cause.
	HangUnknown HangClass = iota
	// HangWatchdog: the coarse no-progress watchdog fired without a
	// quiescent state (some timed event kept being scheduled); the
	// machine was live-locked or impossibly slow rather than quiescent.
	HangWatchdog
	// HangPortUndersupply: a consumer waits on a port no live, queued,
	// or future stream supplies (the unbalanced-counts hazard).
	HangPortUndersupply
	// HangPortOversupply: data sits in a port nothing consumes, wedging
	// its suppliers (unmapped port, or a partial instance filling it).
	HangPortOversupply
	// HangStarvedRecurrence: a recurrence (SD_Port_Port) cycle holds
	// fewer elements than the fabric needs to fire — Section 4.5's
	// deadlock example.
	HangStarvedRecurrence
	// HangDrainedUnread: a fabric output was produced but no stream
	// ever reads it, blocking the pipeline behind it.
	HangDrainedUnread
	// HangBarrierDeadlock: the supply a stuck stream needs sits behind
	// a barrier that cannot complete — mis-placed barrier ordering.
	HangBarrierDeadlock
)

func (c HangClass) String() string {
	switch c {
	case HangUnknown:
		return "unknown"
	case HangWatchdog:
		return "watchdog"
	case HangPortUndersupply:
		return "port-undersupply"
	case HangPortOversupply:
		return "port-oversupply"
	case HangStarvedRecurrence:
		return "starved-recurrence"
	case HangDrainedUnread:
		return "drained-unread-output"
	case HangBarrierDeadlock:
		return "barrier-deadlock"
	}
	return fmt.Sprintf("HangClass(%d)", uint8(c))
}

// MachineError is a run that died on an internal error: an invariant
// panic recovered at the Run boundary, or a component-level failure
// surfaced mid-step. It carries enough context (cycle, component,
// machine state) to diagnose without a host-process crash.
type MachineError struct {
	Cycle     uint64
	Component string // "port", "ports", "padbuf", "cgra", "mse", ...
	Unit      int    // cluster unit index; 0 in a one-unit cluster
	State     string // machine snapshot at failure
	Err       error  // underlying error, if the failure was an error
	Panic     any    // recovered panic value, if the failure was a panic
}

func (e *MachineError) Error() string {
	cause := e.Err
	if cause == nil && e.Panic != nil {
		cause = fmt.Errorf("panic: %v", e.Panic)
	}
	msg := fmt.Sprintf("core: %s failed at cycle %d (unit %d): %v", e.Component, e.Cycle, e.Unit, cause)
	if e.State != "" {
		msg += "\n" + e.State
	}
	return msg
}

// Unwrap exposes the underlying error to errors.Is/As.
func (e *MachineError) Unwrap() error { return e.Err }

// recoverPanic converts a recovered panic value into a MachineError.
// Typed invariants (port.Invariant, engine.Invariant) name their
// component; anything else is attributed to the machine.
func (m *Machine) recoverPanic(r any, now uint64) *MachineError {
	me := &MachineError{Cycle: now, Component: "machine", Panic: r}
	if c, ok := r.(interface{ Component() string }); ok {
		me.Component = c.Component()
	}
	if err, ok := r.(error); ok {
		me.Err = err
	}
	me.State = m.snapshot()
	return me
}

// stepError wraps a component Tick error with cycle and state context.
func (m *Machine) stepError(component string, now uint64, err error) error {
	var me *MachineError
	var de *DeadlockError
	if errors.As(err, &me) || errors.As(err, &de) {
		return err // already structured
	}
	return &MachineError{Cycle: now, Component: component, Err: err, State: m.snapshot()}
}

// quiescent reports whether no component holds timed state resolving
// after now: nothing will happen in this machine without new input.
func (m *Machine) quiescent(now uint64) bool {
	if now < m.busyUntil {
		return false
	}
	if m.Sys.PendingTimed(now) || m.mse.PendingTimed(now) ||
		m.sse.PendingTimed(now) || m.exec.PendingTimed(now) {
		return false
	}
	if m.faults != nil && m.faults.PendingTimed(now) {
		return false
	}
	return true
}

// finding is one classified root cause inside the wait-for analysis.
type finding struct {
	class  HangClass
	stream string
	port   string
	detail string
}

var unknownFinding = finding{class: HangUnknown}

// diagnoser walks the machine's wait-for graph: dispatcher scoreboard
// and queue → vector ports → streams → fabric firing condition. Each
// step follows the single most-specific blocker, accumulating the wait
// chain; leaves and cycles classify the hang.
type diagnoser struct {
	m       *Machine
	now     uint64
	streams []engine.StreamInfo

	chain     []string
	visited   map[string]bool
	requester string // who first demanded progress ("CGRA", a stream, "core")
	recStream string // recurrence stream seen on the path, if any
	recPort   string
	barrier   string // barrier kind seen on the path, if any
	lastPort  string // most recent port on the path
}

// diagnose runs the wait-for analysis and always returns a structured
// DeadlockError (class HangUnknown when no structural cause was found).
func (m *Machine) diagnose(now uint64) *DeadlockError {
	streams := append(m.mse.Streams(now), m.sse.Streams(now)...)
	streams = append(streams, m.rse.Streams(now)...)
	d := &diagnoser{m: m, now: now, streams: streams}
	f := d.root()
	de := &DeadlockError{
		Cycle:  now,
		Class:  f.class,
		Stream: f.stream,
		Port:   f.port,
		Detail: f.detail,
		Chain:  d.chain,
		State:  m.snapshot(),
	}
	if de.Detail == "" {
		de.Detail = "no structural cause identified"
	}
	return de
}

// root tries each entry point of the wait-for graph until one yields a
// classification: stuck streams first (most specific), then the
// dispatch queue, then the blocked control core.
func (d *diagnoser) root() finding {
	attempt := func(requester string, f func() finding) finding {
		d.chain = nil
		d.visited = map[string]bool{}
		d.requester = requester
		d.recStream, d.recPort, d.barrier, d.lastPort = "", "", "", ""
		return f()
	}
	for _, s := range d.streams {
		s := s
		if stuckWait(s.Wait) {
			if f := attempt(s.Name(), func() finding { return d.whyStream(s) }); f.class != HangUnknown {
				return f
			}
		}
	}
	if q := d.m.disp.Queue(); len(q) > 0 {
		if f := attempt(fmt.Sprintf("queued %v", q[0].Kind()), func() finding { return d.whyQueued(0) }); f.class != HangUnknown {
			return f
		}
	}
	if d.m.prog != nil && d.m.pc < len(d.m.prog.Trace) {
		if f := attempt("core", func() finding { return d.whyCoreBlocked() }); f.class != HangUnknown {
			return f
		}
	}
	d.chain = nil
	return unknownFinding
}

// stuckWait reports whether a wait state is structural (as opposed to
// progressing now or at a known future time).
func stuckWait(w engine.Wait) bool {
	switch w {
	case engine.WaitInSpace, engine.WaitOutData, engine.WaitIndex:
		return true
	}
	return false
}

func (d *diagnoser) push(step string) { d.chain = append(d.chain, step) }

// enter marks a node visited; a revisit means the wait-for graph has a
// cycle, which classifies immediately.
func (d *diagnoser) enter(key string) (finding, bool) {
	if d.visited[key] {
		return d.cycleFinding(), true
	}
	d.visited[key] = true
	return finding{}, false
}

// cycleFinding classifies a circular wait by what the path traversed:
// a recurrence stream makes it the Section 4.5 starved recurrence, a
// barrier makes it a barrier ordering deadlock, anything else is data
// wedged in a port (over-supply).
func (d *diagnoser) cycleFinding() finding {
	switch {
	case d.recStream != "":
		return finding{
			class:  HangStarvedRecurrence,
			stream: d.recStream,
			port:   d.recPort,
			detail: fmt.Sprintf("recurrence %s cycles through the fabric but holds fewer elements than an instance needs to fire", d.recStream),
		}
	case d.barrier != "":
		return finding{
			class:  HangBarrierDeadlock,
			stream: d.barrier,
			port:   d.lastPort,
			detail: fmt.Sprintf("the supply for %s sits behind a pending %s that cannot complete", d.lastPort, d.barrier),
		}
	default:
		return finding{
			class:  HangPortOversupply,
			stream: d.requester,
			port:   d.lastPort,
			detail: fmt.Sprintf("circular wait through %s: buffered data cannot drain and new data cannot arrive", d.lastPort),
		}
	}
}

// whyStream follows one stuck stream to its blocker.
func (d *diagnoser) whyStream(s engine.StreamInfo) finding {
	if f, cycled := d.enter(fmt.Sprintf("stream:%d", s.ID)); cycled {
		return f
	}
	if s.Kind == isa.KindPortPort && d.recStream == "" {
		d.recStream = s.Name()
		d.recPort = portName(true, s.DstIn)
	}
	switch s.Wait {
	case engine.WaitInSpace:
		d.push(fmt.Sprintf("%s waits for space in %s", s.Name(), portName(true, s.DstIn)))
		return d.whyInPortFull(s.DstIn)
	case engine.WaitOutData:
		d.push(fmt.Sprintf("%s waits for data on %s", s.Name(), portName(false, s.SrcOut)))
		return d.whyOutPortEmpty(s.SrcOut)
	case engine.WaitIndex:
		d.push(fmt.Sprintf("%s waits for indices on %s", s.Name(), portName(true, s.IdxIn)))
		return d.whyInPortEmpty(s.IdxIn)
	default:
		return unknownFinding
	}
}

func portName(in bool, i int) string {
	if in {
		return fmt.Sprintf("in%d", i)
	}
	return fmt.Sprintf("out%d", i)
}

// whyInPortEmpty explains a demand for data on input port p.
func (d *diagnoser) whyInPortEmpty(p int) finding {
	if f, cycled := d.enter(fmt.Sprintf("in-data:%d", p)); cycled {
		return f
	}
	d.lastPort = portName(true, p)
	for _, s := range d.streams {
		if s.DstIn == p {
			return d.whyStream(s)
		}
	}
	for i, cmd := range d.m.disp.Queue() {
		if writesInPort(cmd, p) {
			d.push(fmt.Sprintf("supply for in%d (%v) is queued, unissued", p, cmd.Kind()))
			return d.whyQueued(i)
		}
	}
	for i := d.m.pc; i < len(d.m.prog.Trace); i++ {
		cmd := d.m.prog.Trace[i].Cmd
		if cmd != nil && writesInPort(cmd, p) {
			d.push(fmt.Sprintf("supply for in%d (%v) is at trace[%d], not yet fetched", p, cmd.Kind(), i))
			return d.whyCoreBlocked()
		}
	}
	return finding{
		class:  HangPortUndersupply,
		stream: d.requester,
		port:   portName(true, p),
		detail: fmt.Sprintf("input port in%d is starved: no live, queued, or future stream supplies it", p),
	}
}

// whyInPortFull explains a demand for space on input port p.
func (d *diagnoser) whyInPortFull(p int) finding {
	if f, cycled := d.enter(fmt.Sprintf("in-space:%d", p)); cycled {
		return f
	}
	d.lastPort = portName(true, p)
	if d.m.exec.Configured() && d.m.exec.mappedIn(p) {
		d.push(fmt.Sprintf("in%d is full and the fabric is not consuming it", p))
		return d.whyCGRA()
	}
	for _, s := range d.streams {
		if s.IdxIn == p {
			return d.whyStream(s)
		}
	}
	detail := fmt.Sprintf("data delivered to in%d is never consumed: the port is not mapped by the active configuration and no indirect stream reads it", p)
	if !d.m.exec.Configured() {
		detail = fmt.Sprintf("data delivered to in%d is never consumed: no configuration is active", p)
	}
	return finding{
		class:  HangPortOversupply,
		stream: d.requester,
		port:   portName(true, p),
		detail: detail,
	}
}

// whyOutPortEmpty explains a demand for data on output port o.
func (d *diagnoser) whyOutPortEmpty(o int) finding {
	if f, cycled := d.enter(fmt.Sprintf("out-data:%d", o)); cycled {
		return f
	}
	d.lastPort = portName(false, o)
	if d.m.exec.Configured() && d.m.exec.mappedOut(o) {
		d.push(fmt.Sprintf("out%d awaits a fabric instance", o))
		return d.whyCGRA()
	}
	detail := fmt.Sprintf("output port out%d is never produced: the active configuration does not map it", o)
	if !d.m.exec.Configured() {
		detail = fmt.Sprintf("output port out%d is never produced: no configuration is active", o)
	}
	return finding{
		class:  HangPortUndersupply,
		stream: d.requester,
		port:   portName(false, o),
		detail: detail,
	}
}

// whyOutPortFull explains a demand for space on output port o.
func (d *diagnoser) whyOutPortFull(o int) finding {
	if f, cycled := d.enter(fmt.Sprintf("out-space:%d", o)); cycled {
		return f
	}
	d.lastPort = portName(false, o)
	for _, s := range d.streams {
		if s.SrcOut == o {
			return d.whyStream(s)
		}
	}
	for i, cmd := range d.m.disp.Queue() {
		if readsOutPort(cmd, o) {
			d.push(fmt.Sprintf("the reader of out%d (%v) is queued, unissued", o, cmd.Kind()))
			return d.whyQueued(i)
		}
	}
	for i := d.m.pc; i < len(d.m.prog.Trace); i++ {
		cmd := d.m.prog.Trace[i].Cmd
		if cmd != nil && readsOutPort(cmd, o) {
			d.push(fmt.Sprintf("the reader of out%d (%v) is at trace[%d], not yet fetched", o, cmd.Kind(), i))
			return d.whyCoreBlocked()
		}
	}
	return finding{
		class:  HangDrainedUnread,
		stream: d.requester,
		port:   portName(false, o),
		detail: fmt.Sprintf("out%d holds %d bytes no live, queued, or future stream will ever read", o, d.m.Ports.Out[o].Len()),
	}
}

// whyCGRA explains why the fabric is not firing.
func (d *diagnoser) whyCGRA() finding {
	if f, cycled := d.enter("cgra"); cycled {
		return f
	}
	starved, blocked := d.m.exec.blockers()
	if len(starved) > 0 {
		d.push(fmt.Sprintf("fabric cannot fire: in%d lacks a full instance", starved[0]))
		return d.whyInPortEmpty(starved[0])
	}
	if len(blocked) > 0 {
		d.push(fmt.Sprintf("fabric cannot fire: out%d has no space", blocked[0]))
		return d.whyOutPortFull(blocked[0])
	}
	return unknownFinding // fabric can fire: the stall is transient
}

// whyQueued explains why the dispatch-queue entry at index i has not
// issued: a barrier ahead of it, or a scoreboard held by a live stream.
func (d *diagnoser) whyQueued(i int) finding {
	if f, cycled := d.enter(fmt.Sprintf("queue:%d", i)); cycled {
		return f
	}
	q := d.m.disp.Queue()
	cmd := q[i]
	for j := 0; j < i; j++ {
		if isBarrier(q[j].Kind()) {
			d.push(fmt.Sprintf("%v is queued behind %v", cmd.Kind(), q[j].Kind()))
			return d.whyBarrier(q[j].Kind())
		}
	}
	if isBarrier(cmd.Kind()) {
		d.push(fmt.Sprintf("%v holds the queue head, unmet", cmd.Kind()))
		return d.whyBarrier(cmd.Kind())
	}
	inW, inR, outR, err := dispatch.CommandPorts(cmd)
	if err != nil {
		return unknownFinding
	}
	if inW >= 0 {
		if id := d.m.disp.Holder(inW); id >= 0 {
			if s, ok := d.streamByID(id); ok {
				d.push(fmt.Sprintf("%v waits for %s to release in%d", cmd.Kind(), s.Name(), inW))
				return d.whyStream(s)
			}
		}
	}
	if inR >= 0 {
		for _, s := range d.streams {
			if s.IdxIn == inR {
				d.push(fmt.Sprintf("%v waits for %s to release indices on in%d", cmd.Kind(), s.Name(), inR))
				return d.whyStream(s)
			}
		}
	}
	if outR >= 0 {
		for _, s := range d.streams {
			if s.SrcOut == outR {
				d.push(fmt.Sprintf("%v waits for %s to release out%d", cmd.Kind(), s.Name(), outR))
				return d.whyStream(s)
			}
		}
	}
	// Engine stream table full: follow any stuck stream of that engine.
	for _, s := range d.streams {
		if stuckWait(s.Wait) {
			d.push(fmt.Sprintf("%v waits for a stream-table slot held by %s", cmd.Kind(), s.Name()))
			return d.whyStream(s)
		}
	}
	return unknownFinding
}

// whyBarrier explains why a pending barrier has not completed: some
// stream it waits on is stuck.
func (d *diagnoser) whyBarrier(kind isa.Kind) finding {
	if f, cycled := d.enter("barrier:" + kind.String()); cycled {
		return f
	}
	if d.barrier == "" {
		d.barrier = kind.String()
	}
	for _, s := range d.streams {
		if !barrierWaitsOn(kind, s) || !stuckWait(s.Wait) {
			continue
		}
		d.push(fmt.Sprintf("%v waits for %s to complete", kind, s.Name()))
		return d.whyStream(s)
	}
	return unknownFinding // every blocking stream can progress: transient
}

// barrierWaitsOn reports whether barrier kind waits for stream s.
func barrierWaitsOn(kind isa.Kind, s engine.StreamInfo) bool {
	switch kind {
	case isa.KindBarrierAll:
		return true
	case isa.KindBarrierScratchRd:
		return s.Kind == isa.KindScratchPort
	case isa.KindBarrierScratchWr:
		return s.Kind == isa.KindPortScratch || s.Kind == isa.KindMemScratch
	}
	return false
}

// whyCoreBlocked explains why the control core cannot fetch the next
// trace command. Re-entering here means the demanded supply sits in the
// unfetched trace behind the very barrier the path traversed — the
// barrier ordering deadlock.
func (d *diagnoser) whyCoreBlocked() finding {
	if d.visited["core"] {
		return finding{
			class:  HangBarrierDeadlock,
			stream: d.barrier,
			port:   d.lastPort,
			detail: fmt.Sprintf("the supply for %s is in the unfetched trace behind a pending %s", d.lastPort, orUnknown(d.barrier)),
		}
	}
	d.visited["core"] = true
	q := d.m.disp.Queue()
	for i, cmd := range q {
		if isBarrier(cmd.Kind()) {
			d.push(fmt.Sprintf("core stalls behind %v in the dispatch queue", cmd.Kind()))
			return d.whyBarrier(cmd.Kind())
		}
		_ = i
	}
	if len(q) > 0 {
		d.push("core stalls on a full dispatch queue")
		return d.whyQueued(0)
	}
	return unknownFinding
}

func orUnknown(s string) string {
	if s == "" {
		return "barrier"
	}
	return s
}

func (d *diagnoser) streamByID(id int) (engine.StreamInfo, bool) {
	for _, s := range d.streams {
		if s.ID == id {
			return s, true
		}
	}
	return engine.StreamInfo{}, false
}

func isBarrier(k isa.Kind) bool {
	return k == isa.KindBarrierAll || k == isa.KindBarrierScratchRd || k == isa.KindBarrierScratchWr
}

func writesInPort(cmd isa.Command, p int) bool {
	inW, _, _, err := dispatch.CommandPorts(cmd)
	return err == nil && inW == p
}

func readsOutPort(cmd isa.Command, o int) bool {
	_, _, outR, err := dispatch.CommandPorts(cmd)
	return err == nil && outR == o
}

// renderChain formats the wait chain for DeadlockError.Error.
func renderChain(chain []string) string {
	if len(chain) == 0 {
		return ""
	}
	return "  wait chain:\n    " + strings.Join(chain, "\n    -> ") + "\n"
}
