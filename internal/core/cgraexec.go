package core

import (
	"fmt"

	"softbrain/internal/cgra"
	"softbrain/internal/dfg"
	"softbrain/internal/engine"
	"softbrain/internal/obs"
	"softbrain/internal/port"
	"softbrain/internal/sim"
)

// pipeOut is one instance's output for one port, in flight through the
// CGRA pipeline. Data is already narrowed to the port's element size.
type pipeOut struct {
	ready uint64
	data  []byte
}

// fireIn is one mapped input port of the installed configuration: the
// machine queue an instance pops, the words it pops, and the evaluator
// input slots they land in.
type fireIn struct {
	hw    int
	q     *port.Queue
	words int
	slots []uint64
}

// fireOut is one mapped output port of the installed configuration: the
// machine queue its results drain to, the bytes one instance emits, the
// pipeline latency from firing to the port, and the instances in flight.
type fireOut struct {
	hw     int
	q      *port.Queue
	bytes  int
	arrive uint64
	pipe   []pipeOut
}

// cgraExec executes the configured DFG with dataflow firing: when every
// mapped input port holds one instance of data and every output port has
// room, the instance launches; results emerge after the schedule's
// per-port pipeline latency. Initiation interval is 1 — the fabric is
// fully pipelined (Section 4.4).
//
// Install does everything that is fixed per configuration: it compiles
// the DFG into the evaluator's slot program and resolves the port map
// into the queues, widths, sizes and latencies below. A fire then only
// pops words into the evaluator's input slots, runs the program, and
// packs each output port's slots into a recycled pipeline buffer.
type cgraExec struct {
	ports *engine.Ports

	eval *dfg.Evaluator // the installed configuration's program; nil until SD_Config

	ins        []fireIn  // per DFG input port
	outs       []fireOut // per DFG output port
	opsPerInst uint64    // the DFG's scalar operations per instance
	outRes     []int     // reserved bytes per machine output port

	// free holds drained pipeOut data buffers (Queue.Push copies, so a
	// delivered buffer is immediately reusable).
	free [][]byte

	// cfgGen is raised by every configuration install: the wake signal
	// that lets a sleeping unconfigured fabric notice an SD_Config
	// completing. An install also changes the mapped ports, so it marks
	// the watch set stale.
	cfgGen sim.Signal
	stale  sim.Stale

	// Statistics.
	Instances uint64
	FUOps     uint64
	Drained   uint64 // bytes pushed to output ports from the pipeline
}

func newCGRAExec(ports *engine.Ports) *cgraExec {
	return &cgraExec{ports: ports, outRes: make([]int, len(ports.Out))}
}

// Install switches to a new configuration. Accumulator state clears, as
// reconfiguration does on hardware.
func (x *cgraExec) Install(s *cgra.Schedule) error {
	ev, err := dfg.NewEvaluator(s.Graph)
	if err != nil {
		return err
	}
	for _, o := range x.outs {
		if len(o.pipe) > 0 {
			return fmt.Errorf("core: reconfiguring with %d instances in flight", len(o.pipe))
		}
	}
	g := s.Graph
	x.eval = ev
	x.ins = x.ins[:0]
	for p, in := range g.Ins {
		hw := s.InPortMap[p]
		x.ins = append(x.ins, fireIn{hw: hw, q: x.ports.In[hw], words: in.Width, slots: ev.In(p)})
	}
	x.outs = x.outs[:0]
	for p, out := range g.Outs {
		hw := s.OutPortMap[p]
		x.outs = append(x.outs, fireOut{hw: hw, q: x.ports.Out[hw],
			bytes: out.BytesPerInstance(), arrive: uint64(s.OutArrive[p])})
	}
	x.opsPerInst = uint64(g.OpsPerInstance())
	x.cfgGen.Raise()
	x.stale.Mark()
	return nil
}

// Configured reports whether a DFG is loaded.
func (x *cgraExec) Configured() bool { return x.eval != nil }

// InFlight is the number of buffered pipeline outputs not yet delivered.
func (x *cgraExec) InFlight() int {
	n := 0
	for _, o := range x.outs {
		n += len(o.pipe)
	}
	return n
}

// PendingTimed reports whether any fired instance is still inside the
// pipeline latency at cycle now (its output will emerge without further
// input, so the machine is not quiescent).
func (x *cgraExec) PendingTimed(now uint64) bool {
	for _, o := range x.outs {
		for _, f := range o.pipe {
			if f.ready > now {
				return true
			}
		}
	}
	return false
}

// Watch appends the signals the fabric's wake hint depends on (see
// sim.Component.Watch): the configuration signal and every mapped
// port's signal. The port map changes only in Install, which raises
// cfgGen and marks the set stale.
func (x *cgraExec) Watch(dst []*sim.Signal) []*sim.Signal {
	dst = append(dst, &x.cfgGen)
	for i := range x.ins {
		dst = append(dst, x.ins[i].q.Moved())
	}
	for i := range x.outs {
		dst = append(dst, x.outs[i].q.Moved())
	}
	return dst
}

// NextWake implements the sim.Component wake-hint contract (see
// docs/SIMKERNEL.md): Ready when an output can drain or an instance can
// fire, the earliest pipeline-emergence cycle when results are in
// flight, Idle when the fabric waits on port data or space.
func (x *cgraExec) NextWake(now uint64) sim.Hint {
	if x.eval == nil {
		return sim.Idle()
	}
	h := sim.Idle()
	for i := range x.outs {
		if pipe := x.outs[i].pipe; len(pipe) > 0 {
			if r := pipe[0].ready; r > now {
				h = h.Earliest(sim.WakeAt(r))
			} else {
				return sim.ReadyNow() // drainable output
			}
		}
	}
	if x.canFire() {
		return sim.ReadyNow() // can fire an instance
	}
	return h
}

// starved reports whether some mapped input port lacks a full instance
// of data.
func (x *cgraExec) starved() bool {
	for i := range x.ins {
		if !x.ins[i].q.HasWords(x.ins[i].words) {
			return true
		}
	}
	return false
}

// blocked reports whether some mapped output port lacks space, net of
// in-flight reservations, for one instance's results.
func (x *cgraExec) blocked() bool {
	for i := range x.outs {
		o := &x.outs[i]
		if o.q.Space()-x.outRes[o.hw] < o.bytes {
			return true
		}
	}
	return false
}

// canFire reports whether a full instance of input data and output
// space is available.
func (x *cgraExec) canFire() bool { return !x.starved() && !x.blocked() }

// StallCause classifies the fabric's state on a cycle it neither fired
// nor drained (see engine.MSE.StallCause for the contract). Results in
// flight through the pipeline latency count as Busy; otherwise blocked
// outputs outrank starved inputs.
func (x *cgraExec) StallCause(uint64) obs.Cause {
	if x.eval == nil {
		return obs.CauseIdle
	}
	for i := range x.outs {
		if len(x.outs[i].pipe) > 0 {
			return obs.Busy // instance results inside the pipeline latency
		}
	}
	switch {
	case x.blocked():
		return obs.PortFull
	case x.starved():
		return obs.PortEmpty
	}
	return obs.CauseIdle
}

// blockers reports, for hang diagnosis, why the fabric cannot fire: the
// machine input ports lacking a full instance of data and the machine
// output ports lacking space. Both empty means the fabric could fire (or
// is unconfigured).
func (x *cgraExec) blockers() (starvedIn, blockedOut []int) {
	for _, in := range x.ins {
		if !in.q.HasWords(in.words) {
			starvedIn = append(starvedIn, in.hw)
		}
	}
	for _, o := range x.outs {
		if o.q.Space()-x.outRes[o.hw] < o.bytes {
			blockedOut = append(blockedOut, o.hw)
		}
	}
	return starvedIn, blockedOut
}

// mappedIn / mappedOut report whether a machine port is bound to the
// active configuration.
func (x *cgraExec) mappedIn(hw int) bool {
	for _, in := range x.ins {
		if in.hw == hw {
			return true
		}
	}
	return false
}

func (x *cgraExec) mappedOut(hw int) bool {
	for _, o := range x.outs {
		if o.hw == hw {
			return true
		}
	}
	return false
}

// Name, Progress and Work make the fabric a kernel component and an
// attributed one: Progress counts fired instances, Work also drained
// result bytes.
func (x *cgraExec) Name() string     { return "cgra" }
func (x *cgraExec) Progress() uint64 { return x.Instances }
func (x *cgraExec) Work() uint64     { return x.Instances + x.Drained }

// Tick delivers finished outputs and fires at most one new instance.
func (x *cgraExec) Tick(now uint64) error {
	if x.eval == nil {
		return nil
	}
	// Drain pipeline outputs whose latency has elapsed, in order.
	for i := range x.outs {
		o := &x.outs[i]
		for len(o.pipe) > 0 && o.pipe[0].ready <= now {
			out := o.pipe[0]
			n := copy(o.pipe, o.pipe[1:]) // pop-front in place: keeps capacity
			o.pipe = o.pipe[:n]
			o.q.Push(out.data)
			x.outRes[o.hw] -= len(out.data)
			x.Drained += uint64(len(out.data))
			x.free = append(x.free, out.data[:0]) // Push copied; recycle
		}
	}

	// Dataflow firing: one instance worth of data on every input port,
	// and space (net of in-flight reservations) on every output port.
	if !x.canFire() {
		return nil
	}
	for i := range x.ins {
		in := &x.ins[i]
		in.q.PopWordsInto(in.slots, in.words) // fills the slots in place
	}
	x.eval.Fire()
	for p := range x.outs {
		o := &x.outs[p]
		var data []byte
		if n := len(x.free); n > 0 {
			data, x.free = x.free[n-1], x.free[:n-1]
		} else {
			data = make([]byte, 0, o.bytes)
		}
		data = x.eval.AppendOut(data, p)
		o.pipe = append(o.pipe, pipeOut{ready: now + o.arrive, data: data})
		x.outRes[o.hw] += len(data)
	}
	x.Instances++
	x.FUOps += x.opsPerInst
	return nil
}
