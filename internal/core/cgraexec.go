package core

import (
	"encoding/binary"
	"fmt"

	"softbrain/internal/cgra"
	"softbrain/internal/dfg"
	"softbrain/internal/engine"
	"softbrain/internal/obs"
	"softbrain/internal/sim"
)

// pipeOut is one instance's output for one port, in flight through the
// CGRA pipeline. Data is already narrowed to the port's element size.
type pipeOut struct {
	ready uint64
	data  []byte
}

// cgraExec executes the configured DFG with dataflow firing: when every
// mapped input port holds one instance of data and every output port has
// room, the instance launches; results emerge after the schedule's
// per-port pipeline latency. Initiation interval is 1 — the fabric is
// fully pipelined (Section 4.4).
type cgraExec struct {
	ports *engine.Ports

	sched *cgra.Schedule
	eval  *dfg.Evaluator

	inHW, outHW []int       // DFG port index -> machine port index
	outRes      []int       // reserved bytes per machine output port
	pipe        [][]pipeOut // per DFG output port, in flight

	// Hot-path scratch: per-input-port word buffers reused across fires,
	// and a freelist of drained pipeOut data buffers (Queue.Push copies,
	// so a delivered buffer is immediately reusable).
	inBuf [][]uint64
	free  [][]byte

	// cfgGen counts configuration installs: the wake signal that lets a
	// sleeping unconfigured fabric notice an SD_Config completing.
	cfgGen sim.Signal

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
	for p := range x.pipe {
		if len(x.pipe[p]) > 0 {
			return fmt.Errorf("core: reconfiguring with %d instances in flight", len(x.pipe[p]))
		}
	}
	x.sched = s
	x.eval = ev
	x.inHW = append(x.inHW[:0], s.InPortMap...)
	x.outHW = append(x.outHW[:0], s.OutPortMap...)
	x.pipe = make([][]pipeOut, len(s.Graph.Outs))
	x.inBuf = make([][]uint64, len(s.Graph.Ins))
	x.cfgGen.Raise()
	return nil
}

// Configured reports whether a DFG is loaded.
func (x *cgraExec) Configured() bool { return x.sched != nil }

// InFlight is the number of buffered pipeline outputs not yet delivered.
func (x *cgraExec) InFlight() int {
	n := 0
	for _, q := range x.pipe {
		n += len(q)
	}
	return n
}

// PendingTimed reports whether any fired instance is still inside the
// pipeline latency at cycle now (its output will emerge without further
// input, so the machine is not quiescent).
func (x *cgraExec) PendingTimed(now uint64) bool {
	for _, q := range x.pipe {
		for _, o := range q {
			if o.ready > now {
				return true
			}
		}
	}
	return false
}

// WatchSig sums the external signals the fabric's wake hint depends on
// (see sim.Component.WatchSig): every mapped port's traffic counters
// plus the configuration generation. The port map changes only in
// Install, which raises cfgGen, so the sum stays monotone between
// snapshots.
func (x *cgraExec) WatchSig() uint64 {
	sig := x.cfgGen.Value()
	for _, hw := range x.inHW {
		q := x.ports.In[hw]
		sig += q.TotalIn() + q.TotalOut()
	}
	for _, hw := range x.outHW {
		q := x.ports.Out[hw]
		sig += q.TotalIn() + q.TotalOut()
	}
	return sig
}

// NextWake implements the sim.Component wake-hint contract (see
// docs/SIMKERNEL.md): Ready when an output can drain or an instance can
// fire, the earliest pipeline-emergence cycle when results are in
// flight, Idle when the fabric waits on port data or space.
func (x *cgraExec) NextWake(now uint64) sim.Hint {
	if x.sched == nil {
		return sim.Idle()
	}
	h := sim.Idle()
	for p := range x.pipe {
		if len(x.pipe[p]) > 0 {
			if r := x.pipe[p][0].ready; r > now {
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

// canFire reports whether a full instance of input data and output
// space is available — blockers() without the diagnostic allocation.
func (x *cgraExec) canFire() bool {
	g := x.sched.Graph
	for p, in := range g.Ins {
		if !x.ports.In[x.inHW[p]].HasWords(in.Width) {
			return false
		}
	}
	for p := range g.Outs {
		hw := x.outHW[p]
		if x.ports.Out[hw].Space()-x.outRes[hw] < g.Outs[p].BytesPerInstance() {
			return false
		}
	}
	return true
}

// StallCause classifies the fabric's state on a cycle it neither fired
// nor drained (see engine.MSE.StallCause for the contract). Results in
// flight through the pipeline latency count as Busy; otherwise blocked
// outputs outrank starved inputs.
func (x *cgraExec) StallCause(uint64) obs.Cause {
	if x.sched == nil {
		return obs.CauseIdle
	}
	for _, q := range x.pipe {
		if len(q) > 0 {
			return obs.Busy // instance results inside the pipeline latency
		}
	}
	starved, blocked := x.blockers()
	switch {
	case len(blocked) > 0:
		return obs.PortFull
	case len(starved) > 0:
		return obs.PortEmpty
	}
	return obs.CauseIdle
}

// blockers reports why the fabric cannot fire: the machine input ports
// lacking a full instance of data and the machine output ports lacking
// space. Both empty means the fabric could fire (or is unconfigured).
func (x *cgraExec) blockers() (starvedIn, blockedOut []int) {
	if x.sched == nil {
		return nil, nil
	}
	g := x.sched.Graph
	for p, in := range g.Ins {
		if !x.ports.In[x.inHW[p]].HasWords(in.Width) {
			starvedIn = append(starvedIn, x.inHW[p])
		}
	}
	for p := range g.Outs {
		hw := x.outHW[p]
		if x.ports.Out[hw].Space()-x.outRes[hw] < g.Outs[p].BytesPerInstance() {
			blockedOut = append(blockedOut, hw)
		}
	}
	return starvedIn, blockedOut
}

// mappedIn / mappedOut report whether a machine port is bound to the
// active configuration.
func (x *cgraExec) mappedIn(hw int) bool {
	for _, m := range x.inHW {
		if m == hw {
			return true
		}
	}
	return false
}

func (x *cgraExec) mappedOut(hw int) bool {
	for _, m := range x.outHW {
		if m == hw {
			return true
		}
	}
	return false
}

// Tick delivers finished outputs and fires at most one new instance.
func (x *cgraExec) Tick(now uint64) error {
	if x.sched == nil {
		return nil
	}
	// Drain pipeline outputs whose latency has elapsed, in order.
	for p := range x.pipe {
		hw := x.outHW[p]
		for len(x.pipe[p]) > 0 && x.pipe[p][0].ready <= now {
			out := x.pipe[p][0]
			n := copy(x.pipe[p], x.pipe[p][1:]) // pop-front in place: keeps capacity
			x.pipe[p] = x.pipe[p][:n]
			x.ports.Out[hw].Push(out.data)
			x.outRes[hw] -= len(out.data)
			x.Drained += uint64(len(out.data))
			x.free = append(x.free, out.data[:0]) // Push copied; recycle
		}
	}

	// Dataflow firing: one instance worth of data on every input port,
	// and space (net of in-flight reservations) on every output port.
	if !x.canFire() {
		return nil
	}
	g := x.sched.Graph
	for p, in := range g.Ins {
		x.inBuf[p] = x.ports.In[x.inHW[p]].PopWordsInto(x.inBuf[p], in.Width)
	}
	outs, err := x.eval.Eval(x.inBuf)
	if err != nil {
		return err
	}
	for p := range g.Outs {
		hw := x.outHW[p]
		elem := g.Outs[p].ElemBytes
		var data []byte
		if n := len(x.free); n > 0 {
			data, x.free = x.free[n-1], x.free[:n-1]
		} else {
			data = make([]byte, 0, g.Outs[p].BytesPerInstance())
		}
		for _, w := range outs[p] {
			var buf [8]byte
			binary.LittleEndian.PutUint64(buf[:], w)
			data = append(data, buf[:elem]...)
		}
		x.pipe[p] = append(x.pipe[p], pipeOut{
			ready: now + uint64(x.sched.OutArrive[p]),
			data:  data,
		})
		x.outRes[hw] += len(data)
	}
	x.Instances++
	x.FUOps += uint64(g.OpsPerInstance())
	return nil
}
