package core

import (
	"softbrain/internal/faults"
	"softbrain/internal/obs"
	"softbrain/internal/port"
	"softbrain/internal/sim"
)

// This file adapts the machine's units to the sim.Component interface.
// newMachine registers them with the machine's kernel in tick
// order — CGRA, MSE, SSE, RSE, dispatcher, control core — and
// Machine.Step is a thin loop over that registry. The adapters carry
// the machine-level concerns the raw units do not know about: the
// fault-injected engine stall gate, the deferred configuration error,
// and the control core's stall accounting. A Progress method is the
// counter whose move on the component's own tick dates the machine's
// progress (hang detection, Machine.tick). Each adapter, and the ports
// adapter the kernel never ticks, is also attributed (see obs.go): work
// is the counter whose moves mark a Busy cycle, stallCause classifies
// the other cycles.

// cgraComp adapts the CGRA executor.
type cgraComp struct{ m *Machine }

func (c cgraComp) Name() string                          { return "cgra" }
func (c cgraComp) Tick(now uint64) error                 { return c.m.exec.Tick(now) }
func (c cgraComp) NextWake(now uint64) sim.Hint          { return c.m.exec.NextWake(now) }
func (c cgraComp) Watch(dst []*sim.Signal) []*sim.Signal { return c.m.exec.Watch(dst) }
func (c cgraComp) Progress() uint64                      { return c.m.exec.Instances }
func (c cgraComp) work() uint64                          { return c.m.exec.Instances + c.m.exec.Drained }
func (c cgraComp) stallCause(now uint64) obs.Cause       { return c.m.exec.StallCause(now) }

// mseComp adapts the memory stream engine behind the fault-stall gate.
type mseComp struct{ m *Machine }

func (c mseComp) Name() string { return "mse" }
func (c mseComp) Tick(now uint64) error {
	if c.m.stalled(faults.EngMSE, now) {
		return nil
	}
	return c.m.mse.Tick(now)
}
func (c mseComp) NextWake(now uint64) sim.Hint          { return c.m.mse.NextWake(now) }
func (c mseComp) Watch(dst []*sim.Signal) []*sim.Signal { return c.m.mse.Watch(dst) }
func (c mseComp) OnSkip(from, to uint64)                { c.m.mse.OnSkip(from, to) }
func (c mseComp) Progress() uint64 {
	return c.m.mse.BytesDelivered + c.m.mse.BytesStored + c.m.mse.LinesWritten
}
func (c mseComp) work() uint64                    { return c.m.mse.BusyCycles }
func (c mseComp) stallCause(now uint64) obs.Cause { return c.m.mse.StallCause(now) }

// sseComp adapts the scratchpad stream engine behind the fault-stall
// gate.
type sseComp struct{ m *Machine }

func (c sseComp) Name() string { return "sse" }
func (c sseComp) Tick(now uint64) error {
	if c.m.stalled(faults.EngSSE, now) {
		return nil
	}
	return c.m.sse.Tick(now)
}
func (c sseComp) NextWake(now uint64) sim.Hint          { return c.m.sse.NextWake(now) }
func (c sseComp) Watch(dst []*sim.Signal) []*sim.Signal { return c.m.sse.Watch(dst) }
func (c sseComp) OnSkip(from, to uint64)                { c.m.sse.OnSkip(from, to) }
func (c sseComp) Progress() uint64                      { return c.m.sse.BytesIn + c.m.sse.BytesOut }
func (c sseComp) work() uint64 {
	return c.m.sse.ReadGrants + c.m.sse.WriteGrants + c.m.sse.BytesOut + c.m.sse.BytesIn
}
func (c sseComp) stallCause(now uint64) obs.Cause { return c.m.sse.StallCause(now) }

// rseComp adapts the recurrence stream engine behind the fault-stall
// gate.
type rseComp struct{ m *Machine }

func (c rseComp) Name() string { return "rse" }
func (c rseComp) Tick(now uint64) error {
	if c.m.stalled(faults.EngRSE, now) {
		return nil
	}
	return c.m.rse.Tick(now)
}
func (c rseComp) NextWake(now uint64) sim.Hint          { return c.m.rse.NextWake(now) }
func (c rseComp) Watch(dst []*sim.Signal) []*sim.Signal { return c.m.rse.Watch(dst) }
func (c rseComp) OnSkip(from, to uint64)                { c.m.rse.OnSkip(from, to) }
func (c rseComp) Progress() uint64                      { return c.m.rse.BytesMoved }
func (c rseComp) work() uint64                          { return c.m.rse.BusyCycles }
func (c rseComp) stallCause(now uint64) obs.Cause       { return c.m.rse.StallCause(now) }

// dispComp adapts the stream dispatcher; it forwards OnSkip so the
// dispatcher's per-cycle stall counters stay cycle-exact over skipped
// spans. It reports Busy through its stall cause: retires and barrier
// pops move no monotone counter, so its work counter stays at zero.
type dispComp struct{ m *Machine }

func (c dispComp) Name() string                    { return "dispatch" }
func (c dispComp) Tick(now uint64) error           { return c.m.disp.Tick(now) }
func (c dispComp) NextWake(now uint64) sim.Hint    { return c.m.disp.NextWake(now) }
func (c dispComp) Progress() uint64                { return c.m.disp.Issued }
func (c dispComp) OnSkip(from, to uint64)          { c.m.disp.OnSkip(from, to) }
func (c dispComp) work() uint64                    { return 0 }
func (c dispComp) stallCause(now uint64) obs.Cause { return c.m.disp.StallCause(now) }

// Watch composes the dispatcher's wake sources: its own enqueue
// signal, each engine's lifecycle signal (completions and drained
// announcements unblock scoreboard entries), and the pad-write
// buffer's emptied signal (a scratch-write barrier clears only once
// every pad write has landed, and the last landing empties the
// buffer). Watching only the emptied transition — not every fill and
// pop — keeps steady-state MSE→SSE traffic from waking the
// dispatcher. The dispatcher itself has no padBuf pointer, so the
// composition lives here at the machine level. The set never changes.
func (c dispComp) Watch(dst []*sim.Signal) []*sim.Signal {
	m := c.m
	return append(dst, &m.disp.EnqSeq, &m.mse.Lifecycle, &m.sse.Lifecycle,
		&m.rse.Lifecycle, m.padBuf.EmptiedSig())
}

// coreComp adapts the control core's trace replay. Its Tick never
// fails: enqueue errors park in configErr and surface from Step. The
// tick that issues the trace's last instruction marks the watch set
// stale (see Watch).
type coreComp struct{ m *Machine }

func (c coreComp) Name() string { return "core" }
func (c coreComp) Tick(now uint64) error {
	before, pc := c.m.coreStall, c.m.pc
	c.m.stepCore(now)
	c.m.coreStalled = c.m.coreStall != before
	if c.m.pc != pc && c.m.replayed() {
		c.m.coreStale.Mark()
	}
	return nil
}

// NextWake reads the core's one classification, stallCause: a busy
// core wakes when its instruction completes, a blocked one only on
// dispatcher activity, a replayed one never.
func (c coreComp) NextWake(now uint64) sim.Hint {
	switch c.stallCause(now) {
	case obs.Busy:
		return sim.WakeAt(c.m.busyUntil)
	case obs.CauseIdle:
		if !c.m.replayed() {
			return sim.ReadyNow()
		}
	}
	return sim.Idle()
}
func (c coreComp) Progress() uint64 { return uint64(c.m.pc) }
func (c coreComp) work() uint64     { return c.m.coreInstr }

// stallCause classifies the control core at cycle now: Busy mid-
// instruction (a multi-word command or host op), PortFull on a full
// command queue, BarrierDrain behind a pending SD_Barrier_All, Idle
// when it can issue or has replayed its trace.
func (c coreComp) stallCause(now uint64) obs.Cause {
	m := c.m
	switch {
	case m.replayed():
		return obs.CauseIdle
	case now < m.busyUntil:
		return obs.Busy
	case m.prog.Trace[m.pc].Cmd != nil && m.disp.BlocksCore():
		if !m.disp.CanEnqueue() {
			return obs.PortFull
		}
		return obs.BarrierDrain
	}
	return obs.CauseIdle
}

// Watch: a core blocked on the dispatcher (queue full or barrier
// pending) can only unblock when a command leaves the queue. Once the
// trace is exhausted the core can never act again, so it watches
// nothing and dispatcher churn stops waking it.
func (c coreComp) Watch(dst []*sim.Signal) []*sim.Signal {
	if c.m.replayed() {
		return dst
	}
	return append(dst, &c.m.disp.Dequeued)
}

// OnSkip replays the core's stall counter: a skip happens only while
// the machine is frozen, so every elided cycle would have repeated the
// last Tick's blocked-core stall (or its no-op).
func (c coreComp) OnSkip(from, to uint64) {
	if c.m.coreStalled {
		c.m.coreStall += to - from
	}
}

// portsComp attributes the vector ports, which the kernel never ticks:
// work is the data moved through every port.
type portsComp struct{ m *Machine }

func (c portsComp) Name() string { return "ports" }
func (c portsComp) work() uint64 {
	var w uint64
	for _, q := range c.m.Ports.In {
		w += q.TotalIn() + q.TotalOut()
	}
	for _, q := range c.m.Ports.Out {
		w += q.TotalIn() + q.TotalOut()
	}
	return w
}

// stallCause classifies the vector ports on a cycle no data moved: a
// completely full port is hard backpressure (PortFull); otherwise
// buffered-but-unmoved data means the consumer's operand set is
// incomplete — the CGRA fires only when every mapped port has data, so
// data sits because a sibling port is empty (PortEmpty).
func (c portsComp) stallCause(uint64) obs.Cause {
	worst := obs.CauseIdle
	for _, qs := range [][]*port.Queue{c.m.Ports.In, c.m.Ports.Out} {
		for _, q := range qs {
			switch {
			case q.Space() == 0:
				worst = obs.Worse(worst, obs.PortFull)
			case q.Len() > 0:
				worst = obs.Worse(worst, obs.PortEmpty)
			}
		}
	}
	return worst
}
