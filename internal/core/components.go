package core

import (
	"softbrain/internal/obs"
	"softbrain/internal/sim"
)

// newMachine registers the machine's units with its kernel in tick
// order — CGRA, MSE, SSE, RSE, dispatcher, control core — and
// Machine.Step is a thin loop over that registry. The CGRA executor,
// the three stream engines and the dispatcher implement sim.Component
// themselves; only the control core is adapted here, because its state
// (pc, program, busyUntil) belongs to the Machine, which Done, the
// hang diagnosis and the activity counters also read. Every registered
// unit, and the vector ports the kernel never ticks, is also attributed
// (see obs.go): Work is the counter whose moves mark a Busy cycle,
// StallCause classifies the other cycles.

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

// NextWake reads the core's one classification, StallCause: a busy
// core wakes when its instruction completes, a blocked one only on
// dispatcher activity, a replayed one never.
func (c coreComp) NextWake(now uint64) sim.Hint {
	switch c.StallCause(now) {
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
func (c coreComp) Work() uint64     { return c.m.coreInstr }

// StallCause classifies the control core at cycle now: Busy mid-
// instruction (a multi-word command or host op), PortFull on a full
// command queue, BarrierDrain behind a pending SD_Barrier_All, Idle
// when it can issue or has replayed its trace.
func (c coreComp) StallCause(now uint64) obs.Cause {
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
