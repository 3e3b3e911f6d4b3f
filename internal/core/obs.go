package core

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"softbrain/internal/isa"
	"softbrain/internal/obs"
)

// This file wires the observability layer (internal/obs) into the
// machine: per-cycle stall-cause attribution for every component, the
// per-stream bandwidth rows, and the heartbeat hook. Everything here is
// strictly observational — enabling metrics never changes a simulated
// cycle — and a machine without a registry pays one nil check per Step
// and allocates nothing.
//
// Busy is attributed machine-side from monotone work-counter deltas
// (the same counters the trace lanes and progress detection use);
// components are asked for a StallCause only on cycles they did no
// work. Skipped spans are classified once per span: a span is frozen
// by construction (the skip target is the earliest timed wake), so the
// state-based StallCause of the first elided cycle holds for all of
// them, which is what makes metrics byte-identical with skipping on
// and off.

// attrSet holds the machine's attributions plus the previous work-
// counter snapshots that detect Busy cycles.
type attrSet struct {
	cgra, mse, sse, rse, disp, core, ports *obs.Attribution

	prevCGRA, prevMSE, prevSSE, prevRSE, prevCore, prevPorts uint64
}

// EnableMetrics attaches a registry: attributions for every component,
// the dispatcher's issue-to-retire latency histogram, and per-stream
// data-movement rows reported by the engines as streams retire. Call
// before Run; the registry is finalized by the run's stats collection.
func (m *Machine) EnableMetrics(reg *obs.Registry) {
	m.reg = reg
	m.attr = &attrSet{
		cgra:  reg.Attribution("cgra"),
		mse:   reg.Attribution("mse"),
		sse:   reg.Attribution("sse"),
		rse:   reg.Attribution("rse"),
		disp:  reg.Attribution("dispatch"),
		core:  reg.Attribution("core"),
		ports: reg.Attribution("ports"),
	}
	m.disp.EnableLatency(reg.Histogram("dispatch-latency", 64, 65))
	retired := func(id int, kind isa.Kind, bytes uint64) {
		reg.Stream(id, kind.String(), bytes)
	}
	m.mse.Retired = retired
	m.sse.Retired = retired
	m.rse.Retired = retired
}

// Metrics returns the registry installed by EnableMetrics, or nil.
func (m *Machine) Metrics() *obs.Registry { return m.reg }

// MetricsDump finalizes and returns the machine's metrics as a
// single-unit dump. Valid after a completed run.
func (m *Machine) MetricsDump() obs.Dump {
	return obs.Merge([]obs.UnitDump{m.reg.Dump()})
}

// TraceInput assembles this unit's contribution to the Perfetto export
// (obs.WriteTrace): the trace recorder's stream lifetimes plus the
// registry's stall slices. endCycle closes still-open spans.
func (m *Machine) TraceInput(endCycle uint64) obs.TraceInput {
	in := obs.TraceInput{Unit: m.reg.Unit(), Attrs: m.reg.Attributions(), EndCycle: endCycle}
	if m.tracer != nil {
		for _, s := range m.tracer.Spans() {
			in.Spans = append(in.Spans, obs.SpanEvent{
				ID: s.ID, Label: s.Label,
				Enqueued: s.Enqueued, Issued: s.Issued, Completed: s.Completed, Done: s.Done,
			})
		}
	}
	return in
}

// TraceInputs assembles every unit's trace contribution, in unit order.
func (c *Cluster) TraceInputs(endCycle uint64) []obs.TraceInput {
	out := make([]obs.TraceInput, 0, len(c.Units))
	for _, u := range c.Units {
		out = append(out, u.TraceInput(endCycle))
	}
	return out
}

// portsWork sums data movement through every vector port.
func (m *Machine) portsWork() uint64 {
	var w uint64
	for _, q := range m.Ports.In {
		w += q.TotalIn() + q.TotalOut()
	}
	for _, q := range m.Ports.Out {
		w += q.TotalIn() + q.TotalOut()
	}
	return w
}

// portsStallCause classifies the vector ports on a cycle no data
// moved: a completely full port is hard backpressure (PortFull);
// otherwise buffered-but-unmoved data means the consumer's operand set
// is incomplete — the CGRA fires only when every mapped port has data,
// so data sits because a sibling port is empty (PortEmpty).
func (m *Machine) portsStallCause() obs.Cause {
	worst := obs.CauseIdle
	check := func(space, buffered int) {
		switch {
		case space == 0:
			worst = obs.Worse(worst, obs.PortFull)
		case buffered > 0:
			worst = obs.Worse(worst, obs.PortEmpty)
		}
	}
	for _, q := range m.Ports.In {
		check(q.Space(), q.Len())
	}
	for _, q := range m.Ports.Out {
		check(q.Space(), q.Len())
	}
	return worst
}

// coreStallCause classifies the control core on a cycle it issued
// nothing. Mirrors coreComp.NextWake's state analysis.
func (m *Machine) coreStallCause(now uint64) obs.Cause {
	switch {
	case m.prog == nil || m.pc >= len(m.prog.Trace):
		return obs.CauseIdle // trace fully replayed
	case now < m.busyUntil:
		return obs.Busy // mid-instruction (multi-word command or host op)
	case m.prog.Trace[m.pc].Cmd != nil && m.disp.BlocksCore():
		if !m.disp.CanEnqueue() {
			return obs.PortFull // command queue full
		}
		return obs.BarrierDrain // pending SD_Barrier_All
	}
	return obs.CauseIdle
}

// classifyCycle attributes cycle now for every component: Busy when
// its work counter moved since the last classification, its state-
// based StallCause otherwise. Called at the end of every Step when
// metrics are enabled.
func (m *Machine) classifyCycle(now uint64) {
	a := m.attr
	to := now + 1
	if w := m.exec.Instances + m.exec.Drained; w != a.prevCGRA {
		a.prevCGRA = w
		a.cgra.Account(obs.Busy, now, to)
	} else {
		a.cgra.Account(m.exec.StallCause(now), now, to)
	}
	if w := m.mse.BusyCycles; w != a.prevMSE {
		a.prevMSE = w
		a.mse.Account(obs.Busy, now, to)
	} else {
		a.mse.Account(m.mse.StallCause(now), now, to)
	}
	if w := m.sse.ReadGrants + m.sse.WriteGrants + m.sse.BytesOut + m.sse.BytesIn; w != a.prevSSE {
		a.prevSSE = w
		a.sse.Account(obs.Busy, now, to)
	} else {
		a.sse.Account(m.sse.StallCause(now), now, to)
	}
	if w := m.rse.BusyCycles; w != a.prevRSE {
		a.prevRSE = w
		a.rse.Account(obs.Busy, now, to)
	} else {
		a.rse.Account(m.rse.StallCause(now), now, to)
	}
	// The dispatcher self-reports Busy: retires and barrier pops move no
	// monotone counter.
	a.disp.Account(m.disp.StallCause(now), now, to)
	if w := m.coreInstr; w != a.prevCore {
		a.prevCore = w
		a.core.Account(obs.Busy, now, to)
	} else {
		a.core.Account(m.coreStallCause(now), now, to)
	}
	if w := m.portsWork(); w != a.prevPorts {
		a.prevPorts = w
		a.ports.Account(obs.Busy, now, to)
	} else {
		a.ports.Account(m.portsStallCause(), now, to)
	}
}

// classifySpan attributes an elided skip span [from, to). The machine
// was frozen for the whole span — the skip target is the earliest
// timed wake, so every state-based classification is constant across
// it — and frozen means workless, so no Busy deltas are possible
// (except the timed states the components report as Busy themselves).
func (m *Machine) classifySpan(from, to uint64) {
	a := m.attr
	a.cgra.Account(m.exec.StallCause(from), from, to)
	a.mse.Account(m.mse.StallCause(from), from, to)
	a.sse.Account(m.sse.StallCause(from), from, to)
	a.rse.Account(m.rse.StallCause(from), from, to)
	a.disp.Account(m.disp.StallCause(from), from, to)
	a.core.Account(m.coreStallCause(from), from, to)
	a.ports.Account(m.portsStallCause(), from, to)
}

// onSkip records an elided span [from, to) — the kernel only counts it
// (slept components replay their own bookkeeping lazily, see
// sim.Kernel) — and attributes its stall causes. Step calls it when a
// unit resumes after a frozen window, so the window is attributed
// lazily: a mid-run reader (the heartbeat's stall mix, a canceled run)
// sees a frozen unit's attribution up to its last stepped cycle, never
// past the current one. The unit's state is unchanged since then, so
// the late classification is the one an eager replay would make.
func (m *Machine) onSkip(from, to uint64) {
	m.kern.Jump(from, to)
	if m.attr != nil {
		m.classifySpan(from, to)
	}
}

// finishMetrics finalizes the registry at the end of a run: tops every
// attribution up to the final cycle (a unit that retired early idles
// until its cluster finishes), records the cycle count the
// conservation invariant checks against, and records the run's
// activity counters.
func (m *Machine) finishMetrics(run counters) {
	if m.reg == nil {
		return
	}
	for _, a := range m.reg.Attributions() {
		a.Finish(run.Cycles)
	}
	m.reg.SetCycles(run.Cycles)
	m.reg.Counter("commands").Set(run.Commands)
	m.reg.Counter("core-instrs").Set(run.CoreInstrs)
	m.reg.Counter("cgra-instances").Set(run.Instances)
	m.reg.Counter("cgra-fu-ops").Set(run.FUOps)
	m.reg.Counter("mem-bytes").Set(run.memBytes)
	m.reg.Counter("scratch-bytes").Set(run.scratchBytes)
	m.reg.Counter("recurrence-bytes").Set(run.RecurrenceBytes)
	ds := m.disp.BarrierDrains()
	rows := make([]obs.BarrierDrainDump, len(ds))
	for i, bd := range ds {
		rows[i] = obs.BarrierDrainDump{Pos: bd.Pos, Kind: bd.Kind.String(), Cycles: bd.Cycles}
	}
	m.reg.SetBarrierDrains(rows)
}

// ProgressReport is a point-in-time view of a running machine for the
// heartbeat (sdsim -progress, sdbench -progress, sdserve streaming).
type ProgressReport struct {
	Cycle        uint64
	Commands     uint64 // stream commands issued so far this run
	Progress     uint64 // the machine's monotone progress counter
	RetiredBytes uint64 // bytes moved by the engines so far this run (mem + scratch + recurrence)
	StallMix     string // current attribution mix, "" when metrics are off
}

// Report snapshots the machine's progress at cycle now.
func (m *Machine) Report(now uint64) ProgressReport { return report([]*Machine{m}, now) }

// report aggregates a point-in-time view across the units.
func report(units []*Machine, now uint64) ProgressReport {
	r := ProgressReport{Cycle: now}
	var attrs []*obs.Attribution
	for _, u := range units {
		run := u.counters().since(u.base)
		r.Commands += run.Commands
		r.Progress += u.kern.Progress()
		r.RetiredBytes += run.memBytes + run.scratchBytes + run.RecurrenceBytes
		attrs = append(attrs, u.reg.Attributions()...)
	}
	r.StallMix = stallMix(attrs)
	return r
}

// Line renders the report as the one-line heartbeat shared by
// sdsim -progress and sdbench -progress (callers prefix their own
// context, e.g. the tool or workload name).
func (r ProgressReport) Line() string {
	s := fmt.Sprintf("cycle %d, %d commands issued, %d bytes retired", r.Cycle, r.Commands, r.RetiredBytes)
	if r.StallMix != "" {
		s += ", stall mix: " + r.StallMix
	}
	return s
}

// stallMix renders the aggregate cause distribution across the given
// attributions as the top shares, e.g. "busy 45% idle 31% dram-bw 12%".
func stallMix(attrs []*obs.Attribution) string {
	var causes [obs.NumCauses]uint64
	var total uint64
	for _, a := range attrs {
		for c, n := range a.Causes() {
			causes[c] += n
			total += n
		}
	}
	if total == 0 {
		return ""
	}
	type share struct {
		c obs.Cause
		n uint64
	}
	shares := make([]share, 0, obs.NumCauses)
	for c, n := range causes {
		if n > 0 {
			shares = append(shares, share{obs.Cause(c), n})
		}
	}
	sort.Slice(shares, func(i, j int) bool {
		if shares[i].n != shares[j].n {
			return shares[i].n > shares[j].n
		}
		return shares[i].c < shares[j].c
	})
	if len(shares) > 3 {
		shares = shares[:3]
	}
	parts := make([]string, len(shares))
	for i, s := range shares {
		parts[i] = fmt.Sprintf("%v %d%%", s.c, 100*s.n/total)
	}
	return strings.Join(parts, " ")
}

// SetHeartbeat installs a progress callback invoked from the run loop
// roughly every interval of host time (checked every heartbeatStride
// run-loop iterations, so a hot loop pays one counter increment). The
// first check only arms the clock, so no report fires before the
// second one. For long soaks and sdsim -progress; purely
// observational.
func (m *Machine) SetHeartbeat(every time.Duration, fn func(ProgressReport)) {
	m.hb.every, m.hb.fn = every, fn
}

// heartbeat is a run's progress callback (see SetHeartbeat) and the
// host-time throttle that paces it.
type heartbeat struct {
	every time.Duration
	fn    func(ProgressReport)
	last  time.Time
}

// heartbeatStride bounds how often the run loop consults the host
// clock: every 4096 run-loop iterations. An iteration is one stepped
// cycle, or one frozen jump or retired span covering many, so the
// stride is at least 4096 simulated cycles.
const heartbeatStride = 1 << 12

// beat fires the callback with the units' aggregate report when the
// interval elapsed; the run loop calls it every heartbeatStride
// iterations. The first call only arms the clock, so no report fires
// before the second: a run of fewer than two strides reports nothing.
func (h *heartbeat) beat(units []*Machine, now uint64) {
	if h.fn == nil {
		return
	}
	if h.last.IsZero() {
		h.last = time.Now()
		return
	}
	if time.Since(h.last) >= h.every {
		h.last = time.Now()
		h.fn(report(units, now))
	}
}
