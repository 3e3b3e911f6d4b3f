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
// cycle or how a run is scheduled — and a machine without a registry
// pays one nil check per stepped cycle and allocates nothing.
//
// Busy is attributed machine-side from monotone work-counter deltas;
// components are asked for a StallCause only on cycles they did no
// work. Both come from the component adapters (components.go): every
// component in the kernel's registry, plus the vector ports, reports
// work and stallCause. A traced run's Busy slices are the activity
// lanes of its timeline (obs.Gantt), so the lanes show Busy by
// construction. Skipped spans are classified once per span: a span is
// frozen by construction (the skip target is the earliest timed wake),
// so the state-based StallCause of the first elided cycle holds for all
// of them, which is what makes metrics byte-identical with skipping on
// and off.

// attributed is a component the metrics layer classifies every cycle:
// work moves on exactly the cycles the component did work (Busy), and
// stallCause classifies the others from its state alone.
type attributed interface {
	Name() string
	work() uint64
	stallCause(now uint64) obs.Cause
}

// attribution is one attributed component's account and its work
// counter as of the last classification.
type attribution struct {
	c    attributed
	acct *obs.Attribution
	prev uint64
}

// enableMetrics attaches a registry: attributions for every component,
// the dispatcher's issue-to-retire latency histogram, and per-stream
// data-movement rows reported by the engines as streams retire. The
// registry is finalized by the run's stats collection.
func (m *Machine) enableMetrics(reg *obs.Registry) {
	m.reg = reg
	comps := m.kern.Components()
	m.attrs = make([]attribution, 0, len(comps)+1)
	for _, c := range comps {
		m.attrs = append(m.attrs, attribution{c: c.(attributed), acct: reg.Attribution(c.Name())})
	}
	m.attrs = append(m.attrs, attribution{c: portsComp{m}, acct: reg.Attribution("ports")})
	m.disp.Lat = reg.Histogram("dispatch-latency", 64, 65)
	m.disp.Life = reg.Lifetimes()
	retired := func(id int, kind isa.Kind, bytes uint64) {
		reg.Stream(id, kind.String(), bytes)
	}
	m.mse.Retired = retired
	m.sse.Retired = retired
	m.rse.Retired = retired
}

// traceInput assembles this unit's contribution to the Perfetto export
// (obs.WriteTrace) and the timeline (obs.Gantt): the registry's stream
// lifetimes and stall slices, both recorded only on traced runs.
// endCycle closes still-open spans.
func (m *Machine) traceInput(endCycle uint64) obs.TraceInput {
	return obs.TraceInput{Unit: m.reg.Unit(), Spans: m.reg.Lifetimes().Spans(), Attrs: m.reg.Attributions(), EndCycle: endCycle}
}

// TraceInputs assembles every unit's trace contribution, in unit order.
func (c *Cluster) TraceInputs(endCycle uint64) []obs.TraceInput {
	out := make([]obs.TraceInput, 0, len(c.Units))
	for _, u := range c.Units {
		out = append(out, u.traceInput(endCycle))
	}
	return out
}

// classifyCycle attributes cycle now for every component: Busy when
// its work counter moved since the last classification, its state-
// based stallCause otherwise. Called when metrics are enabled, as each
// stepped cycle closes (closeCycle).
func (m *Machine) classifyCycle(now uint64) {
	for i := range m.attrs {
		a := &m.attrs[i]
		if w := a.c.work(); w != a.prev {
			a.prev = w
			a.acct.Account(obs.Busy, now, now+1)
		} else {
			a.acct.Account(a.c.stallCause(now), now, now+1)
		}
	}
}

// classifySpan attributes an elided skip span [from, to). The machine
// was frozen for the whole span — the skip target is the earliest
// timed wake, so every state-based classification is constant across
// it — and frozen means workless, so no Busy deltas are possible
// (except the timed states the components report as Busy themselves).
func (m *Machine) classifySpan(from, to uint64) {
	for _, a := range m.attrs {
		a.acct.Account(a.c.stallCause(from), from, to)
	}
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
	if m.attrs != nil {
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
	RetiredBytes uint64 // bytes moved by the engines so far this run (mem + scratch + recurrence)
	StallMix     string // current attribution mix, "" when metrics are off
}

// report aggregates a point-in-time view across the units.
func report(units []*Machine, now uint64) ProgressReport {
	r := ProgressReport{Cycle: now}
	var attrs []*obs.Attribution
	for _, u := range units {
		run := u.counters().since(u.base)
		r.Commands += run.Commands
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

// heartbeat is a run's progress callback (see Cluster.SetHeartbeat)
// and the host-time throttle that paces it.
type heartbeat struct {
	every time.Duration
	fn    func(ProgressReport)
	last  time.Time // zero until the run's first stride check arms it
}

// heartbeatStride bounds how often the run loop consults the host
// clock: every 4096 run-loop iterations. An iteration is one stepped
// cycle, or one frozen jump covering many, so the stride is at least
// 4096 simulated cycles.
const heartbeatStride = 1 << 12

// beat fires the callback with the units' aggregate report when the
// interval elapsed; the run loop calls it every heartbeatStride
// iterations. The first call of each run only arms the clock (runUnits
// clears it), so no report fires before the second: a run of fewer
// than two strides reports nothing, on a fresh cluster or a reused one.
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
