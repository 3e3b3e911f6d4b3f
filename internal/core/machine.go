package core

import (
	"context"
	"fmt"
	"strings"

	"softbrain/internal/cgra"
	"softbrain/internal/dispatch"
	"softbrain/internal/engine"
	"softbrain/internal/faults"
	"softbrain/internal/isa"
	"softbrain/internal/mem"
	"softbrain/internal/obs"
	"softbrain/internal/port"
	"softbrain/internal/scratch"
	"softbrain/internal/sim"
	"softbrain/internal/trace"
)

// Stats aggregates the observable behavior of one run; the power model
// converts its activity counts into energy.
type Stats struct {
	Cycles uint64

	// Control core.
	CoreInstrs      uint64 // dynamic instructions (command words + host ops)
	CoreStallCycles uint64

	// Dispatcher.
	Commands      uint64
	BarrierCycles uint64
	ResourceStall uint64

	// CGRA.
	Instances uint64
	FUOps     uint64

	// Data movement.
	MemBytesRead     uint64
	MemBytesWritten  uint64
	MemLines         uint64
	CacheHits        uint64
	CacheMisses      uint64
	ScratchBytesRead uint64
	ScratchBytesWrit uint64
	RecurrenceBytes  uint64

	// Engine occupancy.
	MSEBusy, SSEBusy, RSEBusy uint64
}

// Machine is one Softbrain unit.
type Machine struct {
	cfg Config

	// Lint, when set, vets every program Load accepts: a program the
	// hook reports a hazard in is refused before anything runs. Install
	// internal/lint's checker with
	//
	//	m.Lint = lint.Hook(m.Config())
	//
	// (core cannot import the linter: lint analyzes core.Program).
	Lint func(*Program) error

	Sys    *mem.System
	Pad    *scratch.Pad
	Ports  *engine.Ports
	mse    *engine.MSE
	sse    *engine.SSE
	rse    *engine.RSE
	disp   *dispatch.Dispatcher
	exec   *cgraExec
	padBuf *engine.PadWriteBuf
	faults *faults.Injector

	// kern sequences the unit's components (see internal/sim and
	// components.go); Step ticks only the components the kernel's wake
	// hints and watch signals say could act, and the run loop uses the
	// combined hint for idle skip-ahead.
	kern        sim.Kernel
	noSkip      bool  // wake scheduling disabled (config or per-cycle fault draws)
	spans       bool  // batched span retirement enabled
	lastStepped int64 // last cycle Step actually ran, -1 before the first
	coreStalled bool  // last core tick stalled on the dispatcher

	prog      *Program
	pc        int
	busyUntil uint64
	coreInstr uint64
	coreStall uint64
	base      counters // activity counters when the current run loaded

	configErr error // deferred error from the config-install callback

	tracer    *trace.Recorder
	prevBusy  [3]uint64 // MSE, SSE, RSE busy counters at last Step
	prevInst  uint64
	prevInstr uint64

	// Observability (see obs.go in this package). All nil/zero unless
	// EnableMetrics / SetHeartbeat are called; the tick path pays one
	// nil check and allocates nothing when disabled.
	reg  *obs.Registry
	attr *attrSet
	hb   heartbeat
}

// NewMachine builds a unit with a private memory system.
func NewMachine(cfg Config) (*Machine, error) {
	sys, err := mem.NewSystem(cfg.Mem)
	if err != nil {
		return nil, err
	}
	return NewMachineShared(cfg, sys)
}

// NewMachineShared builds a unit over an existing memory system, so
// several units can share cache and DRAM bandwidth (the 8-unit DNN
// configuration).
func NewMachineShared(cfg Config, sys *mem.System) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	f := cfg.Fabric
	in := make([]*port.Queue, len(f.InPorts))
	for i, spec := range f.InPorts {
		q, err := port.New(fmt.Sprintf("in%d", i), spec.Width, spec.Depth)
		if err != nil {
			return nil, err
		}
		in[i] = q
	}
	out := make([]*port.Queue, len(f.OutPorts))
	for i, spec := range f.OutPorts {
		q, err := port.New(fmt.Sprintf("out%d", i), spec.Width, spec.Depth)
		if err != nil {
			return nil, err
		}
		out[i] = q
	}
	m := &Machine{
		cfg:    cfg,
		Sys:    sys,
		Pad:    scratch.New(cfg.ScratchBytes),
		Ports:  engine.NewPorts(in, out),
		padBuf: engine.NewPadWriteBuf(cfg.PadBufEntries),
	}
	if cfg.Faults != nil {
		m.faults = faults.New(*cfg.Faults)
	}
	m.mse = engine.NewMSE(sys, m.Ports, m.padBuf, cfg.StreamTable, m.onConfig)
	m.mse.DisableBalance = cfg.NoBalanceUnit
	m.mse.DisableDrain = cfg.NoAllInFlight
	m.mse.Faults = m.faults
	m.sse = engine.NewSSE(m.Pad, m.Ports, m.padBuf, cfg.StreamTable)
	m.sse.Faults = m.faults
	m.rse = engine.NewRSE(m.Ports, cfg.StreamTable)
	m.rse.Faults = m.faults
	m.disp = dispatch.New(m.mse, m.sse, m.rse, len(in), len(out), cfg.CmdQueueDepth)
	m.disp.InOrderIssue = cfg.InOrderIssue
	m.exec = newCGRAExec(m.Ports)
	// Per-cycle fault draws (stall, throttle) consume randomness every
	// ticked cycle, so skipping would change the fault schedule.
	m.noSkip = cfg.Sched == SchedPerCycle || (m.faults != nil && m.faults.PerCycleDraws())
	m.spans = !m.noSkip && cfg.Sched == SchedSpans
	m.lastStepped = -1
	m.kern.Register(cgraComp{m})
	m.kern.Register(mseComp{m})
	m.kern.Register(sseComp{m})
	m.kern.Register(rseComp{m})
	m.kern.Register(dispComp{m})
	m.kern.Register(coreComp{m})
	return m, nil
}

// Config returns the machine's configuration.
func (m *Machine) Config() Config { return m.cfg }

// EnableTrace records an execution timeline (Figure 4b style) covering
// the first limit cycles; render it with Trace().Gantt.
func (m *Machine) EnableTrace(limit uint64) {
	m.tracer = trace.NewRecorder(limit)
	m.disp.Tracer = m.tracer
}

// Trace returns the recorder installed by EnableTrace, or nil.
func (m *Machine) Trace() *trace.Recorder { return m.tracer }

// onConfig decodes the configuration bitstream the SD_Config stream
// just finished loading — read back from the memory image, so the
// machine runs exactly what was stored there.
func (m *Machine) onConfig(addr uint64) {
	blob, ok := m.prog.Configs[addr]
	if !ok {
		m.configErr = fmt.Errorf("core: SD_Config loaded unknown address %#x", addr)
		return
	}
	data := make([]byte, len(blob))
	m.Sys.Mem.Read(addr, data)
	s, err := cgra.DecodeConfig(m.cfg.Fabric, data)
	if err != nil {
		m.configErr = fmt.Errorf("core: decoding configuration at %#x: %w", addr, err)
		return
	}
	if err := m.exec.Install(s); err != nil {
		m.configErr = err
	}
}

// Load prepares the machine to run p, vetting it through the Lint hook
// first when one is installed. The command stream is round-tripped
// through the binary ISA encoding, so the machine executes the
// architecturally encodable program, not arbitrary Go values.
func (m *Machine) Load(p *Program) error {
	if err := p.Err(); err != nil {
		return err
	}
	if m.Lint != nil {
		if err := m.Lint(p); err != nil {
			return fmt.Errorf("core: refusing to load %s: %w", p.Name, err)
		}
	}
	if err := p.roundTrip(); err != nil {
		return err
	}
	for addr, blob := range p.Configs {
		m.Sys.Mem.Write(addr, blob)
	}
	m.prog = p
	m.pc = 0
	m.busyUntil = 0
	// A reused machine restarts at cycle 0: rewind the wake-set state so
	// the previous run's cached "everything idle" hints cannot put the
	// new run to sleep before its first tick.
	m.kern.Reset()
	m.lastStepped = -1
	// Everything a run reports covers that run alone: restart the
	// per-run profiles and snapshot the counters its Stats are measured
	// from.
	m.disp.ResetProfile()
	m.reg.Reset()
	if m.tracer != nil {
		m.EnableTrace(m.tracer.Limit)
	}
	m.base = m.counters()
	return nil
}

// Done reports whether the program has fully completed.
func (m *Machine) Done() bool {
	return m.prog != nil && m.pc >= len(m.prog.Trace) && m.disp.Idle() && m.exec.InFlight() == 0
}

// Step advances one cycle. In the default wake-set mode it ticks only
// the components whose cached wake hint, timed deadline, or watch
// signal says they could act this cycle (see sim.Kernel); a skipped
// component's per-cycle bookkeeping is replayed lazily by BeforeTick
// just before its next real tick. Cycles the run loop did not step the
// unit through since its last Step (a frozen window) are accounted
// first, by onSkip. With wake scheduling disabled (SchedPerCycle, or
// per-cycle fault draws) every component ticks every cycle. Component
// errors come back wrapped in a MachineError naming the component and
// cycle; a fault-injected stall freezes the affected stream engine for
// the cycle (see components.go).
func (m *Machine) Step(now uint64) error {
	if m.noSkip {
		return m.stepAll(now)
	}
	if from := uint64(m.lastStepped + 1); from < now {
		m.onSkip(from, now)
	}
	// A deferred program error set by the core (the last component) on
	// the previous cycle surfaces here — the same cycle the legacy
	// tick-everything loop would have surfaced it.
	if m.configErr != nil {
		return m.stepError("program", now, m.configErr)
	}
	comps := m.kern.Components()
	ticked := 0
	for i, c := range comps {
		if !m.kern.ShouldTick(i, now) {
			m.kern.Stats.CompSleeps++
			continue
		}
		m.kern.BeforeTick(i, now)
		if err := c.Tick(now); err != nil {
			return m.stepError(c.Name(), now, err)
		}
		m.kern.AfterTick(i, now)
		ticked++
		// A deferred program error (config decode, enqueue validation)
		// set by this cycle's MSE tick surfaces here; one set by the
		// core surfaces next Step.
		if i < len(comps)-1 && m.configErr != nil {
			return m.stepError("program", now, m.configErr)
		}
	}
	m.kern.Stats.Cycles++
	if ticked >= len(m.kern.Stats.TickHist) {
		ticked = len(m.kern.Stats.TickHist) - 1
	}
	m.kern.Stats.TickHist[ticked]++
	m.lastStepped = int64(now)
	m.mark(now)
	if m.attr != nil {
		m.classifyCycle(now)
	}
	return nil
}

// stepAll is the legacy per-cycle path: every component ticks, no wake
// bookkeeping. Used when wake scheduling is disabled and as the
// reference semantics the wake-set path must reproduce exactly (see
// TestSkipAheadWorkloads and the fuzz equivalence suite).
func (m *Machine) stepAll(now uint64) error {
	comps := m.kern.Components()
	for i, c := range comps {
		if err := c.Tick(now); err != nil {
			return m.stepError(c.Name(), now, err)
		}
		// A deferred program error (config decode, enqueue validation)
		// set by an earlier cycle or this one's MSE tick surfaces here;
		// one set by the core (the last component) surfaces next Step.
		if i < len(comps)-1 && m.configErr != nil {
			return m.stepError("program", now, m.configErr)
		}
	}
	m.kern.Stats.Cycles++
	m.kern.Stats.CompTicks += uint64(len(comps))
	b := len(comps)
	if b >= len(m.kern.Stats.TickHist) {
		b = len(m.kern.Stats.TickHist) - 1
	}
	m.kern.Stats.TickHist[b]++
	m.lastStepped = int64(now)
	m.mark(now)
	if m.attr != nil {
		m.classifyCycle(now)
	}
	return nil
}

// retireSpan attempts to retire a batched span of cycles starting at
// cycle now: when exactly one component is due and every peer sleeps,
// that component's ticks run in a tight loop — identical Tick calls at
// identical cycles, so the span is bit-exact with per-cycle stepping —
// until a peer's watch signature moves, the component goes quiet, a
// peer's timed wake arrives, or the exclusive deadline is reached (the
// cycle the caller's watchdog would fire, mirroring the idle-jump
// cap). The fast path skips the per-cycle run-loop and scheduler
// machinery: no Step dispatch, no ShouldTick scan, no progress or
// hang probes per cycle. It returns the number of cycles retired, 0
// when no span is eligible.
//
// Spans are skipped entirely under per-cycle obligations the batch
// loop does not replay: cycle attribution (m.attr) and the execution
// tracer's per-cycle marks.
func (m *Machine) retireSpan(now, deadline uint64) (uint64, error) {
	if !m.spans || m.attr != nil || m.tracer != nil || m.configErr != nil || m.prog == nil {
		return 0, nil
	}
	sole, limit := m.kern.SoloReady(now)
	if sole < 0 {
		return 0, nil
	}
	if limit > deadline {
		limit = deadline
	}
	if limit <= now+1 {
		return 0, nil // a span of one cycle is just a Step
	}
	comps := m.kern.Components()
	m.kern.BeforeTick(sole, now)
	n, err := m.kern.RetireSpan(sole, now, limit, func(i int, t uint64) error {
		// Mirror Step's deferred-error protocol exactly: an error set by
		// the last component (the core) surfaces at the next cycle's
		// top-of-step check — which for a span cycle is the moment just
		// before the sole component's tick; one set by an earlier
		// component surfaces the same cycle.
		if i == sole && m.configErr != nil {
			return m.stepError("program", t, m.configErr)
		}
		if err := comps[i].Tick(t); err != nil {
			return m.stepError(comps[i].Name(), t, err)
		}
		if i < len(comps)-1 && m.configErr != nil {
			return m.stepError("program", t, m.configErr)
		}
		return nil
	})
	if n > 0 {
		m.lastStepped = int64(now + n - 1)
	}
	return n, err
}

// NextWake combines the components' wake hints; a machine running with
// skip-ahead disabled always reports Ready.
func (m *Machine) NextWake(now uint64) sim.Hint {
	if m.noSkip {
		return sim.ReadyNow()
	}
	return m.kern.NextWake(now)
}

// SkippedCycles is the number of idle cycles the run loop elided.
func (m *Machine) SkippedCycles() uint64 { return m.kern.Skipped() }

// SchedStats reports the wake-set scheduler's counters for this unit:
// cycles simulated, components ticked and slept, signal-triggered
// wakes, whole-machine jumps, and retired-span shape.
func (m *Machine) SchedStats() sim.SchedStats { return m.kern.Stats }

// SchedTickBy reports the executed tick count per component name, the
// per-component view behind SchedStats().CompTicks.
func (m *Machine) SchedTickBy() map[string]uint64 {
	out := map[string]uint64{}
	for i, c := range m.kern.Components() {
		out[c.Name()] += m.kern.TickBy[i]
	}
	return out
}

// stalled reports whether fault injection freezes engine e this cycle.
func (m *Machine) stalled(e faults.Engine, now uint64) bool {
	return m.faults != nil && m.faults.Stalled(e, now)
}

// FaultStats returns the injected-fault counts, zero when faults are
// disabled.
func (m *Machine) FaultStats() faults.Stats {
	if m.faults == nil {
		return faults.Stats{}
	}
	return m.faults.Stats()
}

// mark records per-lane activity for the execution trace.
func (m *Machine) mark(now uint64) {
	if m.tracer == nil {
		return
	}
	if b := m.mse.BusyCycles; b != m.prevBusy[0] {
		m.prevBusy[0] = b
		m.tracer.Mark("MSE", now)
	}
	if b := m.sse.BusyCycles; b != m.prevBusy[1] {
		m.prevBusy[1] = b
		m.tracer.Mark("SSE", now)
	}
	if b := m.rse.BusyCycles; b != m.prevBusy[2] {
		m.prevBusy[2] = b
		m.tracer.Mark("RSE", now)
	}
	if i := m.exec.Instances; i != m.prevInst {
		m.prevInst = i
		m.tracer.Mark("CGRA", now)
	}
	if c := m.coreInstr; c != m.prevInstr {
		m.prevInstr = c
		m.tracer.Mark("core", now)
	}
}

// stepCore replays the command trace: a single-issue inorder core that
// spends IssueCost cycles per instruction word and stalls on a full
// queue or a pending SD_Barrier_All.
func (m *Machine) stepCore(now uint64) {
	if m.prog == nil || m.pc >= len(m.prog.Trace) || now < m.busyUntil {
		return
	}
	op := m.prog.Trace[m.pc]
	if op.Cmd == nil {
		m.busyUntil = now + op.Delay
		m.coreInstr += op.Delay // host computation: ~1 op/cycle
		m.pc++
		return
	}
	if m.disp.BlocksCore() {
		m.coreStall++
		return
	}
	if err := m.disp.EnqueueAt(op.Cmd, m.pc, now); err != nil {
		// Enqueue validated at CanEnqueue time; a failure here is a
		// program error surfaced on the next Step.
		m.configErr = err
		return
	}
	words := uint64(op.Cmd.Words())
	m.busyUntil = now + words*uint64(m.cfg.IssueCost)
	m.coreInstr += words
	m.pc++
}

// progress is a monotone counter; if it stops changing, nothing is
// happening in the machine. It is the sum of the components' Progress
// counters (see components.go).
func (m *Machine) progress() uint64 { return m.kern.Progress() }

// snapshot renders the stuck state for deadlock diagnostics.
func (m *Machine) snapshot() string {
	traceLen := 0
	if m.prog != nil {
		traceLen = len(m.prog.Trace)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "  pc=%d/%d queue=%d active-streams: mse=%d sse=%d rse=%d cgra-inflight=%d\n",
		m.pc, traceLen, m.disp.QueueLen(), m.mse.Active(), m.sse.Active(), m.rse.Active(), m.exec.InFlight())
	for i, q := range m.Ports.In {
		if q.Len() > 0 || m.Ports.Reserved(i) > 0 {
			fmt.Fprintf(&b, "  in%d: %dB buffered, %dB reserved, %dB space\n", i, q.Len(), m.Ports.Reserved(i), q.Space())
		}
	}
	for i, q := range m.Ports.Out {
		if q.Len() > 0 {
			fmt.Fprintf(&b, "  out%d: %dB buffered\n", i, q.Len())
		}
	}
	return b.String()
}

// Run executes the program to completion and returns statistics.
func (m *Machine) Run(p *Program) (*Stats, error) {
	return m.RunContext(context.Background(), p)
}

// RunContext is Run bounded by a context: when ctx is canceled or its
// deadline expires mid-run, the loop stops within one heartbeat stride
// and returns a *CanceledError wrapping the context cause. The cycle
// watchdog bounds simulated time; the context bounds host wall-clock
// time — a hung simulation is caught by the former, a slow host by the
// latter. The machine's partial state is abandoned; load a fresh
// machine to re-run.
func (m *Machine) RunContext(ctx context.Context, p *Program) (*Stats, error) {
	if err := m.Load(p); err != nil {
		return nil, err
	}
	stats, err := runUnits(ctx, []*Machine{m}, &m.hb) // a one-unit cluster
	if err != nil {
		return nil, err
	}
	return stats[0], nil
}

// counters is a snapshot of a unit's monotone activity counters: the
// Stats fields (Cycles aside) plus the engines' retired-byte totals
// the metrics dump and heartbeat report. The counters accumulate over
// the machine's lifetime; a run reports the difference between their
// values at its end and at its Load.
type counters struct {
	Stats
	memBytes, scratchBytes uint64
}

func (m *Machine) counters() counters {
	c := counters{
		Stats: Stats{
			CoreInstrs:       m.coreInstr,
			CoreStallCycles:  m.coreStall,
			Commands:         m.disp.Issued,
			BarrierCycles:    m.disp.BarrierCycles,
			ResourceStall:    m.disp.ResourceStall,
			Instances:        m.exec.Instances,
			FUOps:            m.exec.FUOps,
			MemBytesRead:     m.Sys.BytesRead,
			MemBytesWritten:  m.Sys.BytesWritten,
			MemLines:         m.Sys.Reads + m.Sys.Writes,
			ScratchBytesRead: m.Pad.BytesRead,
			ScratchBytesWrit: m.Pad.BytesWritten,
			RecurrenceBytes:  m.rse.BytesMoved,
			MSEBusy:          m.mse.BusyCycles,
			SSEBusy:          m.sse.BusyCycles,
			RSEBusy:          m.rse.BusyCycles,
		},
		memBytes:     m.mse.BytesDelivered + m.mse.BytesStored,
		scratchBytes: m.sse.BytesIn + m.sse.BytesOut,
	}
	if m.Sys.Cache != nil {
		c.CacheHits, c.CacheMisses = m.Sys.Cache.Hits, m.Sys.Cache.Misses
	}
	return c
}

// since is the activity between snapshot base and c.
func (c counters) since(base counters) counters {
	cur, old := c.activity(), base.activity()
	for i, p := range cur {
		*p -= *old[i]
	}
	c.memBytes -= base.memBytes
	c.scratchBytes -= base.scratchBytes
	return c
}

// collect closes the current run at cycle cycles: its Stats, and the
// metrics registry finalized from the same per-run counters.
func (m *Machine) collect(cycles uint64) *Stats {
	if !m.noSkip {
		// Replay any still-outstanding slept spans so per-cycle stall
		// counters are complete through the unit's last stepped cycle.
		// (In per-cycle mode nothing slept; the kernel's replay cursors
		// were never advanced, so flushing would double-count.)
		m.kern.Flush(uint64(m.lastStepped + 1))
	}
	run := m.counters().since(m.base)
	run.Cycles = cycles
	m.finishMetrics(run)
	return &run.Stats
}

// activity lists the additive counters of s: every field but Cycles.
func (s *Stats) activity() []*uint64 {
	return []*uint64{
		&s.CoreInstrs, &s.CoreStallCycles, &s.Commands, &s.BarrierCycles, &s.ResourceStall,
		&s.Instances, &s.FUOps, &s.MemBytesRead, &s.MemBytesWritten, &s.MemLines,
		&s.CacheHits, &s.CacheMisses, &s.ScratchBytesRead, &s.ScratchBytesWrit,
		&s.RecurrenceBytes, &s.MSEBusy, &s.SSEBusy, &s.RSEBusy,
	}
}

// Add accumulates other into s (for multi-unit aggregation). Cycles
// takes the maximum: units run concurrently.
func (s *Stats) Add(other *Stats) {
	if other.Cycles > s.Cycles {
		s.Cycles = other.Cycles
	}
	sum, add := s.activity(), other.activity()
	for i, p := range sum {
		*p += *add[i]
	}
}

// StallBreakdown exposes the dispatcher's per-command stall counters for
// performance debugging.
func (m *Machine) StallBreakdown() map[isa.Kind]uint64 { return m.disp.StallByKind }

// BarrierDrains reports per-barrier drain cycles keyed by trace
// position, sorted by position — the profile the fix pass's cost-aware
// placement consumes (see internal/fix).
func (m *Machine) BarrierDrains() []dispatch.BarrierDrain { return m.disp.BarrierDrains() }

// DebugState renders a one-line snapshot of the dispatcher queue and
// port occupancy for performance debugging.
func (m *Machine) DebugState() string {
	return fmt.Sprintf("q=%d %v | %s | %s", m.disp.QueueLen(), m.disp.QueueKinds(),
		m.mse.DebugStreams(0), strings.ReplaceAll(m.snapshot(), "\n", " ; "))
}
