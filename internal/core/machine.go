package core

import (
	"fmt"
	"strings"

	"softbrain/internal/cgra"
	"softbrain/internal/dispatch"
	"softbrain/internal/engine"
	"softbrain/internal/faults"
	"softbrain/internal/mem"
	"softbrain/internal/obs"
	"softbrain/internal/port"
	"softbrain/internal/scratch"
	"softbrain/internal/sim"
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

// Machine is one Softbrain unit of a Cluster, which builds and runs it.
type Machine struct {
	cfg Config

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
	noSkip      bool      // wake scheduling disabled (config or per-cycle fault draws)
	lastStepped int64     // last cycle Step actually ran, -1 before the first
	coreStalled bool      // last core tick stalled on the dispatcher
	coreStale   sim.Stale // the control core's watch-set handle

	// progress holds each registered component's Progress() after its
	// last tick, in tick order (Load takes the values the run starts
	// from); progressAt is the last cycle a tick moved one — the clock
	// the run loop's hang detection reads, 0 when the run loads.
	progress   [numComps]uint64
	progressAt uint64

	prog      *Program
	pc        int
	busyUntil uint64
	coreInstr uint64
	coreStall uint64
	base      counters     // activity counters when the current run loaded
	faultBase faults.Stats // injected-fault counts when the current run loaded

	configErr error // deferred error from the config-install callback

	// Observability (see obs.go in this package). Both nil unless
	// enableMetrics is called; the tick path pays one nil check and
	// allocates nothing when disabled.
	reg   *obs.Registry
	attrs []attribution // nil unless metrics are enabled
}

// numComps is how many components newMachine registers with a
// machine's kernel.
const numComps = 6

// newMachine builds a unit over the memory system NewCluster gives it,
// so the units share the backing memory and DRAM bandwidth.
func newMachine(cfg Config, sys *mem.System) (*Machine, error) {
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
	m.lastStepped = -1
	// The numComps components, in tick order.
	m.exec.stale = m.kern.Register(cgraComp{m})
	m.mse.Stale = m.kern.Register(mseComp{m})
	m.sse.Stale = m.kern.Register(sseComp{m})
	m.rse.Stale = m.kern.Register(rseComp{m})
	m.kern.Register(dispComp{m})
	m.coreStale = m.kern.Register(coreComp{m})
	return m, nil
}

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

// Load prepares the machine to run p. The program is sealed first: its
// command stream round-trips through the binary ISA encoding once per
// program, before its first run, so the machine executes the
// architecturally encodable program, not arbitrary Go values. Load
// never modifies p otherwise, so machines may load one program
// concurrently.
func (m *Machine) Load(p *Program) error {
	if err := p.Err(); err != nil {
		return err
	}
	if err := p.seal(); err != nil {
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
	for i, c := range m.kern.Components() {
		m.progress[i] = c.Progress()
	}
	m.progressAt = 0
	// Everything a run reports covers that run alone: restart the
	// per-run profiles and snapshot the counters its Stats are measured
	// from.
	m.disp.ResetProfile()
	m.reg.Reset()
	m.base = m.counters()
	if m.faults != nil {
		m.faultBase = m.faults.Stats()
	}
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
	for i := range comps {
		if !m.kern.ShouldTick(i, now) {
			m.kern.Stats.CompSleeps++
			continue
		}
		m.kern.BeforeTick(i, now)
		if err := m.tick(i, now); err != nil {
			return err
		}
		m.kern.AfterTick(i, now)
		ticked++
	}
	m.kern.CountCycle(ticked)
	m.closeCycle(now)
	return nil
}

// tick runs component i's Tick at cycle now and dates the machine's
// progress to now when the tick moved the component's Progress. A
// deferred program error (config decode, enqueue validation) set by the
// tick surfaces the same cycle; one set by the core, the last
// component, surfaces when the next cycle starts.
func (m *Machine) tick(i int, now uint64) error {
	comps := m.kern.Components()
	c := comps[i]
	if err := c.Tick(now); err != nil {
		return m.stepError(c.Name(), now, err)
	}
	if p := c.Progress(); p != m.progress[i] {
		m.progress[i], m.progressAt = p, now
	}
	if i < len(comps)-1 && m.configErr != nil {
		return m.stepError("program", now, m.configErr)
	}
	return nil
}

// closeCycle ends a cycle the unit was stepped through: the cycle is
// the unit's last stepped one, and with metrics enabled every
// component's stall cause is attributed for it.
func (m *Machine) closeCycle(now uint64) {
	m.lastStepped = int64(now)
	if m.attrs != nil {
		m.classifyCycle(now)
	}
}

// stepAll is the per-cycle path: every component ticks, no wake
// bookkeeping. Used when wake scheduling is disabled and as the
// reference semantics the wake-set path must reproduce exactly (see
// TestSkipAheadWorkloads and the fuzz equivalence suite).
func (m *Machine) stepAll(now uint64) error {
	comps := m.kern.Components()
	for i := range comps {
		if err := m.tick(i, now); err != nil {
			return err
		}
	}
	m.kern.Stats.CompTicks += uint64(len(comps))
	m.kern.CountCycle(len(comps))
	m.closeCycle(now)
	return nil
}

// SchedStats reports the wake-set scheduler's counters for this unit:
// cycles simulated, components ticked and slept, signal-triggered
// wakes, and frozen jumps.
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

// FaultStats returns the faults injected during the current run, zero
// when faults are disabled. The injector's random stream spans the
// machine's runs; only the counts restart at each Load.
func (m *Machine) FaultStats() faults.Stats {
	if m.faults == nil {
		return faults.Stats{}
	}
	return m.faults.Stats().Since(m.faultBase)
}

// stepCore replays the command trace: a single-issue inorder core that
// spends IssueCost cycles per instruction word and stalls on a full
// queue or a pending SD_Barrier_All.
func (m *Machine) stepCore(now uint64) {
	if m.replayed() || now < m.busyUntil {
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

// replayed reports whether the control core has issued its whole
// trace (or has none).
func (m *Machine) replayed() bool { return m.prog == nil || m.pc >= len(m.prog.Trace) }

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
