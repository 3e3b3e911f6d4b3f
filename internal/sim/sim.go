// Package sim is the simulation kernel under internal/core: the
// unified component model the machine's cycle loop runs over. Every
// microarchitectural unit (CGRA executor, the three stream engines,
// the dispatcher, the control core) implements Component — one Tick
// shape instead of the five ad-hoc ones the machine used to sequence
// by hand — and reports a wake hint describing when it next needs a
// cycle.
//
// The kernel is event-driven: a component whose hint is WakeIdle or
// WakeTimed sleeps — its Tick is not called — until its timed wake
// arrives or a neighbor's action signals it. Wakes are pushed, not
// polled. A state-changing action raises a Signal: a port push or pop
// that moves bytes, a stream kicked into an engine, a stream leaving
// an engine's table, a scratch-write-buffer slot freed. Each component
// declares the signals it watches (Component.Watch) whenever that set
// changes, and a raise sets the wake bit of every watcher in its
// kernel's wake word. Deciding whether a sleeper ticks is one bit
// test, and a raised input wakes the component on exactly the cycle a
// tick-everything loop would have first acted on it. When every
// component sleeps, the machine state is provably frozen until the
// earliest timed wake and the run loop jumps there in O(1)
// (docs/SIMKERNEL.md gives the full soundness argument).
package sim

// WakeKind classifies a component's next-wake hint.
type WakeKind uint8

const (
	// WakeReady: the component can make progress now and must be
	// ticked every cycle.
	WakeReady WakeKind = iota
	// WakeTimed: the component is inert until a known future cycle
	// (a memory response in flight, a pipeline latency, a busy core).
	WakeTimed
	// WakeIdle: the component will do nothing until another
	// component's action changes its inputs.
	WakeIdle
)

func (k WakeKind) String() string {
	switch k {
	case WakeReady:
		return "ready"
	case WakeTimed:
		return "timed"
	case WakeIdle:
		return "idle"
	}
	return "WakeKind(?)"
}

// Hint is one component's answer to "when do you next need a cycle?".
// The zero value is WakeReady — a component that cannot prove it is
// inert defaults to being ticked every cycle, which is always sound.
type Hint struct {
	Kind WakeKind
	At   uint64 // wake cycle, meaningful only for WakeTimed
}

// ReadyNow hints that the component has work this cycle.
func ReadyNow() Hint { return Hint{Kind: WakeReady} }

// WakeAt hints that the component is inert until the given cycle.
func WakeAt(cycle uint64) Hint { return Hint{Kind: WakeTimed, At: cycle} }

// Idle hints that the component is inert until another component acts.
func Idle() Hint { return Hint{Kind: WakeIdle} }

// Earliest combines two hints: Ready dominates, then the earlier of
// two timed wakes, and Idle only when both sides are idle.
func (h Hint) Earliest(o Hint) Hint {
	switch {
	case h.Kind == WakeReady || o.Kind == WakeReady:
		return ReadyNow()
	case h.Kind == WakeTimed && o.Kind == WakeTimed:
		if o.At < h.At {
			return o
		}
		return h
	case o.Kind == WakeTimed:
		return o
	default:
		return h
	}
}

// Signal is the dependency edge of the wake-set scheduler. A component
// that changes state another component may be sleeping on raises the
// signal guarding that state (a port writer signals the port's reader,
// an engine retiring a stream signals the dispatcher). The signal
// holds the kernel bits of the components that watch it, and Raise
// sets those bits in the kernel's wake word, so the sleeper wakes
// whenever the raise happens: inside a tick, in an OnSkip replay, or
// between cycles. All watchers of a signal belong to one kernel. The
// zero value is watched by nobody, and raising it does nothing.
type Signal struct {
	mask uint64  // kernel bits of the components watching the signal
	wake *uint64 // the watching kernel's wake word
}

// Raise wakes every component watching the signal.
func (s *Signal) Raise() {
	if s.mask != 0 {
		*s.wake |= s.mask
	}
}

// Stale is a component's handle on its own watch declaration, returned
// by Kernel.Register. Mark tells the kernel that the component's watch
// set has changed: the kernel re-reads Watch when the component's
// current or next tick ends. The zero value marks nothing.
type Stale struct {
	word *uint64
	bit  uint64
}

// Mark flags the component's watch set for re-declaration.
func (s Stale) Mark() {
	if s.word != nil {
		*s.word |= s.bit
	}
}

// Component is one simulated unit under the kernel.
//
// The wake-hint contract: after Tick(now) has run for every component
// of a machine, NextWake(now) must be sound — a component may report
// WakeIdle or WakeAt(c) only if ticking it at any cycle in (now, c)
// (or at any later cycle at all, for Idle), with every other
// component's state unchanged, would alter no state and no statistic.
// Over-reporting WakeReady is always safe; it only costs host time.
// A component whose per-cycle behavior in the frozen state is not a
// strict no-op (it counts stall cycles, say) additionally implements
// Skipper so skipped spans stay statistically cycle-exact.
//
// A component may be slept through cycles in which other components
// act: every external action that could invalidate the hint early must
// raise a signal the component watches.
type Component interface {
	// Name identifies the component in error attribution ("mse").
	Name() string
	// Tick advances the component one cycle.
	Tick(now uint64) error
	// NextWake reports when the component next needs a cycle, given
	// the machine state after the current cycle's ticks.
	NextWake(now uint64) Hint
	// Progress is a monotone counter that increases iff the component
	// has done observable work. It may move only inside the component's
	// own Tick: the machine reads it after each of those ticks and dates
	// the run's last progress, which hang detection watches, from the
	// cycles it moved on.
	Progress() uint64
	// Watch is the wake-set subscription: it appends to dst the Signals
	// the component's hints depend on and returns the extended slice.
	// The kernel reads it only when the set may have changed: at the
	// component's first tick, after Reset, and after the component
	// marks its Stale handle. Soundness requires that every external
	// event that could let the component act earlier than its hint
	// promised raises a watched signal, and that the set changes only
	// inside the component's own tick or together with a raise of a
	// signal it watches throughout; a spurious raise merely costs a
	// workless tick.
	Watch(dst []*Signal) []*Signal
}

// Skipper is implemented by components that must account for skipped
// cycles: OnSkip(from, to) reports that cycles [from, to) were elided
// — the component was asleep, so each of those cycles would have
// repeated the last executed tick's bookkeeping (stall counters,
// arbitration rotation) without changing any other state — and the
// component must apply that per-cycle bookkeeping now. The kernel
// replays lazily: a sleeping component accumulates its span and
// replays it immediately before its next real tick (or at the end of
// the run), which is equivalent because OnSkip touches only state no
// other component and no per-cycle classification reads.
type Skipper interface {
	OnSkip(from, to uint64)
}

// SchedStats counts what the wake-set scheduler did, for the
// event-driven win to be attributable rather than a wall-clock delta.
// It is deliberately not part of the obs metrics dump: dumps are
// byte-compared across scheduling modes, and these counters exist to
// differ between modes. The counters are per unit: in a cluster each
// unit steps and freezes on its own, and every cycle up to a unit's
// last step is counted in exactly one of Cycles and Skipped.
type SchedStats struct {
	Cycles     uint64 // cycles the run loop stepped this unit (not jumped)
	CompTicks  uint64 // component ticks actually executed
	CompSleeps uint64 // component-cycles slept during stepped cycles
	SigWakes   uint64 // wakes caused by a raised watched signal
	Jumps      uint64 // frozen jumps: runs of cycles the run loop did not step this unit
	Skipped    uint64 // cycles elided by this unit's frozen jumps

	// SpanCycles is always 0. It counted the cycles of span retirement,
	// a batched stepping path since deleted (docs/SIMKERNEL.md §4), and
	// stays only because the benchmark's sim.span_cycle_frac reads it
	// (perfbench/layers.go:347). ROADMAP item 2 drops that metric and
	// this field together.
	SpanCycles uint64

	// TickHist buckets stepped cycles by how many components ticked:
	// TickHist[k] counts cycles with exactly k ticks (the last bucket
	// absorbs larger counts).
	TickHist [9]uint64
}

// Add accumulates other into s (multi-unit aggregation).
func (s *SchedStats) Add(other SchedStats) {
	s.Cycles += other.Cycles
	s.CompTicks += other.CompTicks
	s.CompSleeps += other.CompSleeps
	s.SigWakes += other.SigWakes
	s.Jumps += other.Jumps
	s.Skipped += other.Skipped
	for i := range s.TickHist {
		s.TickHist[i] += other.TickHist[i]
	}
}

// maxComponents bounds a kernel's registry: each component owns one
// bit of the kernel's wake and stale words.
const maxComponents = 64

// Kernel is the registry of one machine's components, in tick order,
// plus the wake-set scheduler state for each: the cached hint from the
// component's last tick, the cycle of that tick (for lazy skip
// replay), the signals it watches, and one bit of each of the two
// words below. Its tables are fixed arrays, so registration allocates
// nothing. A kernel must not be copied once a component is registered:
// signals point at its wake word.
type Kernel struct {
	n        int // registered components
	comps    [maxComponents]Component
	skippers [maxComponents]Skipper // nil when not a Skipper

	hints [maxComponents]Hint
	last  [maxComponents]int64     // cycle of the last executed tick, -1 before the first
	watch [maxComponents][]*Signal // each component's declared watch set

	// wake has bit i set when a signal component i watches was raised
	// since i's last tick ended. stale has bit i set when i's watch set
	// must be re-read when its next tick ends.
	wake, stale uint64

	// Stats tallies the scheduler's behavior (not part of obs dumps).
	Stats SchedStats

	// TickBy tallies executed ticks per component, index-aligned with
	// Components() — the per-component view of Stats.CompTicks.
	TickBy [maxComponents]uint64
}

// Register appends a component; registration order is tick order. It
// returns the component's Stale handle.
func (k *Kernel) Register(c Component) Stale {
	i := k.n
	if i == maxComponents {
		panic("sim: a kernel holds at most 64 components")
	}
	k.n++
	k.comps[i] = c
	k.skippers[i], _ = c.(Skipper)
	k.hints[i] = ReadyNow()
	k.last[i] = -1
	bit := uint64(1) << i
	k.stale |= bit
	return Stale{word: &k.stale, bit: bit}
}

// Components returns the registered components in tick order.
func (k *Kernel) Components() []Component { return k.comps[:k.n] }

// Reset clears the cached wake state for a machine reused across runs:
// every component starts the new run Ready (its first tick re-caches a
// fresh hint and re-declares its watch set) and the lazy-replay
// cursors rewind to the new run's cycle 0. Statistics restart too:
// they describe one run.
func (k *Kernel) Reset() {
	for i := range k.n {
		k.hints[i] = ReadyNow()
		k.last[i] = -1
		k.TickBy[i] = 0
	}
	k.wake = 0
	k.stale = ^uint64(0) >> (64 - k.n)
	k.Stats = SchedStats{}
}

// ShouldTick decides whether component i needs its tick at cycle now:
// its cached hint says Ready, its timed wake has arrived, or a signal
// it watches was raised since its last tick.
func (k *Kernel) ShouldTick(i int, now uint64) bool {
	if k.hintDue(i, now) {
		return true
	}
	if k.wake&(1<<i) != 0 {
		k.Stats.SigWakes++
		return true
	}
	return false
}

// hintDue reports whether component i's cached hint alone makes it due
// at cycle now: Ready, or a timed wake that has arrived.
func (k *Kernel) hintDue(i int, now uint64) bool {
	h := k.hints[i]
	return h.Kind == WakeReady || (h.Kind == WakeTimed && now >= h.At)
}

// BeforeTick replays component i's accumulated sleep span [last+1,
// now) immediately before its tick at now, keeping its per-cycle
// bookkeeping cycle-exact.
func (k *Kernel) BeforeTick(i int, now uint64) {
	if s := k.skippers[i]; s != nil {
		if from := uint64(k.last[i] + 1); from < now {
			s.OnSkip(from, now)
		}
	}
}

// AfterTick caches component i's hint after its tick at cycle now and
// settles its wake state: it re-reads the watch set if the component
// marked it stale, moving the component's bit from the signals it left
// to the ones it joined, and clears the wake bit, so only raises after
// this tick wake the component again. Later components in the same
// cycle may still raise its signals; the bit test in ShouldTick
// catches that on the next cycle, exactly when a tick-everything loop
// would act on it.
func (k *Kernel) AfterTick(i int, now uint64) {
	k.last[i] = int64(now)
	k.hints[i] = k.comps[i].NextWake(now)
	bit := uint64(1) << i
	if k.stale&bit != 0 {
		k.stale &^= bit
		for _, s := range k.watch[i] {
			s.mask &^= bit
		}
		k.watch[i] = k.comps[i].Watch(k.watch[i][:0])
		for _, s := range k.watch[i] {
			s.mask |= bit
			s.wake = &k.wake
		}
	}
	k.wake &^= bit
	k.Stats.CompTicks++
	k.TickBy[i]++
}

// Due is the run loop's one probe of a machine after a stepped cycle:
// whether any component is due to tick at cycle next — by a raised
// watched signal or a cached hint that is Ready or timed at or before
// next — and, when none is, limit, the earliest timed wake, MaxUint64
// when every component is idle. The answer picks the unit's next move:
// due steps the next cycle; not due with a finite limit proves no
// component acts before limit (a frozen jump); not due without one
// means every component is idle. The due test mirrors ShouldTick
// exactly: the cycle a due unit steps next ticks some component. The
// probe counts nothing: a signal wake is counted by ShouldTick, where
// the woken tick runs.
func (k *Kernel) Due(next uint64) (due bool, limit uint64) {
	limit = ^uint64(0)
	if k.wake != 0 {
		return true, limit
	}
	for i, h := range k.hints[:k.n] {
		switch {
		case k.hintDue(i, next):
			return true, limit
		case h.Kind == WakeTimed && h.At < limit:
			limit = h.At
		}
	}
	return false, limit
}

// CountCycle records one stepped cycle in which ticked components ran.
func (k *Kernel) CountCycle(ticked int) {
	k.Stats.Cycles++
	if ticked >= len(k.Stats.TickHist) {
		ticked = len(k.Stats.TickHist) - 1
	}
	k.Stats.TickHist[ticked]++
}

// Jump records a frozen jump over cycles [from, to): every component
// of the unit was asleep, so the span lands in each one's lazy replay
// span; only the statistics move here.
func (k *Kernel) Jump(from, to uint64) {
	if to <= from {
		return
	}
	k.Stats.Jumps++
	k.Stats.Skipped += to - from
}

// Flush replays every component's outstanding sleep span up to end
// (exclusive): cycles [last+1, end) were elided for a component whose
// last tick ran at cycle last. Call once when the run loop stops
// stepping the machine — at completion, or when a cluster peer
// outlives it — before reading any per-cycle statistic.
func (k *Kernel) Flush(end uint64) {
	for i := range k.n {
		if s := k.skippers[i]; s != nil {
			if from := uint64(k.last[i] + 1); from < end {
				s.OnSkip(from, end)
			}
		}
		if k.last[i] < int64(end)-1 {
			k.last[i] = int64(end) - 1
		}
	}
}
