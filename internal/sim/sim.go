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
// arrives or a neighbor's action signals it. Signals are monotone
// event counters (Signal) raised by state-changing actions: a port
// push or pop, a stream kicked into an engine, a stream leaving an
// engine's table, a scratch-write-buffer slot freed. Each component's
// Watcher implementation sums the signals it depends on into a watch
// signature; the kernel snapshots the signature when the component
// goes to sleep and re-checks it each cycle — one integer compare per
// sleeping component — so a changed input wakes the component on
// exactly the cycle a tick-everything loop would have first acted on
// it. When every component sleeps, the machine state is provably
// frozen until the earliest timed wake and the run loop jumps there
// in O(1) (docs/SIMKERNEL.md gives the full soundness argument).
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

// Signal is a monotone event counter: the dependency edge of the
// wake-set scheduler. A component that changes state another component
// may be sleeping on raises the signal guarding that state (a port
// writer signals the port's reader, an engine retiring a stream
// signals the dispatcher); the sleeper's watch signature sums the
// signals it subscribes to, so any raise changes the signature and
// wakes it. Monotonicity is what makes the single-integer compare
// sound: distinct event histories can never collide back to an old
// signature value.
type Signal uint64

// Raise records one event.
func (s *Signal) Raise() { *s++ }

// Value reads the counter.
func (s Signal) Value() uint64 { return uint64(s) }

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
// A component that also implements Watcher may be slept through
// cycles in which other components act: WatchSig must change whenever
// any external action could invalidate the hint early. A component
// without Watcher is ticked every cycle its hint is not WakeTimed in
// the future — sound, but it forfeits the wake-set savings.
type Component interface {
	// Name identifies the component in error attribution ("mse").
	Name() string
	// Tick advances the component one cycle.
	Tick(now uint64) error
	// NextWake reports when the component next needs a cycle, given
	// the machine state after the current cycle's ticks.
	NextWake(now uint64) Hint
	// Progress is a monotone counter that increases iff the component
	// has done observable work; the run loop's hang detection watches
	// the sum across components.
	Progress() uint64
}

// Watcher extends Component with the wake-set subscription: WatchSig
// returns a monotone signature — a sum of the Signals and event
// counters the component's current hint depends on. The kernel
// snapshots it when the component sleeps and wakes the component the
// first cycle it differs. Soundness requires only that every external
// event that could let the component act earlier than its hint
// promised changes the signature; spurious changes merely cost a
// workless tick.
type Watcher interface {
	WatchSig() uint64
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
	SigWakes   uint64 // wakes caused by a watch-signature change
	Jumps      uint64 // frozen jumps: runs of cycles the run loop did not step this unit
	Skipped    uint64 // cycles elided by this unit's frozen jumps
	Spans      uint64 // multi-cycle spans retired in one call
	SpanCycles uint64 // cycles covered by retired spans

	// SpanHist buckets retired span lengths by floor(log2(n)):
	// bucket 0 holds length 1 (degenerate), bucket k lengths
	// [2^k, 2^(k+1)).
	SpanHist [16]uint64

	// TickHist buckets stepped cycles by how many components ticked:
	// TickHist[k] counts cycles with exactly k ticks (the last bucket
	// absorbs larger counts).
	TickHist [9]uint64
}

// AddSpan records one retired span of n cycles.
func (s *SchedStats) AddSpan(n uint64) {
	s.Spans++
	s.SpanCycles += n
	b := 0
	for v := n; v > 1 && b < len(s.SpanHist)-1; v >>= 1 {
		b++
	}
	s.SpanHist[b]++
}

// Add accumulates other into s (multi-unit aggregation).
func (s *SchedStats) Add(other SchedStats) {
	s.Cycles += other.Cycles
	s.CompTicks += other.CompTicks
	s.CompSleeps += other.CompSleeps
	s.SigWakes += other.SigWakes
	s.Jumps += other.Jumps
	s.Skipped += other.Skipped
	s.Spans += other.Spans
	s.SpanCycles += other.SpanCycles
	for i := range s.SpanHist {
		s.SpanHist[i] += other.SpanHist[i]
	}
	for i := range s.TickHist {
		s.TickHist[i] += other.TickHist[i]
	}
}

// Kernel is the registry of one machine's components, in tick order,
// plus the wake-set scheduler state for each: the cached hint and
// watch signature from the component's last tick, and the cycle of
// that tick (for lazy skip replay).
type Kernel struct {
	comps    []Component
	watchers []Watcher // index-aligned; nil when not a Watcher
	skippers []Skipper // index-aligned; nil when not a Skipper

	hints []Hint
	sigs  []uint64
	last  []int64 // cycle of the last executed tick, -1 before the first

	// Stats tallies the scheduler's behavior (not part of obs dumps).
	Stats SchedStats

	// TickBy tallies executed ticks per component, index-aligned with
	// Components() — the per-component view of Stats.CompTicks.
	TickBy []uint64
}

// Skipped is the number of cycles elided by frozen jumps, kept as a
// plain field view for existing callers.
func (k *Kernel) Skipped() uint64 { return k.Stats.Skipped }

// Register appends a component; registration order is tick order.
func (k *Kernel) Register(c Component) {
	k.comps = append(k.comps, c)
	w, _ := c.(Watcher)
	k.watchers = append(k.watchers, w)
	s, _ := c.(Skipper)
	k.skippers = append(k.skippers, s)
	k.hints = append(k.hints, ReadyNow())
	k.sigs = append(k.sigs, 0)
	k.last = append(k.last, -1)
	k.TickBy = append(k.TickBy, 0)
}

// Components returns the registered components in tick order.
func (k *Kernel) Components() []Component { return k.comps }

// Reset clears the cached wake state for a machine reused across runs:
// every component starts the new run Ready (its first tick re-caches a
// fresh hint and signature) and the lazy-replay cursors rewind to the
// new run's cycle 0. Statistics restart too: they describe one run.
func (k *Kernel) Reset() {
	for i := range k.comps {
		k.hints[i] = ReadyNow()
		k.sigs[i] = 0
		k.last[i] = -1
		k.TickBy[i] = 0
	}
	k.Stats = SchedStats{}
}

// Progress sums the components' monotone progress counters.
func (k *Kernel) Progress() uint64 {
	var p uint64
	for _, c := range k.comps {
		p += c.Progress()
	}
	return p
}

// ShouldTick decides whether component i needs its tick at cycle now:
// its cached hint says Ready, its timed wake has arrived, or — for a
// Watcher — its watch signature changed since it went to sleep. A
// non-Watcher component sleeps only inside a timed wait.
func (k *Kernel) ShouldTick(i int, now uint64) bool {
	h := k.hints[i]
	if h.Kind == WakeReady {
		return true
	}
	if h.Kind == WakeTimed && now >= h.At {
		return true
	}
	w := k.watchers[i]
	if w == nil {
		// Without a watch signature an Idle hint cannot be
		// re-validated against neighbors' actions; tick.
		return h.Kind != WakeTimed
	}
	if w.WatchSig() != k.sigs[i] {
		k.Stats.SigWakes++
		return true
	}
	return false
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

// AfterTick snapshots component i's hint and watch signature after its
// tick at cycle now. Later components in the same cycle may still
// change its inputs; the signature re-check in ShouldTick catches
// that on the next cycle, exactly when a tick-everything loop would
// act on it.
func (k *Kernel) AfterTick(i int, now uint64) {
	k.last[i] = int64(now)
	k.hints[i] = k.comps[i].NextWake(now)
	if w := k.watchers[i]; w != nil {
		k.sigs[i] = w.WatchSig()
	}
	k.Stats.CompTicks++
	k.TickBy[i]++
}

// NextWake combines the components' effective hints after a full
// cycle: Ready if any component will tick next cycle (cached hint
// Ready, timed wake due, or watch signature changed), otherwise the
// earliest timed wake, otherwise Idle. This is the frozen-jump probe:
// a WakeTimed answer proves no component can act before At.
func (k *Kernel) NextWake(now uint64) Hint {
	h := Idle()
	for i := range k.comps {
		hi := k.hints[i]
		switch hi.Kind {
		case WakeReady:
			return ReadyNow()
		case WakeTimed:
			if hi.At <= now+1 {
				return ReadyNow()
			}
		}
		if w := k.watchers[i]; w != nil {
			if w.WatchSig() != k.sigs[i] {
				return ReadyNow()
			}
		} else if hi.Kind == WakeIdle {
			return ReadyNow() // unwatched Idle component ticks every cycle
		}
		if hi.Kind == WakeTimed {
			h = h.Earliest(hi)
		}
	}
	return h
}

// SoloReady probes whether exactly one component is due to tick at
// cycle now — the entry condition for span retirement. It returns the
// index of the sole due component and a limit: the earliest cycle at
// which a sleeping component's timed wake arrives (MaxUint64 when
// every other component is idle). It returns (-1, 0) when zero or
// several components are due, or when a sleeping non-Watcher makes
// the frozen-peers claim unverifiable. The due test mirrors
// ShouldTick exactly, so a span starts only on a cycle where Step
// would have ticked exactly one component.
func (k *Kernel) SoloReady(now uint64) (int, uint64) {
	// Phase 1: hint-due components only — no signature computation, so
	// the common multi-active cycle bails out at the cost of a few
	// integer compares.
	sole := -1
	for i := range k.comps {
		h := k.hints[i]
		if h.Kind == WakeReady || (h.Kind == WakeTimed && now >= h.At) {
			if sole >= 0 {
				return -1, 0
			}
			sole = i
		}
	}
	// Phase 2: the sleepers. A moved watch signature either becomes the
	// sole due component or disqualifies the span; a quiet sleeper
	// contributes its timed wake to the span limit.
	limit := ^uint64(0)
	sigWoke := false
	for i := range k.comps {
		h := k.hints[i]
		if i == sole {
			continue
		}
		w := k.watchers[i]
		if w == nil {
			if h.Kind != WakeTimed {
				return -1, 0 // unverifiable sleeper
			}
		} else if w.WatchSig() != k.sigs[i] {
			if sole >= 0 {
				return -1, 0
			}
			sole, sigWoke = i, true
			continue
		}
		if h.Kind == WakeTimed && h.At < limit {
			limit = h.At
		}
	}
	if sole < 0 {
		return -1, 0
	}
	if sigWoke {
		k.Stats.SigWakes++
	}
	return sole, limit
}

// RetireSpan batches consecutive solo ticks of component sole starting
// at cycle now: tick(sole, t) is called once per cycle with the exact
// cycle number (it must run the component's ordinary Tick). The span
// is bit-exact with per-cycle stepping by construction — the same
// Ticks run at the same cycles, and every peer provably sleeps
// through the span just as ShouldTick would have decided. The span
// ends at the first cycle where one of three things happens:
//
//   - A peer LATER in tick order wakes: in Step, a component whose
//     watch signature the sole tick moved would have ticked that very
//     same cycle, so RetireSpan finishes the cycle inline — ticking
//     the due later peers in order, with the sole component's state
//     cached first exactly as Step's AfterTick ordering does — and
//     returns with that cycle counted.
//   - A peer EARLIER in tick order wakes, or the sole component's own
//     hint says it would not tick next cycle: the span ends after the
//     current cycle; the woken peer ticks next cycle under the normal
//     loop, exactly when Step would have run it.
//   - The exclusive limit arrives (a sleeping peer's timed wake, or
//     the caller's watchdog cap).
//
// Returns the number of cycles fully retired and the first tick
// error, if any; the erroring cycle is not counted, matching Step's
// accounting. The caller must have run BeforeTick(sole, now) first
// and must not call AfterTick — RetireSpan maintains the kernel's
// per-component cache itself.
func (k *Kernel) RetireSpan(sole int, now, limit uint64, tick func(int, uint64) error) (uint64, error) {
	c := k.comps[sole]
	ncomps := len(k.comps)
	n := uint64(0)
	for t := now; t < limit; t++ {
		if err := tick(sole, t); err != nil {
			return n, err
		}
		// Same-cycle wakes: does a later peer need this cycle?
		tail := false
		for j := sole + 1; j < ncomps; j++ {
			if w := k.watchers[j]; w != nil && w.WatchSig() != k.sigs[j] {
				tail = true
				break
			}
		}
		if tail {
			// Finish cycle t inline, mirroring Step for indices past
			// sole. The sole component's hint and signature cache first:
			// later peers' actions this cycle must be able to re-wake it
			// against that snapshot, as after Step's in-loop AfterTick.
			k.AfterTick(sole, t)
			ticked := 1
			for j := sole + 1; j < ncomps; j++ {
				if !k.ShouldTick(j, t) {
					k.Stats.CompSleeps++
					continue
				}
				k.BeforeTick(j, t)
				if err := tick(j, t); err != nil {
					return n, err
				}
				k.AfterTick(j, t)
				ticked++
			}
			k.Stats.CompSleeps += uint64(sole)
			k.Stats.Cycles++
			b := ticked
			if b >= len(k.Stats.TickHist) {
				b = len(k.Stats.TickHist) - 1
			}
			k.Stats.TickHist[b]++
			n++
			k.Stats.AddSpan(n)
			return n, nil
		}
		// Solo cycle: account it and decide whether the span continues.
		k.last[sole] = int64(t)
		k.TickBy[sole]++
		k.Stats.CompTicks++
		k.Stats.CompSleeps += uint64(ncomps - 1)
		k.Stats.Cycles++
		k.Stats.TickHist[1]++
		n++
		early := false
		for j := 0; j < sole; j++ {
			if w := k.watchers[j]; w != nil && w.WatchSig() != k.sigs[j] {
				early = true
				break
			}
		}
		if early {
			break
		}
		h := c.NextWake(t)
		if h.Kind != WakeReady && !(h.Kind == WakeTimed && t+1 >= h.At) {
			break
		}
	}
	k.hints[sole] = c.NextWake(uint64(k.last[sole]))
	if w := k.watchers[sole]; w != nil {
		k.sigs[sole] = w.WatchSig()
	}
	if n > 0 {
		k.Stats.AddSpan(n)
	}
	return n, nil
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
	for i := range k.comps {
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
