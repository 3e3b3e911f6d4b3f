package sim

import "testing"

func TestHintEarliest(t *testing.T) {
	cases := []struct {
		a, b, want Hint
	}{
		{Idle(), Idle(), Idle()},
		{Idle(), WakeAt(10), WakeAt(10)},
		{WakeAt(10), Idle(), WakeAt(10)},
		{WakeAt(10), WakeAt(5), WakeAt(5)},
		{WakeAt(5), WakeAt(10), WakeAt(5)},
		{ReadyNow(), WakeAt(10), ReadyNow()},
		{WakeAt(10), ReadyNow(), ReadyNow()},
		{ReadyNow(), Idle(), ReadyNow()},
		{Idle(), ReadyNow(), ReadyNow()},
	}
	for _, c := range cases {
		if got := c.a.Earliest(c.b); got != c.want {
			t.Errorf("%v.Earliest(%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// fake is a minimal Component with a scripted hint and a constant
// watch signature: nothing but its own hint ever wakes it.
type fake struct {
	name string
	hint Hint
	prog uint64

	ticks []uint64
	skips []ated
}

type ated struct{ from, to uint64 }

func (f *fake) Name() string             { return f.name }
func (f *fake) Tick(now uint64) error    { f.ticks = append(f.ticks, now); return nil }
func (f *fake) NextWake(now uint64) Hint { return f.hint }
func (f *fake) Progress() uint64         { return f.prog }
func (f *fake) OnSkip(from, to uint64)   { f.skips = append(f.skips, ated{from, to}) }
func (f *fake) WatchSig() uint64         { return 0 }

// watched adds a watch signature, modeling a component whose inputs
// are guarded by signals.
type watched struct {
	fake
	sig Signal
}

func (w *watched) WatchSig() uint64 { return w.sig.Value() }

func TestKernelProgress(t *testing.T) {
	var k Kernel
	k.Register(&fake{name: "a", prog: 3})
	k.Register(&fake{name: "b", prog: 4})
	if got := k.Progress(); got != 7 {
		t.Errorf("Progress() = %d, want 7", got)
	}
}

// tick runs one kernel cycle over the registry the way Machine.Step
// does: ShouldTick gate, lazy replay, tick, snapshot.
func tick(t *testing.T, k *Kernel, now uint64) {
	t.Helper()
	for i, c := range k.Components() {
		if !k.ShouldTick(i, now) {
			k.Stats.CompSleeps++
			continue
		}
		k.BeforeTick(i, now)
		if err := c.Tick(now); err != nil {
			t.Fatalf("tick %s at %d: %v", c.Name(), now, err)
		}
		k.AfterTick(i, now)
	}
	k.Stats.Cycles++
}

func TestKernelShouldTick(t *testing.T) {
	var k Kernel
	w := &watched{fake: fake{name: "w", hint: Idle()}}
	tm := &fake{name: "t", hint: WakeAt(5)}
	k.Register(w)
	k.Register(tm)

	// Cycle 0: fresh registrations default to Ready — everyone ticks.
	tick(t, &k, 0)
	for _, f := range []*fake{&w.fake, tm} {
		if len(f.ticks) != 1 {
			t.Fatalf("%s ticked %v on the first cycle", f.name, f.ticks)
		}
	}

	// Cycle 1: the watcher sleeps (Idle, signature unchanged), the
	// timed component sleeps until cycle 5.
	tick(t, &k, 1)
	if len(w.ticks) != 1 {
		t.Errorf("watcher ticked %v; want asleep at cycle 1", w.ticks)
	}
	if len(tm.ticks) != 1 {
		t.Errorf("timed component ticked %v; want asleep until 5", tm.ticks)
	}

	// A signal raise wakes the watcher on the next cycle and is counted.
	w.sig.Raise()
	tick(t, &k, 2)
	if len(w.ticks) != 2 || w.ticks[1] != 2 {
		t.Errorf("watcher ticks %v; want woken at cycle 2", w.ticks)
	}
	if k.Stats.SigWakes != 1 {
		t.Errorf("SigWakes = %d, want 1", k.Stats.SigWakes)
	}

	// The timed component wakes exactly at its deadline.
	for now := uint64(3); now <= 5; now++ {
		tick(t, &k, now)
	}
	if len(tm.ticks) != 2 || tm.ticks[1] != 5 {
		t.Errorf("timed component ticks %v; want second tick at 5", tm.ticks)
	}
}

func TestKernelLazyReplay(t *testing.T) {
	var k Kernel
	w := &watched{fake: fake{name: "w", hint: Idle()}}
	k.Register(w)
	tick(t, &k, 0) // ticks, sleeps afterwards
	for now := uint64(1); now < 4; now++ {
		tick(t, &k, now) // asleep: cycles 1,2,3 accumulate
	}
	w.sig.Raise()
	tick(t, &k, 4)
	if len(w.skips) != 1 || w.skips[0] != (ated{1, 4}) {
		t.Errorf("replayed spans %v, want [{1 4}]", w.skips)
	}
	if len(w.ticks) != 2 || w.ticks[1] != 4 {
		t.Errorf("ticks %v, want second tick at 4", w.ticks)
	}
	// Outstanding sleep at run end is replayed by Flush, exactly once.
	tick(t, &k, 5) // asleep again (signature re-snapshotted at 4)
	k.Flush(6)
	if len(w.skips) != 2 || w.skips[1] != (ated{5, 6}) {
		t.Errorf("flushed spans %v, want [{1 4} {5 6}]", w.skips)
	}
	k.Flush(6) // idempotent: cursors advanced
	if len(w.skips) != 2 {
		t.Errorf("second Flush replayed again: %v", w.skips)
	}
}

func TestKernelNextWake(t *testing.T) {
	const now = 10
	t.Run("ready dominates", func(t *testing.T) {
		var k Kernel
		k.Register(&fake{name: "a", hint: ReadyNow()})
		k.Register(&fake{name: "b", hint: WakeAt(500)})
		seed(t, &k, now)
		if h := k.NextWake(now); h.Kind != WakeReady {
			t.Errorf("NextWake = %v, want ready", h)
		}
	})
	t.Run("watched idle plus timed jumps", func(t *testing.T) {
		var k Kernel
		k.Register(&watched{fake: fake{name: "w", hint: Idle()}})
		k.Register(&fake{name: "t", hint: WakeAt(500)})
		seed(t, &k, now)
		if h := k.NextWake(now); h != WakeAt(500) {
			t.Errorf("NextWake = %v, want WakeAt(500)", h)
		}
	})
	t.Run("signature change vetoes", func(t *testing.T) {
		var k Kernel
		w := &watched{fake: fake{name: "w", hint: Idle()}}
		k.Register(w)
		k.Register(&fake{name: "t", hint: WakeAt(500)})
		seed(t, &k, now)
		w.sig.Raise()
		if h := k.NextWake(now); h.Kind != WakeReady {
			t.Errorf("NextWake = %v, want ready after raise", h)
		}
	})
	t.Run("due next cycle is no jump", func(t *testing.T) {
		var k Kernel
		k.Register(&fake{name: "t", hint: WakeAt(now + 1)})
		seed(t, &k, now)
		if h := k.NextWake(now); h.Kind != WakeReady {
			t.Errorf("NextWake = %v, want ready (due next cycle)", h)
		}
	})
	t.Run("all watched idle is idle", func(t *testing.T) {
		var k Kernel
		k.Register(&watched{fake: fake{name: "w", hint: Idle()}})
		seed(t, &k, now)
		if h := k.NextWake(now); h.Kind != WakeIdle {
			t.Errorf("NextWake = %v, want idle", h)
		}
	})
}

// seed runs one cycle so every component's hint and signature are
// snapshotted (NextWake reads the cached state, as the run loop does
// after Step).
func seed(t *testing.T, k *Kernel, now uint64) {
	t.Helper()
	tick(t, k, now)
}

func TestKernelJump(t *testing.T) {
	var k Kernel
	k.Register(&fake{name: "a"})
	k.Jump(11, 40)
	k.Jump(50, 60)
	k.Jump(60, 60) // empty span: no-op
	if got := k.Stats.Skipped; got != (40-11)+(60-50) {
		t.Errorf("Skipped() = %d, want %d", got, (40-11)+(60-50))
	}
	if k.Stats.Jumps != 2 {
		t.Errorf("Jumps = %d, want 2", k.Stats.Jumps)
	}
}

func TestSchedStatsAddSpan(t *testing.T) {
	var s SchedStats
	s.AddSpan(1)
	s.AddSpan(2)
	s.AddSpan(3)
	s.AddSpan(4)
	s.AddSpan(1 << 20)
	if s.Spans != 5 || s.SpanCycles != 1+2+3+4+(1<<20) {
		t.Fatalf("Spans=%d SpanCycles=%d", s.Spans, s.SpanCycles)
	}
	if s.SpanHist[0] != 1 || s.SpanHist[1] != 2 || s.SpanHist[2] != 1 {
		t.Errorf("low buckets %v", s.SpanHist[:3])
	}
	if s.SpanHist[15] != 1 {
		t.Errorf("overflow bucket = %d, want 1 (clamped)", s.SpanHist[15])
	}
}

// TestSignatureWakeCountedOnce checks that a signature wake is counted
// once, where the woken tick runs: by RetireSpan when the span is
// retired, by ShouldTick when the caller declines a one-cycle span.
func TestSignatureWakeCountedOnce(t *testing.T) {
	const now = 10
	for _, tc := range []struct {
		name  string
		peer  Hint
		limit uint64
	}{
		{"declined", WakeAt(now + 1), now + 1},
		{"retired", Idle(), ^uint64(0)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var k Kernel
			w := &watched{fake: fake{name: "w", hint: Idle()}}
			k.Register(w)
			k.Register(&fake{name: "p", hint: tc.peer})
			seed(t, &k, now-1)
			k.Stats = SchedStats{}
			w.sig.Raise()
			sole, limit := k.SoloReady(now)
			if sole != 0 || limit != tc.limit {
				t.Fatalf("SoloReady = (%d, %d), want (0, %d)", sole, limit, tc.limit)
			}
			if limit <= now+1 {
				tick(t, &k, now)
			} else {
				k.BeforeTick(sole, now)
				n, open, err := k.RetireSpan(sole, now, limit, w.Tick, func(uint64) {})
				if err != nil || n != 1 || open {
					t.Fatalf("RetireSpan = (%d, %v, %v), want one closed cycle", n, open, err)
				}
			}
			if len(w.ticks) != 2 || w.ticks[1] != now {
				t.Errorf("watcher ticks %v, want woken at %d", w.ticks, now)
			}
			if k.Stats.SigWakes != 1 {
				t.Errorf("SigWakes = %d, want 1", k.Stats.SigWakes)
			}
		})
	}
}
