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

// fake is a minimal Component with a scripted hint and an empty watch
// set: nothing but its own hint ever wakes it.
type fake struct {
	name string
	hint Hint

	ticks []uint64
	skips []ated
}

type ated struct{ from, to uint64 }

func (f *fake) Name() string                  { return f.name }
func (f *fake) Tick(now uint64) error         { f.ticks = append(f.ticks, now); return nil }
func (f *fake) NextWake(now uint64) Hint      { return f.hint }
func (f *fake) Progress() uint64              { return 0 }
func (f *fake) OnSkip(from, to uint64)        { f.skips = append(f.skips, ated{from, to}) }
func (f *fake) Watch(dst []*Signal) []*Signal { return dst }

// watched adds a watched signal, modeling a component whose inputs
// are guarded by signals.
type watched struct {
	fake
	sig Signal
}

func (w *watched) Watch(dst []*Signal) []*Signal { return append(dst, &w.sig) }

// tick runs one kernel cycle over the registry the way Machine.Step
// does: ShouldTick gate, lazy replay, tick, settle.
func tick(t *testing.T, k *Kernel, now uint64) {
	t.Helper()
	for i, c := range k.Components() {
		if !k.ShouldTick(i, now) {
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

	// Cycle 1: the watcher sleeps (Idle, no watched signal raised), the
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
	tick(t, &k, 5) // asleep again (its wake bit cleared by its tick at 4)
	k.Flush(6)
	if len(w.skips) != 2 || w.skips[1] != (ated{5, 6}) {
		t.Errorf("flushed spans %v, want [{1 4} {5 6}]", w.skips)
	}
	k.Flush(6) // idempotent: cursors advanced
	if len(w.skips) != 2 {
		t.Errorf("second Flush replayed again: %v", w.skips)
	}
}

// TestKernelNextWake checks Kernel.Due, the one probe of when a kernel
// next needs a cycle, after a cycle's ticks: whether any component is
// due next cycle and, when none is, the earliest timed wake.
func TestKernelNextWake(t *testing.T) {
	const now = 10
	const never = ^uint64(0)
	due := func(t *testing.T, k *Kernel, due bool, limit uint64) {
		t.Helper()
		gdue, glimit := k.Due(now + 1)
		if gdue != due || (!due && glimit != limit) {
			t.Errorf("Due = (%v, %d), want (%v, %d)", gdue, glimit, due, limit)
		}
	}
	t.Run("ready dominates", func(t *testing.T) {
		var k Kernel
		k.Register(&fake{name: "a", hint: ReadyNow()})
		k.Register(&fake{name: "b", hint: WakeAt(500)})
		seed(t, &k, now)
		due(t, &k, true, 0)
	})
	t.Run("watched idle plus timed jumps", func(t *testing.T) {
		var k Kernel
		k.Register(&watched{fake: fake{name: "w", hint: Idle()}})
		k.Register(&fake{name: "t", hint: WakeAt(500)})
		seed(t, &k, now)
		due(t, &k, false, 500)
	})
	t.Run("signature change vetoes", func(t *testing.T) {
		// A raise makes its watcher due: no jump.
		var k Kernel
		w := &watched{fake: fake{name: "w", hint: Idle()}}
		k.Register(w)
		k.Register(&fake{name: "t", hint: WakeAt(500)})
		seed(t, &k, now)
		w.sig.Raise()
		due(t, &k, true, 0)
	})
	t.Run("due next cycle is no jump", func(t *testing.T) {
		var k Kernel
		k.Register(&fake{name: "t", hint: WakeAt(now + 1)})
		seed(t, &k, now)
		due(t, &k, true, 0)
	})
	t.Run("all watched idle is idle", func(t *testing.T) {
		var k Kernel
		k.Register(&watched{fake: fake{name: "w", hint: Idle()}})
		seed(t, &k, now)
		due(t, &k, false, never)
	})
	t.Run("two raised bits", func(t *testing.T) {
		// Two raises answer due from the wake word alone.
		var k Kernel
		a := &watched{fake: fake{name: "a", hint: Idle()}}
		b := &watched{fake: fake{name: "b", hint: Idle()}}
		k.Register(a)
		k.Register(b)
		seed(t, &k, now)
		a.sig.Raise()
		b.sig.Raise()
		due(t, &k, true, 0)
	})
	t.Run("raised and due counts once", func(t *testing.T) {
		// A component both raised and due by its hint is due, and its
		// tick counts as a hint wake, not also as a signal wake.
		var k Kernel
		w := &watched{fake: fake{name: "w", hint: WakeAt(now + 1)}}
		k.Register(w)
		k.Register(&fake{name: "t", hint: WakeAt(500)})
		seed(t, &k, now)
		k.Stats = SchedStats{}
		w.sig.Raise()
		due(t, &k, true, 0)
		tick(t, &k, now+1)
		if len(w.ticks) != 2 || w.ticks[1] != now+1 {
			t.Errorf("watcher ticks %v, want one at %d", w.ticks, now+1)
		}
		if k.Stats.SigWakes != 0 {
			t.Errorf("SigWakes = %d, want 0", k.Stats.SigWakes)
		}
	})
}

// seed runs one cycle so every component's hint is cached and its
// watch set declared (Due reads the cached state, as the run loop does
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

// TestSignatureWakeCountedOnce checks that a signal wake is counted
// once, by ShouldTick where the woken tick runs, and not by Due, which
// only probes.
func TestSignatureWakeCountedOnce(t *testing.T) {
	const now = 10
	for _, tc := range []struct {
		name string
		peer Hint
	}{
		// The watcher is raised while a peer is due next cycle too.
		{"declined", WakeAt(now + 1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var k Kernel
			w := &watched{fake: fake{name: "w", hint: Idle()}}
			k.Register(w)
			k.Register(&fake{name: "p", hint: tc.peer})
			seed(t, &k, now-1)
			k.Stats = SchedStats{}
			w.sig.Raise()
			if due, _ := k.Due(now); !due {
				t.Fatal("Due: a raised watcher is not due")
			}
			if k.Stats.SigWakes != 0 {
				t.Fatalf("Due counted %d signal wakes, want 0", k.Stats.SigWakes)
			}
			tick(t, &k, now)
			if len(w.ticks) != 2 || w.ticks[1] != now {
				t.Errorf("watcher ticks %v, want woken at %d", w.ticks, now)
			}
			if k.Stats.SigWakes != 1 {
				t.Errorf("SigWakes = %d, want 1", k.Stats.SigWakes)
			}
		})
	}
}

// switcher watches a settable list of signals and, like an engine
// retiring a stream, changes that list inside its own tick: the tick
// installs next, if set, and marks the watch set stale.
type switcher struct {
	fake
	stale Stale
	set   []*Signal
	next  []*Signal
}

func (s *switcher) Tick(now uint64) error {
	if s.next != nil {
		s.set, s.next = s.next, nil
		s.stale.Mark()
	}
	return s.fake.Tick(now)
}

func (s *switcher) Watch(dst []*Signal) []*Signal { return append(dst, s.set...) }

// TestWatchRedeclared checks that a re-declared watch set moves the
// component's wake bit: a raise of a signal the set dropped no longer
// wakes it, and a raise of a signal the set added does.
func TestWatchRedeclared(t *testing.T) {
	var a, b Signal
	var k Kernel
	sw := &switcher{fake: fake{name: "s", hint: Idle()}}
	sw.set = []*Signal{&a}
	sw.stale = k.Register(sw)
	tick(t, &k, 0) // declares {a}

	b.Raise()
	if k.ShouldTick(0, 1) {
		t.Fatal("a raise of an unwatched signal woke the component")
	}
	a.Raise()
	sw.next = []*Signal{&b}
	tick(t, &k, 1) // woken by a; its tick swaps the set to {b}
	if len(sw.ticks) != 2 {
		t.Fatalf("ticks %v, want woken at 1", sw.ticks)
	}

	a.Raise()
	if k.ShouldTick(0, 2) {
		t.Error("a raise of the dropped signal woke the component")
	}
	b.Raise()
	if !k.ShouldTick(0, 2) {
		t.Error("a raise of the added signal did not wake the component")
	}
}
