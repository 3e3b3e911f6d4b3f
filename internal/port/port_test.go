package port

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"softbrain/internal/sim"
)

func mustNew(t *testing.T, name string, widthWords, depthWords int) *Queue {
	t.Helper()
	q, err := New(name, widthWords, depthWords)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestFIFOOrder(t *testing.T) {
	q := mustNew(t, "A", 4, 16)
	q.Push([]byte{1, 2, 3})
	q.Push([]byte{4, 5})
	if got := q.Pop(4); !bytes.Equal(got, []byte{1, 2, 3, 4}) {
		t.Errorf("Pop(4) = %v", got)
	}
	if got := q.Pop(1); !bytes.Equal(got, []byte{5}) {
		t.Errorf("Pop(1) = %v", got)
	}
	if !q.Empty() {
		t.Error("queue should be empty")
	}
}

func TestSpaceAccounting(t *testing.T) {
	q := mustNew(t, "A", 2, 4) // 32 bytes
	if q.Space() != 32 || q.CapacityBytes() != 32 {
		t.Fatalf("capacity wrong: space=%d", q.Space())
	}
	q.Push(make([]byte, 30))
	if q.Space() != 2 || q.Len() != 30 {
		t.Errorf("space=%d len=%d, want 2, 30", q.Space(), q.Len())
	}
	q.Pop(10)
	if q.Space() != 12 {
		t.Errorf("space=%d after pop, want 12", q.Space())
	}
}

func TestWords(t *testing.T) {
	q := mustNew(t, "W", 8, 8)
	q.PushWords([]uint64{0x1122334455667788, 42})
	if !q.HasWords(2) || q.HasWords(3) {
		t.Error("HasWords wrong")
	}
	ws := q.PopWords(2)
	if ws[0] != 0x1122334455667788 || ws[1] != 42 {
		t.Errorf("PopWords = %#x", ws)
	}
}

func TestPeekAndDiscard(t *testing.T) {
	q := mustNew(t, "P", 1, 8)
	q.Push([]byte{9, 8, 7})
	if got := q.Peek(2); !bytes.Equal(got, []byte{9, 8}) {
		t.Errorf("Peek = %v", got)
	}
	if q.Len() != 3 {
		t.Error("Peek should not consume")
	}
	q.Discard(2)
	if got := q.Pop(1); got[0] != 7 {
		t.Errorf("after Discard, Pop = %v", got)
	}
}

func TestStats(t *testing.T) {
	q := mustNew(t, "S", 1, 8)
	q.Push(make([]byte, 8))
	q.Pop(3)
	q.Push(make([]byte, 5))
	if q.TotalIn() != 13 || q.TotalOut() != 3 {
		t.Errorf("stats in=%d out=%d, want 13, 3", q.TotalIn(), q.TotalOut())
	}
}

// TestInvariantPanics checks that contract violations raise the typed
// Invariant value the machine's Run boundary recovers, carrying the
// port name and operation.
func TestInvariantPanics(t *testing.T) {
	expectInvariant := func(name, op string, f func()) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Errorf("%s: expected panic", name)
				return
			}
			inv, ok := r.(Invariant)
			if !ok {
				t.Errorf("%s: panic value %T, want Invariant", name, r)
				return
			}
			if inv.Op != op || inv.Port == "" || inv.Component() != "port" {
				t.Errorf("%s: incomplete invariant %+v", name, inv)
			}
			var err error = inv
			if err.Error() == "" {
				t.Errorf("%s: invariant does not render", name)
			}
		}()
		f()
	}
	expectInvariant("overflow push", "push", func() {
		q := mustNew(t, "q", 1, 1)
		q.Push(make([]byte, 9))
	})
	expectInvariant("underflow pop", "pop", func() {
		q := mustNew(t, "q", 1, 4)
		q.Pop(1)
	})
	expectInvariant("underflow peek", "peek", func() {
		q := mustNew(t, "q", 1, 4)
		q.Push([]byte{1})
		q.Peek(2)
	})
}

// Construction-time misconfiguration is an error, not a panic.
func TestNewRejectsBadGeometry(t *testing.T) {
	for _, tc := range []struct {
		name         string
		width, depth int
	}{
		{"zero width", 0, 4},
		{"huge width", 9, 16},
		{"depth below width", 4, 2},
	} {
		if _, err := New("q", tc.width, tc.depth); err == nil {
			t.Errorf("%s: New accepted width=%d depth=%d", tc.name, tc.width, tc.depth)
		}
	}
}

// Property: any interleaving of pushes and pops preserves byte order and
// conservation (bytes out are exactly bytes in, in order).
func TestFIFOProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		q := mustNew(t, "prop", 8, 64) // 512 bytes
		var pushed, popped []byte
		next := byte(0)
		for step := 0; step < 200; step++ {
			if r.Intn(2) == 0 {
				n := r.Intn(q.Space() + 1)
				chunk := make([]byte, n)
				for i := range chunk {
					chunk[i] = next
					next++
				}
				q.Push(chunk)
				pushed = append(pushed, chunk...)
			} else {
				n := r.Intn(q.Len() + 1)
				popped = append(popped, q.Pop(n)...)
			}
			if q.Len()+len(popped) != len(pushed) {
				return false
			}
		}
		popped = append(popped, q.Pop(q.Len())...)
		return bytes.Equal(popped, pushed)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestCompactionKeepsData(t *testing.T) {
	q := mustNew(t, "c", 8, 1024) // 8 KiB
	want := byte(0)
	got := byte(0)
	for round := 0; round < 100; round++ {
		chunk := make([]byte, 100)
		for i := range chunk {
			chunk[i] = want
			want++
		}
		q.Push(chunk)
		for _, b := range q.Pop(100) {
			if b != got {
				t.Fatalf("round %d: byte %d, want %d", round, b, got)
			}
			got++
		}
	}
}

// watcher is an idle component watching a fixed list of signals.
type watcher struct{ sigs []*sim.Signal }

func (w *watcher) Name() string                          { return "w" }
func (w *watcher) Tick(uint64) error                     { return nil }
func (w *watcher) NextWake(uint64) sim.Hint              { return sim.Idle() }
func (w *watcher) Progress() uint64                      { return 0 }
func (w *watcher) Watch(dst []*sim.Signal) []*sim.Signal { return append(dst, w.sigs...) }

// TestMovedSignal checks the port's wake signal: a Push or Pop of zero
// bytes marks nobody, and one that moves bytes marks every component
// watching the port and no other.
func TestMovedSignal(t *testing.T) {
	q := mustNew(t, "A", 1, 4)
	other := mustNew(t, "B", 1, 4)
	var k sim.Kernel
	comps := []*watcher{
		{[]*sim.Signal{q.Moved()}},
		{nil},
		{[]*sim.Signal{other.Moved(), q.Moved()}},
		{[]*sim.Signal{other.Moved()}},
	}
	for _, c := range comps {
		k.Register(c)
	}
	now := uint64(0)
	settle := func() { // tick every component once: each declares its set and clears its bit
		for i, c := range comps {
			k.BeforeTick(i, now)
			_ = c.Tick(now)
			k.AfterTick(i, now)
		}
		now++
	}
	woken := func() (w []bool) {
		for i := range comps {
			w = append(w, k.ShouldTick(i, now))
		}
		return w
	}
	settle()
	for _, op := range []struct {
		name  string
		do    func()
		wants []bool
	}{
		{"empty push", func() { q.Push(nil) }, []bool{false, false, false, false}},
		{"empty pop", func() { q.Pop(0) }, []bool{false, false, false, false}},
		{"push", func() { q.Push([]byte{1, 2}) }, []bool{true, false, true, false}},
		{"pop", func() { q.Pop(1) }, []bool{true, false, true, false}},
	} {
		op.do()
		for i, got := range woken() {
			if got != op.wants[i] {
				t.Errorf("%s: component %d woken %v, want %v", op.name, i, got, op.wants[i])
			}
		}
		settle()
	}
}
