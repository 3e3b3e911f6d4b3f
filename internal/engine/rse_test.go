package engine

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"softbrain/internal/faults"
	"softbrain/internal/isa"
)

// TestRSEConstFill checks the constant-stream fill against a per-byte
// reference for every element size, every phase within the element and
// every byte budget a step can be given.
func TestRSEConstFill(t *testing.T) {
	const value = 0x8877665544332211
	for _, elem := range []int{1, 2, 4, 8} {
		for phase := 0; phase < elem; phase++ {
			for n := 1; n <= LineBytes; n++ {
				s := rseStream{elem: elem, phase: phase}
				binary.LittleEndian.PutUint64(s.pattern[:], value)
				ref := s
				want := make([]byte, n)
				for i := range want {
					want[i] = ref.pattern[ref.phase]
					ref.phase = (ref.phase + 1) % ref.elem
				}
				got := make([]byte, n)
				s.fill(got)
				if !bytes.Equal(got, want) || s.phase != ref.phase {
					t.Fatalf("elem %d phase %d budget %d: filled % x (phase %d), want % x (phase %d)",
						elem, phase, n, got, s.phase, want, ref.phase)
				}
			}
		}
	}
}

// TestRSEConstThrottled runs constant streams through RSE.Tick with the
// bus narrowed every cycle (faults.Injector.BusBudget) and the
// destination drained a few bytes at a time, so steps end mid-element,
// and checks the delivered bytes against the repeated element.
func TestRSEConstThrottled(t *testing.T) {
	const value, count = 0x8877665544332211, 301
	for _, elem := range []isa.ElemSize{isa.Elem8, isa.Elem16, isa.Elem32, isa.Elem64} {
		r := newRig(t)
		r.rse.Faults = faults.New(faults.Config{Seed: int64(elem), ThrottleProb: 1})
		if err := r.rse.Start(1, isa.ConstPort{Value: value, Elem: elem, Count: count, Dst: 0}); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(elem)))
		in := r.ports.In[0]
		var got []byte
		for i := 0; r.rse.Active() > 0; i++ {
			if i == 10000 {
				t.Fatalf("elem %d: stream still active after %d cycles", elem, i)
			}
			if err := r.rse.Tick(r.now); err != nil {
				t.Fatal(err)
			}
			r.now++
			got = append(got, in.Pop(min(in.Len(), rng.Intn(24)))...)
		}
		got = append(got, in.Pop(in.Len())...)
		var word [8]byte
		binary.LittleEndian.PutUint64(word[:], value)
		want := bytes.Repeat(word[:elem], count)
		if !bytes.Equal(got, want) {
			t.Errorf("elem %d: delivered % x, want % x", elem, got, want)
		}
		if r.rse.Faults.Stats().Throttles == 0 {
			t.Errorf("elem %d: the bus was never throttled; test is vacuous", elem)
		}
	}
}
