package engine

import (
	"math/rand"
	"testing"
	"testing/quick"

	"softbrain/internal/isa"
)

// Property: the affine AGU's request sequence reproduces the pattern's
// byte stream exactly, one line per request, within the byte budget.
func TestAffineAGUCoversPatternExactly(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pat := isa.Affine{
			Start:      uint64(rng.Intn(1 << 12)),
			AccessSize: uint64(rng.Intn(150)),
			Stride:     uint64(rng.Intn(200)),
			Strides:    uint64(rng.Intn(30)),
		}
		var want []uint64
		pat.EachByte(func(a uint64) { want = append(want, a) })

		cur := isa.NewAffineCursor(pat)
		var got []uint64
		for {
			max := 1 + rng.Intn(LineBytes) // vary the budget per request
			req, ok := nextAffineLine(cur, max, nil)
			if !ok {
				break
			}
			if len(reqOffsets(req)) == 0 || len(reqOffsets(req)) > max {
				t.Logf("request size %d with budget %d", len(reqOffsets(req)), max)
				return false
			}
			if req.Line%LineBytes != 0 {
				t.Logf("unaligned line %#x", req.Line)
				return false
			}
			for _, off := range reqOffsets(req) {
				if off >= LineBytes {
					t.Logf("offset %d out of line", off)
					return false
				}
				got = append(got, req.Line+uint64(off))
			}
		}
		if len(got) != len(want) {
			t.Logf("%d bytes generated, want %d (%v)", len(got), len(want), pat)
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				t.Logf("byte %d: %#x, want %#x", i, got[i], want[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: with a full budget, the AGU is minimal — consecutive
// requests never share a line (it would have merged them).
func TestAffineAGUMinimalRequests(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pat := isa.Strided2D(
			uint64(rng.Intn(1<<12)),
			uint64(1+rng.Intn(63)),
			uint64(1+rng.Intn(128)),
			uint64(1+rng.Intn(20)),
		)
		cur := isa.NewAffineCursor(pat)
		prevLine := ^uint64(0)
		prevFull := true
		for {
			req, ok := nextAffineLine(cur, LineBytes, nil)
			if !ok {
				break
			}
			if req.Line == prevLine && prevFull {
				// Same line twice in a row with budget to spare: only
				// legal if the previous request was cut by the budget.
				t.Logf("unmerged same-line requests at %#x (%v)", req.Line, pat)
				return false
			}
			prevLine = req.Line
			prevFull = len(reqOffsets(req)) < LineBytes
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestLineReqMask(t *testing.T) {
	var r LineReq
	for _, off := range []int{0, 1, 1, 63} {
		r.add(off, 1)
	}
	if r.Bytes() != 4 {
		t.Errorf("Bytes = %d", r.Bytes())
	}
	want := uint64(1)<<0 | 1<<1 | 1<<63
	if r.Mask() != want {
		t.Errorf("Mask = %#x, want %#x", r.Mask(), want)
	}
}

// Property: the indirect AGU preserves element order and line locality.
func TestIndirectAGUOrderAndCoalescing(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var g indirectAGU
		var want []uint64
		for i := 0; i < 20; i++ {
			addr := uint64(rng.Intn(1 << 10))
			size := []int{1, 2, 4, 8}[rng.Intn(4)]
			g.pushElem(addr, size)
			for b := 0; b < size; b++ {
				want = append(want, addr+uint64(b))
			}
		}
		var got []uint64
		for {
			req, ok := g.next(LineBytes, nil)
			if !ok {
				break
			}
			if req.Line%LineBytes != 0 {
				return false
			}
			for _, off := range reqOffsets(req) {
				got = append(got, req.Line+uint64(off))
			}
		}
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Same-line consecutive elements coalesce into one request.
func TestIndirectAGUCoalescesSameLine(t *testing.T) {
	var g indirectAGU
	g.pushElem(128, 8)
	g.pushElem(136, 8)
	g.pushElem(144, 8)
	req, ok := g.next(LineBytes, nil)
	if !ok || req.Bytes() != 24 || req.Line != 128 {
		t.Errorf("coalesced request = %+v, ok=%v", req, ok)
	}
	if g.pending() != 0 {
		t.Errorf("%d bytes left", g.pending())
	}
}

// Cross-line elements split at the boundary.
func TestIndirectAGUSplitsAtLineBoundary(t *testing.T) {
	var g indirectAGU
	g.pushElem(60, 8) // bytes 60..67: spans two lines
	r1, _ := g.next(LineBytes, nil)
	r2, _ := g.next(LineBytes, nil)
	if r1.Line != 0 || r1.Bytes() != 4 {
		t.Errorf("first half = %+v", r1)
	}
	if r2.Line != 64 || r2.Bytes() != 4 {
		t.Errorf("second half = %+v", r2)
	}
}
