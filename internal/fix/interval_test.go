package fix_test

import (
	"fmt"
	"math/rand"
	"testing"

	"softbrain/examples/programs"
	"softbrain/internal/core"
	"softbrain/internal/fix"
	"softbrain/internal/lint"
	"softbrain/internal/progen"
	"softbrain/internal/workloads/catalog"
)

// Brute-force verification of the legal placement intervals: for every
// barrier of every shipped program (and a pile of generated
// barrier-heavy ones), slide the barrier across its computed interval
// and re-run the full exhaustive strict analysis at each slot. Inside
// the interval the race signature must be identical to the original
// placement (same pairs, same counts, same trailing-warning bit); one
// slot outside either endpoint it must differ — the interval is both
// sound and maximal.

// pairKey identifies one race pair in skeleton coordinates (the trace
// with the slid barrier removed), so positions compare across
// placements.
type pairKey struct {
	code           string
	older, younger int
}

// slideSig is the placement-equivalence signature of one analysis run.
type slideSig struct {
	pairs map[pairKey]int
	errs  int  // total error-severity findings (races and everything else)
	warn  bool // trailing-unordered-write present
}

// signature runs the exhaustive strict analysis on p and normalizes
// race-pair positions to the skeleton of the barrier at trace index
// bpos. shift tells whether removing that barrier splices the trace
// (no host delay on its op) — it must describe the *original* barrier
// op so every placement maps to the same skeleton.
func signature(t *testing.T, p *core.Program, cfg core.Config, bpos int, shift bool) slideSig {
	t.Helper()
	fs, err := lint.CheckWith(p, cfg, lint.Opts{Exhaustive: true, StrictIndirect: true})
	if err != nil {
		t.Fatalf("%s: %v", p.Name, err)
	}
	sk := func(x int) int {
		if shift && x > bpos {
			return x - 1
		}
		return x
	}
	s := slideSig{pairs: map[pairKey]int{}}
	for _, f := range fs {
		if f.Code == "trailing-unordered-write" {
			// The warning's message aggregates however many writes are
			// uncovered, which may legally vary within an interval; only
			// the bit is placement-signature.
			s.warn = true
			continue
		}
		if f.Sev != lint.SevError {
			continue
		}
		s.errs++
		if f.Check == lint.CheckRace && f.Other >= 0 {
			s.pairs[pairKey{f.Code, sk(f.Other), sk(f.Index)}]++
		}
	}
	return s
}

func sigEqual(a, b slideSig) bool {
	if a.warn != b.warn || a.errs != b.errs || len(a.pairs) != len(b.pairs) {
		return false
	}
	for k, n := range a.pairs {
		if b.pairs[k] != n {
			return false
		}
	}
	return true
}

// checkSlide brute-forces every barrier interval of one program.
func checkSlide(t *testing.T, name string, p *core.Program, cfg core.Config) {
	t.Helper()
	ivs, err := fix.Intervals(p, cfg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for _, iv := range ivs {
		shift := p.Trace[iv.Pos].Delay == 0
		skLen := len(p.Trace)
		if shift {
			skLen--
		}
		base := signature(t, p, cfg, iv.Pos, shift)
		for q := iv.Earliest; q <= iv.Latest; q++ {
			moved, err := fix.MoveBarrier(p, iv.Pos, q)
			if err != nil {
				t.Fatalf("%s: moving trace[%d] to slot %d: %v", name, iv.Pos, q, err)
			}
			if got := signature(t, moved, cfg, q, shift); !sigEqual(base, got) {
				t.Errorf("%s: %v at trace[%d] slid to slot %d inside [%d, %d]: race signature changed (%d pairs %d errs warn=%v, want %d pairs %d errs warn=%v)",
					name, iv.Kind, iv.Pos, q, iv.Earliest, iv.Latest,
					got.errs, len(got.pairs), got.warn, base.errs, len(base.pairs), base.warn)
			}
		}
		for _, q := range []int{iv.Earliest - 1, iv.Latest + 1} {
			if q < 0 || q > skLen {
				continue // interval already touches the trace boundary
			}
			moved, err := fix.MoveBarrier(p, iv.Pos, q)
			if err != nil {
				t.Fatalf("%s: moving trace[%d] to slot %d: %v", name, iv.Pos, q, err)
			}
			if got := signature(t, moved, cfg, q, shift); sigEqual(base, got) {
				t.Errorf("%s: %v at trace[%d] slid to slot %d, one outside [%d, %d]: signature unchanged — interval is not maximal",
					name, iv.Kind, iv.Pos, q, iv.Earliest, iv.Latest)
			}
		}
	}
}

// TestIntervalSlideWorkloads covers every barrier of every shipped
// workload and example program.
func TestIntervalSlideWorkloads(t *testing.T) {
	type target struct {
		name string
		prog *core.Program
		cfg  core.Config
	}
	var targets []target
	for _, e := range catalog.All() {
		cfg := e.Config()
		inst, err := e.Build(cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range inst.Progs {
			targets = append(targets, target{fmt.Sprintf("%s/%s#%d", e.Suite, e.Name, i), p, cfg})
		}
	}
	exs, err := programs.All()
	if err != nil {
		t.Fatal(err)
	}
	for _, ex := range exs {
		targets = append(targets, target{"examples/" + ex.Name, ex.Prog, ex.Cfg})
	}
	pl, err := programs.Pipeline()
	if err != nil {
		t.Fatal(err)
	}
	for pi, ph := range pl.Phases {
		for u, p := range ph {
			targets = append(targets, target{fmt.Sprintf("examples/%s.phase%d#%d", pl.Name, pi, u), p, pl.Cfg})
		}
	}
	for _, tg := range targets {
		checkSlide(t, tg.name, tg.prog, tg.cfg)
	}
}

// TestIntervalSlideProgen covers generated barrier-heavy programs: the
// generator's barriers sit between a region write and its read-back
// with unrelated fillers around, so intervals are wide, and the fix
// pass's repairs of the cross-block hazards add synthesized barriers of
// every kind on top.
func TestIntervalSlideProgen(t *testing.T) {
	const seeds = 24
	cfg := core.DefaultConfig()
	wide := 0
	for seed := int64(0); seed < seeds; seed++ {
		p, ports, err := progen.Addpair(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		for _, c := range progen.BarrierCommands(rng, ports) {
			emit(t, p, c)
		}
		q, _, err := fix.Fix(p, cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		name := fmt.Sprintf("progen/barrier-heavy#%d", seed)
		mustClean(t, q, cfg)
		checkSlide(t, name, q, cfg)
		ivs, err := fix.Intervals(q, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, iv := range ivs {
			if iv.Width() > 0 {
				wide++
			}
		}
	}
	// The generator exists to exercise nontrivial placement; if the
	// intervals collapse to points the corpus is not doing its job.
	if wide < seeds {
		t.Fatalf("only %d movable barriers across %d seeds — generator no longer produces nontrivial intervals", wide, seeds)
	}
}
