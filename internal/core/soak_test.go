// Randomized fault-injection soak: generated programs run to
// completion under every fault profile, or fail with a classified,
// typed error. This is the executable form of the panic-free execution
// contract — nothing in here recovers panics itself, so any invariant
// escape kills the test run.
package core_test

import (
	"errors"
	"math/rand"
	"os"
	"strconv"
	"testing"

	"softbrain/internal/core"
	"softbrain/internal/faults"
	"softbrain/internal/fix"
	"softbrain/internal/mem"
	"softbrain/internal/progen"
)

// soakSeeds is the number of generated programs: SOAK_SEEDS when set
// (make soak uses 50), a short deterministic slice otherwise.
func soakSeeds(t *testing.T) int64 {
	if s := os.Getenv("SOAK_SEEDS"); s != "" {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil || n <= 0 {
			t.Fatalf("bad SOAK_SEEDS %q: %v", s, err)
		}
		return n
	}
	if testing.Short() {
		return 5
	}
	return 12
}

// runSoak runs p on a one-unit cluster fault-injected with fc (nil for none)
// and its memory pools seeded deterministically (see runSeeded).
func runSoak(t *testing.T, cfg core.Config, fc *faults.Config, p *core.Program, seed int64) (*mem.Memory, error) {
	t.Helper()
	cfg.Faults = fc
	cl, _, err := runSeeded(t, cfg, p, seed, false)
	return cl.Mem, err
}

// typedFailure reports whether err is one of the two structured error
// types Run is allowed to return.
func typedFailure(err error) bool {
	var de *core.DeadlockError
	var me *core.MachineError
	return errors.As(err, &de) || errors.As(err, &me)
}

// TestSoakFaultInjection: for each generated program, the fault-free
// run and every non-corrupting fault profile must complete with
// byte-identical memory; corrupting profiles must complete or fail
// with a classified, typed error; and a maimed (unbalanced) variant
// must hang with a structured diagnosis, never a raw panic.
func TestSoakFaultInjection(t *testing.T) {
	seeds := soakSeeds(t)
	cfg := core.DefaultConfig()
	for seed := int64(0); seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p, ports, err := progen.Addpair(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cmds := progen.Commands(rng, ports)
		for _, c := range cmds {
			p.Emit(c)
		}
		if err := p.Err(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		fixed, _, err := fix.Fix(p, cfg)
		if err != nil {
			t.Fatalf("seed %d: fix: %v", seed, err)
		}

		want, err := runSoak(t, cfg, nil, fixed, seed)
		if err != nil {
			t.Fatalf("seed %d: fault-free run: %v", seed, err)
		}

		for i, name := range faults.Profiles() {
			fc, err := faults.Profile(name, seed*31+int64(i))
			if err != nil {
				t.Fatal(err)
			}
			got, err := runSoak(t, cfg, &fc, fixed, seed)
			if err != nil {
				if fc.Corrupting() && typedFailure(err) {
					continue // corruption may legitimately wreck the run
				}
				t.Fatalf("seed %d, profile %s: %v", seed, name, err)
			}
			if fc.Corrupting() {
				continue // completed, but results may differ: fine
			}
			if addr, diff := got.FirstDiff(want); diff {
				t.Fatalf("seed %d, profile %s: timing-only faults changed memory at %#x",
					seed, name, addr)
			}
		}

		// Maimed variant: drop one non-barrier command and run without
		// repair. The unbalanced program may still complete; when it
		// hangs, the failure must be a structured diagnosis.
		maimed := maimedProgram(t, cfg, seed)
		if _, err := runSoak(t, cfg, nil, maimed, seed); err != nil && !typedFailure(err) {
			t.Fatalf("seed %d: maimed run returned an untyped error: %v", seed, err)
		}
	}
}
