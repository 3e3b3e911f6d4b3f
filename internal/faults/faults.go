// Package faults is a deterministic, seeded fault injector for the
// Softbrain simulator. It perturbs the machine at its two timing
// boundaries — the memory system and the stream engines — without ever
// violating the architectural contract the engines rely on (credit
// backpressure, per-stream delivery order, barrier semantics):
//
//	mem-delay  extra latency on individual memory responses, which
//	           reorders completion across streams (per-stream order is
//	           preserved by the engines' pending FIFOs)
//	stall      whole stream engines freeze for a bounded burst
//	throttle   the 64-byte engine buses shrink for a cycle
//	bitflip    single-bit corruption of lines read from memory or the
//	           scratchpad (the only corrupting fault)
//
// All randomness comes from one math/rand stream seeded by Config.Seed,
// and the simulator is single-threaded, so a given (program, config,
// fault config) triple replays the exact same fault schedule. A nil
// *Injector (faults disabled) costs one pointer comparison at each hook
// site; no injector code runs.
package faults

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
)

// Engine identifies a stream engine at the injection boundary.
type Engine int

const (
	EngMSE Engine = iota // memory stream engine
	EngSSE               // scratchpad stream engine
	EngRSE               // recurrence stream engine
	NumEngines
)

func (e Engine) String() string {
	switch e {
	case EngMSE:
		return "MSE"
	case EngSSE:
		return "SSE"
	case EngRSE:
		return "RSE"
	}
	return fmt.Sprintf("Engine(%d)", int(e))
}

// Config describes a fault profile. The zero value injects nothing.
// Probabilities are per injection opportunity: per accepted memory
// request (MemDelayProb), per engine per cycle (StallProb,
// ThrottleProb), per line of data read (BitFlipProb).
type Config struct {
	Seed int64

	MemDelayProb float64 // chance an accepted memory request is delayed
	MemDelayMax  uint64  // delay drawn uniformly from [1, MemDelayMax]

	StallProb float64 // chance per engine-cycle a stall burst begins
	StallMax  uint64  // burst length drawn uniformly from [1, StallMax]

	ThrottleProb float64 // chance per engine-cycle the bus narrows

	BitFlipProb float64 // chance a read line has one bit flipped
}

// Enabled reports whether the profile injects any fault at all.
func (c Config) Enabled() bool {
	return c.MemDelayProb > 0 || c.StallProb > 0 || c.ThrottleProb > 0 || c.BitFlipProb > 0
}

// Corrupting reports whether the profile can alter data values (as
// opposed to timing only). Runs under a non-corrupting profile must
// produce byte-identical memory to a fault-free run.
func (c Config) Corrupting() bool { return c.BitFlipProb > 0 }

// Validate checks the profile.
func (c Config) Validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"MemDelayProb", c.MemDelayProb},
		{"StallProb", c.StallProb},
		{"ThrottleProb", c.ThrottleProb},
		{"BitFlipProb", c.BitFlipProb},
	} {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("faults: %s %v outside [0, 1]", p.name, p.v)
		}
	}
	if c.MemDelayProb > 0 && c.MemDelayMax == 0 {
		return fmt.Errorf("faults: MemDelayProb set with MemDelayMax 0")
	}
	if c.StallProb > 0 && c.StallMax == 0 {
		return fmt.Errorf("faults: StallProb set with StallMax 0")
	}
	return nil
}

// Stats counts the faults an Injector actually delivered.
type Stats struct {
	MemDelays   uint64 // delayed memory responses
	Stalls      uint64 // stall bursts begun
	StallCycles uint64 // engine-cycles spent frozen
	Throttles   uint64 // narrowed bus cycles
	BitFlips    uint64 // corrupted lines
}

// Total is the number of discrete fault events (stall cycles count as
// one event per burst, not per cycle).
func (s Stats) Total() uint64 {
	return s.MemDelays + s.Stalls + s.Throttles + s.BitFlips
}

// Since is the count of faults delivered after a snapshot base of the
// same injector's running counts.
func (s Stats) Since(base Stats) Stats {
	return Stats{
		MemDelays:   s.MemDelays - base.MemDelays,
		Stalls:      s.Stalls - base.Stalls,
		StallCycles: s.StallCycles - base.StallCycles,
		Throttles:   s.Throttles - base.Throttles,
		BitFlips:    s.BitFlips - base.BitFlips,
	}
}

func (s Stats) String() string {
	return fmt.Sprintf("mem-delays=%d stalls=%d (%d cycles) throttles=%d bitflips=%d",
		s.MemDelays, s.Stalls, s.StallCycles, s.Throttles, s.BitFlips)
}

// Injector draws the fault schedule for one machine. It is not safe for
// concurrent use; each Machine owns one.
type Injector struct {
	cfg        Config
	rng        *rand.Rand
	stallUntil [NumEngines]uint64

	stats Stats
}

// New builds an injector for the profile. A nil return for a disabled
// profile lets hook sites use a single pointer test.
func New(cfg Config) *Injector {
	if !cfg.Enabled() {
		return nil
	}
	return &Injector{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Stats returns the running fault counts.
func (j *Injector) Stats() Stats { return j.stats }

// MemDelay returns extra cycles of latency for one accepted memory
// request (usually 0).
func (j *Injector) MemDelay() uint64 {
	if j.cfg.MemDelayProb == 0 || j.rng.Float64() >= j.cfg.MemDelayProb {
		return 0
	}
	j.stats.MemDelays++
	return 1 + uint64(j.rng.Int63n(int64(j.cfg.MemDelayMax)))
}

// Stalled reports whether engine e is frozen this cycle, beginning a
// new bounded burst with probability StallProb. Call it once per engine
// per cycle so the schedule is reproducible.
func (j *Injector) Stalled(e Engine, now uint64) bool {
	if now < j.stallUntil[e] {
		j.stats.StallCycles++
		return true
	}
	if j.cfg.StallProb == 0 || j.rng.Float64() >= j.cfg.StallProb {
		return false
	}
	j.stallUntil[e] = now + 1 + uint64(j.rng.Int63n(int64(j.cfg.StallMax)))
	j.stats.Stalls++
	j.stats.StallCycles++
	return true
}

// BusBudget returns the byte budget of engine e's bus this cycle, given
// its full width. A throttled bus still moves at least 8 bytes (one
// word), so throttling slows delivery but cannot wedge it.
func (j *Injector) BusBudget(e Engine, full int) int {
	if j.cfg.ThrottleProb == 0 || j.rng.Float64() >= j.cfg.ThrottleProb {
		return full
	}
	j.stats.Throttles++
	narrowed := full / (2 << j.rng.Intn(3)) // full/2, full/4 or full/8
	if narrowed < 8 {
		narrowed = 8
	}
	return narrowed
}

// CorruptLine flips one random bit of data with probability BitFlipProb
// and reports whether it did.
func (j *Injector) CorruptLine(data []byte) bool {
	if len(data) == 0 || j.cfg.BitFlipProb == 0 || j.rng.Float64() >= j.cfg.BitFlipProb {
		return false
	}
	bit := j.rng.Intn(len(data) * 8)
	data[bit/8] ^= 1 << (bit % 8)
	j.stats.BitFlips++
	return true
}

// PerCycleDraws reports whether the profile consumes randomness every
// simulated cycle (stall and throttle draw per engine-cycle). Such a
// profile's fault schedule depends on how many cycles are actually
// ticked, so the run loop must not skip idle cycles under it; the
// per-event profiles (mem-delay, bitflip) draw per request or per line
// and are skip-exact.
func (j *Injector) PerCycleDraws() bool {
	return j.cfg.StallProb > 0 || j.cfg.ThrottleProb > 0
}

// PendingTimed reports whether the injector holds timed state that will
// release after now — a stall burst still running. The deadlock
// detector must see these as pending events, not quiescence.
func (j *Injector) PendingTimed(now uint64) bool {
	for _, t := range j.stallUntil {
		if t > now {
			return true
		}
	}
	return false
}

// Named profiles for sdsim -faults and the soak harness.
var profiles = map[string]Config{
	"delay":    {MemDelayProb: 0.2, MemDelayMax: 300},
	"stall":    {StallProb: 0.02, StallMax: 40},
	"throttle": {ThrottleProb: 0.5},
	"bitflip":  {BitFlipProb: 0.05},
	"chaos": {
		MemDelayProb: 0.1, MemDelayMax: 200,
		StallProb: 0.01, StallMax: 30,
		ThrottleProb: 0.25,
		BitFlipProb:  0.02,
	},
}

// Profiles lists the named profiles in a stable order.
func Profiles() []string {
	return []string{"delay", "stall", "throttle", "bitflip", "chaos"}
}

// Profile returns the named profile with the given seed.
func Profile(name string, seed int64) (Config, error) {
	c, ok := profiles[name]
	if !ok {
		return Config{}, fmt.Errorf("faults: unknown profile %q (have %s)",
			name, strings.Join(Profiles(), ", "))
	}
	c.Seed = seed
	return c, nil
}

// ParseProfile parses a -faults flag value: "name" or "name:seed".
func ParseProfile(s string) (Config, error) {
	name, seedStr, hasSeed := strings.Cut(s, ":")
	var seed int64
	if hasSeed {
		var err error
		seed, err = strconv.ParseInt(seedStr, 10, 64)
		if err != nil {
			return Config{}, fmt.Errorf("faults: bad seed in %q: %v", s, err)
		}
	}
	return Profile(name, seed)
}
