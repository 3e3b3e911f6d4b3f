// Package lint statically analyzes stream-dataflow programs for the
// hazards the architecture does not police at runtime. Section 3.3 of
// the paper makes explicit barriers (SD_Barrier_Scratch_Rd/Wr/All) the
// *only* ordering guarantee between concurrent streams; a program whose
// streams touch overlapping memory or scratchpad regions without one is
// silently racy — the hardware (and the simulator) return whichever
// interleaving the engines happened to take. The linter symbolically
// computes every stream's byte footprint from its isa.Affine pattern and
// walks the command trace without executing anything.
//
// Four check families, each with a stable ID usable in filters:
//
//	race          overlapping memory/scratchpad footprints with no
//	              intervening barrier of the right kind
//	port-conflict streams addressing vector ports the active CGRA
//	              configuration never defines, indices through
//	              non-indirect ports, or data left buffered in a port
//	              when SD_Config retargets the fabric
//	balance       per-epoch element counts that cannot fire cleanly:
//	              input ports fed partial instances, instance counts
//	              that differ across ports (static deadlock/starvation),
//	              output ports over- or under-consumed, index streams
//	              staging more or fewer indices than are consumed
//	oob           affine footprints that overflow the 64-bit address
//	              space, cross into the configuration space, or exceed
//	              the scratchpad capacity
//
// One idiom is deliberately exempt from the race check: the pipelined
// read-modify-write, where a memory write driven by an output port has a
// footprint identical to an earlier read feeding an input port that the
// active dataflow graph routes into that output port. Element j of the
// write then depends on element j of the read through the fabric, so the
// write can never overtake the read (backprop updates weight rows in
// place this way).
//
// Indirect streams (SD_IndPort_*) are handled by a value-range
// pre-pass: when the staged index stream is statically known — constant
// streams (SD_Const_Port), or recurrence streams (SD_Port_Port) from an
// output port the active graph computes purely from known inputs — its
// value range bounds the gather/scatter footprint, which then
// participates in race and bounds analysis like any affine stream.
// Index streams loaded from memory or the scratchpad remain
// data-dependent: by default they are excluded from the race check (the
// historical soundness gap, now limited to truly unboundable streams),
// while Opts.StrictIndirect conservatively treats them as conflicting
// with every other access. Patterns reported as overlapping may also be
// conservative when their extents overflow uint64.
package lint

import (
	"fmt"
	"strings"

	"softbrain/internal/core"
	"softbrain/internal/isa"
)

// Check family IDs, stable across releases. The first four are
// machine-scope (one program, one unit); the last two are cluster-scope
// (see cluster.go and docs/LINT.md).
const (
	CheckRace         = "race"
	CheckPortConflict = "port-conflict"
	CheckBalance      = "balance"
	CheckOOB          = "oob"
	CheckInterUnit    = "inter-unit-race"
	CheckSharedRegion = "shared-region"
)

// Severity grades a finding. Errors are hazards that produce undefined
// results or deadlock; warnings are legal-but-suspect constructions.
type Severity uint8

const (
	SevWarning Severity = iota
	SevError
)

func (s Severity) String() string {
	if s == SevError {
		return "error"
	}
	return "warning"
}

// MarshalJSON renders the severity as its stable string form.
func (s Severity) MarshalJSON() ([]byte, error) {
	return []byte(`"` + s.String() + `"`), nil
}

// Finding is one diagnosed hazard, anchored to the command-trace index
// of the operation that completes the hazardous pair (or, for balance
// findings, the last operation touching the unbalanced port).
type Finding struct {
	Prog  string   `json:"prog"`
	Index int      `json:"index"` // index into Program.Trace
	Check string   `json:"check"`
	Sev   Severity `json:"severity"`
	Msg   string   `json:"msg"`

	// Code is the stable fine-grained diagnostic ID within the check
	// family (e.g. "race-mem", "oob-config-space"); consumers filtering
	// on specific diagnostics should key on it rather than parse Msg.
	Code string `json:"code"`

	// Other is the trace index of the older access completing a race
	// pair, or -1 when the finding is not pairwise.
	Other int `json:"other"`

	// Unit and OtherUnit are the cluster unit indices of the two
	// accesses for cluster-scope findings, or -1 for machine-scope
	// analysis (and for non-pairwise cluster findings' OtherUnit).
	Unit      int `json:"unit"`
	OtherUnit int `json:"other_unit"`

	// Phase is the pipeline phase of the offending access for
	// cluster-scope findings over a phased program set, or -1.
	Phase int `json:"phase"`

	// Barrier is the weakest barrier kind that would order a race pair
	// when inserted immediately before Index (the lattice of §3.3:
	// scratchpad hazards need only their Scratch_Rd/Wr barrier, memory
	// hazards need Barrier_All). KindInvalid for non-race findings.
	// The fix pass (internal/fix) synthesizes barriers from this field.
	Barrier isa.Kind `json:"-"`
}

// BarrierName is the Barrier kind's command name, or "" when no barrier
// repairs the finding; split from Barrier so JSON output stays stable
// across Kind renumbering.
func (f Finding) BarrierName() string {
	if f.Barrier == isa.KindInvalid {
		return ""
	}
	return f.Barrier.String()
}

// String renders the finding in go vet style.
func (f Finding) String() string {
	return fmt.Sprintf("%s: trace[%d]: %s: %s", f.Prog, f.Index, f.Check, f.Msg)
}

// Opts tunes a lint run; the zero value is the default analysis.
type Opts struct {
	// StrictIndirect treats every indirect access whose index range the
	// value pre-pass cannot bound (indices loaded from memory or the
	// scratchpad) as conflicting with every other unordered access. The
	// default analysis silently excludes such accesses from the race
	// check; strict mode is the sound over-approximation the fix pass
	// uses to prove a barrier removable even in the presence of
	// data-dependent footprints.
	StrictIndirect bool

	// Exhaustive reports every conflicting pair per access instead of
	// stopping at the first (the default keeps diagnostics concise).
	// The fix pass needs the full pair set: a masked second conflict is
	// exactly the hazard a removed barrier would silently reintroduce.
	Exhaustive bool
}

// Result is the full outcome of one analysis: the findings plus, per
// check family, the number of footprint bytes the analysis covered —
// the static analogue of a coverage counter (how much data movement the
// symbolic footprints accounted for), reported by sdlint -json.
type Result struct {
	Findings []Finding
	// Bytes maps a check family ID to the saturating total of bytes the
	// family analyzed: race and inter-unit-race count every byte entered
	// into an ordering window, oob every byte bounds-checked, balance
	// every byte accounted through a vector port. Families without a
	// byte-based measure (port-conflict) are absent.
	Bytes map[string]uint64
}

// Check lints the program against the machine configuration that would
// run it (the fabric defines the vector ports, the config the scratchpad
// capacity). It returns the findings in trace order. The error return is
// reserved for programs that cannot be analyzed at all: a construction
// error recorded by the Program emitter, or an invalid configuration.
func Check(p *core.Program, cfg core.Config) ([]Finding, error) {
	return CheckWith(p, cfg, Opts{})
}

// CheckWith is Check with explicit analysis options.
func CheckWith(p *core.Program, cfg core.Config, o Opts) ([]Finding, error) {
	r, err := Analyze(p, cfg, o)
	if err != nil {
		return nil, err
	}
	return r.Findings, nil
}

// Analyze is CheckWith returning the full Result (findings plus the
// per-check bytes-checked totals).
func Analyze(p *core.Program, cfg core.Config, o Opts) (Result, error) {
	if err := p.Err(); err != nil {
		return Result{}, err
	}
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	c := newChecker(p, cfg, o)
	for i, op := range p.Trace {
		if op.Cmd != nil {
			c.command(i, op.Cmd)
		}
	}
	c.finish()
	return Result{Findings: c.findings, Bytes: c.bytes}, nil
}

// Errors filters fs to error-severity findings.
func Errors(fs []Finding) []Finding {
	var out []Finding
	for _, f := range fs {
		if f.Sev == SevError {
			out = append(out, f)
		}
	}
	return out
}

// Hook adapts the linter to the core.Machine Lint hook: it refuses any
// program with error-severity findings. Install it with
//
//	m.Lint = lint.Hook(m.Config())
//
// and every Machine.Load (and so every Run) vets its program.
func Hook(cfg core.Config) func(*core.Program) error {
	return func(p *core.Program) error {
		fs, err := Check(p, cfg)
		if err != nil {
			return err
		}
		errs := Errors(fs)
		if len(errs) == 0 {
			return nil
		}
		var b strings.Builder
		fmt.Fprintf(&b, "lint: program %s has %d hazard(s):", p.Name, len(errs))
		for _, f := range errs {
			fmt.Fprintf(&b, "\n  %v", f)
		}
		return fmt.Errorf("%s", b.String())
	}
}
