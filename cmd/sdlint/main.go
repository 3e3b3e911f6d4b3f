// Command sdlint statically checks stream-dataflow programs for the
// hazards the architecture does not police at runtime: stream races
// that need a barrier, vector-port conflicts, instance-count imbalance
// (static deadlock/starvation), and out-of-bounds affine footprints.
// See internal/lint and docs/LINT.md for the check families.
//
// With no arguments it lints every built-in workload and example
// program; arguments restrict the run to programs whose suite or
// program name contains one of them as a substring. Findings print in
// go vet style, one per line.
//
//	usage: sdlint [-v] [-cluster] [-json] [-fix [-fix-profile dump.json]] [name ...]
//
// -cluster switches from machine scope (each program checked in
// isolation) to cluster scope: every multi-unit instance is checked as
// a whole for inter-unit DRAM hazards and shared-region rule
// violations (disjoint partitioning verified, declared regions
// single-writer and phase-ordered; see docs/LINT.md).
//
// -json emits a report object instead of the human-readable lines:
//
//	{
//	  "scope": "machine" | "cluster",
//	  "bytes_checked": {"<check>": <bytes>, ...},
//	  "findings": [ {suite, prog, index, check, code, severity,
//	                 other, unit, other_unit, phase, barrier?, msg}, ... ]
//	}
//
// Check IDs, diagnostic codes, and field names are stable; unit,
// other_unit and phase are -1 for machine-scope findings.
//
// -fix runs the barrier-synthesis / redundant-barrier-elimination pass
// (internal/fix, docs/LINT.md) over each program and reports the edits
// it would make. It rewrites nothing on disk: shipped programs are
// expected to already be at the barrier-minimal fixed point, and the
// exit status enforces exactly that, so `sdlint -fix` is a CI gate
// against redundant or missing barriers creeping into the tree.
//
// -fix -fix-profile <dump.json> feeds the pass a metrics dump (the
// sdsim -metrics format) and enables profile-guided cost-aware barrier
// placement: barriers with measured drain cycles are hoisted within
// their legal placement intervals (docs/LINT.md). The dump's unit k
// section profiles the selected targets' unit-k programs, so restrict
// the run to the workload the dump was taken from.
//
// -fix -json emits a fix report instead of the edit lines:
//
//	{
//	  "scope": "fix",
//	  "programs": [ {suite, prog, barriers_before, barriers_after,
//	                 changed, edits: [ {pos, kind, action, reason,
//	                 interval?: [earliest, latest], chosen?,
//	                 profile_drain_cycles?}, ... ]}, ... ]
//	}
//
// where action is "insert", "remove", "hoist", or "keep"; keep/hoist
// rows describe the final program's barriers with their legal placement
// intervals, and insert/remove rows omit the placement fields.
//
// Exit status: 0 when every selected program is clean (no
// error-severity findings; under -fix, no edits); 1 when any
// error-severity finding occurs, any program would be rewritten by
// -fix, or a program cannot be built or analyzed at all. Warnings alone
// leave the exit status 0.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"softbrain/examples/programs"
	"softbrain/internal/core"
	"softbrain/internal/fix"
	"softbrain/internal/lint"
	"softbrain/internal/obs"
	"softbrain/internal/workloads/catalog"
)

// target is one built-in program set: phases[k][u] is the program
// unit u runs in phase k, under the machine configuration its suite
// runs it on, with the set's declared shared regions. Cluster scope
// checks each set whole; machine scope checks each of its programs.
type target struct {
	suite   string
	name    string
	phases  [][]*core.Program
	cfg     core.Config
	regions []lint.Region
	lone    bool // a lone example program, checked at machine scope only
}

// unitProg is one program of a target, checked at machine scope.
type unitProg struct {
	suite string
	name  string
	unit  int // unit index within the target
	prog  *core.Program
	cfg   core.Config
}

// jsonFinding is the stable machine-readable rendering of one finding.
type jsonFinding struct {
	Suite     string `json:"suite"`
	Prog      string `json:"prog"`
	Index     int    `json:"index"`
	Check     string `json:"check"`
	Code      string `json:"code"`
	Severity  string `json:"severity"`
	Other     int    `json:"other"`             // paired trace index, or -1
	Unit      int    `json:"unit"`              // cluster scope, or -1
	OtherUnit int    `json:"other_unit"`        // cluster scope, or -1
	Phase     int    `json:"phase"`             // cluster scope, or -1
	Barrier   string `json:"barrier,omitempty"` // weakest repairing barrier
	Msg       string `json:"msg"`
}

// jsonReport is the -json output: the analysis scope, the per-check
// bytes-checked totals across every selected target, and the findings.
type jsonReport struct {
	Scope        string            `json:"scope"`
	BytesChecked map[string]uint64 `json:"bytes_checked"`
	Findings     []jsonFinding     `json:"findings"`
}

// toJSON renders one finding under its suite.
func toJSON(suite string, f lint.Finding) jsonFinding {
	return jsonFinding{
		Suite: suite, Prog: f.Prog, Index: f.Index, Check: f.Check, Code: f.Code,
		Severity: f.Sev.String(), Other: f.Other, Unit: f.Unit, OtherUnit: f.OtherUnit,
		Phase: f.Phase, Barrier: f.BarrierName(), Msg: f.Msg,
	}
}

// addBytes merges per-check bytes-checked totals, saturating.
func addBytes(into map[string]uint64, from map[string]uint64) {
	for k, v := range from {
		if s := into[k] + v; s < into[k] {
			into[k] = ^uint64(0)
		} else {
			into[k] = s
		}
	}
}

func main() {
	verbose := flag.Bool("v", false, "print every program checked, not just findings")
	jsonOut := flag.Bool("json", false, "emit a JSON report object")
	clusterMode := flag.Bool("cluster", false, "check whole program sets for inter-unit hazards instead of single programs")
	fixMode := flag.Bool("fix", false, "report the barrier edits the fix pass would make; exit 1 if any")
	fixProfile := flag.String("fix-profile", "", "with -fix: metrics dump enabling profile-guided cost-aware barrier placement")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: sdlint [-v] [-cluster] [-json] [-fix [-fix-profile dump.json]] [name ...]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *clusterMode && *fixMode {
		fmt.Fprintf(os.Stderr, "sdlint: -cluster and -fix are mutually exclusive\n")
		os.Exit(1)
	}
	if *fixProfile != "" && !*fixMode {
		fmt.Fprintf(os.Stderr, "sdlint: -fix-profile requires -fix\n")
		os.Exit(1)
	}

	targets, err := collect()
	if err != nil {
		fmt.Fprintf(os.Stderr, "sdlint: %v\n", err)
		os.Exit(1)
	}
	var fail bool
	if *clusterMode {
		sets := filter(clusterScope(targets), flag.Args(), func(t target) (string, string) { return t.suite, t.name })
		if len(sets) == 0 {
			fmt.Fprintf(os.Stderr, "sdlint: no program sets match %v\n", flag.Args())
			os.Exit(1)
		}
		fail = runCluster(sets, *verbose, *jsonOut)
	} else {
		progs := filter(machineScope(targets), flag.Args(), func(p unitProg) (string, string) { return p.suite, p.name })
		if len(progs) == 0 {
			fmt.Fprintf(os.Stderr, "sdlint: no programs match %v\n", flag.Args())
			os.Exit(1)
		}
		if *fixMode {
			profiles, err := loadProfiles(*fixProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "sdlint: %v\n", err)
				os.Exit(1)
			}
			fail = runFix(progs, *verbose, *jsonOut, profiles)
		} else {
			fail = runLint(progs, *verbose, *jsonOut)
		}
	}
	if fail {
		os.Exit(1)
	}
}

func emitJSON(rep jsonReport) bool {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintf(os.Stderr, "sdlint: %v\n", err)
		return true
	}
	return false
}

func runLint(progs []unitProg, verbose, jsonOut bool) bool {
	fail := false
	rep := jsonReport{Scope: "machine", BytesChecked: map[string]uint64{}, Findings: []jsonFinding{}}
	for _, t := range progs {
		r, err := lint.Analyze(t.prog, t.cfg, lint.Opts{})
		if err != nil {
			fmt.Fprintf(os.Stderr, "sdlint: %s/%s: %v\n", t.suite, t.name, err)
			fail = true
			continue
		}
		addBytes(rep.BytesChecked, r.Bytes)
		for _, f := range r.Findings {
			if jsonOut {
				rep.Findings = append(rep.Findings, toJSON(t.suite, f))
			} else {
				fmt.Printf("%s/%v\n", t.suite, f)
			}
			if f.Sev == lint.SevError {
				fail = true
			}
		}
		if verbose && !jsonOut && len(r.Findings) == 0 {
			fmt.Printf("%s/%s: ok (%d commands)\n", t.suite, t.name, len(t.prog.Trace))
		}
	}
	if jsonOut && emitJSON(rep) {
		return true
	}
	return fail
}

func runCluster(sets []target, verbose, jsonOut bool) bool {
	fail := false
	rep := jsonReport{Scope: "cluster", BytesChecked: map[string]uint64{}, Findings: []jsonFinding{}}
	for _, t := range sets {
		r, err := lint.CheckPipeline(t.phases, t.cfg, lint.ClusterOpts{Regions: t.regions})
		if err != nil {
			fmt.Fprintf(os.Stderr, "sdlint: %s/%s: %v\n", t.suite, t.name, err)
			fail = true
			continue
		}
		addBytes(rep.BytesChecked, r.Bytes)
		for _, f := range r.Findings {
			if jsonOut {
				rep.Findings = append(rep.Findings, toJSON(t.suite, f))
			} else {
				fmt.Printf("%s/%v\n", t.suite, f)
			}
			if f.Sev == lint.SevError {
				fail = true
			}
		}
		if verbose && !jsonOut && len(r.Findings) == 0 {
			units := len(t.phases[0])
			fmt.Printf("%s/%s: ok (%d units, %d phases)\n", t.suite, t.name, units, len(t.phases))
		}
	}
	if jsonOut && emitJSON(rep) {
		return true
	}
	return fail
}

// jsonFixEdit is one edit or final-barrier placement in the -fix -json
// report. Action is "insert", "remove", "hoist", or "keep"; the
// placement fields (interval, chosen, profile_drain_cycles) describe
// keep/hoist rows — barriers of the final program — and are absent on
// insert/remove rows.
type jsonFixEdit struct {
	Pos                int    `json:"pos"`
	Kind               string `json:"kind"`
	Action             string `json:"action"`
	Reason             string `json:"reason"`
	Interval           []int  `json:"interval,omitempty"` // [earliest, latest] legal slots
	Chosen             *int   `json:"chosen,omitempty"`   // slot the pass settled on
	ProfileDrainCycles uint64 `json:"profile_drain_cycles,omitempty"`
}

// jsonFixProg is one program's section of the -fix -json report.
type jsonFixProg struct {
	Suite          string        `json:"suite"`
	Prog           string        `json:"prog"`
	BarriersBefore int           `json:"barriers_before"`
	BarriersAfter  int           `json:"barriers_after"`
	Changed        bool          `json:"changed"`
	Edits          []jsonFixEdit `json:"edits"`
}

// jsonFixReport is the -fix -json output.
type jsonFixReport struct {
	Scope    string        `json:"scope"`
	Programs []jsonFixProg `json:"programs"`
}

// toFixJSON renders one program's fix report: edits first (inserts,
// then removes, trace order), then every barrier of the final program
// with its legal placement interval.
func toFixJSON(t unitProg, rep *fix.Report) jsonFixProg {
	p := jsonFixProg{
		Suite: t.suite, Prog: t.name,
		BarriersBefore: rep.BarriersBefore, BarriersAfter: rep.BarriersAfter,
		Changed: rep.Changed(), Edits: []jsonFixEdit{},
	}
	for _, e := range rep.Inserted {
		p.Edits = append(p.Edits, jsonFixEdit{Pos: e.Pos, Kind: e.Kind.String(), Action: "insert", Reason: e.Reason})
	}
	for _, e := range rep.Removed {
		p.Edits = append(p.Edits, jsonFixEdit{Pos: e.Pos, Kind: e.Kind.String(), Action: "remove", Reason: e.Reason})
	}
	for _, pl := range rep.Placements {
		action := "keep"
		if pl.Hoisted {
			action = "hoist"
		}
		chosen := pl.Chosen
		p.Edits = append(p.Edits, jsonFixEdit{
			Pos: pl.Pos, Kind: pl.Kind.String(), Action: action, Reason: pl.Reason,
			Interval: []int{pl.Earliest, pl.Latest}, Chosen: &chosen,
			ProfileDrainCycles: pl.Drain,
		})
	}
	return p
}

// loadProfiles reads a metrics dump and extracts each unit's
// barrier-drain profile, keyed by unit index.
func loadProfiles(path string) (map[int]fix.Profile, error) {
	if path == "" {
		return nil, nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d obs.Dump
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[int]fix.Profile{}
	for _, u := range d.Units {
		if pr := fix.ProfileFromUnit(u); pr != nil {
			out[u.Unit] = pr
		}
	}
	return out, nil
}

func runFix(progs []unitProg, verbose, jsonOut bool, profiles map[int]fix.Profile) bool {
	fail := false
	rep := jsonFixReport{Scope: "fix", Programs: []jsonFixProg{}}
	for _, t := range progs {
		_, r, err := fix.FixWithOpts(t.prog, t.cfg, fix.HoistOpts{Profile: profiles[t.unit]})
		if err != nil {
			fmt.Fprintf(os.Stderr, "sdlint: %s/%s: %v\n", t.suite, t.name, err)
			fail = true
			continue
		}
		if jsonOut {
			rep.Programs = append(rep.Programs, toFixJSON(t, r))
		} else if r.Changed() {
			fmt.Printf("%s/%v\n", t.suite, r)
			for _, e := range r.Inserted {
				fmt.Printf("  + trace[%d] %v: %s\n", e.Pos, e.Kind, e.Reason)
			}
			for _, e := range r.Removed {
				fmt.Printf("  - trace[%d] %v: %s\n", e.Pos, e.Kind, e.Reason)
			}
			for _, h := range r.Hoisted {
				fmt.Printf("  ~ trace[%d] -> trace[%d] %v: profiled drain %d cycle(s)\n", h.From, h.To, h.Kind, h.Drain)
			}
		} else if verbose {
			fmt.Printf("%s/%s: ok (%d barriers minimal)\n", t.suite, t.name, r.BarriersAfter)
		}
		if r.Changed() {
			fail = true
		}
	}
	if jsonOut && emitFixJSON(rep) {
		return true
	}
	return fail
}

func emitFixJSON(rep jsonFixReport) bool {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintf(os.Stderr, "sdlint: %v\n", err)
		return true
	}
	return false
}

// collect builds every built-in program set: each catalog workload at
// test scale on its own machine, one phase of one program per unit;
// the lone example programs under their own configurations; and the
// phased pipeline example with its declared shared regions.
func collect() ([]target, error) {
	var out []target
	for _, e := range catalog.All() {
		cfg := e.Config()
		inst, err := e.Build(cfg, 1)
		if err != nil {
			return nil, fmt.Errorf("building %s/%s: %w", e.Suite, e.Name, err)
		}
		out = append(out, target{suite: e.Suite, name: e.Name, phases: [][]*core.Program{inst.Progs}, cfg: cfg})
	}
	exs, err := programs.All()
	if err != nil {
		return nil, fmt.Errorf("building examples: %w", err)
	}
	for _, ex := range exs {
		out = append(out, target{suite: "examples", name: ex.Name, phases: [][]*core.Program{{ex.Prog}}, cfg: ex.Cfg, lone: true})
	}
	pl, err := programs.Pipeline()
	if err != nil {
		return nil, fmt.Errorf("building examples/pipeline: %w", err)
	}
	return append(out, target{suite: "examples", name: pl.Name, phases: pl.Phases, cfg: pl.Cfg, regions: pl.Regions}), nil
}

// clusterScope drops the lone example programs: the program sets
// -cluster checks.
func clusterScope(ts []target) []target {
	var out []target
	for _, t := range ts {
		if !t.lone {
			out = append(out, t)
		}
	}
	return out
}

// machineScope lists the targets' programs, named name[.phaseK][#unit]
// when the target has several phases or units.
func machineScope(ts []target) []unitProg {
	var out []unitProg
	for _, t := range ts {
		for k, ph := range t.phases {
			for u, p := range ph {
				n := t.name
				if len(t.phases) > 1 {
					n = fmt.Sprintf("%s.phase%d", n, k)
				}
				if len(ph) > 1 {
					n = fmt.Sprintf("%s#%d", n, u)
				}
				out = append(out, unitProg{suite: t.suite, name: n, unit: u, prog: p, cfg: t.cfg})
			}
		}
	}
	return out
}

// filter keeps the items whose suite or name contains one of args,
// or all of them when there are no args.
func filter[T any](ts []T, args []string, label func(T) (suite, name string)) []T {
	if len(args) == 0 {
		return ts
	}
	var out []T
	for _, t := range ts {
		suite, name := label(t)
		for _, a := range args {
			if strings.Contains(suite, a) || strings.Contains(name, a) {
				out = append(out, t)
				break
			}
		}
	}
	return out
}
