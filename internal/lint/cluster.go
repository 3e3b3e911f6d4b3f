package lint

import (
	"fmt"
	"sort"
	"strings"

	"softbrain/internal/core"
	"softbrain/internal/isa"
)

// This file is the cluster-scope analysis: the machine checker proves a
// single unit's streams ordered, but a core.Cluster runs several units
// over one backing memory with no inter-unit ordering primitive at all
// — units synchronize only when a Run returns, i.e. at pipeline phase
// boundaries. The parallel scheduler is byte-identical to the
// sequential one *only because* clustered workloads keep their DRAM
// footprints disjoint; nothing at runtime verifies that convention, so
// this pass does, symbolically:
//
//	inter-unit-race  two units touch overlapping DRAM bytes anywhere in
//	                 the pipeline and at least one writes: the verified
//	                 discipline is disjoint partitioning, so any
//	                 cross-unit sharing with a writer must go through a
//	                 declared region. Intra-program barriers are
//	                 irrelevant here — SD_Barrier_* orders one unit's
//	                 streams and says nothing about another unit's.
//	shared-region    the checked relaxation of all-disjoint: a declared
//	                 Region may be shared iff exactly one unit writes
//	                 it, every foreign reader runs in a phase strictly
//	                 after the writer's last write (the phase boundary
//	                 is the inter-unit barrier), and every footprint
//	                 touching the region lies entirely inside it.
//
// Read-read overlap outside declared regions stays legal without
// declaration — broadcast inputs (the dnn units sharing one activation
// image) are the common case and are schedule-independent.
//
// Indirect footprints resolve through the same value pre-pass as the
// machine checker (values.go), including scratch/DRAM round trips; an
// access the pass cannot bound is silently excluded by default and
// conflicts with every other unit's access under Opts.StrictIndirect —
// the same contract, lifted to cluster scope.

// Region declares one shared DRAM byte range [Lo, Hi) of a checked
// pipeline. Declared regions are the only bytes where inter-unit
// overlap involving a writer is legal.
type Region struct {
	Name string `json:"name"`
	Lo   uint64 `json:"lo"`
	Hi   uint64 `json:"hi"`
}

// ClusterOpts tunes a cluster-scope analysis run.
type ClusterOpts struct {
	// Opts applies to footprint resolution (strict-indirect handling,
	// exhaustive pair reporting) exactly as at machine scope.
	Opts

	// Regions are the declared shared regions of the pipeline.
	Regions []Region
}

// CheckCluster analyzes one single-phase program set (one program per
// unit, all running concurrently) for inter-unit hazards.
func CheckCluster(progs []*core.Program, cfg core.Config, o ClusterOpts) (Result, error) {
	return CheckPipeline([][]*core.Program{progs}, cfg, o)
}

// CheckPipeline analyzes a phased program set: phases[k][u] is the
// program unit u runs in phase k, phases execute sequentially (each
// phase starts only after every unit of the previous one completed),
// and units within a phase run concurrently. The error return is
// reserved for inputs that cannot be analyzed at all: invalid
// configuration, malformed phases, programs with construction errors,
// or malformed region declarations.
func CheckPipeline(phases [][]*core.Program, cfg core.Config, o ClusterOpts) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if len(phases) == 0 || len(phases[0]) == 0 {
		return Result{}, fmt.Errorf("lint: pipeline with no phases or no units")
	}
	units := len(phases[0])
	for pi, ph := range phases {
		if len(ph) != units {
			return Result{}, fmt.Errorf("lint: phase %d has %d programs, phase 0 has %d; every phase must program every unit", pi, len(ph), units)
		}
		for u, p := range ph {
			if p == nil {
				return Result{}, fmt.Errorf("lint: phase %d unit %d has no program", pi, u)
			}
			if err := p.Err(); err != nil {
				return Result{}, fmt.Errorf("lint: phase %d unit %d (%s): %w", pi, u, p.Name, err)
			}
		}
	}
	if err := validateRegions(o.Regions); err != nil {
		return Result{}, err
	}

	c := &clusterChecker{opts: o, bytes: map[string]uint64{}}
	for pi, ph := range phases {
		for u, p := range ph {
			for _, a := range collectDRAM(p, cfg) {
				ua := uAccess{access: a, prog: p.Name, unit: u, phase: pi, region: -1}
				if !ua.opaque {
					lo, hi, ok := ua.pat.Extent()
					if !ok {
						// Unbounded reach: the machine-scope oob check
						// flags it; here it conflicts like any other
						// data-dependent footprint.
						ua.opaque = true
					} else {
						ua.lo, ua.hi = lo, hi
						n, _ := ua.pat.TotalBytesChecked()
						c.bytes[CheckInterUnit] = satAdd(c.bytes[CheckInterUnit], n)
						c.classify(&ua)
					}
				}
				c.acc = append(c.acc, ua)
			}
		}
	}
	c.pairSweep()
	c.regionRules(len(phases))

	sort.SliceStable(c.findings, func(i, j int) bool {
		a, b := c.findings[i], c.findings[j]
		if a.Phase != b.Phase {
			return a.Phase < b.Phase
		}
		if a.Unit != b.Unit {
			return a.Unit < b.Unit
		}
		if a.Index != b.Index {
			return a.Index < b.Index
		}
		if a.OtherUnit != b.OtherUnit {
			return a.OtherUnit < b.OtherUnit
		}
		return a.Other < b.Other
	})
	return Result{Findings: c.findings, Bytes: c.bytes}, nil
}

// validateRegions rejects malformed declarations: empty or inverted
// ranges, ranges reaching into the configuration space, and mutually
// overlapping regions (ownership would be ambiguous).
func validateRegions(regions []Region) error {
	for i, r := range regions {
		if r.Lo >= r.Hi {
			return fmt.Errorf("lint: shared region %s has empty or inverted range [%#x, %#x)", regionName(r, i), r.Lo, r.Hi)
		}
		if r.Hi > core.ConfigSpace {
			return fmt.Errorf("lint: shared region %s [%#x, %#x) reaches into the configuration space at %#x", regionName(r, i), r.Lo, r.Hi, core.ConfigSpace)
		}
		for j := 0; j < i; j++ {
			o := regions[j]
			if r.Lo < o.Hi && o.Lo < r.Hi {
				return fmt.Errorf("lint: shared regions %s and %s overlap", regionName(o, j), regionName(r, i))
			}
		}
	}
	return nil
}

func regionName(r Region, i int) string {
	if r.Name != "" {
		return r.Name
	}
	return fmt.Sprintf("#%d", i)
}

// uAccess is one unit's DRAM access in the cluster analysis.
type uAccess struct {
	access
	prog        string
	unit, phase int
	lo, hi      uint64 // footprint extent, valid when !opaque
	region      int    // containing declared region, or -1
}

type clusterChecker struct {
	opts     ClusterOpts
	acc      []uAccess
	findings []Finding
	bytes    map[string]uint64
}

// classify binds a bounded access to the declared region containing it.
// An access overlapping a region without lying entirely inside it is a
// shared-region error: the region boundary is the unit of ordering, so
// a straddling footprint is neither policed by the region rules nor
// safely disjoint.
func (c *clusterChecker) classify(a *uAccess) {
	for ri, r := range c.opts.Regions {
		if a.hi <= r.Lo || a.lo >= r.Hi {
			continue
		}
		if a.lo >= r.Lo && a.hi <= r.Hi {
			a.region = ri
			return
		}
		c.findings = append(c.findings, Finding{
			Prog: a.prog, Index: a.idx, Check: CheckSharedRegion, Code: "region-straddle",
			Sev: SevError, Other: -1, Unit: a.unit, OtherUnit: -1, Phase: a.phase,
			Msg: fmt.Sprintf("%s footprint [%#x, %#x) straddles the boundary of shared region %s [%#x, %#x); shared-region footprints must lie entirely inside the region",
				a.what, a.lo, a.hi, regionName(r, ri), r.Lo, r.Hi),
		})
		return
	}
}

// pairSweep sweeps every bounded access of the whole pipeline by
// extent and reports every cross-unit overlapping pair with a writer
// that no shared region covers. Disjoint partitioning is verified over
// the entire phase sequence, not per phase: two units sharing bytes in
// different phases happen to be ordered by the phase boundary, but
// undeclared sharing is still a partition violation — the declared
// region is what states the intent and gets the ordering checked. The
// sweep keeps the candidate set to extent-overlapping accesses, so
// well-partitioned traces (the common case) cost O(n log n) regardless
// of how many same-unit or read-read extents coincide.
func (c *clusterChecker) pairSweep() {
	var bounded, opaque []*uAccess
	for i := range c.acc {
		a := &c.acc[i]
		if a.opaque {
			opaque = append(opaque, a)
		} else {
			bounded = append(bounded, a)
		}
	}

	// Data-dependent footprints: silent by default, conflicting with
	// every other unit's access under strict indirect analysis.
	if c.opts.StrictIndirect {
		for _, a := range opaque {
			for i := range c.acc {
				o := &c.acc[i]
				if o.unit == a.unit {
					continue
				}
				if !a.write && !o.write {
					continue
				}
				c.findings = append(c.findings, Finding{
					Prog: a.prog, Index: a.idx, Check: CheckInterUnit, Code: "inter-unit-indirect",
					Sev: SevError, Other: o.idx, Unit: a.unit, OtherUnit: o.unit, Phase: a.phase,
					Msg: fmt.Sprintf("unit %d %s has a data-dependent footprint that may overlap unit %d %s: units have no ordering primitive, so data-dependent sharing is never provably partitioned (strict indirect analysis)",
						a.unit, a.what, o.unit, o.what),
				})
				if !c.opts.Exhaustive {
					break
				}
			}
		}
	}

	// Interval sweep over extents; [lo, hi) is half-open, so end events
	// at an address precede start events at the same address.
	type ev struct {
		addr  uint64
		start bool
		a     *uAccess
	}
	evs := make([]ev, 0, 2*len(bounded))
	for _, a := range bounded {
		if a.lo == a.hi {
			continue
		}
		evs = append(evs, ev{a.lo, true, a}, ev{a.hi, false, a})
	}
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].addr != evs[j].addr {
			return evs[i].addr < evs[j].addr
		}
		if evs[i].start != evs[j].start {
			return !evs[i].start
		}
		if evs[i].a.unit != evs[j].a.unit {
			return evs[i].a.unit < evs[j].a.unit
		}
		return evs[i].a.idx < evs[j].a.idx
	})
	var active []*uAccess
	for _, e := range evs {
		if !e.start {
			for i, o := range active {
				if o == e.a {
					active[i] = active[len(active)-1]
					active = active[:len(active)-1]
					break
				}
			}
			continue
		}
		a := e.a
		for _, o := range active {
			if o.unit == a.unit {
				continue
			}
			if !a.write && !o.write {
				continue
			}
			if a.region >= 0 && a.region == o.region {
				continue // both inside one declared region: region rules police it
			}
			if !a.pat.Overlaps(o.pat) {
				continue
			}
			lo, hi := a.lo, a.hi
			if o.lo > lo {
				lo = o.lo
			}
			if o.hi < hi {
				hi = o.hi
			}
			why := "units synchronize only at phase boundaries, so concurrent access to shared bytes is schedule-dependent"
			if a.phase != o.phase {
				why = fmt.Sprintf("the accesses run in phases %d and %d, but undeclared cross-unit sharing violates the disjoint-partitioning discipline the cluster contract verifies", a.phase, o.phase)
			}
			c.findings = append(c.findings, Finding{
				Prog: a.prog, Index: a.idx, Check: CheckInterUnit, Code: "inter-unit-overlap",
				Sev: SevError, Other: o.idx, Unit: a.unit, OtherUnit: o.unit, Phase: a.phase,
				Msg: fmt.Sprintf("unit %d %s %v overlaps unit %d %s at trace[%d] (%v) on [%#x, %#x): %s; partition the footprints or declare a shared region and order the readers a phase after the writer",
					a.unit, a.what, a.pat, o.unit, o.what, o.idx, o.pat, lo, hi, why),
			})
			if !c.opts.Exhaustive {
				break
			}
		}
		active = append(active, a)
	}
}

// regionRules enforces the checked shared-region pipeline contract over
// the whole phase sequence: exactly one unit writes a region, and every
// foreign reader runs in a phase strictly after the writer's last write
// — the phase boundary (Cluster.Run returning) is the only inter-unit
// barrier, so same-phase or earlier reads observe a schedule-dependent
// mix of old and new bytes.
func (c *clusterChecker) regionRules(phases int) {
	for ri, r := range c.opts.Regions {
		firstWriter := -1
		lastWritePhase := -1
		var writes []*uAccess
		for i := range c.acc {
			a := &c.acc[i]
			if a.region != ri || !a.write {
				continue
			}
			writes = append(writes, a)
			if firstWriter < 0 {
				firstWriter = a.unit
			}
			if a.phase > lastWritePhase {
				lastWritePhase = a.phase
			}
		}
		for _, a := range writes {
			if a.unit == firstWriter {
				continue
			}
			c.findings = append(c.findings, Finding{
				Prog: a.prog, Index: a.idx, Check: CheckSharedRegion, Code: "region-multi-writer",
				Sev: SevError, Other: -1, Unit: a.unit, OtherUnit: firstWriter, Phase: a.phase,
				Msg: fmt.Sprintf("unit %d %s writes shared region %s, which unit %d already writes; a checked shared region has exactly one writer",
					a.unit, a.what, regionName(r, ri), firstWriter),
			})
		}
		if firstWriter < 0 {
			continue // read-only sharing needs no ordering
		}
		for i := range c.acc {
			a := &c.acc[i]
			if a.region != ri || a.write || a.unit == firstWriter {
				continue
			}
			if a.phase <= lastWritePhase {
				c.findings = append(c.findings, Finding{
					Prog: a.prog, Index: a.idx, Check: CheckSharedRegion, Code: "region-unordered-read",
					Sev: SevError, Other: -1, Unit: a.unit, OtherUnit: firstWriter, Phase: a.phase,
					Msg: fmt.Sprintf("unit %d %s reads shared region %s in phase %d, but writer unit %d still writes it in phase %d; readers must run in a phase strictly after the writer's last write (the phase boundary is the inter-unit barrier)",
						a.unit, a.what, regionName(r, ri), a.phase, firstWriter, lastWritePhase),
				})
			}
		}
	}
}

// collectDRAM walks one unit's trace and returns every DRAM access with
// its resolved footprint (or its opacity), *ignoring* intra-unit
// barriers: a barrier orders one unit's streams against each other and
// says nothing about another unit's, so the cluster analysis must see
// the program's entire footprint.
func collectDRAM(p *core.Program, cfg core.Config) []access {
	ranges := indexRanges(p, cfg)
	var out []access
	add := func(idx int, write bool, pat isa.Affine, what string) {
		if pat.Empty() {
			return
		}
		out = append(out, access{idx: idx, write: write, pat: pat, ordPort: -1, inPort: -1, what: what})
	}
	addInd := func(idx int, write bool, offset uint64, scale uint8, elem isa.ElemSize, count uint64, what string) {
		if count == 0 {
			return
		}
		a := access{idx: idx, write: write, ordPort: -1, inPort: -1, what: what, opaque: true}
		if r, ok := ranges[idx]; ok {
			if pat, fits := isa.IndexFootprint(offset, scale, elem, r.lo, r.hi); fits {
				a.pat, a.opaque = pat, false
				a.what = fmt.Sprintf("%s (indices in [%d, %d])", what, r.lo, r.hi)
			}
		}
		out = append(out, a)
	}
	for i, op := range p.Trace {
		switch k := op.Cmd.(type) {
		case isa.MemScratch:
			add(i, false, k.Src, "SD_Mem_Scratch read")
		case isa.MemPort:
			add(i, false, k.Src, "SD_Mem_Port read")
		case isa.PortMem:
			add(i, true, k.Dst, "SD_Port_Mem write")
		case isa.IndPortPort:
			addInd(i, false, k.Offset, k.Scale, k.DataElem, k.Count, "SD_IndPort_Port gather")
		case isa.IndPortMem:
			addInd(i, true, k.Offset, k.Scale, k.DataElem, k.Count, "SD_IndPort_Mem scatter")
		}
	}
	return out
}

// ClusterHook adapts the cluster analysis to the core.Cluster Lint
// hook: it refuses any phased program set with error-severity findings,
// machine-scope (each program analyzed individually) or cluster-scope.
// Install it with
//
//	cl.Lint = lint.ClusterHook(cfg, lint.ClusterOpts{Regions: ...})
//
// and Cluster.RunContext and Cluster.RunPipeline vet what they run.
func ClusterHook(cfg core.Config, o ClusterOpts) func([][]*core.Program) error {
	return func(phases [][]*core.Program) error {
		var errs []Finding
		for _, ph := range phases {
			for _, p := range ph {
				fs, err := CheckWith(p, cfg, o.Opts)
				if err != nil {
					return err
				}
				errs = append(errs, Errors(fs)...)
			}
		}
		r, err := CheckPipeline(phases, cfg, o)
		if err != nil {
			return err
		}
		errs = append(errs, Errors(r.Findings)...)
		if len(errs) == 0 {
			return nil
		}
		var b strings.Builder
		fmt.Fprintf(&b, "lint: cluster program set has %d hazard(s):", len(errs))
		for _, f := range errs {
			fmt.Fprintf(&b, "\n  %v", f)
		}
		return fmt.Errorf("%s", b.String())
	}
}
