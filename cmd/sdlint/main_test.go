package main

import (
	"encoding/json"
	"strings"
	"testing"

	"softbrain/internal/fix"
	"softbrain/internal/isa"
	"softbrain/internal/lint"
)

// TestJSONSchemaGolden locks the -json schema: field names, order, and
// omit behavior are a stable contract for downstream tooling. Any
// change here is a breaking schema change and must be deliberate.
func TestJSONSchemaGolden(t *testing.T) {
	rep := jsonReport{
		Scope:        "cluster",
		BytesChecked: map[string]uint64{"inter-unit-race": 4096, "race": 128},
		Findings: []jsonFinding{
			toJSON("examples", lint.Finding{
				Prog: "producer", Index: 2, Check: lint.CheckInterUnit,
				Code: "inter-unit-overlap", Sev: lint.SevError,
				Other: 5, Unit: 1, OtherUnit: 0, Phase: 0,
				Msg: "unit 1 overlaps unit 0",
			}),
			toJSON("machsuite", lint.Finding{
				Prog: "bfs", Index: 7, Check: lint.CheckRace,
				Code: "race-mem", Sev: lint.SevError,
				Other: 3, Unit: -1, OtherUnit: -1, Phase: -1,
				Barrier: isa.KindBarrierAll, Msg: "needs a barrier",
			}),
		},
	}
	got, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	const want = `{
  "scope": "cluster",
  "bytes_checked": {
    "inter-unit-race": 4096,
    "race": 128
  },
  "findings": [
    {
      "suite": "examples",
      "prog": "producer",
      "index": 2,
      "check": "inter-unit-race",
      "code": "inter-unit-overlap",
      "severity": "error",
      "other": 5,
      "unit": 1,
      "other_unit": 0,
      "phase": 0,
      "msg": "unit 1 overlaps unit 0"
    },
    {
      "suite": "machsuite",
      "prog": "bfs",
      "index": 7,
      "check": "race",
      "code": "race-mem",
      "severity": "error",
      "other": 3,
      "unit": -1,
      "other_unit": -1,
      "phase": -1,
      "barrier": "SD_Barrier_All",
      "msg": "needs a barrier"
    }
  ]
}`
	if string(got) != want {
		t.Errorf("-json schema drifted:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestEmptyReportShape locks the zero-finding report: findings must be
// an empty array, never null, so consumers can always range over it.
func TestEmptyReportShape(t *testing.T) {
	rep := jsonReport{Scope: "machine", BytesChecked: map[string]uint64{}, Findings: []jsonFinding{}}
	got, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"scope":"machine","bytes_checked":{},"findings":[]}`; string(got) != want {
		t.Errorf("empty report = %s, want %s", got, want)
	}
}

// TestBuiltinsMachineClean runs the machine-scope path over every
// built-in target and expects a clean report with nonzero bytes-checked
// totals for each check family that reports them.
func TestBuiltinsMachineClean(t *testing.T) {
	targets, err := collect()
	if err != nil {
		t.Fatal(err)
	}
	bytes := map[string]uint64{}
	for _, tg := range machineScope(targets) {
		r, err := lint.Analyze(tg.prog, tg.cfg, lint.Opts{})
		if err != nil {
			t.Errorf("%s/%s: %v", tg.suite, tg.name, err)
			continue
		}
		for _, f := range r.Findings {
			t.Errorf("%s/%v", tg.suite, f)
		}
		addBytes(bytes, r.Bytes)
	}
	for _, check := range []string{lint.CheckRace, lint.CheckOOB, lint.CheckBalance} {
		if bytes[check] == 0 {
			t.Errorf("bytes_checked[%s] = 0 across all built-ins; the accounting is broken", check)
		}
	}
}

// TestBuiltinsClusterClean is the `sdlint -cluster` CI gate as a test:
// every shipped program set — the single-unit workloads, the 8-unit dnn
// layers, and the phased pipeline example with its declared region —
// passes the cluster analysis with zero findings.
func TestBuiltinsClusterClean(t *testing.T) {
	targets, err := collect()
	if err != nil {
		t.Fatal(err)
	}
	var sawMultiUnit, sawPhased bool
	bytes := map[string]uint64{}
	for _, ct := range clusterScope(targets) {
		if len(ct.phases[0]) > 1 {
			sawMultiUnit = true
		}
		if len(ct.phases) > 1 {
			sawPhased = true
		}
		r, err := lint.CheckPipeline(ct.phases, ct.cfg, lint.ClusterOpts{Regions: ct.regions})
		if err != nil {
			t.Errorf("%s/%s: %v", ct.suite, ct.name, err)
			continue
		}
		for _, f := range r.Findings {
			t.Errorf("%s/%s: %v", ct.suite, ct.name, f)
		}
		addBytes(bytes, r.Bytes)
	}
	if !sawMultiUnit || !sawPhased {
		t.Errorf("cluster targets miss a shape: multi-unit=%v phased=%v", sawMultiUnit, sawPhased)
	}
	if bytes[lint.CheckInterUnit] == 0 {
		t.Error("bytes_checked[inter-unit-race] = 0 across all built-ins; the accounting is broken")
	}
}

// TestFilterClusters checks the name filter applies to cluster targets.
func TestFilterClusters(t *testing.T) {
	targets, err := collect()
	if err != nil {
		t.Fatal(err)
	}
	got := filter(clusterScope(targets), []string{"pipeline"}, func(t target) (string, string) { return t.suite, t.name })
	if len(got) != 1 || got[0].name != "pipeline" {
		names := make([]string, 0, len(got))
		for _, ct := range got {
			names = append(names, ct.suite+"/"+ct.name)
		}
		t.Fatalf("filter(pipeline) = %v, want exactly examples/pipeline", strings.Join(names, ", "))
	}
}

// TestFixJSONSchemaGolden locks the -fix -json schema the same way
// TestJSONSchemaGolden locks -json: edits carry {pos, kind, action,
// reason}, keep/hoist rows add {interval: [earliest, latest], chosen,
// profile_drain_cycles}, and insert/remove rows omit the placement
// fields entirely.
func TestFixJSONSchemaGolden(t *testing.T) {
	chosen := 4
	rep := jsonFixReport{
		Scope: "fix",
		Programs: []jsonFixProg{
			{
				Suite: "machsuite", Prog: "spmv-crs",
				BarriersBefore: 2, BarriersAfter: 2, Changed: true,
				Edits: []jsonFixEdit{
					{Pos: 9, Kind: "SD_Barrier_Scratch_Wr", Action: "insert",
						Reason: "orders the scratchpad write at trace[7]"},
					{Pos: 12, Kind: "SD_Barrier_All", Action: "remove",
						Reason: "no unordered pair crosses it"},
					{Pos: 4, Kind: "SD_Barrier_All", Action: "hoist",
						Reason:   "hoisted from trace[11]: profiled drain of 8 cycle(s) overlaps streams issued behind it",
						Interval: []int{2, 11}, Chosen: &chosen, ProfileDrainCycles: 8},
				},
			},
			{
				Suite: "ext", Prog: "lut",
				BarriersBefore: 1, BarriersAfter: 1, Changed: false,
				Edits: []jsonFixEdit{},
			},
		},
	}
	got, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	const want = `{
  "scope": "fix",
  "programs": [
    {
      "suite": "machsuite",
      "prog": "spmv-crs",
      "barriers_before": 2,
      "barriers_after": 2,
      "changed": true,
      "edits": [
        {
          "pos": 9,
          "kind": "SD_Barrier_Scratch_Wr",
          "action": "insert",
          "reason": "orders the scratchpad write at trace[7]"
        },
        {
          "pos": 12,
          "kind": "SD_Barrier_All",
          "action": "remove",
          "reason": "no unordered pair crosses it"
        },
        {
          "pos": 4,
          "kind": "SD_Barrier_All",
          "action": "hoist",
          "reason": "hoisted from trace[11]: profiled drain of 8 cycle(s) overlaps streams issued behind it",
          "interval": [
            2,
            11
          ],
          "chosen": 4,
          "profile_drain_cycles": 8
        }
      ]
    },
    {
      "suite": "ext",
      "prog": "lut",
      "barriers_before": 1,
      "barriers_after": 1,
      "changed": false,
      "edits": []
    }
  ]
}`
	if string(got) != want {
		t.Errorf("-fix -json schema drifted:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestBuiltinsFixKeepRows checks the real -fix -json path over the
// built-ins: every program is unchanged (the minimality gate), every
// edit row is therefore a keep, and every keep carries a well-formed
// interval containing its chosen slot.
func TestBuiltinsFixKeepRows(t *testing.T) {
	targets, err := collect()
	if err != nil {
		t.Fatal(err)
	}
	keeps := 0
	for _, tg := range machineScope(targets) {
		_, r, err := fix.FixWithOpts(tg.prog, tg.cfg, fix.HoistOpts{})
		if err != nil {
			t.Errorf("%s/%s: %v", tg.suite, tg.name, err)
			continue
		}
		jp := toFixJSON(tg, r)
		if jp.Changed {
			t.Errorf("%s/%s: shipped program not at the fix point", tg.suite, tg.name)
		}
		for _, e := range jp.Edits {
			if e.Action != "keep" {
				t.Errorf("%s/%s: unexpected %q edit on an unchanged program", tg.suite, tg.name, e.Action)
				continue
			}
			keeps++
			if len(e.Interval) != 2 || e.Chosen == nil ||
				*e.Chosen < e.Interval[0] || *e.Chosen > e.Interval[1] || *e.Chosen != e.Pos {
				t.Errorf("%s/%s: malformed keep row %+v", tg.suite, tg.name, e)
			}
		}
	}
	if keeps == 0 {
		t.Error("no keep rows across all built-ins; placement reporting is broken")
	}
}
