package bench

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
)

func TestGeoMean(t *testing.T) {
	if g := GeoMean([]float64{2, 8}); math.Abs(g-4) > 1e-9 {
		t.Errorf("GeoMean(2,8) = %v", g)
	}
	if g := GeoMean([]float64{0, -1}); g != 0 {
		t.Errorf("GeoMean of nothing = %v", g)
	}
	if g := GeoMean([]float64{5, 0}); math.Abs(g-5) > 1e-9 {
		t.Errorf("GeoMean skips non-positive: %v", g)
	}
}

// TestTable3MatchesPaper checks the headline Table 3 numbers.
func TestTable3MatchesPaper(t *testing.T) {
	r := Table3()
	if len(r.Rows) < 6 {
		t.Fatalf("only %d component rows", len(r.Rows))
	}
	if math.Abs(r.UnitArea-0.47) > 0.02 || math.Abs(r.UnitPower-119.3) > 2 {
		t.Errorf("unit totals %.2f mm^2 / %.1f mW, paper: 0.47 / 119.3", r.UnitArea, r.UnitPower)
	}
	if r.AreaOverhead < 1.5 || r.AreaOverhead > 2.1 {
		t.Errorf("area overhead %.2fx, paper: 1.74x", r.AreaOverhead)
	}
	if r.PowerOverhead < 2.0 || r.PowerOverhead > 2.6 {
		t.Errorf("power overhead %.2fx, paper: 2.28x", r.PowerOverhead)
	}
}

// TestTable4Complete checks the characterization covers 8 + 4 codes.
func TestTable4Complete(t *testing.T) {
	rows := Table4()
	impl, rej := 0, 0
	for _, r := range rows {
		if r.Unsuitable {
			rej++
			if r.Reason == "" {
				t.Errorf("%s: missing reason", r.Workload)
			}
		} else {
			impl++
			if r.Patterns == "" || r.Datapath == "" {
				t.Errorf("%s: incomplete characterization", r.Workload)
			}
		}
	}
	if impl != 8 || rej != 4 {
		t.Errorf("%d implemented + %d unsuitable, want 8 + 4", impl, rej)
	}
}

// TestFig11Shape runs the full DNN study and checks the paper's
// qualitative results: DianNao and Softbrain in the same performance
// class (tens-to-hundreds of x), GPU far behind both, and Softbrain at
// or above DianNao on the pooling workloads.
func TestFig11Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full DNN study")
	}
	rows, err := Fig11(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 11 {
		t.Fatalf("%d rows, want 10 + GM", len(rows))
	}
	byName := map[string]Fig11Row{}
	for _, r := range rows {
		byName[r.Workload] = r
		t.Logf("%-8s GPU %6.1fx  DianNao %7.1fx  Softbrain %7.1fx", r.Workload, r.GPU, r.DianNao, r.Softbrain)
	}
	gm := byName["GM"]
	if gm.GPU < 2 || gm.GPU > 30 {
		t.Errorf("GM GPU speedup %.1fx outside the paper's <=20x regime", gm.GPU)
	}
	if gm.Softbrain < 20 {
		t.Errorf("GM Softbrain speedup %.1fx; paper reports ~100x", gm.Softbrain)
	}
	if gm.Softbrain < gm.GPU {
		t.Error("Softbrain should beat the GPU overall")
	}
	// Same performance class as DianNao: within ~3x either way overall.
	ratio := gm.Softbrain / gm.DianNao
	if ratio < 0.33 || ratio > 3 {
		t.Errorf("Softbrain/DianNao GM ratio %.2f; paper: comparable", ratio)
	}
	// The pooling advantage.
	for _, p := range []string{"pool1p", "pool3p", "pool5p"} {
		if byName[p].Softbrain < byName[p].DianNao*0.8 {
			t.Errorf("%s: Softbrain %.1fx well below DianNao %.1fx; paper shows an advantage",
				p, byName[p].Softbrain, byName[p].DianNao)
		}
	}
}

// TestMachSuiteStudyShape runs the full Figures 12-15 study and checks
// the paper's headline shapes.
func TestMachSuiteStudyShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full MachSuite study")
	}
	rows, err := MachSuiteStudy(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("%d rows, want 8 + GM", len(rows))
	}
	var gm MachRow
	for _, r := range rows {
		t.Logf("%-13s spd %5.2fx/%5.2fx  pow-eff %6.1fx/%6.1fx  en-eff %6.1fx/%6.1fx  area %6.3fx",
			r.Workload, r.SoftbrainSpeedup, r.ASICSpeedup,
			r.SoftbrainPowerEff, r.ASICPowerEff,
			r.SoftbrainEnergyEff, r.ASICEnergyEff, r.ASICAreaRel)
		if r.Workload == "GM" {
			gm = r
		}
	}
	// Figure 12: both achieve 1-7x over OOO4, and iso-performance holds.
	if gm.SoftbrainSpeedup < 0.8 || gm.SoftbrainSpeedup > 10 {
		t.Errorf("GM Softbrain speedup %.2fx outside the paper's 1-7x band", gm.SoftbrainSpeedup)
	}
	isoRatio := gm.ASICSpeedup / gm.SoftbrainSpeedup
	if isoRatio < 0.5 || isoRatio > 2.5 {
		t.Errorf("ASICs not iso-performance: ratio %.2f", isoRatio)
	}
	// Figure 13: both far more power-efficient than OOO4; ASIC leads
	// Softbrain by roughly 2x.
	if gm.SoftbrainPowerEff < 20 {
		t.Errorf("GM Softbrain power efficiency %.0fx; paper: order 100x", gm.SoftbrainPowerEff)
	}
	lead := gm.ASICPowerEff / gm.SoftbrainPowerEff
	if lead < 1 || lead > 6 {
		t.Errorf("ASIC power lead %.2fx; paper: ~2x", lead)
	}
	// Figure 14: energy within small factors.
	if elead := gm.ASICEnergyEff / gm.SoftbrainEnergyEff; elead < 0.8 || elead > 8 {
		t.Errorf("ASIC energy lead %.2fx; paper: ~2x", elead)
	}
	// Figure 15: ASICs are small fractions of Softbrain's area...
	if gm.ASICAreaRel > 0.5 {
		t.Errorf("GM ASIC relative area %.3f; paper: ~1/8", gm.ASICAreaRel)
	}
	// ...but eight of them together rival or exceed one Softbrain.
	total := TotalASICArea(rows)
	sb := Table3().UnitArea
	if total < sb*0.4 {
		t.Errorf("all ASICs together %.2f mm^2 vs Softbrain %.2f; paper: 2.54x", total, sb)
	}
}

// TestAblations verifies the microarchitectural features carry their
// weight: disabling each one must not speed anything up materially, and
// the pipelining features must show clear wins on the kernels that
// stress them.
func TestAblations(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation study")
	}
	rows, err := Ablations(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]AblationRow{}
	for _, r := range rows {
		byName[r.Workload] = r
		t.Logf("%-10s base %7d  -inflight %7d  -window %7d  -balance %7d  window=2 %7d  half-ports %7d",
			r.Workload, r.Baseline, r.NoAllInFlight, r.InOrderIssue, r.NoBalanceUnit, r.SmallWindow, r.ShallowPorts)
		for label, v := range map[string]uint64{
			"no-all-in-flight": r.NoAllInFlight,
			"in-order-issue":   r.InOrderIssue,
			"no-balance":       r.NoBalanceUnit,
			"small-window":     r.SmallWindow,
			"shallow-ports":    r.ShallowPorts,
		} {
			if float64(v) < 0.95*float64(r.Baseline) {
				t.Errorf("%s: removing %s sped things up (%d -> %d); feature is harmful",
					r.Workload, label, r.Baseline, v)
			}
		}
	}
	// The features exist for fine-grained stream pipelining: spmv must
	// lose meaningfully without them. All-requests-in-flight earns its
	// keep when DRAM latency sits between a stream's last request and
	// its completion, i.e. on cold runs.
	spmv := byName["spmv-crs"]
	t.Logf("spmv-crs cold: base %d  -inflight %d", spmv.ColdBaseline, spmv.ColdNoAllInFlight)
	if spmv.ColdNoAllInFlight < spmv.ColdBaseline*13/10 {
		t.Errorf("spmv-crs cold: all-requests-in-flight won only %d -> %d; expected a clear benefit",
			spmv.ColdNoAllInFlight, spmv.ColdBaseline)
	}
	if spmv.InOrderIssue < spmv.Baseline*11/10 {
		t.Errorf("spmv-crs: dispatch window won only %d -> %d; expected a clear benefit",
			spmv.InOrderIssue, spmv.Baseline)
	}
}

// TestFixStudyPlacement runs the full barrier study and checks the
// placement half: the cost-aware chooser must never lose to the
// latest-legal baseline (it commits only simulated strict
// improvements), and must actually win — fewer total cycles and fewer
// barrier-drain stall cycles — on at least two workloads.
func TestFixStudyPlacement(t *testing.T) {
	rows, err := FixStudy(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	wins := 0
	for _, r := range rows {
		if r.HoistedCy > r.LatestCy {
			t.Errorf("%s: hoisted placement is slower than latest-legal (%d > %d cycles)",
				r.Workload, r.HoistedCy, r.LatestCy)
		}
		if r.HoistedCy < r.LatestCy {
			wins++
			if r.HoistedDrain >= r.LatestDrain {
				t.Errorf("%s: cycles improved (%d < %d) but barrier drain did not (%d >= %d)",
					r.Workload, r.HoistedCy, r.LatestCy, r.HoistedDrain, r.LatestDrain)
			}
			if r.Hoists == 0 {
				t.Errorf("%s: cycles improved without any recorded hoist", r.Workload)
			}
		}
	}
	if wins < 2 {
		t.Errorf("cost-aware placement beats latest-legal on %d workloads, want >= 2", wins)
	}
}

// TestSimRowDRAMUtilization fills the metrics columns of every
// sdbench -json row, at its committed cycle golden: mem_utilization
// must be a fraction in (0, 1], the multi-unit rows included.
func TestSimRowDRAMUtilization(t *testing.T) {
	data, err := os.ReadFile("../../scripts/bench_goldens.json")
	if err != nil {
		t.Fatal(err)
	}
	var goldens map[string]uint64
	if err := json.Unmarshal(data, &goldens); err != nil {
		t.Fatal(err)
	}
	for _, e := range simSuite() {
		e := e
		t.Run(e.name, func(t *testing.T) {
			t.Parallel()
			inst, cfg, err := e.build()
			if err != nil {
				t.Fatal(err)
			}
			row := SimRow{Workload: e.name, Cycles: goldens[e.name]}
			if err := metricsColumns(context.Background(), &row, inst, cfg); err != nil {
				t.Fatal(err)
			}
			if u := row.MemUtilization; !(u > 0 && u <= 1) {
				t.Errorf("mem_utilization = %.4f, want a fraction in (0, 1]", u)
			}
		})
	}
}

// workAllocSlack is the allocation drift TestWorkGoldens tolerates: the
// runtime adds a few allocations of noise to a run (a pool emptied by a
// garbage collection refills), which the minimum of workReps runs
// mostly, but not always, removes. Repeated runs spread by 2 at most.
const workAllocSlack = 8

// TestWorkGoldens gates every suite workload's host-independent work
// against scripts/work_goldens.json: the scheduler counters and the
// per-component stall attribution must match exactly, and the
// allocations of one run must land within workAllocSlack of the golden,
// either way — a drop is committed by the change that earns it, like a
// cycle golden (regenerate with go run ./cmd/sdbench -json
// -update-goldens). Race-detector builds allocate differently, so they
// check the counters and the attribution only.
func TestWorkGoldens(t *testing.T) {
	data, err := os.ReadFile("../../scripts/work_goldens.json")
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]Work
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	got, err := MeasureWork(context.Background(), false)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range simSuite() {
		name := e.name
		g := got[name]
		w, ok := want[name]
		if !ok {
			t.Errorf("%s: no work golden", name)
			continue
		}
		t.Logf("%s: %+v", name, g)
		gc, wc := g, w
		gc.Mallocs, wc.Mallocs = 0, 0
		gc.Stalls, wc.Stalls = nil, nil
		if !reflect.DeepEqual(gc, wc) {
			t.Errorf("%s: scheduler counters drifted:\n  got    %+v\n  golden %+v", name, gc, wc)
		}
		if !reflect.DeepEqual(g.Stalls, w.Stalls) {
			t.Errorf("%s: stall attribution drifted:\n  got    %v\n  golden %v", name, g.Stalls, w.Stalls)
		}
		if !raceEnabled && (g.Mallocs > w.Mallocs+workAllocSlack || g.Mallocs+workAllocSlack < w.Mallocs) {
			t.Errorf("%s: %d allocations per run, golden %d (slack %d)", name, g.Mallocs, w.Mallocs, workAllocSlack)
		}
	}
}
