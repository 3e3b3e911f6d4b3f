// Benchmarks that regenerate every table and figure of the paper's
// evaluation section. Run with:
//
//	go test -bench=. -benchmem
//
// Each benchmark reports the headline quantity of its artifact as a
// custom metric (speedups, efficiency ratios, relative areas), so the
// benchmark output reads as the paper's results.
package softbrain_test

import (
	"context"
	"sync"
	"testing"

	"softbrain/internal/baseline"
	"softbrain/internal/bench"
	"softbrain/internal/core"
	"softbrain/internal/power"
	"softbrain/internal/workloads"
	"softbrain/internal/workloads/dnn"
	"softbrain/internal/workloads/machsuite"
)

// BenchmarkTable3AreaPower regenerates the Table 3 breakdown and its
// DianNao comparison.
func BenchmarkTable3AreaPower(b *testing.B) {
	var r bench.Table3Result
	for i := 0; i < b.N; i++ {
		r = bench.Table3()
	}
	b.ReportMetric(r.UnitArea, "mm2/unit")
	b.ReportMetric(r.UnitPower, "mW/unit")
	b.ReportMetric(r.AreaOverhead, "area-vs-diannao")
	b.ReportMetric(r.PowerOverhead, "power-vs-diannao")
}

// BenchmarkTable4Characterization regenerates the Table 4 rows.
func BenchmarkTable4Characterization(b *testing.B) {
	n := 0
	for i := 0; i < b.N; i++ {
		n = len(bench.Table4())
	}
	b.ReportMetric(float64(n), "workloads")
}

// BenchmarkFig11DNN runs each DNN layer on the 8-unit cluster and
// reports its speedup over the single-thread CPU model (the Figure 11
// bars).
func BenchmarkFig11DNN(b *testing.B) {
	cfg := dnn.Config()
	cpu := baseline.SingleThreadCPU()
	dian := baseline.DianNao()
	for _, l := range dnn.Layers() {
		l := l
		b.Run(l.Name, func(b *testing.B) {
			inst, err := l.Build(cfg, dnn.Units)
			if err != nil {
				b.Fatal(err)
			}
			var cycles uint64
			for i := 0; i < b.N; i++ {
				_, stats, err := inst.Run(context.Background(), cfg, workloads.RunOpts{Warm: true})
				if err != nil {
					b.Fatal(err)
				}
				cycles = stats.Cycles
			}
			cpuNS := cpu.TimeNS(inst.Profile)
			b.ReportMetric(cpuNS/float64(cycles), "speedup-vs-cpu")
			b.ReportMetric(cpuNS/dian.TimeNS(inst.Profile), "diannao-speedup")
			b.ReportMetric(float64(cycles), "softbrain-cycles")
		})
	}
}

// BenchmarkFig12Perf runs each MachSuite workload on Softbrain and
// reports the Figure 12 speedup over the OOO4 model.
func BenchmarkFig12Perf(b *testing.B) {
	cfg := core.DefaultConfig()
	ooo := baseline.OOO4()
	for _, e := range machsuite.All() {
		e := e
		b.Run(e.Name, func(b *testing.B) {
			inst, err := e.Build(cfg, 2)
			if err != nil {
				b.Fatal(err)
			}
			var cycles uint64
			for i := 0; i < b.N; i++ {
				_, stats, err := inst.Run(context.Background(), cfg, workloads.RunOpts{Warm: true})
				if err != nil {
					b.Fatal(err)
				}
				cycles = stats.Cycles
			}
			b.ReportMetric(ooo.TimeNS(inst.Profile)/float64(cycles), "speedup-vs-ooo4")
			b.ReportMetric(float64(cycles), "softbrain-cycles")
		})
	}
}

// The full Figures 12-15 study is expensive; compute it once and let
// the Figure 13-15 benchmarks report its derived metrics.
var (
	studyOnce sync.Once
	studyRows []bench.MachRow
	studyErr  error
)

func study(b *testing.B) []bench.MachRow {
	studyOnce.Do(func() { studyRows, studyErr = bench.MachSuiteStudy(context.Background()) })
	if studyErr != nil {
		b.Fatal(studyErr)
	}
	return studyRows
}

// BenchmarkFig13Power reports the Figure 13 power-efficiency bars.
func BenchmarkFig13Power(b *testing.B) {
	var rows []bench.MachRow
	for i := 0; i < b.N; i++ {
		rows = study(b)
	}
	for _, r := range rows {
		if r.Workload == "GM" {
			b.ReportMetric(r.SoftbrainPowerEff, "softbrain-poweff-GM")
			b.ReportMetric(r.ASICPowerEff, "asic-poweff-GM")
		}
	}
}

// BenchmarkFig14Energy reports the Figure 14 energy-efficiency bars.
func BenchmarkFig14Energy(b *testing.B) {
	var rows []bench.MachRow
	for i := 0; i < b.N; i++ {
		rows = study(b)
	}
	for _, r := range rows {
		if r.Workload == "GM" {
			b.ReportMetric(r.SoftbrainEnergyEff, "softbrain-eneff-GM")
			b.ReportMetric(r.ASICEnergyEff, "asic-eneff-GM")
		}
	}
}

// BenchmarkFig15Area reports the Figure 15 relative-area bars.
func BenchmarkFig15Area(b *testing.B) {
	var rows []bench.MachRow
	for i := 0; i < b.N; i++ {
		rows = study(b)
	}
	for _, r := range rows {
		if r.Workload == "GM" {
			b.ReportMetric(r.ASICAreaRel, "asic-area-rel-GM")
		}
	}
	b.ReportMetric(bench.TotalASICArea(rows)/bench.Table3().UnitArea, "all-asics-vs-softbrain")
}

// BenchmarkPowerModel measures the power model itself.
func BenchmarkPowerModel(b *testing.B) {
	model := power.NewModel(dnn.Config())
	stats := &core.Stats{Cycles: 10000, FUOps: 400000, CoreInstrs: 5000, Instances: 8000}
	var mw float64
	for i := 0; i < b.N; i++ {
		mw = model.AveragePower(stats, 8)
	}
	b.ReportMetric(mw, "mW")
}
