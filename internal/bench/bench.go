// Package bench regenerates the paper's evaluation artifacts: Table 3
// (area/power breakdown), Figure 11 (DNN speedups vs CPU/GPU/DianNao),
// Table 4 (workload characterization), and Figures 12-15 (Softbrain vs
// iso-performance ASICs on MachSuite). Each function returns structured
// rows; cmd/sdbench and the repository benchmarks format them.
package bench

import (
	"context"
	"fmt"
	"math"

	"softbrain/internal/baseline"
	"softbrain/internal/baseline/asic"
	"softbrain/internal/core"
	"softbrain/internal/power"
	"softbrain/internal/workloads"
	"softbrain/internal/workloads/dnn"
	"softbrain/internal/workloads/machsuite"
)

// GeoMean returns the geometric mean of xs, ignoring non-positive
// entries.
func GeoMean(xs []float64) float64 {
	sum, n := 0.0, 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// ---------------------------------------------------------------------
// Table 3: area and power breakdown.

// Table3Row is one line of the breakdown.
type Table3Row struct {
	Component string
	AreaMM2   float64
	PowerMW   float64
}

// Table3Result is the full table with its comparison summary.
type Table3Result struct {
	Rows          []Table3Row
	UnitArea      float64
	UnitPower     float64
	TotalArea     float64 // 8 units
	TotalPower    float64
	DianNaoArea   float64
	DianNaoPower  float64
	AreaOverhead  float64
	PowerOverhead float64
}

// Table3 computes the breakdown for the DNN-provisioned unit.
func Table3() Table3Result {
	m := power.NewModel(core.DNNConfig())
	dn := baseline.DianNao()
	res := Table3Result{
		UnitArea:     m.UnitArea(),
		UnitPower:    m.UnitPeakPower(),
		DianNaoArea:  dn.AreaMM2,
		DianNaoPower: dn.PowerMW,
	}
	for _, c := range m.Components {
		res.Rows = append(res.Rows, Table3Row{c.Name, c.AreaMM2, c.PeakMW})
	}
	res.TotalArea = 8 * res.UnitArea
	res.TotalPower = 8 * res.UnitPower
	res.AreaOverhead = res.TotalArea / res.DianNaoArea
	res.PowerOverhead = res.TotalPower / res.DianNaoPower
	return res
}

// ---------------------------------------------------------------------
// Figure 11: DNN speedups over a single-threaded CPU.

// Fig11Row is one workload's speedups (wall-clock, higher is better).
type Fig11Row struct {
	Workload  string
	GPU       float64
	DianNao   float64
	Softbrain float64

	SoftbrainCycles  uint64
	SoftbrainPowerMW float64
}

// Fig11 runs all ten DNN layers on the 8-unit cluster and compares
// against the analytic CPU, GPU and DianNao models. The final row is the
// geometric mean.
func Fig11() ([]Fig11Row, error) {
	return Fig11Context(context.Background())
}

// Fig11Context is Fig11 bounded by a context (sdbench -timeout).
func Fig11Context(ctx context.Context) ([]Fig11Row, error) {
	cfg := dnn.Config()
	cpu := baseline.SingleThreadCPU()
	gpu := baseline.KeplerGPU()
	dn := baseline.DianNao()
	model := power.NewModel(cfg)

	var rows []Fig11Row
	var gms [3][]float64
	for _, l := range dnn.Layers() {
		inst, err := l.Build(cfg, dnn.Units)
		if err != nil {
			return nil, err
		}
		_, stats, err := inst.Run(ctx, cfg, workloads.RunOpts{Warm: true})
		if err != nil {
			return nil, err
		}
		cpuNS := cpu.TimeNS(inst.Profile)
		sbNS := float64(stats.Cycles) / power.FreqGHz
		row := Fig11Row{
			Workload:         l.Name,
			GPU:              cpuNS / gpu.TimeNS(inst.Profile),
			DianNao:          cpuNS / dn.TimeNS(inst.Profile),
			Softbrain:        cpuNS / sbNS,
			SoftbrainCycles:  stats.Cycles,
			SoftbrainPowerMW: model.AveragePower(stats, dnn.Units),
		}
		rows = append(rows, row)
		gms[0] = append(gms[0], row.GPU)
		gms[1] = append(gms[1], row.DianNao)
		gms[2] = append(gms[2], row.Softbrain)
	}
	rows = append(rows, Fig11Row{
		Workload:  "GM",
		GPU:       GeoMean(gms[0]),
		DianNao:   GeoMean(gms[1]),
		Softbrain: GeoMean(gms[2]),
	})
	return rows, nil
}

// ---------------------------------------------------------------------
// Table 4: workload characterization.

// Table4Row characterizes one workload.
type Table4Row struct {
	Workload   string
	Patterns   string
	Datapath   string
	Unsuitable bool
	Reason     string
}

// Table4 lists the implemented codes and the rejected ones.
func Table4() []Table4Row {
	var rows []Table4Row
	for _, e := range machsuite.All() {
		rows = append(rows, Table4Row{Workload: e.Name, Patterns: e.Patterns, Datapath: e.Datapath})
	}
	for _, u := range machsuite.UnsuitableCodes() {
		rows = append(rows, Table4Row{Workload: u.Name, Unsuitable: true, Reason: u.Reason})
	}
	return rows
}

// ---------------------------------------------------------------------
// Figures 12-15: MachSuite vs iso-performance ASICs.

// MachRow carries everything Figures 12-15 plot for one workload.
type MachRow struct {
	Workload string

	// Figure 12: speedup over OOO4 (wall clock).
	SoftbrainSpeedup float64
	ASICSpeedup      float64

	// Figure 13: power efficiency relative to OOO4.
	SoftbrainPowerEff float64
	ASICPowerEff      float64

	// Figure 14: energy efficiency relative to OOO4.
	SoftbrainEnergyEff float64
	ASICEnergyEff      float64

	// Figure 15: ASIC area relative to Softbrain.
	ASICAreaRel float64

	// Raw numbers for EXPERIMENTS.md.
	SoftbrainCycles  uint64
	SoftbrainPowerMW float64
	ASICDesign       asic.Design
}

// machScale picks per-workload problem scales large enough to amortize
// command overheads while keeping simulation time modest.
var machScale = map[string]int{
	"bfs": 6, "gemm": 3, "md-knn": 4, "spmv-crs": 4,
	"spmv-ellpack": 4, "stencil2d": 3, "stencil3d": 3, "viterbi": 4,
}

// MachSuiteStudy runs every implemented workload on the broadly
// provisioned Softbrain, generates its iso-performance ASIC, and
// produces the rows behind Figures 12-15, ending with the GM row.
func MachSuiteStudy() ([]MachRow, error) {
	return MachSuiteStudyContext(context.Background())
}

// MachSuiteStudyContext is MachSuiteStudy bounded by a context
// (sdbench -timeout).
func MachSuiteStudyContext(ctx context.Context) ([]MachRow, error) {
	cfg := core.DefaultConfig()
	model := power.NewModel(cfg)
	ooo := baseline.OOO4()
	sbArea := model.UnitArea()

	var rows []MachRow
	var gm [7][]float64
	for _, e := range machsuite.All() {
		scale := machScale[e.Name]
		if scale == 0 {
			scale = 2
		}
		inst, err := e.Build(cfg, scale)
		if err != nil {
			return nil, fmt.Errorf("bench: building %s: %w", e.Name, err)
		}
		_, stats, err := inst.Run(ctx, cfg, workloads.RunOpts{Warm: true})
		if err != nil {
			return nil, fmt.Errorf("bench: running %s: %w", e.Name, err)
		}
		sbNS := float64(stats.Cycles) / power.FreqGHz
		sbMW := model.AveragePower(stats, 1)

		design, err := asic.Generate(*inst.Kernel, stats.Cycles)
		if err != nil {
			return nil, fmt.Errorf("bench: ASIC for %s: %w", e.Name, err)
		}
		asicNS := float64(design.Cycles) / power.FreqGHz

		oooNS := ooo.TimeNS(inst.Profile)
		oooMJ := ooo.PowerMW * oooNS // energy in pJ (mW x ns)

		row := MachRow{
			Workload:           e.Name,
			SoftbrainSpeedup:   oooNS / sbNS,
			ASICSpeedup:        oooNS / asicNS,
			SoftbrainPowerEff:  ooo.PowerMW / sbMW,
			ASICPowerEff:       ooo.PowerMW / design.PowerMW,
			SoftbrainEnergyEff: oooMJ / (sbMW * sbNS),
			ASICEnergyEff:      oooMJ / (design.PowerMW * asicNS),
			ASICAreaRel:        design.AreaMM2 / sbArea,
			SoftbrainCycles:    stats.Cycles,
			SoftbrainPowerMW:   sbMW,
			ASICDesign:         design,
		}
		rows = append(rows, row)
		for i, v := range []float64{
			row.SoftbrainSpeedup, row.ASICSpeedup, row.SoftbrainPowerEff,
			row.ASICPowerEff, row.SoftbrainEnergyEff, row.ASICEnergyEff, row.ASICAreaRel,
		} {
			gm[i] = append(gm[i], v)
		}
	}
	rows = append(rows, MachRow{
		Workload:           "GM",
		SoftbrainSpeedup:   GeoMean(gm[0]),
		ASICSpeedup:        GeoMean(gm[1]),
		SoftbrainPowerEff:  GeoMean(gm[2]),
		ASICPowerEff:       GeoMean(gm[3]),
		SoftbrainEnergyEff: GeoMean(gm[4]),
		ASICEnergyEff:      GeoMean(gm[5]),
		ASICAreaRel:        GeoMean(gm[6]),
	})
	return rows, nil
}

// TotalASICArea sums the per-workload ASIC areas: the paper's
// observation that all eight accelerators together need 2.54x the area
// Softbrain does (Section 7.3) divides this by the Softbrain unit area.
func TotalASICArea(rows []MachRow) float64 {
	total := 0.0
	for _, r := range rows {
		if r.Workload != "GM" {
			total += r.ASICDesign.AreaMM2
		}
	}
	return total
}
