// Package bench regenerates the paper's evaluation tables: Table 1 (the
// thirteen-assay comparison between the direct-addressing baseline and
// the field-programmable pin-constrained chip), Table 2 (the published
// assay-specific pin-constrained results of Xu and Luo, reproduced as
// constants exactly as the paper does, alongside our FPPC numbers), and
// Table 3 (the FPPC array-size sweep with the section 5.2 dispense-time
// ablation).
package bench

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"fppc/internal/arch"
	"fppc/internal/assays"
	"fppc/internal/core"
	"fppc/internal/dag"
	"fppc/internal/obs"
	"fppc/internal/oracle"
	"fppc/internal/pinmap"
	"fppc/internal/router"
	"fppc/internal/scheduler"
)

// ArchResult is one architecture's outcome for one assay.
type ArchResult struct {
	W, H       int
	Electrodes int
	Pins       int
	RoutingS   float64
	OpsS       float64
	// SynthMS is the wall-clock synthesis time (schedule + place + route)
	// in milliseconds — the compiler's own cost, as opposed to the assay
	// execution times above. It is one sample of one compile, so it
	// shows scale only; the service benchmark measures time.
	SynthMS float64
}

// TotalS is operations plus routing, the paper's total time.
func (a ArchResult) TotalS() float64 { return a.OpsS + a.RoutingS }

// Table1Row compares the registered architectures on one assay.
type Table1Row struct {
	Name string
	DA   ArchResult
	FP   ArchResult

	// EFP is the enhanced FPPC chip's outcome; nil when the assay is
	// unsynthesizable there (the fixed 10-port perimeter excludes the
	// larger in-vitro benchmarks), with EFPNote carrying the typed
	// refusal.
	EFP     *ArchResult `json:"EFP,omitempty"`
	EFPNote string      `json:"EFPNote,omitempty"`

	// FPTelemetry carries the FPPC chip's execution telemetry digest
	// when the run collected it (Table1Telemetry); nil otherwise.
	FPTelemetry *RowTelemetry `json:"FPTelemetry,omitempty"`
}

// Table1Averages holds the bottom rows of Table 1: the per-benchmark
// FP-over-DA improvement factors averaged across the suite (values above
// 1 favor the field-programmable chip), plus the same factors for the
// enhanced FPPC chip over DA, averaged across the EFPRows benchmarks
// its fixed perimeter can host.
type Table1Averages struct {
	Electrodes float64
	Pins       float64
	Routing    float64
	Operations float64
	Total      float64

	EFPElectrodes float64 `json:"EFPElectrodes,omitempty"`
	EFPPins       float64 `json:"EFPPins,omitempty"`
	EFPRouting    float64 `json:"EFPRouting,omitempty"`
	EFPOperations float64 `json:"EFPOperations,omitempty"`
	EFPTotal      float64 `json:"EFPTotal,omitempty"`
	EFPRows       int     `json:"EFPRows,omitempty"`
}

// Table1 runs the thirteen-assay comparison across the three registered
// targets. Arrays start at the paper's 12x21 (FPPC), 15x19 (DA) and
// 10x16 (enhanced FPPC) and grow per assay when the scheduler reports
// insufficient resources, mirroring the paper's methodology for Protein
// Split 5-7. Benchmarks the enhanced chip's fixed reservoir perimeter
// cannot host carry a nil EFP column.
func Table1(tm assays.Timing) ([]Table1Row, Table1Averages, error) {
	return Table1Context(nil, tm, nil)
}

// Table1Context is Table1 under a context and with pipeline
// observation: each benchmark compiles under a "benchmark" span (args:
// name, target) and every compilation's stage spans and metrics
// accumulate on ob (nil disables). Cancellation or deadline expiry
// aborts the sweep between (and cooperatively inside) compilations. A
// nil ctx never cancels.
func Table1Context(ctx context.Context, tm assays.Timing, ob *obs.Observer) ([]Table1Row, Table1Averages, error) {
	var rows []Table1Row
	for _, a := range assays.Table1Benchmarks(tm) {
		row := Table1Row{Name: a.Name}
		fp, ms, err := timedCompile(ctx, a, core.Config{Target: core.TargetFPPC, AutoGrow: true, Obs: ob})
		if err != nil {
			return nil, Table1Averages{}, fmt.Errorf("bench: %s on FPPC: %w", a.Name, err)
		}
		row.FP = toArchResult(fp, ms)
		da, ms, err := timedCompile(ctx, a, core.Config{Target: core.TargetDA, AutoGrow: true, Obs: ob})
		if err != nil {
			return nil, Table1Averages{}, fmt.Errorf("bench: %s on DA: %w", a.Name, err)
		}
		row.DA = toArchResult(da, ms)
		row.EFP, row.EFPNote, err = enhancedResult(ctx, a, ob)
		if err != nil {
			return nil, Table1Averages{}, fmt.Errorf("bench: %s on enhanced FPPC: %w", a.Name, err)
		}
		rows = append(rows, row)
	}
	return rows, averages(rows), nil
}

// enhancedResult compiles one benchmark on the enhanced FPPC target.
// A typed unsynthesizable refusal (the fixed perimeter cannot host the
// assay) is a legitimate matrix entry, returned as a nil result plus
// the note; any other failure is an error.
func enhancedResult(ctx context.Context, a *dag.Assay, ob *obs.Observer) (*ArchResult, string, error) {
	r, ms, err := timedCompile(ctx, a, core.Config{Target: core.TargetEnhancedFPPC, AutoGrow: true, Obs: ob})
	if err != nil {
		var uns *core.ErrUnsynthesizable
		if errors.As(err, &uns) {
			return nil, err.Error(), nil
		}
		return nil, "", err
	}
	res := toArchResult(r, ms)
	return &res, "", nil
}

// VerifyTable1 runs the independent verification harness over the full
// cross-target Table 1 matrix: every benchmark compiles on every
// registered target (pin programs are emitted and replayed through the
// oracle with its simulator cross-check wherever the target supports
// them; a target may refuse an assay only with the typed
// *core.ErrUnsynthesizable), and all successful compilations of each
// assay are checked pairwise for schedule-level equivalence. It returns
// the first failure; nil means every published number rests on a
// verified execution.
func VerifyTable1(ctx context.Context, tm assays.Timing) error {
	for _, a := range assays.Table1Benchmarks(tm) {
		var results []*core.Result
		for _, spec := range core.Targets() {
			res, err := core.CompileContext(ctx, a.Clone(), oracle.VerifyConfig(spec.ID))
			if err != nil {
				var uns *core.ErrUnsynthesizable
				if errors.As(err, &uns) {
					continue
				}
				return fmt.Errorf("bench: verify %s on %s: %w", a.Name, spec.Name, err)
			}
			results = append(results, res)
		}
		if len(results) < 2 {
			return fmt.Errorf("bench: verify %s: only %d targets synthesized it; the matrix needs at least 2", a.Name, len(results))
		}
		if err := oracle.EquivalenceMatrix(results); err != nil {
			return fmt.Errorf("bench: verify %s: %w", a.Name, err)
		}
	}
	return nil
}

// timedCompile compiles under a per-benchmark span and measures the
// synthesis wall-clock in milliseconds.
func timedCompile(ctx context.Context, a *dag.Assay, cfg core.Config) (*core.Result, float64, error) {
	sp := cfg.Obs.Span("benchmark")
	sp.ArgStr("name", a.Name)
	sp.ArgStr("target", cfg.Target.String())
	t0 := time.Now()
	r, err := core.CompileContext(ctx, a, cfg)
	ms := float64(time.Since(t0)) / float64(time.Millisecond)
	sp.End()
	return r, ms, err
}

func toArchResult(r *core.Result, synthMS float64) ArchResult {
	return ArchResult{
		W:          r.Chip.W,
		H:          r.Chip.H,
		Electrodes: r.Chip.ElectrodeCount(),
		Pins:       r.Chip.PinCount(),
		RoutingS:   r.RoutingSeconds(),
		OpsS:       r.OperationSeconds(),
		SynthMS:    synthMS,
	}
}

func averages(rows []Table1Row) Table1Averages {
	var avg Table1Averages
	n := float64(len(rows))
	for _, r := range rows {
		avg.Electrodes += float64(r.DA.Electrodes) / float64(r.FP.Electrodes) / n
		avg.Pins += float64(r.DA.Pins) / float64(r.FP.Pins) / n
		avg.Routing += r.DA.RoutingS / r.FP.RoutingS / n
		avg.Operations += r.DA.OpsS / r.FP.OpsS / n
		avg.Total += r.DA.TotalS() / r.FP.TotalS() / n
		if r.EFP != nil {
			avg.EFPRows++
			avg.EFPElectrodes += float64(r.DA.Electrodes) / float64(r.EFP.Electrodes)
			avg.EFPPins += float64(r.DA.Pins) / float64(r.EFP.Pins)
			avg.EFPRouting += r.DA.RoutingS / r.EFP.RoutingS
			avg.EFPOperations += r.DA.OpsS / r.EFP.OpsS
			avg.EFPTotal += r.DA.TotalS() / r.EFP.TotalS()
		}
	}
	if m := float64(avg.EFPRows); m > 0 {
		avg.EFPElectrodes /= m
		avg.EFPPins /= m
		avg.EFPRouting /= m
		avg.EFPOperations /= m
		avg.EFPTotal /= m
	}
	return avg
}

// FormatTable1 renders the cross-target comparison like the paper's
// Table 1, extended with the enhanced FPPC (EFP) columns; "-" marks
// benchmarks the enhanced chip's fixed perimeter cannot host.
func FormatTable1(rows []Table1Row, avg Table1Averages) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: Direct-Addressing DMFB (DA) vs Field-Programmable Pin-Constrained DMFB (FP) vs Enhanced FPPC (EFP)\n")
	fmt.Fprintf(&b, "%-16s | %9s %9s %9s | %6s %6s %6s | %5s %5s %5s | %8s %8s %8s | %8s %8s %8s\n",
		"Benchmark", "DA dim", "FP dim", "EFP dim", "DA el", "FP el", "EFP el",
		"DA pn", "FP pn", "EFP pn",
		"DA rt(s)", "FP rt(s)", "EFP rt", "DA tot", "FP tot", "EFP tot")
	for _, r := range rows {
		efpDim, efpEl, efpPn, efpRt, efpTot := "-", "-", "-", "-", "-"
		if r.EFP != nil {
			efpDim = fmt.Sprintf("%dx%d", r.EFP.W, r.EFP.H)
			efpEl = fmt.Sprintf("%d", r.EFP.Electrodes)
			efpPn = fmt.Sprintf("%d", r.EFP.Pins)
			efpRt = fmt.Sprintf("%.1f", r.EFP.RoutingS)
			efpTot = fmt.Sprintf("%.1f", r.EFP.TotalS())
		}
		fmt.Fprintf(&b, "%-16s | %9s %9s %9s | %6d %6d %6s | %5d %5d %5s | %8.1f %8.1f %8s | %8.1f %8.1f %8s\n",
			r.Name,
			fmt.Sprintf("%dx%d", r.DA.W, r.DA.H), fmt.Sprintf("%dx%d", r.FP.W, r.FP.H), efpDim,
			r.DA.Electrodes, r.FP.Electrodes, efpEl, r.DA.Pins, r.FP.Pins, efpPn,
			r.DA.RoutingS, r.FP.RoutingS, efpRt,
			r.DA.TotalS(), r.FP.TotalS(), efpTot)
	}
	fmt.Fprintf(&b, "Avg. normalized improvement of FP over DA (>1 favors FP):\n")
	fmt.Fprintf(&b, "  electrodes %.2f, pins %.2f, routing %.2f, operations %.2f, total %.2f\n",
		avg.Electrodes, avg.Pins, avg.Routing, avg.Operations, avg.Total)
	if avg.EFPRows > 0 {
		fmt.Fprintf(&b, "Avg. normalized improvement of EFP over DA across the %d/%d synthesizable benchmarks:\n", avg.EFPRows, len(rows))
		fmt.Fprintf(&b, "  electrodes %.2f, pins %.2f, routing %.2f, operations %.2f, total %.2f\n",
			avg.EFPElectrodes, avg.EFPPins, avg.EFPRouting, avg.EFPOperations, avg.EFPTotal)
	}
	return b.String()
}

// Table2Row pairs the published Xu [17] and Luo [9] results with our
// field-programmable chip's measurements for the same assays.
type Table2Row struct {
	Benchmark string
	// Published values (reproduced from the paper's Table 2, which in
	// turn reproduces Luo & Chakrabarty [DAC'12]).
	ArrayDim            string
	ElectrodesUsed      int
	XuPins, LuoPins     int
	XuTotalS, LuoTotalS float64
	// Our field-programmable chip on the smallest fitting array.
	FPDim    string
	FPPins   int
	FPTotalS float64 // zero for the multi-function row (not one assay)

	// RemapPins is our own assay-specific broadcast pin assignment (the
	// Xu-style baseline, computed by internal/pinmap from the compiled
	// program): what the same execution would need if the chip were wired
	// for this assay alone. Zero for the multi-function row.
	RemapPins int
}

// table2Published holds the constants from the paper's Table 2.
var table2Published = []Table2Row{
	{Benchmark: "PCR", ArrayDim: "15x15", ElectrodesUsed: 62, XuPins: 14, LuoPins: 22, XuTotalS: 20, LuoTotalS: 30},
	{Benchmark: "In-Vitro 1", ArrayDim: "15x15", ElectrodesUsed: 59, XuPins: 25, LuoPins: 21, XuTotalS: 73, LuoTotalS: 90},
	{Benchmark: "Protein Split 3", ArrayDim: "15x15", ElectrodesUsed: 54, XuPins: 26, LuoPins: 20, XuTotalS: 150, LuoTotalS: 170},
	{Benchmark: "Multi-Function", ArrayDim: "15x15", ElectrodesUsed: 81, XuPins: 37, LuoPins: 27, XuTotalS: 150, LuoTotalS: 170},
}

// Table2 returns the published rows augmented with our FPPC results: the
// three single assays on their smallest fitting chips, and the
// multi-function row on the single chip able to run all three (the
// field-programmable design needs no multi-function variant — any
// sufficiently large chip runs everything).
func Table2(tm assays.Timing) ([]Table2Row, error) {
	return Table2Context(nil, tm, nil)
}

// Table2Context is Table2 under a context, with pipeline observation on
// ob (nil disables); a nil ctx never cancels.
func Table2Context(ctx context.Context, tm assays.Timing, ob *obs.Observer) ([]Table2Row, error) {
	rows := append([]Table2Row{}, table2Published...)
	single := []*dag.Assay{assays.PCR(tm), assays.InVitroN(1, tm), assays.ProteinSplit(3, tm)}
	maxH := 0
	for i, a := range single {
		r, err := core.CompileContext(ctx, a, core.Config{
			Target: core.TargetFPPC, FPPCHeight: 9, AutoGrow: true,
			Router: router.Options{EmitProgram: true, RotationsPerStep: 1},
			Obs:    ob,
		})
		if err != nil {
			return nil, fmt.Errorf("bench: table 2 %s: %w", a.Name, err)
		}
		rows[i].FPDim = fmt.Sprintf("%dx%d", r.Chip.W, r.Chip.H)
		rows[i].FPPins = r.Chip.PinCount()
		rows[i].FPTotalS = r.TotalSeconds()
		cons, err := pinmap.Derive(r.Chip, r.Routing.Program, r.Routing.Events)
		if err != nil {
			return nil, fmt.Errorf("bench: table 2 %s pinmap: %w", a.Name, err)
		}
		rows[i].RemapPins = pinmap.MergeByActivity(cons).Pins
		if r.Chip.H > maxH {
			maxH = r.Chip.H
		}
	}
	// Multi-function: one chip that runs all three; its time column is
	// the slowest of the three assays on that chip.
	worst := 0.0
	var pins int
	for _, a := range single {
		r, err := core.CompileContext(ctx, a, core.Config{Target: core.TargetFPPC, FPPCHeight: maxH, Obs: ob})
		if err != nil {
			return nil, fmt.Errorf("bench: table 2 multi-function %s: %w", a.Name, err)
		}
		if r.TotalSeconds() > worst {
			worst = r.TotalSeconds()
		}
		pins = r.Chip.PinCount()
	}
	rows[3].FPDim = fmt.Sprintf("%dx%d", 12, maxH)
	rows[3].FPPins = pins
	rows[3].FPTotalS = worst
	return rows, nil
}

// FormatTable2 renders the pin-constrained comparison.
func FormatTable2(rows []Table2Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2: Xu [17] and Luo [9] assay-specific pin-constrained chips (published) vs our field-programmable chip\n")
	fmt.Fprintf(&b, "(remap#p: our own Xu-style assay-specific broadcast pin assignment, computed from the compiled program)\n")
	fmt.Fprintf(&b, "%-16s | %7s %5s | %4s %4s | %7s %7s | %7s %5s %8s %7s\n",
		"Benchmark", "dim", "elec", "Xu#p", "Luo#p", "Xu t(s)", "Luo t(s)", "FP dim", "FP#p", "FP t(s)", "remap#p")
	for _, r := range rows {
		remap := "-"
		if r.RemapPins > 0 {
			remap = fmt.Sprintf("%d", r.RemapPins)
		}
		fmt.Fprintf(&b, "%-16s | %7s %5d | %4d %4d | %7.0f %7.0f | %7s %5d %8.1f %7s\n",
			r.Benchmark, r.ArrayDim, r.ElectrodesUsed, r.XuPins, r.LuoPins,
			r.XuTotalS, r.LuoTotalS, r.FPDim, r.FPPins, r.FPTotalS, remap)
	}
	return b.String()
}

// Table3Row is one array size of the FPPC sweep.
type Table3Row struct {
	H          int
	Mix, SSD   int
	Electrodes int
	Pins       int
	// TotalS per assay; negative means the assay does not fit (the
	// paper's "-" entries).
	TotalS map[string]float64
}

// Table3Assays names the sweep's columns in order.
var Table3Assays = []string{"PCR", "In-Vitro 1", "Protein Split 3"}

// Table3 sweeps FPPC array sizes for the three assays of the paper's
// Table 3. dispense overrides the protein dispense latency when positive
// (section 5.2's ablation uses 2).
func Table3(tm assays.Timing, heights []int, dispense int) ([]Table3Row, error) {
	return Table3Context(nil, tm, heights, dispense, nil)
}

// Table3Context is Table3 under a context, with pipeline observation on
// ob (nil disables); a nil ctx never cancels.
func Table3Context(ctx context.Context, tm assays.Timing, heights []int, dispense int, ob *obs.Observer) ([]Table3Row, error) {
	if len(heights) == 0 {
		heights = []int{9, 12, 15, 18, 21}
	}
	mk := func(name string) *dag.Assay {
		var a *dag.Assay
		switch name {
		case "PCR":
			a = assays.PCR(tm)
		case "In-Vitro 1":
			a = assays.InVitroN(1, tm)
		case "Protein Split 3":
			a = assays.ProteinSplit(3, tm)
		}
		if dispense > 0 && name == "Protein Split 3" {
			a = assays.WithDispense(a, dispense)
		}
		return a
	}
	var rows []Table3Row
	for _, h := range heights {
		chip, err := arch.NewFPPC(h)
		if err != nil {
			return nil, err
		}
		row := Table3Row{
			H:          h,
			Mix:        len(chip.MixModules),
			SSD:        len(chip.SSDModules),
			Electrodes: chip.ElectrodeCount(),
			Pins:       chip.PinCount(),
			TotalS:     map[string]float64{},
		}
		for _, name := range Table3Assays {
			r, err := core.CompileContext(ctx, mk(name), core.Config{Target: core.TargetFPPC, FPPCHeight: h, Obs: ob})
			if err != nil {
				if insufficientErr(err) {
					row.TotalS[name] = -1
					continue
				}
				return nil, fmt.Errorf("bench: table 3 %s at 12x%d: %w", name, h, err)
			}
			row.TotalS[name] = r.TotalSeconds()
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func insufficientErr(err error) bool {
	var ir *scheduler.ErrInsufficientResources
	return errors.As(err, &ir)
}

// FormatTable3 renders the sweep like the paper's Table 3.
func FormatTable3(rows []Table3Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 3: total assay times on growing field-programmable pin-constrained arrays\n")
	fmt.Fprintf(&b, "%-7s | %-9s | %5s | %4s | %10s %12s %17s\n",
		"Array", "Mods M/S", "elec", "pins", "PCR(s)", "In-Vitro 1(s)", "Protein Split 3(s)")
	for _, r := range rows {
		cell := func(name string) string {
			v := r.TotalS[name]
			if v < 0 {
				return "-"
			}
			return fmt.Sprintf("%.2f", v)
		}
		fmt.Fprintf(&b, "12x%-4d | %3d/%-5d | %5d | %4d | %10s %12s %17s\n",
			r.H, r.Mix, r.SSD, r.Electrodes, r.Pins,
			cell("PCR"), cell("In-Vitro 1"), cell("Protein Split 3"))
	}
	return b.String()
}
