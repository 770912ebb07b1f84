// Package report renders the benchmark harness's results as Markdown,
// the format EXPERIMENTS.md uses, so the paper-vs-measured record can be
// regenerated mechanically after any change to the stack.
package report

import (
	"context"
	"fmt"
	"strings"

	"fppc/internal/assays"
	"fppc/internal/bench"
	"fppc/internal/obs"
)

// Paper-published Table 1 values for the side-by-side columns.
var paperTable1 = map[string][4]float64{ // DA routing, FP routing, DA ops, FP ops
	"PCR":             {0.7, 2.1, 11, 11},
	"In-Vitro 1":      {0.7, 2.6, 14, 14},
	"In-Vitro 2":      {1.2, 3.8, 18, 18},
	"In-Vitro 3":      {1.9, 6.2, 22, 18},
	"In-Vitro 4":      {1.8, 8.8, 24, 19},
	"In-Vitro 5":      {2.9, 11.6, 32, 25},
	"Protein Split 1": {1.8, 2.9, 71, 71},
	"Protein Split 2": {6.2, 6.1, 106, 106},
	"Protein Split 3": {13.9, 13.5, 176, 176},
	"Protein Split 4": {32.9, 29.3, 316, 316},
	"Protein Split 5": {63.6, 61.4, 670, 596},
	"Protein Split 6": {161.2, 127.4, 1156, 1156},
	"Protein Split 7": {290.3, 260.6, 2353, 2276},
}

// Markdown runs all three tables and renders a Markdown document with
// measured values beside the paper's.
func Markdown(tm assays.Timing) (string, error) {
	return MarkdownContext(nil, tm, nil)
}

// MarkdownContext is Markdown under a context, with Table 1
// compilations recorded on ob (nil disables): cancellation or deadline
// expiry aborts between (and cooperatively inside) compilations. A nil
// ctx never cancels.
func MarkdownContext(ctx context.Context, tm assays.Timing, ob *obs.Observer) (string, error) {
	var b strings.Builder
	b.WriteString("# Regenerated evaluation (measured vs. paper)\n\n")

	rows, avg, err := bench.Table1Context(ctx, tm, ob)
	if err != nil {
		return "", err
	}
	b.WriteString("## Table 1 — DA vs FP\n\n")
	b.WriteString("| Benchmark | FP array | FP pins | DA rt s [paper] | FP rt s [paper] | DA op s [paper] | FP op s [paper] | synth ms (DA/FP) |\n")
	b.WriteString("|---|---|---|---|---|---|---|---|\n")
	for _, r := range rows {
		p := paperTable1[r.Name]
		fmt.Fprintf(&b, "| %s | %dx%d | %d | %.1f [%.1f] | %.1f [%.1f] | %.0f [%.0f] | %.0f [%.0f] | %.1f / %.1f |\n",
			r.Name, r.FP.W, r.FP.H, r.FP.Pins,
			r.DA.RoutingS, p[0], r.FP.RoutingS, p[1], r.DA.OpsS, p[2], r.FP.OpsS, p[3],
			r.DA.SynthMS, r.FP.SynthMS)
	}
	fmt.Fprintf(&b, "\nAverages (>1 favors FP): electrodes %.2f [1.82], pins %.2f [6.53], routing %.2f [0.68], operations %.2f [1.07], total %.2f [0.98]\n\n",
		avg.Electrodes, avg.Pins, avg.Routing, avg.Operations, avg.Total)

	t2, err := bench.Table2Context(ctx, tm, nil)
	if err != nil {
		return "", err
	}
	b.WriteString("## Table 2 — assay-specific pin-constrained chips\n\n")
	b.WriteString("| Benchmark | Xu pins | Luo pins | FP dim | FP pins | our remap pins |\n|---|---|---|---|---|---|\n")
	for _, r := range t2 {
		remap := "-"
		if r.RemapPins > 0 {
			remap = fmt.Sprintf("%d", r.RemapPins)
		}
		fmt.Fprintf(&b, "| %s | %d | %d | %s | %d | %s |\n",
			r.Benchmark, r.XuPins, r.LuoPins, r.FPDim, r.FPPins, remap)
	}
	b.WriteString("\n")

	t3, err := bench.Table3Context(ctx, tm, nil, 0, nil)
	if err != nil {
		return "", err
	}
	b.WriteString("## Table 3 — FPPC size sweep\n\n")
	b.WriteString("| Array | Mix/SSD | Pins | PCR s | In-Vitro 1 s | Protein Split 3 s |\n|---|---|---|---|---|---|\n")
	cell := func(r bench.Table3Row, name string) string {
		if v := r.TotalS[name]; v >= 0 {
			return fmt.Sprintf("%.2f", v)
		}
		return "-"
	}
	for _, r := range t3 {
		fmt.Fprintf(&b, "| 12x%d | %d/%d | %d | %s | %s | %s |\n",
			r.H, r.Mix, r.SSD, r.Pins,
			cell(r, "PCR"), cell(r, "In-Vitro 1"), cell(r, "Protein Split 3"))
	}
	return b.String(), nil
}
