// fppc-bench regenerates the paper's evaluation tables.
//
// Usage:
//
//	fppc-bench -table 1          # DA vs FPPC vs enhanced FPPC across the 13 benchmarks
//	fppc-bench -table 2          # comparison to assay-specific designs
//	fppc-bench -table 3          # FPPC array-size sweep
//	fppc-bench -table 3 -dispense 2   # section 5.2 dispense ablation
//	fppc-bench -markdown         # all tables as Markdown with paper values
//	fppc-bench -table 3 -json    # the selected tables as one JSON document on
//	                             # stdout (status lines go to stderr)
//	fppc-bench -table 0          # everything (default)
//	fppc-bench -faults 3         # chaos campaign: random hardware faults
//	                             # over every benchmark, zero tolerated misses
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"fppc/internal/assays"
	"fppc/internal/bench"
	"fppc/internal/cli"
	"fppc/internal/core"
	"fppc/internal/faults"
	"fppc/internal/obs"
	"fppc/internal/report"
	"fppc/internal/telemetry"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fppc-bench: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("fppc-bench", flag.ContinueOnError)
	table := fs.Int("table", 0, "table to regenerate (1, 2 or 3; 0 = all)")
	dispense := fs.Int("dispense", 0, "override protein dispense latency in seconds (table 3)")
	heights := fs.String("heights", "", "comma-separated FPPC heights for table 3 (default 9,12,15,18,21)")
	markdown := fs.Bool("markdown", false, "emit all tables as Markdown with paper values inline")
	jsonOut := fs.Bool("json", false, "emit the selected tables as JSON")
	traceOut := fs.String("trace", "", "write a Chrome trace_event JSON file of the runs")
	metricsOut := fs.String("metrics", "", "write pipeline metrics in Prometheus text format")
	timeout := fs.Duration("timeout", 0, "abort the whole run after this long (0 = no limit)")
	verify := fs.Bool("verify", false, "run the independent oracle over the Table 1 suite before reporting")
	telemetryDir := fs.String("telemetry-dir", "", "collect chip telemetry for the Table 1 FPPC runs and write per-benchmark snapshot JSONs into this directory")
	faultMax := fs.Int("faults", 0, "run the chaos campaign before reporting: up to N random hardware faults per set over every Table 1 benchmark (0 = off)")
	faultRuns := fs.Int("fault-runs", 3, "fault sets per benchmark for -faults")
	faultSeed := fs.Int64("fault-seed", 1, "random seed for -faults")
	common := cli.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if common.PrintVersion(out) {
		return nil
	}
	if *markdown && *jsonOut {
		return fmt.Errorf("-markdown and -json select different output formats; pass one")
	}
	// With -json, stdout carries only the JSON document.
	status := out
	if *jsonOut {
		status = os.Stderr
	}
	logger, err := common.Logger(os.Stderr)
	if err != nil {
		return err
	}
	logger.Debug("benchmarking", "table", *table, "markdown", *markdown)

	var ctx context.Context
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(context.Background(), *timeout)
		defer cancel()
	}
	var ob *obs.Observer
	if *traceOut != "" || *metricsOut != "" {
		ob = obs.New()
	}
	tm := assays.DefaultTiming()
	if *faultMax > 0 {
		res, err := faults.Campaign(assays.Table1Benchmarks(tm), faults.CampaignConfig{
			Target:    core.TargetFPPC,
			Runs:      *faultRuns,
			MaxFaults: *faultMax,
			AllowDead: true,
			Seed:      *faultSeed,
		})
		if err != nil {
			return fmt.Errorf("fault campaign: %w", err)
		}
		for _, r := range res.Runs {
			fmt.Fprintf(status, "chaos: %-18s %-15s %s\n", r.Assay, r.Outcome, r.Faults)
		}
		fmt.Fprintf(status, "chaos campaign: %s\n", res.Summary())
		if res.Missed > 0 {
			return fmt.Errorf("fault campaign: %d runs MISSED a hardware fault", res.Missed)
		}
	}
	if *verify {
		if err := bench.VerifyTable1(ctx, tm); err != nil {
			return err
		}
		fmt.Fprintln(status, "verified: all 13 benchmarks pass the independent oracle and pairwise schedule equivalence on every registered target")
	}
	if *markdown {
		md, err := report.MarkdownContext(ctx, tm, ob)
		if err != nil {
			return err
		}
		fmt.Fprint(out, md)
		return writeObs(out, ob, *traceOut, *metricsOut)
	}
	// doc collects the selected tables for -json output.
	doc := struct {
		Table1         []bench.Table1Row     `json:"table1,omitempty"`
		Table1Averages *bench.Table1Averages `json:"table1_averages,omitempty"`
		Table2         []bench.Table2Row     `json:"table2,omitempty"`
		Table3         []bench.Table3Row     `json:"table3,omitempty"`
	}{}
	if *table == 0 || *table == 1 {
		var rows []bench.Table1Row
		var avg bench.Table1Averages
		var err error
		if *telemetryDir != "" {
			var snaps map[string]*telemetry.Snapshot
			rows, avg, snaps, err = bench.Table1Telemetry(ctx, tm, ob)
			if err == nil {
				err = writeTelemetryDir(*telemetryDir, snaps)
			}
			if err == nil {
				fmt.Fprintf(status, "telemetry snapshots written to %s\n", *telemetryDir)
			}
		} else {
			rows, avg, err = bench.Table1Context(ctx, tm, ob)
		}
		if err != nil {
			return err
		}
		if *jsonOut {
			doc.Table1, doc.Table1Averages = rows, &avg
		} else {
			fmt.Fprintln(out, bench.FormatTable1(rows, avg))
		}
	}
	if *table == 0 || *table == 2 {
		rows, err := bench.Table2Context(ctx, tm, ob)
		if err != nil {
			return err
		}
		if *jsonOut {
			doc.Table2 = rows
		} else {
			fmt.Fprintln(out, bench.FormatTable2(rows))
		}
	}
	if *table == 0 || *table == 3 {
		var hs []int
		if *heights != "" {
			for _, f := range strings.Split(*heights, ",") {
				h, err := strconv.Atoi(strings.TrimSpace(f))
				if err != nil {
					return fmt.Errorf("bad height %q: %w", f, err)
				}
				hs = append(hs, h)
			}
		}
		rows, err := bench.Table3Context(ctx, tm, hs, *dispense, ob)
		if err != nil {
			return err
		}
		if *jsonOut {
			doc.Table3 = rows
		} else {
			if *dispense > 0 {
				fmt.Fprintf(out, "(protein dispense latency overridden to %d s)\n", *dispense)
			}
			fmt.Fprintln(out, bench.FormatTable3(rows))
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			return err
		}
	}
	return writeObs(status, ob, *traceOut, *metricsOut)
}

// writeTelemetryDir writes one chip-telemetry snapshot JSON per
// benchmark, named by a filesystem-safe slug of the benchmark name.
func writeTelemetryDir(dir string, snaps map[string]*telemetry.Snapshot) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for name, snap := range snaps {
		slug := strings.Map(func(r rune) rune {
			switch {
			case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
				return r
			case r >= 'A' && r <= 'Z':
				return r + ('a' - 'A')
			default:
				return '-'
			}
		}, name)
		if err := snap.WriteJSONFile(filepath.Join(dir, slug+".json")); err != nil {
			return err
		}
	}
	return nil
}

// writeObs flushes the observer's trace and metrics files when requested.
func writeObs(out io.Writer, ob *obs.Observer, tracePath, metricsPath string) error {
	if tracePath != "" {
		if err := ob.WriteChromeTraceFile(tracePath); err != nil {
			return err
		}
		fmt.Fprintf(out, "trace written to %s\n", tracePath)
	}
	if metricsPath != "" {
		if err := ob.WritePrometheusFile(metricsPath); err != nil {
			return err
		}
		fmt.Fprintf(out, "metrics written to %s\n", metricsPath)
	}
	return nil
}
