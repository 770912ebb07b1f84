// fppc-synth compiles an assay onto a DMFB and reports the synthesis
// metrics. Assays come from the built-in benchmark generators, a JSON DAG
// file, or an assay-description-language (.asl) file.
//
// Usage:
//
//	fppc-synth -assay pcr
//	fppc-synth -assay invitro3 -target da
//	fppc-synth -assay pcr -target enhanced-fppc
//	fppc-synth -assay protein4 -grow -gantt
//	fppc-synth -file myassay.asl -program out.pins -frames out.bin
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"fppc"
	"fppc/internal/cli"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fppc-synth: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("fppc-synth", flag.ContinueOnError)
	name := fs.String("assay", "pcr", "built-in assay: pcr, invitroN (N=1..5), proteinN (N=1..7)")
	file := fs.String("file", "", "JSON or .asl assay file (overrides -assay)")
	target := fs.String("target", "", "architecture (a registered target: fppc, da, enhanced-fppc; default fppc)")
	height := fs.Int("height", 0, "FPPC chip height (0 = 12x21 default)")
	grow := fs.Bool("grow", false, "grow the array until the assay fits")
	program := fs.String("program", "", "write the compiled pin program to this file")
	frames := fs.String("frames", "", "write the dry-controller frame stream to this file")
	gantt := fs.Bool("gantt", false, "print a module-occupancy Gantt chart of the schedule")
	dot := fs.Bool("dot", false, "print the assay DAG in Graphviz dot format and exit")
	dump := fs.String("dump-assay", "", "write the assay DAG as JSON to this file")
	traceOut := fs.String("trace", "", "write a Chrome trace_event JSON file (chrome://tracing)")
	metricsOut := fs.String("metrics", "", "write pipeline metrics in Prometheus text format")
	timeout := fs.Duration("timeout", 0, "abort compilation after this long (0 = no limit)")
	verbose := fs.Bool("v", false, "print the per-stage span summary after compiling")
	common := cli.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if common.PrintVersion(out) {
		return nil
	}
	logger, err := common.Logger(os.Stderr)
	if err != nil {
		return err
	}

	assay, err := loadAssay(*file, *name)
	if err != nil {
		return err
	}
	if *dot {
		fmt.Fprint(out, assay.DOT())
		return nil
	}
	if *dump != "" {
		data, err := json.MarshalIndent(assay, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*dump, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "assay written to %s\n", *dump)
		return nil
	}
	cfg := fppc.Config{FPPCHeight: *height, AutoGrow: *grow}
	var ob *fppc.Observer
	if *traceOut != "" || *metricsOut != "" || *verbose {
		ob = fppc.NewObserver()
		cfg.Obs = ob
	}
	spec, err := fppc.ParseTarget(*target)
	if err != nil {
		return err
	}
	cfg.Target = spec.ID
	if *program != "" || *frames != "" {
		if !spec.Capabilities.PinProgram {
			return fmt.Errorf("pin programs are only emitted for pin-program targets (fppc, enhanced-fppc), not %s", spec.Name)
		}
		cfg.Router = fppc.RouterOptions{EmitProgram: true, RotationsPerStep: 12}
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	logger.Debug("compiling", "assay", assay.Name, "target", spec.Name, "grow", *grow)
	start := time.Now()
	res, err := fppc.CompileContext(ctx, assay, cfg)
	if err != nil {
		return err
	}
	logger.Debug("compiled", "assay", assay.Name, "dur", time.Since(start))
	fmt.Fprintln(out, res.Summary())
	st, err := assay.ComputeStats()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "assay: %d operations, %d edges, critical path %d s, peak width %d\n",
		st.Nodes, st.Edges, st.CriticalPath, st.MaxConcurrent)
	fmt.Fprintf(out, "schedule: makespan %d steps, %d droplet moves, %d storage relocations, peak stored %d\n",
		res.Schedule.Makespan, len(res.Schedule.Moves), res.Schedule.StorageMoves, res.Schedule.PeakStored)
	fmt.Fprintf(out, "routing: %d sub-problems, %d cycles total, %d deadlock-buffer relocations\n",
		len(res.Routing.Boundaries), res.Routing.TotalCycles, res.Routing.BufferReloc)
	if u := res.Schedule.Utilization(); len(u) > 0 {
		fmt.Fprintf(out, "module utilization:")
		for _, kind := range []string{"mix", "ssd", "work"} {
			if v, ok := u[kind]; ok {
				fmt.Fprintf(out, " %s %.0f%%", kind, 100*v)
			}
		}
		fmt.Fprintln(out)
	}
	if *gantt {
		fmt.Fprintln(out)
		fmt.Fprint(out, res.Schedule.Gantt())
	}
	if *verbose {
		fmt.Fprintln(out)
		printSpans(out, ob)
	}
	if *traceOut != "" {
		if err := ob.WriteChromeTraceFile(*traceOut); err != nil {
			return err
		}
		fmt.Fprintf(out, "trace written to %s\n", *traceOut)
	}
	if *metricsOut != "" {
		if err := ob.WritePrometheusFile(*metricsOut); err != nil {
			return err
		}
		fmt.Fprintf(out, "metrics written to %s\n", *metricsOut)
	}

	if *program != "" {
		f, err := os.Create(*program)
		if err != nil {
			return err
		}
		defer f.Close()
		if _, err := res.Routing.Program.WriteTo(f); err != nil {
			return err
		}
		fmt.Fprintf(out, "pin program: %d cycles written to %s\n", res.Routing.Program.Len(), *program)
		fmt.Fprintln(out, "pin load:", fppc.ComputePinStats(res.Routing.Program))
	}
	if *frames != "" {
		f, err := os.Create(*frames)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := fppc.EncodeFrames(f, res.Routing.Program, res.Chip.PinCount()); err != nil {
			return err
		}
		fmt.Fprintf(out, "controller frames written to %s (%d B/s at 100 Hz)\n",
			*frames, fppc.LinkBandwidthBps(res.Chip.PinCount(), 100))
	}
	return nil
}

// printSpans renders the recorded spans as an aligned, indented summary
// table. Singleton spans keep their args; repeated spans (the router's
// per-boundary spans) collapse into one line with a count.
func printSpans(out io.Writer, ob *fppc.Observer) {
	type group struct {
		name  string
		depth int
		n     int
		total time.Duration
		args  string
	}
	var groups []*group
	idx := map[string]*group{}
	for _, r := range ob.Tracer().Records() {
		key := fmt.Sprintf("%d/%s", r.Depth, r.Name)
		g := idx[key]
		if g == nil {
			g = &group{name: r.Name, depth: r.Depth, args: r.FormatArgs()}
			idx[key] = g
			groups = append(groups, g)
		}
		g.n++
		g.total += r.Dur
	}
	width := 0
	for _, g := range groups {
		if w := 2*g.depth + len(g.name); w > width {
			width = w
		}
	}
	fmt.Fprintln(out, "stage timings:")
	for _, g := range groups {
		label := strings.Repeat("  ", g.depth) + g.name
		suffix := g.args
		if g.n > 1 {
			suffix = fmt.Sprintf("x%d", g.n)
		}
		fmt.Fprintf(out, "  %-*s %12s  %s\n", width, label, g.total.Round(time.Microsecond), suffix)
	}
}

// loadAssay resolves a JSON or ASL file, or a built-in benchmark name.
func loadAssay(file, name string) (*fppc.Assay, error) {
	if file != "" {
		data, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		if strings.HasSuffix(file, ".asl") {
			return fppc.ParseASL(string(data))
		}
		var a fppc.Assay
		if err := json.Unmarshal(data, &a); err != nil {
			return nil, err
		}
		if err := a.Validate(); err != nil {
			return nil, err
		}
		return &a, nil
	}
	tm := fppc.DefaultTiming()
	name = strings.ToLower(name)
	switch {
	case name == "pcr":
		return fppc.PCR(tm), nil
	case strings.HasPrefix(name, "invitro"):
		n, err := strconv.Atoi(name[len("invitro"):])
		if err != nil || n < 1 || n > 5 {
			return nil, fmt.Errorf("bad in-vitro index in %q (want invitro1..invitro5)", name)
		}
		return fppc.InVitroN(n, tm), nil
	case strings.HasPrefix(name, "protein"):
		n, err := strconv.Atoi(name[len("protein"):])
		if err != nil || n < 1 || n > 7 {
			return nil, fmt.Errorf("bad protein-split level in %q (want protein1..protein7)", name)
		}
		return fppc.ProteinSplit(n, tm), nil
	}
	return nil, fmt.Errorf("unknown assay %q (pcr, invitroN, proteinN)", name)
}
