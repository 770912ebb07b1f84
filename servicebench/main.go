// Command servicebench measures the compilation service end to end and
// layer by layer. It builds an in-process service.Server configured as
// fppc-serve's default flags configure it, drives it over loopback HTTP
// with one closed-loop keep-alive client (it waits for each reply before
// sending again, as a caller waiting on a compile does), checks every
// reply, and prints the metrics BENCHMARK.json names.
//
// Usage (from the repository root):
//
//	bash servicebench/run.sh --workload hit --seed 1 --seconds 25 --trace 0
//	bash servicebench/run.sh --workload cold --seed 1 --seconds 25 --trace 1
//	bash servicebench/run.sh -manifest > BENCHMARK.json
//
// Workloads: hit, cold, program, fleet (see README.md). With --trace 0
// the result carries the end-to-end metrics, with --trace 1 the
// per-layer metrics of a separate single-client run that times calls
// into each package's public functions from outside the program.
//
// The last line of standard output is the JSON result:
// {"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}.
// The exit code is non-zero when the run could not be carried out: a
// set-up failure, a non-deterministic stream, a repeated fingerprint or
// a traced replay that disagrees with the service (fidelity).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := mainErr(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func mainErr(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("servicebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "hit, cold, program or fleet")
	seed := fs.Int64("seed", 1, "seed the workload's traffic is generated from")
	seconds := fs.Float64("seconds", runSeconds, "length of the measured window in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	manifest := fs.Bool("manifest", false, "print BENCHMARK.json and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *manifest {
		return writeManifest(stdout)
	}
	if err := checkClocks(); err != nil {
		return err
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("servicebench: -trace must be 0 or 1, got %d", *trace)
	}
	if *seconds <= 0 {
		return fmt.Errorf("servicebench: -seconds must be positive")
	}
	o := runOpts{
		workload: *workload,
		seed:     *seed,
		window:   time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		// One caller. Two busy callers on a shared two-vCPU host measure
		// how the host places the vCPUs more than the program does.
		clients: 1,
		setups:  5,
		log:     stderr,
	}
	if o.trace {
		o.setups = 1 // the traced result carries no setup_s
	}
	rep, err := run(ctx, o)
	if err != nil {
		return err
	}
	return writeReport(stdout, o.workload, o.trace, rep)
}
