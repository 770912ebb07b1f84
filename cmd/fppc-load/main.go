// fppc-load drives a compilation service with realistic traffic and
// reports latency percentiles and throughput per mix. It is an
// open-loop generator: requests launch on a fixed clock regardless of
// how fast earlier ones complete, so queueing delay shows up in the
// measured latency instead of being hidden by back-pressure (the
// coordinated-omission trap of closed-loop benchmarks).
//
// Usage:
//
//	fppc-load                               # in-process server, all mixes
//	fppc-load -addr http://127.0.0.1:8093   # live server
//	fppc-load -rate 200 -n 500 -mix cache_hot,fault_variants
//	fppc-load -o BENCH_LOAD.json            # write the JSON artifact
//
// Mixes:
//
//	cache_hot      — the same PCR request over and over: cache hit path
//	fault_variants — PCR under rotating hardware fault specs: compile path
//	verify         — rotating assays with the oracle enabled
//	mixed_targets  — rotating through every registered target
//	                 (fppc, da, enhanced-fppc)
//	fleet          — submissions to the chip-fleet control plane, with a
//	                 mid-run wear injection forcing migrations; the
//	                 artifact gains a per-chip placement/migration summary
//
// In-process runs also record a runtime summary in the artifact: GC
// cycle and pause totals plus heap allocation over the whole run, from
// runtime/metrics.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"fppc"
	"fppc/internal/arch"
	"fppc/internal/cli"
	"fppc/internal/fleet"
	"fppc/internal/obs"
	"fppc/internal/service"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fppc-load: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// mixResult is one row of the JSON artifact.
type mixResult struct {
	Name       string  `json:"name"`
	Requests   int     `json:"requests"`
	Errors     int     `json:"errors"`
	CacheHits  int     `json:"cache_hits"`
	P50MS      float64 `json:"p50_ms"`
	P95MS      float64 `json:"p95_ms"`
	P99MS      float64 `json:"p99_ms"`
	MaxMS      float64 `json:"max_ms"`
	Throughput float64 `json:"throughput_rps"`
	ElapsedS   float64 `json:"elapsed_s"`
}

// artifact is the loadbench JSON schema (BENCH_LOAD.json; diffable
// with scripts/benchdiff).
type artifact struct {
	GeneratedBy string      `json:"generated_by"`
	Addr        string      `json:"addr"`
	RateHz      float64     `json:"rate_hz"`
	PerMix      int         `json:"requests_per_mix"`
	Mixes       []mixResult `json:"mixes"`
	// Fleet is present when the fleet mix ran: the control plane's view
	// of where the submitted jobs landed and what the wear injection
	// forced to move.
	Fleet *fleetSummary `json:"fleet,omitempty"`
	// Runtime is present for in-process runs: GC pause and heap-alloc
	// totals over the whole run, from runtime/metrics.
	Runtime *runtimeSummary `json:"runtime,omitempty"`
}

// fleetChipStat is one chip's share of the fleet-mix traffic.
type fleetChipStat struct {
	Chip        string  `json:"chip"`
	Target      string  `json:"target"`
	Hosted      int     `json:"hosted"` // jobs on this chip when the mix settled
	MigratedIn  int     `json:"migrated_in"`
	MigratedOut int     `json:"migrated_out"`
	Faults      string  `json:"faults,omitempty"`
	MaxWear     float64 `json:"max_wear"`
	// Throughput is hosted jobs per wall-clock second of the mix run.
	Throughput float64 `json:"throughput_jobs_per_s"`
}

// fleetSummary aggregates the fleet mix outcome for the artifact.
type fleetSummary struct {
	Chips        int             `json:"chips"`
	Jobs         int             `json:"jobs"`
	Placed       int             `json:"placed"`
	Migrated     int             `json:"migrated"`
	Failed       int             `json:"failed"`
	Completed    int             `json:"completed"`
	DegradedChip string          `json:"degraded_chip,omitempty"`
	PerChip      []fleetChipStat `json:"per_chip"`
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("fppc-load", flag.ContinueOnError)
	addr := fs.String("addr", "", "base URL of a live fppc-serve (empty = spin an in-process server)")
	rate := fs.Float64("rate", 100, "request launch rate per second (open loop)")
	n := fs.Int("n", 100, "requests per mix")
	mixNames := fs.String("mix", "cache_hot,fault_variants,verify,mixed_targets,fleet", "comma-separated mixes to run")
	fleetChips := fs.Int("fleet-chips", 5, "in-process fleet size for the fleet mix")
	timeout := fs.Duration("timeout", 30*time.Second, "per-request HTTP timeout")
	output := fs.String("o", "", "write the JSON artifact to this file")
	workers := fs.Int("workers", 0, "in-process server worker pool (0 = GOMAXPROCS)")
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
	if *rate <= 0 || *n <= 0 {
		return fmt.Errorf("-rate and -n must be positive")
	}

	// The fleet mix talks to different endpoints and yields a different
	// summary, so it is split off from the compile mixes here.
	wantFleet := false
	var compileNames []string
	for _, name := range strings.Split(*mixNames, ",") {
		if strings.TrimSpace(name) == "fleet" {
			wantFleet = true
			continue
		}
		compileNames = append(compileNames, name)
	}

	base := strings.TrimSuffix(*addr, "/")
	target := base
	if base == "" {
		cfg := service.Config{Workers: *workers}
		if wantFleet {
			specs, err := fleet.ScenarioSpecs(*fleetChips)
			if err != nil {
				return err
			}
			ob := obs.NewMetricsOnly()
			fl, err := fleet.New(fleet.Config{Chips: specs, Obs: ob, MaxEvents: 8 * *n})
			if err != nil {
				return err
			}
			cfg.Obs = ob
			cfg.Fleet = fl
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			go fl.Run(ctx, 50*time.Millisecond)
		}
		ts := httptest.NewServer(service.New(cfg))
		defer ts.Close()
		base = ts.URL
		target = "in-process"
		logger.Debug("started in-process server", "url", ts.URL)
	}

	var mixes []mix
	if len(compileNames) > 0 {
		var err error
		mixes, err = buildMixes(strings.Join(compileNames, ","))
		if err != nil {
			return err
		}
	} else if !wantFleet {
		return fmt.Errorf("no mixes selected")
	}
	client := &http.Client{Timeout: *timeout}
	art := artifact{GeneratedBy: "fppc-load", Addr: target, RateHz: *rate, PerMix: *n}
	var runtimeStart runtimeSnapshot
	if target == "in-process" {
		runtimeStart = takeRuntimeSnapshot()
	}
	fmt.Fprintf(out, "%-16s %8s %7s %6s %9s %9s %9s %11s\n",
		"mix", "requests", "errors", "hits", "p50(ms)", "p95(ms)", "p99(ms)", "rps")
	for _, m := range mixes {
		logger.Debug("running mix", "mix", m.name, "n", *n, "rate", *rate)
		res := runMix(client, base, m, *n, *rate)
		art.Mixes = append(art.Mixes, res)
		fmt.Fprintf(out, "%-16s %8d %7d %6d %9.2f %9.2f %9.2f %11.1f\n",
			res.Name, res.Requests, res.Errors, res.CacheHits,
			res.P50MS, res.P95MS, res.P99MS, res.Throughput)
	}
	if wantFleet {
		logger.Debug("running mix", "mix", "fleet", "n", *n, "rate", *rate)
		res, fsum, err := runFleetMix(client, base, *n, *rate)
		if err != nil {
			return err
		}
		art.Mixes = append(art.Mixes, res)
		art.Fleet = fsum
		fmt.Fprintf(out, "%-16s %8d %7d %6d %9.2f %9.2f %9.2f %11.1f\n",
			res.Name, res.Requests, res.Errors, res.CacheHits,
			res.P50MS, res.P95MS, res.P99MS, res.Throughput)
		fmt.Fprintf(out, "fleet: %d jobs over %d chips, %d placements, %d migrations, %d failed (degraded %s)\n",
			fsum.Jobs, fsum.Chips, fsum.Placed, fsum.Migrated, fsum.Failed, fsum.DegradedChip)
		for _, c := range fsum.PerChip {
			fmt.Fprintf(out, "  %-8s %-4s hosts %3d (in %d, out %d)  %6.1f jobs/s  wear %.4f\n",
				c.Chip, c.Target, c.Hosted, c.MigratedIn, c.MigratedOut, c.Throughput, c.MaxWear)
		}
	}
	if target == "in-process" {
		art.Runtime = diffRuntime(runtimeStart, takeRuntimeSnapshot())
		printRuntimeSummary(out, art.Runtime)
	}
	if *output != "" {
		data, err := json.MarshalIndent(art, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*output, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "artifact written to %s\n", *output)
	}
	for _, r := range art.Mixes {
		if r.Errors > 0 {
			return fmt.Errorf("mix %s: %d of %d requests failed", r.Name, r.Errors, r.Requests)
		}
	}
	return nil
}

// mix names a traffic pattern and generates its i-th request body.
type mix struct {
	name string
	gen  func(i int) service.CompileRequest
}

// buildMixes resolves the -mix list into request generators.
func buildMixes(names string) ([]mix, error) {
	tm := fppc.DefaultTiming()
	dag := func(a *fppc.Assay) json.RawMessage {
		raw, err := json.Marshal(a)
		if err != nil {
			panic(err) // built-in assays always marshal
		}
		return raw
	}
	pcr := dag(fppc.PCR(tm))
	rotation := []json.RawMessage{pcr, dag(fppc.InVitroN(1, tm)), dag(fppc.InVitroN(2, tm))}
	var targetNames []string
	for _, spec := range fppc.Targets() {
		targetNames = append(targetNames, spec.Name)
	}

	// Valid single-fault specs: each mix-module hold cell of the
	// 12x21 workhorse chip is synthesizable-around, so rotating
	// through them yields distinct cache keys that all compile.
	chip, err := arch.NewFPPC(21)
	if err != nil {
		return nil, err
	}
	var specs []string
	for _, m := range chip.MixModules {
		specs = append(specs, fmt.Sprintf("open@%d,%d", m.Hold.X, m.Hold.Y))
	}

	all := map[string]mix{
		"cache_hot": {name: "cache_hot", gen: func(i int) service.CompileRequest {
			return service.CompileRequest{DAG: pcr}
		}},
		"fault_variants": {name: "fault_variants", gen: func(i int) service.CompileRequest {
			return service.CompileRequest{DAG: pcr, Faults: specs[i%len(specs)]}
		}},
		"verify": {name: "verify", gen: func(i int) service.CompileRequest {
			return service.CompileRequest{DAG: rotation[i%len(rotation)], Verify: true}
		}},
		"mixed_targets": {name: "mixed_targets", gen: func(i int) service.CompileRequest {
			req := service.CompileRequest{DAG: rotation[i%len(rotation)]}
			req.Target = targetNames[i%len(targetNames)]
			return req
		}},
	}
	var out []mix
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		m, ok := all[name]
		if !ok {
			return nil, fmt.Errorf("unknown mix %q (cache_hot, fault_variants, verify, mixed_targets)", name)
		}
		out = append(out, m)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no mixes selected")
	}
	return out, nil
}

// runMix fires n requests at the fixed open-loop rate and aggregates
// latencies once every in-flight request has returned.
func runMix(client *http.Client, base string, m mix, n int, rate float64) mixResult {
	type sample struct {
		dur    time.Duration
		cached bool
		err    bool
	}
	samples := make([]sample, n)
	interval := time.Duration(float64(time.Second) / rate)
	var wg sync.WaitGroup
	start := time.Now()
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for i := 0; i < n; i++ {
		if i > 0 {
			<-tick.C
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, _ := json.Marshal(m.gen(i))
			t0 := time.Now()
			resp, err := client.Post(base+"/compile", "application/json", bytes.NewReader(body))
			samples[i].dur = time.Since(t0)
			if err != nil {
				samples[i].err = true
				return
			}
			defer resp.Body.Close()
			var parsed struct {
				Cached bool `json:"cached"`
			}
			if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&parsed) != nil {
				samples[i].err = true
				return
			}
			samples[i].cached = parsed.Cached
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)

	res := mixResult{Name: m.name, Requests: n, ElapsedS: elapsed.Seconds()}
	durs := make([]time.Duration, 0, n)
	for _, s := range samples {
		if s.err {
			res.Errors++
			continue
		}
		if s.cached {
			res.CacheHits++
		}
		durs = append(durs, s.dur)
	}
	if len(durs) > 0 {
		sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
		res.P50MS = ms(percentile(durs, 0.50))
		res.P95MS = ms(percentile(durs, 0.95))
		res.P99MS = ms(percentile(durs, 0.99))
		res.MaxMS = ms(durs[len(durs)-1])
	}
	if elapsed > 0 {
		res.Throughput = float64(n-res.Errors) / elapsed.Seconds()
	}
	return res
}

// runFleetMix drives the chip-fleet control plane: n job submissions at
// the open-loop rate (rotating the benchmark assays), one seeded wear
// injection on the busiest chip halfway through, then a wait for the
// reconciler to settle every job. Latency percentiles cover the
// submission round trip (202 Accepted); the fleet summary reports where
// jobs landed and what the degradation forced to move.
func runFleetMix(client *http.Client, base string, n int, rate float64) (mixResult, *fleetSummary, error) {
	tm := fppc.DefaultTiming()
	rotation := make([]json.RawMessage, 0, 3)
	for _, a := range []*fppc.Assay{fppc.PCR(tm), fppc.InVitroN(1, tm), fppc.InVitroN(2, tm)} {
		raw, err := json.Marshal(a)
		if err != nil {
			return mixResult{}, nil, err
		}
		rotation = append(rotation, raw)
	}

	type sample struct {
		dur time.Duration
		err bool
	}
	samples := make([]sample, n)
	interval := time.Duration(float64(time.Second) / rate)
	var wg sync.WaitGroup
	start := time.Now()
	tick := time.NewTicker(interval)
	defer tick.Stop()
	degraded := ""
	for i := 0; i < n; i++ {
		if i > 0 {
			<-tick.C
		}
		if i == n/2 {
			// Halfway: wear out the busiest chip so the reconciler has to
			// migrate its jobs while submissions keep arriving.
			chip, err := degradeBusiest(client, base)
			if err != nil {
				return mixResult{}, nil, fmt.Errorf("wear injection: %w", err)
			}
			degraded = chip
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, _ := json.Marshal(service.FleetJobRequest{DAG: rotation[i%len(rotation)]})
			t0 := time.Now()
			resp, err := client.Post(base+"/fleet/jobs", "application/json", bytes.NewReader(body))
			samples[i].dur = time.Since(t0)
			if err != nil {
				samples[i].err = true
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted {
				samples[i].err = true
			}
		}(i)
	}
	wg.Wait()

	// Let the reconciler settle: every job out of pending (placement is
	// asynchronous; nothing here advances the virtual clock, so settled
	// jobs sit in placed or failed).
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		jobs, err := fetchJobs(client, base)
		if err != nil {
			return mixResult{}, nil, err
		}
		pending := 0
		for _, j := range jobs {
			if j.State == fleet.JobPending {
				pending++
			}
		}
		if pending == 0 && len(jobs) > 0 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	elapsed := time.Since(start)

	res := mixResult{Name: "fleet", Requests: n, ElapsedS: elapsed.Seconds()}
	durs := make([]time.Duration, 0, n)
	for _, s := range samples {
		if s.err {
			res.Errors++
			continue
		}
		durs = append(durs, s.dur)
	}
	if len(durs) > 0 {
		sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
		res.P50MS = ms(percentile(durs, 0.50))
		res.P95MS = ms(percentile(durs, 0.95))
		res.P99MS = ms(percentile(durs, 0.99))
		res.MaxMS = ms(durs[len(durs)-1])
	}
	if elapsed > 0 {
		res.Throughput = float64(n-res.Errors) / elapsed.Seconds()
	}

	jobs, err := fetchJobs(client, base)
	if err != nil {
		return mixResult{}, nil, err
	}
	sum, err := fleetSummarize(client, base, elapsed)
	if err != nil {
		return mixResult{}, nil, err
	}
	sum.Jobs = len(jobs)
	sum.DegradedChip = degraded
	return res, sum, nil
}

// degradeBusiest injects seeded wear into the chip hosting the most
// jobs and returns its id.
func degradeBusiest(client *http.Client, base string) (string, error) {
	victim, err := busiestChip(client, base)
	if err != nil {
		return "", err
	}
	body, _ := json.Marshal(service.FleetDegradeRequest{Chip: victim, Seed: 7})
	dr, err := client.Post(base+"/debug/fleet/degrade", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	defer dr.Body.Close()
	if dr.StatusCode != http.StatusOK {
		return "", fmt.Errorf("degrade %s: HTTP %d", victim, dr.StatusCode)
	}
	return victim, nil
}

// busiestChip returns the chip hosting the most jobs. Placement is
// asynchronous, so it polls GET /fleet/chips until some chip hosts a
// job: picking before the reconciler has placed anything would wear an
// empty chip and force no migration.
func busiestChip(client *http.Client, base string) (string, error) {
	deadline := time.Now().Add(placementWait)
	for {
		var chips []fleet.ChipStatus
		if err := getJSON(client, base, "/fleet/chips", &chips); err != nil {
			return "", err
		}
		if len(chips) == 0 {
			return "", fmt.Errorf("no chips in the fleet")
		}
		victim, best := "", 0
		for _, c := range chips {
			if n := len(c.Jobs); n > best {
				best, victim = n, c.ID
			}
		}
		if best > 0 {
			return victim, nil
		}
		if time.Now().After(deadline) {
			return "", fmt.Errorf("no chip hosts a job after waiting %s", placementWait)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// placementWait bounds how long busiestChip waits for the reconciler to
// place a first job.
const placementWait = time.Minute

// getJSON decodes the reply of GET base+path, a fleet endpoint, into v.
func getJSON(client *http.Client, base, path string, v any) error {
	resp, err := client.Get(base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d (does the server run with -fleet?)", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// fetchJobs lists the fleet's jobs.
func fetchJobs(client *http.Client, base string) ([]fleet.JobStatus, error) {
	var jobs []fleet.JobStatus
	err := getJSON(client, base, "/fleet/jobs", &jobs)
	return jobs, err
}

// fleetSummarize reads /debug/fleet and folds the event log into
// per-chip placement and migration counts.
func fleetSummarize(client *http.Client, base string, elapsed time.Duration) (*fleetSummary, error) {
	var dbg service.FleetDebugResponse
	if err := getJSON(client, base, "/debug/fleet", &dbg); err != nil {
		return nil, err
	}
	sum := &fleetSummary{
		Chips:     len(dbg.Chips),
		Placed:    dbg.Placed,
		Migrated:  dbg.Migrated,
		Failed:    dbg.Failed,
		Completed: dbg.Completed,
	}
	in := map[string]int{}
	out := map[string]int{}
	for _, e := range dbg.Events {
		if e.Kind == fleet.EventMigrated {
			in[e.To]++
			out[e.From]++
		}
	}
	for _, c := range dbg.Chips {
		stat := fleetChipStat{
			Chip:        c.ID,
			Target:      c.Target,
			Hosted:      len(c.Jobs),
			MigratedIn:  in[c.ID],
			MigratedOut: out[c.ID],
			Faults:      c.Faults,
			MaxWear:     c.MaxWear,
		}
		if elapsed > 0 {
			stat.Throughput = float64(stat.Hosted) / elapsed.Seconds()
		}
		sum.PerChip = append(sum.PerChip, stat)
	}
	return sum, nil
}

// percentile returns the q-quantile of the sorted durations using the
// nearest-rank method.
func percentile(sorted []time.Duration, q float64) time.Duration {
	idx := int(q*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
