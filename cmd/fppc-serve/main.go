// fppc-serve runs the compilation service: a long-running HTTP server
// that compiles assays (ASL text or DAG JSON) into chip programs on
// demand, with a bounded worker pool, a content-addressed compile
// cache, request deduplication, per-request deadlines, and live
// Prometheus metrics.
//
// Usage:
//
//	fppc-serve -addr :8093
//	fppc-serve -addr 127.0.0.1:8093 -workers 4 -cache 512 -timeout 10s
//
// Endpoints:
//
//	POST /compile            — compile an assay (see doc/SERVICE.md for the schema)
//	GET  /targets            — registered chip architectures with capability flags
//	GET  /metrics            — Prometheus text exposition, incl. Go runtime gauges
//	GET  /healthz            — liveness JSON
//	GET  /version            — build identity JSON
//	GET  /debug/telemetry    — chip telemetry snapshot of the latest compile
//	GET  /debug/requests     — flight-recorder digests of recent requests
//	GET  /debug/requests/{id} — one journal entry with its Chrome trace
//	GET  /debug/requests/{id}/profile — the pprof capture the SLO watchdog linked to that request
//	POST /debug/profile      — on-demand bounded CPU/heap capture ({"kind":"cpu","seconds":5})
//	GET  /debug/profile      — the triggered-capture ring, newest first
//	GET  /debug/profile/{id} — one capture's raw pprof bytes
//	GET  /debug/pprof/...    — net/http/pprof profiles
//
// With -fleet N the server also runs the chip-fleet control plane over
// N simulated chips (a rotation over every registered architecture,
// one with a benign manufacturing defect):
//
//	POST /fleet/jobs          — submit an assay for placement (202; the reconciler places it)
//	GET  /fleet/jobs          — list every job
//	GET  /fleet/jobs/{id}     — one job's placement state
//	GET  /fleet/chips         — chip health, faults, wear, placements
//	GET  /debug/fleet         — the placed/migrated/failed event log (?n=K)
//	POST /debug/fleet/degrade — inject seeded wear into one chip
//
// SIGINT/SIGTERM drain in-flight requests before exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"fppc/internal/cli"
	"fppc/internal/fleet"
	"fppc/internal/obs"
	"fppc/internal/service"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fppc-serve: ")
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stderr); err != nil {
		log.Fatal(err)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("fppc-serve", flag.ContinueOnError)
	addr := fs.String("addr", ":8093", "listen address")
	workers := fs.Int("workers", 0, "max concurrent compilations (0 = GOMAXPROCS)")
	cache := fs.Int("cache", 256, "compile cache capacity (entries)")
	timeout := fs.Duration("timeout", 30*time.Second, "default per-request compile deadline")
	maxTimeout := fs.Duration("max-timeout", 5*time.Minute, "hard cap on client-requested deadlines")
	drain := fs.Duration("drain", 30*time.Second, "shutdown grace period for in-flight requests")
	verify := fs.Bool("verify", false, "run the independent oracle on every compile (as if each request set verify:true)")
	journalN := fs.Int("journal", 256, "request journal capacity in entries (0 disables the flight recorder)")
	slo := fs.Duration("slo", 2*time.Second, "compile latency objective for fppc_service_slo_violations_total (0 disables)")
	profiles := fs.Int("profiles", 16, "triggered pprof capture ring capacity (0 disables /debug/profile and SLO auto-capture)")
	profileCPU := fs.Duration("profile-cpu", time.Second, "CPU capture window for SLO-triggered profiles")
	profileCooldown := fs.Duration("profile-cooldown", 30*time.Second, "minimum spacing between SLO-triggered captures (0 = no cooldown)")
	fleetN := fs.Int("fleet", 0, "attach a chip-fleet control plane over N simulated chips (0 disables)")
	reconcile := fs.Duration("reconcile", 500*time.Millisecond, "fleet reconcile loop interval (with -fleet)")
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

	journalCfg := *journalN
	if journalCfg == 0 {
		journalCfg = -1 // Config treats 0 as "default"; -1 disables.
	}
	sloCfg := *slo
	if sloCfg == 0 {
		sloCfg = -1
	}
	profilesCfg := *profiles
	if profilesCfg == 0 {
		profilesCfg = -1 // Config treats 0 as "default"; -1 disables.
	}
	cooldownCfg := *profileCooldown
	if cooldownCfg == 0 {
		cooldownCfg = -1
	}
	// The fleet shares the server's metric registry so its series land
	// on /metrics, and runs its own reconcile loop until shutdown.
	var fl *fleet.Fleet
	ob := obs.NewMetricsOnly()
	if *fleetN > 0 {
		specs, err := fleet.ScenarioSpecs(*fleetN)
		if err != nil {
			return err
		}
		fl, err = fleet.New(fleet.Config{Chips: specs, Obs: ob})
		if err != nil {
			return err
		}
	}
	srv := service.New(service.Config{
		Workers:         *workers,
		CacheEntries:    *cache,
		DefaultTimeout:  *timeout,
		MaxTimeout:      *maxTimeout,
		ForceVerify:     *verify,
		JournalEntries:  journalCfg,
		SLO:             sloCfg,
		ProfileEntries:  profilesCfg,
		ProfileCPU:      *profileCPU,
		ProfileCooldown: cooldownCfg,
		Logger:          logger,
		Obs:             ob,
		Fleet:           fl,
	})
	var fleetDone chan struct{}
	if fl != nil {
		fleetDone = make(chan struct{})
		go func() {
			defer close(fleetDone)
			fl.Run(ctx, *reconcile)
		}()
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	hs := &http.Server{
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
	}
	if fl != nil {
		fmt.Fprintf(out, "fppc-serve: fleet control plane over %d chips (reconcile every %s)\n", *fleetN, *reconcile)
	}
	fmt.Fprintf(out, "fppc-serve: listening on %s\n", ln.Addr())

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintf(out, "fppc-serve: shutting down (draining up to %s)\n", *drain)
	shutCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if fleetDone != nil {
		<-fleetDone
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
