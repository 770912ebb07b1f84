// Package service exposes the synthesis flow as a long-running
// concurrent compilation service: POST /compile accepts an assay (ASL
// text or DAG JSON) plus target and configuration and returns the
// compiled program and its statistics; GET /targets lists the
// registered architecture targets with their capability flags and
// default chips; GET /metrics serves the
// internal/obs Prometheus export plus runtime gauges; GET /healthz
// reports liveness; GET /version reports the build identity; GET
// /debug/telemetry returns the chip-level execution telemetry of the
// last compile; GET /debug/requests (and /debug/requests/{id}) serves
// the flight-recorder journal of recent requests; /debug/pprof/* serves
// the standard Go profiles. With an attached fleet (Config.Fleet) the
// server additionally exposes the chip-fleet control plane:
// POST/GET /fleet/jobs, GET /fleet/jobs/{id}, GET /fleet/chips,
// GET /debug/fleet, and POST /debug/fleet/degrade.
//
// Under the hood the server runs a bounded worker pool, a
// content-addressed LRU cache keyed by the certificate of the assay's
// canonical form plus its configuration, singleflight deduplication of
// identical in-flight requests, and per-request deadlines made real by
// core.CompileContext's cooperative cancellation. This is the layer
// that turns the batch CLI reproduction into a servable system: a lab
// tool resubmits protocols against one pre-manufactured FPPC chip and
// gets pin programs back in milliseconds once warm.
//
// Request lifecycle observability: each compile request gets a unique
// id (echoed as X-Request-Id, in the response body, in the structured
// access log, and as the journal key) and a request-scoped obs tracer
// whose spans flush into the journal entry when the compile finishes —
// bounded tracing on a long-lived server, where a process-wide tracer
// would accumulate spans forever. Per-stage latencies feed the
// fppc_service_stage_seconds histograms, and requests slower than the
// configured compile-latency objective increment
// fppc_service_slo_violations_total.
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fppc/internal/core"
	"fppc/internal/fleet"
	"fppc/internal/journal"
	"fppc/internal/lru"
	"fppc/internal/obs"
	"fppc/internal/perf"
	"fppc/internal/telemetry"
)

// Config configures a Server. Zero values select the documented
// defaults.
type Config struct {
	// Workers bounds concurrent compilations (default: GOMAXPROCS).
	Workers int
	// CompileWorkers bounds the intra-compile concurrency each request
	// may use (core.Config.Workers): the scheduler's precompute passes
	// run on that many workers, GOMAXPROCS when 0, and the DA router's
	// path searches fan out only above 1. Artifacts are byte-identical
	// for every value.
	CompileWorkers int
	// CacheEntries bounds the compile cache (default 256).
	CacheEntries int
	// MemoEntries is ignored. The response cache is the server's only
	// compile store: its key is the certificate of the canonical form
	// and leaves out the assay name, so relabeled, renumbered and renamed
	// resubmissions are hits. The field stays for callers that set it.
	MemoEntries int
	// DefaultTimeout applies when a request names no timeout_ms
	// (default 30s).
	DefaultTimeout time.Duration
	// MaxTimeout caps any requested timeout (default 5m).
	MaxTimeout time.Duration
	// MaxBodyBytes bounds the request body (default 8 MiB).
	MaxBodyBytes int64
	// ForceVerify runs the independent oracle on every compile, as if
	// each request had set "verify": true (the fppc-serve -verify flag).
	ForceVerify bool
	// Obs receives service and pipeline metrics (default: a fresh
	// metrics-only observer — a tracing observer would accumulate span
	// records for the server's whole lifetime).
	Obs *obs.Observer
	// JournalEntries bounds the flight-recorder request journal
	// (default 256; negative disables the journal entirely, which also
	// turns off per-request tracing for requests that do not ask for an
	// inline trace).
	JournalEntries int
	// Logger receives structured access logs with request-id
	// correlation (nil disables logging).
	Logger *slog.Logger
	// SLO is the compile-latency objective: /compile requests slower
	// than this increment fppc_service_slo_violations_total (default
	// 2s; negative disables SLO accounting).
	SLO time.Duration
	// ProfileEntries bounds the triggered pprof capture ring (default
	// 16; negative disables triggered capture — both the /debug/profile
	// endpoints and the SLO watchdog).
	ProfileEntries int
	// ProfileCPU is the CPU capture window of an SLO-triggered profile
	// (default 1s).
	ProfileCPU time.Duration
	// ProfileCooldown spaces SLO-triggered captures so a burst of slow
	// requests does not profile continuously (default 30s; negative
	// disables the cooldown).
	ProfileCooldown time.Duration
	// Fleet attaches a chip-fleet control plane, enabling the
	// /fleet/jobs, /fleet/chips and /debug/fleet endpoints (nil: those
	// endpoints answer 404 "fleet_disabled"). Build the fleet on the
	// same obs.Observer as the server so its counters and per-chip
	// gauges land on GET /metrics; the caller owns the reconcile loop
	// (fleet.Run or explicit Reconcile calls).
	Fleet *fleet.Fleet
}

// Server is the compilation service. It is an http.Handler; create one
// with New.
type Server struct {
	cfg     Config
	ob      *obs.Observer
	sem     chan struct{}
	cache   *lru.Cache[string, *entry]
	flight  *group
	queued  atomic.Int64
	start   time.Time
	mux     *http.ServeMux
	journal *journal.Journal
	logger  *slog.Logger
	slo     time.Duration
	fleet   *fleet.Fleet
	// capturer takes bounded pprof profiles on SLO breach or on demand
	// (nil when disabled; every perf call is nil-safe).
	capturer *perf.Capturer
	// reqSeq issues request ids when logging is on but the journal
	// (which otherwise issues them) is disabled.
	reqSeq atomic.Uint64

	// lastTelemetry holds the chip-level telemetry record of the most
	// recent compile, served by GET /debug/telemetry.
	lastTelemetry atomic.Pointer[TelemetryRecord]

	cHits          *obs.Counter
	cMisses        *obs.Counter
	cDedup         *obs.Counter
	cCompiles      *obs.Counter
	cTimeouts      *obs.Counter
	cVerifyFail    *obs.Counter
	cFaultResynth  *obs.Counter
	cFaultUnsynth  *obs.Counter
	cSLOViolations *obs.Counter
	gQueue         *obs.Gauge
	gInflight      *obs.Gauge
	gSLOObjective  *obs.Gauge
	hCompile       *obs.Histogram
	// hStage holds the per-stage latency histograms, pre-resolved once
	// (registry lookups take the registry lock — the obs hot-path rule).
	hStage [journal.NumStages]*obs.Histogram
	// reqCount pre-resolves the requests_total counters per endpoint:
	// the common 200 counter is a read-only map lookup and other codes
	// go through a per-endpoint sync.Map, so the per-request path never
	// rebuilds label strings under the registry lock.
	reqCount map[string]*endpointCounters

	// Runtime gauges, refreshed on every GET /metrics scrape.
	gGoroutines  *obs.Gauge
	gHeapBytes   *obs.Gauge
	gGCPauses    *obs.Gauge
	gGCPauseSecs *obs.Gauge
}

// endpointCounters caches the requests_total series of one endpoint.
type endpointCounters struct {
	ok    *obs.Counter // status 200, the hot path
	other sync.Map     // int status -> *obs.Counter, resolved on first use
}

// New builds a ready-to-serve Server.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.CacheEntries <= 0 {
		cfg.CacheEntries = 256
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = 30 * time.Second
	}
	if cfg.MaxTimeout <= 0 {
		cfg.MaxTimeout = 5 * time.Minute
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 8 << 20
	}
	journalCap := cfg.JournalEntries
	if journalCap == 0 {
		journalCap = 256
	}
	slo := cfg.SLO
	if slo == 0 {
		slo = 2 * time.Second
	}
	ob := cfg.Obs
	if ob == nil {
		ob = obs.NewMetricsOnly()
	}
	s := &Server{
		cfg:     cfg,
		ob:      ob,
		sem:     make(chan struct{}, cfg.Workers),
		cache:   lru.New[string, *entry](cfg.CacheEntries),
		flight:  newGroup(),
		start:   time.Now(),
		mux:     http.NewServeMux(),
		journal: journal.New(journalCap), // nil (disabled) when negative
		logger:  cfg.Logger,
		slo:     slo,
		fleet:   cfg.Fleet,

		cHits:         ob.Counter("fppc_service_cache_hits_total"),
		cMisses:       ob.Counter("fppc_service_cache_misses_total"),
		cDedup:        ob.Counter("fppc_service_dedup_total"),
		cCompiles:     ob.Counter("fppc_service_compiles_total"),
		cTimeouts:     ob.Counter("fppc_service_timeouts_total"),
		cVerifyFail:   ob.Counter("fppc_service_verification_failures_total"),
		cFaultResynth: ob.Counter("fppc_service_fault_compiles_total", "outcome", "resynthesized"),
		cFaultUnsynth: ob.Counter("fppc_service_fault_compiles_total", "outcome", "unsynthesizable"),
		gQueue:        ob.Gauge("fppc_service_queue_depth"),
		gInflight:     ob.Gauge("fppc_service_inflight"),
		hCompile:      ob.Histogram("fppc_service_compile_seconds", []float64{.001, .005, .01, .05, .1, .5, 1, 5, 30, 120}),

		gGoroutines:  ob.Gauge("fppc_runtime_goroutines"),
		gHeapBytes:   ob.Gauge("fppc_runtime_heap_bytes"),
		gGCPauses:    ob.Gauge("fppc_runtime_gc_pauses_total"),
		gGCPauseSecs: ob.Gauge("fppc_runtime_gc_pause_seconds_total"),
	}
	if cfg.ProfileEntries >= 0 {
		s.capturer = perf.NewCapturer(perf.CaptureConfig{
			Entries:    cfg.ProfileEntries,
			SLOCapture: cfg.ProfileCPU,
			Cooldown:   cfg.ProfileCooldown,
			Obs:        ob,
		})
	}
	if slo > 0 {
		// The SLO series exist only when an objective is configured, so
		// a disabled SLO leaves no dead series on /metrics. Both fields
		// stay nil otherwise: nil obs instruments are no-ops.
		s.cSLOViolations = ob.Counter("fppc_service_slo_violations_total")
		s.gSLOObjective = ob.Gauge("fppc_service_slo_objective_seconds")
		s.gSLOObjective.Set(slo.Seconds())
	}
	stageBuckets := []float64{.0001, .0005, .001, .005, .01, .05, .1, .5, 1, 5, 30}
	for st, name := range journal.StageNames() {
		s.hStage[st] = ob.Histogram("fppc_service_stage_seconds", stageBuckets, "stage", name)
	}
	s.reqCount = make(map[string]*endpointCounters, len(knownEndpoints))
	for _, ep := range knownEndpoints {
		s.reqCount[ep] = &endpointCounters{
			ok: ob.Counter("fppc_service_requests_total", "endpoint", ep, "code", "200"),
		}
	}
	m := ob.Metrics()
	m.Help("fppc_service_cache_hits_total", "compile requests served from the content-addressed cache")
	m.Help("fppc_service_cache_misses_total", "compile requests that required compilation")
	m.Help("fppc_service_dedup_total", "requests coalesced onto an identical in-flight compilation")
	m.Help("fppc_service_compiles_total", "compilations actually executed by the worker pool")
	m.Help("fppc_service_timeouts_total", "requests aborted by deadline or client cancellation")
	m.Help("fppc_service_verification_failures_total", "compiles whose result failed the independent oracle")
	m.Help("fppc_service_fault_compiles_total", "degraded-chip compile requests by outcome: resynthesized around the declared faults, or unsynthesizable")
	m.Help("fppc_service_queue_depth", "requests waiting for a worker slot")
	m.Help("fppc_service_compile_seconds", "wall-clock compile latency (cache misses only)")
	m.Help("fppc_service_stage_seconds", "per-request latency by pipeline stage (parse/canonicalize on every request; schedule/route/verify on the request that executes the compile)")
	if slo > 0 {
		m.Help("fppc_service_slo_violations_total", "compile requests slower than the configured latency objective")
		m.Help("fppc_service_slo_objective_seconds", "the configured compile-latency objective")
	}
	m.Help("fppc_service_requests_total", "HTTP requests by endpoint and status code")
	m.Help("fppc_runtime_goroutines", "live goroutines (runtime/metrics, sampled per scrape)")
	m.Help("fppc_runtime_heap_bytes", "heap bytes occupied by live objects")
	m.Help("fppc_runtime_gc_pauses_total", "stop-the-world GC pauses since process start")
	m.Help("fppc_runtime_gc_pause_seconds_total", "estimated total GC pause time (bucket midpoints)")
	s.mux.HandleFunc("/compile", s.handleCompile)
	s.mux.HandleFunc("/targets", s.handleTargets)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/version", s.handleVersion)
	s.mux.HandleFunc("/debug/requests", s.handleRequests)
	s.mux.HandleFunc("/debug/requests/", s.handleRequestByID)
	s.mux.HandleFunc("/debug/telemetry", s.handleTelemetry)
	s.mux.HandleFunc("/debug/profile", s.handleProfile)
	s.mux.HandleFunc("/debug/profile/", s.handleProfileByID)
	s.mux.HandleFunc("/fleet/jobs", s.handleFleetJobs)
	s.mux.HandleFunc("/fleet/jobs/", s.handleFleetJobByID)
	s.mux.HandleFunc("/fleet/chips", s.handleFleetChips)
	s.mux.HandleFunc("/debug/fleet", s.handleFleetDebug)
	s.mux.HandleFunc("/debug/fleet/degrade", s.handleFleetDegrade)
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s
}

// Observer returns the observer the server records onto.
func (s *Server) Observer() *obs.Observer { return s.ob }

// Journal returns the flight-recorder request journal (nil when
// disabled).
func (s *Server) Journal() *journal.Journal { return s.journal }

// knownEndpoints are the label values requests_total may carry; unknown
// paths share "other" so arbitrary URLs cannot grow the registry
// without bound, and all pprof profiles and journal entry lookups share
// one label each.
var knownEndpoints = []string{
	"/compile", "/targets", "/metrics", "/healthz", "/version",
	"/debug/telemetry", "/debug/requests", "/debug/pprof", "/debug/profile",
	"/fleet/jobs", "/fleet/chips", "/debug/fleet", "other",
}

// endpointLabel collapses a request path onto a knownEndpoints value.
func endpointLabel(path string) string {
	switch {
	case path == "/compile" || path == "/targets" || path == "/metrics" ||
		path == "/healthz" || path == "/version" || path == "/debug/telemetry" ||
		path == "/debug/requests" || path == "/debug/profile" ||
		path == "/fleet/jobs" || path == "/fleet/chips" ||
		path == "/debug/fleet":
		return path
	case strings.HasPrefix(path, "/debug/requests/"):
		return "/debug/requests"
	case strings.HasPrefix(path, "/debug/profile/"):
		return "/debug/profile"
	case strings.HasPrefix(path, "/debug/pprof/"):
		return "/debug/pprof"
	case strings.HasPrefix(path, "/fleet/jobs/"):
		return "/fleet/jobs"
	case strings.HasPrefix(path, "/debug/fleet/"):
		return "/debug/fleet"
	default:
		return "other"
	}
}

// requestCounter returns the pre-resolved requests_total counter for
// (endpoint, code) without taking the registry lock on the hot path.
func (s *Server) requestCounter(endpoint string, code int) *obs.Counter {
	ec := s.reqCount[endpoint]
	if ec == nil { // unreachable: endpointLabel only emits known values
		return s.ob.Counter("fppc_service_requests_total", "endpoint", endpoint, "code", strconv.Itoa(code))
	}
	if code == http.StatusOK {
		return ec.ok
	}
	if c, ok := ec.other.Load(code); ok {
		return c.(*obs.Counter)
	}
	c := s.ob.Counter("fppc_service_requests_total", "endpoint", endpoint, "code", strconv.Itoa(code))
	ec.other.Store(code, c)
	return c
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
	s.mux.ServeHTTP(rec, r)
	elapsed := time.Since(t0)
	endpoint := endpointLabel(r.URL.Path)
	s.requestCounter(endpoint, rec.code).Inc()
	if endpoint == "/compile" {
		if s.slo > 0 && elapsed > s.slo {
			s.cSLOViolations.Inc()
		}
		// The journal entry (begun by handleCompile) is committed here,
		// where the final status, body size and total latency are known.
		if rec.entry != nil {
			rec.entry.Finish(rec.code, rec.bytes, elapsed)
			s.journal.Commit(rec.entry)
		}
	}
	if s.logger != nil {
		lvl := slog.LevelDebug
		if endpoint == "/compile" {
			lvl = slog.LevelInfo
		}
		attrs := make([]slog.Attr, 0, 6)
		attrs = append(attrs,
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", rec.code),
			slog.Int64("bytes", rec.bytes),
			slog.Float64("dur_ms", float64(elapsed)/float64(time.Millisecond)))
		if rec.reqID != "" {
			attrs = append(attrs, slog.String("request_id", rec.reqID))
		}
		s.logger.LogAttrs(r.Context(), lvl, "request", attrs...)
	}
}

// statusRecorder captures the response code and body size, and carries
// the compile request's journal entry and id from the handler back to
// ServeHTTP, which commits and logs once the reply is fully written.
type statusRecorder struct {
	http.ResponseWriter
	code  int
	bytes int64
	entry *journal.Entry
	reqID string
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(p []byte) (int, error) {
	n, err := r.ResponseWriter.Write(p)
	r.bytes += int64(n)
	return n, err
}

func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	// One journal entry per compile request; its id correlates the
	// response (header and body), the access log, and the journal. When
	// both journal and logging are disabled this whole block is no-ops
	// and allocates nothing.
	rec := s.journal.Begin()
	reqID := ""
	if rec != nil {
		reqID = rec.ID
	} else if s.logger != nil {
		reqID = fmt.Sprintf("r%08x", s.reqSeq.Add(1))
	}
	if sr, ok := w.(*statusRecorder); ok {
		sr.entry, sr.reqID = rec, reqID
	}
	if reqID != "" {
		w.Header().Set("X-Request-Id", reqID)
	}
	if r.Method != http.MethodPost {
		rec.SetErrorClass("method_not_allowed")
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed",
			fmt.Errorf("POST only"))
		return
	}
	var req CompileRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		rec.SetErrorClass("bad_request")
		writeError(w, http.StatusBadRequest, "bad_request", err)
		return
	}
	j, err := s.prepare(req, rec)
	if err != nil {
		rec.SetErrorClass("bad_request")
		writeError(w, http.StatusBadRequest, "bad_request", err)
		return
	}

	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	if timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	// Arm the SLO watchdog: if this request is still in flight when the
	// objective expires, it is breaching right now, and a short CPU
	// capture catches the guilty work. The deferred Finish runs before
	// ServeHTTP commits the journal entry, so the profile link lands on
	// the entry while it is still mutable.
	if s.slo > 0 {
		wd := s.capturer.Watch(reqID, s.slo)
		defer func() {
			if id := wd.Finish(); id != "" {
				rec.SetProfile(id)
				if s.logger != nil {
					s.logger.Warn("slo breach profiled", "request_id", reqID, "profile", id)
				}
			}
		}()
	}

	start := time.Now()
	e, outcome, err := s.compile(ctx, j, rec)
	if e != nil {
		j.fp = e.resp.Fingerprint
	} else if j.fp == "" { // failed before the compile derived it
		j.fp = j.ident.Fingerprint()
	}
	rec.SetAssay(j.assay.Name, j.fp, j.req.Target, j.faults.String())
	rec.SetOutcome(outcome)
	rec.SetStage(journal.StageCanonicalize, j.canonD)
	s.hStage[journal.StageCanonicalize].Observe(j.canonD.Seconds())
	if err != nil {
		code, kind := classifyCompileError(err)
		if kind == "canceled" {
			s.cTimeouts.Inc()
		}
		if kind == "verification_failed" {
			rec.SetVerify(journal.VerifyFailed)
		}
		rec.SetErrorClass(kind)
		writeError(w, code, kind, err)
		return
	}
	resp := e.resp // copy; per-request fields set below
	resp.Assay = j.assay.Name
	resp.Summary = j.assay.Name + e.summary
	resp.Cached = outcome == journal.OutcomeHit
	resp.ElapsedMS = float64(time.Since(start)) / float64(time.Millisecond)
	resp.RequestID = reqID
	if resp.Verification != nil {
		rec.SetVerify(journal.VerifyOK)
	}
	if req.Trace && len(e.spans) > 0 {
		// The trace of the compile that produced this result — for hits
		// and followers, that compile ran on an earlier request.
		resp.Trace = json.RawMessage(bytes.TrimSpace(obs.ChromeTraceJSON(e.spans)))
	}
	writeJSON(w, http.StatusOK, resp)
}

// compile serves the job from cache, an identical in-flight request, or
// a fresh compilation on the worker pool — in that order — and reports
// which of the three happened as a journal outcome.
func (s *Server) compile(ctx context.Context, j *job, rec *journal.Entry) (*entry, string, error) {
	if e, ok := s.cache.Get(j.cacheKey); ok {
		s.cHits.Inc()
		return e, journal.OutcomeHit, nil
	}
	s.cMisses.Inc()
	for {
		leader := false
		e, shared, err := s.flight.do(ctx, j.cacheKey, func() (*entry, error) {
			leader = true
			return s.runCompile(ctx, j, rec)
		})
		if shared && !leader {
			// The leader's deadline is not ours: if the leader died of
			// cancellation but this request still has budget, retry as a
			// fresh leader.
			if err != nil && core.IsCanceled(err) && ctx.Err() == nil {
				continue
			}
			s.cDedup.Inc()
			return e, journal.OutcomeFollower, err
		}
		return e, journal.OutcomeMiss, err
	}
}

// runCompile waits for a worker slot, canonicalizes the assay,
// compiles it under a request-scoped tracer, and populates the cache.
// The tracer's spans and the schedule/route/verify stage durations land
// on the caller's journal entry (rec is the singleflight leader's entry;
// followers share the result but executed none of the stages). A
// deadline that expires while waiting for the slot fails with the same
// *core.ErrCanceled a compile aborted by it returns.
func (s *Server) runCompile(ctx context.Context, j *job, rec *journal.Entry) (*entry, error) {
	s.gQueue.Set(float64(s.queued.Add(1)))
	select {
	case s.sem <- struct{}{}:
		s.gQueue.Set(float64(s.queued.Add(-1)))
	case <-ctx.Done():
		s.gQueue.Set(float64(s.queued.Add(-1)))
		return nil, &core.ErrCanceled{Assay: j.assay.Name, Target: j.cfg.Target, Err: ctx.Err()}
	}
	defer func() { <-s.sem }()

	// Compile the canonical form, not the submitted numbering. Raw
	// compilation is sensitive to node IDs (scheduler tie-breaks); the
	// cache key is the canonical form's certificate, so a hit returns
	// exactly what the cold compile of the same request would have.
	// The reply's fingerprint comes from the same pass.
	tCanon := time.Now()
	canon := j.ident.Canonical()
	j.fp = j.ident.Fingerprint()
	j.canonD += time.Since(tCanon)
	s.gInflight.Set(float64(len(s.sem)))
	s.cCompiles.Inc()
	tc := telemetry.New()
	// A per-request observer bounds tracing on a long-lived server: its
	// spans are harvested below and dropped with the request, while its
	// metrics land on the shared process-wide registry.
	reqOb := obs.NewRequestScoped(s.ob.Metrics())
	cfg := j.cfg
	cfg.Obs = reqOb
	cfg.Router.Telemetry = tc
	cfg.Workers = s.cfg.CompileWorkers
	t0 := time.Now()
	res, err := core.CompileContext(ctx, canon, cfg)
	s.hCompile.Observe(time.Since(t0).Seconds())
	s.gInflight.Set(float64(len(s.sem) - 1))
	spans := reqOb.Tracer().Records()
	schedD, routeD := sumStageSpans(spans)
	rec.SetStage(journal.StageSchedule, schedD)
	rec.SetStage(journal.StageRoute, routeD)
	rec.SetSpans(spans)
	if schedD > 0 {
		s.hStage[journal.StageSchedule].Observe(schedD.Seconds())
	}
	if routeD > 0 {
		s.hStage[journal.StageRoute].Observe(routeD.Seconds())
	}
	if err != nil {
		// Counted here, not in the response writer, so singleflight
		// followers sharing this error don't inflate the outcome counter.
		var uns *core.ErrUnsynthesizable
		if errors.As(err, &uns) {
			s.cFaultUnsynth.Inc()
		}
		return nil, err
	}
	if j.faults != nil {
		s.cFaultResynth.Inc()
	}
	e := j.buildEntry(res)
	if j.req.Trace {
		e.spans = spans
	}
	if j.verify {
		tv := time.Now()
		vi, verr := j.runVerify(res, tc)
		dv := time.Since(tv)
		rec.SetStage(journal.StageVerify, dv)
		s.hStage[journal.StageVerify].Observe(dv.Seconds())
		if verr != nil {
			s.cVerifyFail.Inc()
			return nil, verr
		}
		e.resp.Verification = vi
	}
	s.collectTelemetry(j, res, tc)
	s.cache.Put(j.cacheKey, e)
	return e, nil
}

// sumStageSpans totals the scheduler and router span durations of a
// request-scoped trace (auto-grow may run each stage several times; the
// journal records the total spent, matching what the request paid).
func sumStageSpans(recs []obs.SpanRecord) (schedule, route time.Duration) {
	for _, r := range recs {
		switch r.Name {
		case "schedule":
			schedule += r.Dur
		case "route":
			route += r.Dur
		}
	}
	return schedule, route
}

// classifyCompileError maps compile failures to HTTP statuses and error
// kinds: 504 for deadline/cancellation (the typed core.ErrCanceled),
// 400 for invalid requests, 500 for oracle verification failures, 422
// kind "unsynthesizable" when the declared hardware faults leave the
// chip with too little capacity, and 422 kind "compile_failed" for
// assays the flow cannot compile at all. The kind doubles as the
// journal entry's error class.
func classifyCompileError(err error) (int, string) {
	if core.IsCanceled(err) {
		return http.StatusGatewayTimeout, "canceled"
	}
	var br *badRequestError
	if errors.As(err, &br) {
		return http.StatusBadRequest, "bad_request"
	}
	var ve *verificationError
	if errors.As(err, &ve) {
		return http.StatusInternalServerError, "verification_failed"
	}
	var uns *core.ErrUnsynthesizable
	if errors.As(err, &uns) {
		return http.StatusUnprocessableEntity, "unsynthesizable"
	}
	return http.StatusUnprocessableEntity, "compile_failed"
}

// TargetCapabilities is the wire form of a target's capability flags.
type TargetCapabilities struct {
	PinProgram            bool `json:"pin_program"`
	TelemetryWear         bool `json:"telemetry_wear"`
	DynamicFaultDetection bool `json:"dynamic_fault_detection"`
	AutoGrow              bool `json:"auto_grow"`
	FixedPortCapacity     bool `json:"fixed_port_capacity"`
}

// TargetInfo describes one registered architecture target: its wire
// name (usable as the compile request's "target" field), its default
// chip, and the capabilities it advertises.
type TargetInfo struct {
	Name         string             `json:"name"`
	Description  string             `json:"description"`
	Chip         *ChipInfo          `json:"default_chip,omitempty"`
	Capabilities TargetCapabilities `json:"capabilities"`
}

// TargetsResponse is the GET /targets body.
type TargetsResponse struct {
	Targets []TargetInfo `json:"targets"`
}

// listTargets renders the registry. Computed per request — the registry
// is tiny and building the default chips is microseconds — so a target
// registered after server start still shows up.
func listTargets() TargetsResponse {
	specs := core.Targets()
	resp := TargetsResponse{Targets: make([]TargetInfo, 0, len(specs))}
	for _, spec := range specs {
		info := TargetInfo{
			Name:        spec.Name,
			Description: spec.Description,
			Capabilities: TargetCapabilities{
				PinProgram:            spec.Capabilities.PinProgram,
				TelemetryWear:         spec.Capabilities.TelemetryWear,
				DynamicFaultDetection: spec.Capabilities.DynamicFaultDetection,
				AutoGrow:              spec.Capabilities.AutoGrow,
				FixedPortCapacity:     spec.Capabilities.FixedPortCapacity,
			},
		}
		if chip, err := spec.NewChip(spec.DefaultDims(core.Config{})); err == nil {
			info.Chip = &ChipInfo{
				Name: chip.Name, W: chip.W, H: chip.H,
				Electrodes: chip.ElectrodeCount(), Pins: chip.PinCount(),
			}
		}
		resp.Targets = append(resp.Targets, info)
	}
	return resp
}

func (s *Server) handleTargets(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", fmt.Errorf("GET only"))
		return
	}
	writeJSON(w, http.StatusOK, listTargets())
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", fmt.Errorf("GET only"))
		return
	}
	s.sampleRuntime()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.ob.Metrics().WritePrometheus(w); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// Health is the GET /healthz body.
type Health struct {
	Status        string  `json:"status"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	Workers       int     `json:"workers"`
	QueueDepth    int64   `json:"queue_depth"`
	CacheEntries  int     `json:"cache_entries"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, Health{
		Status:        "ok",
		UptimeSeconds: time.Since(s.start).Seconds(),
		Workers:       s.cfg.Workers,
		QueueDepth:    s.queued.Load(),
		CacheEntries:  s.cache.Len(),
	})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, kind string, err error) {
	writeJSON(w, code, errorResponse{Error: err.Error(), Kind: kind})
}
