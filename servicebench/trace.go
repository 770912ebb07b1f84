package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"fppc/internal/arch"
	"fppc/internal/asl"
	"fppc/internal/core"
	"fppc/internal/dag"
	"fppc/internal/fleet"
	"fppc/internal/obs"
	"fppc/internal/oracle"
	"fppc/internal/router"
	"fppc/internal/scheduler"
	"fppc/internal/service"
	"fppc/internal/sim"
	"fppc/internal/telemetry"
)

// spanRec is one timed call: which request caused it, its wall clock,
// the process CPU and heap allocations that happened during it.
type spanRec struct {
	name   string
	req    int // request (or fleet job) index; -1 for per-round calls
	wall   time.Duration
	cpu    time.Duration
	allocs int64
}

// tracer records spans around calls into the program's public
// functions. Spans stay in memory until the run ends. With one client
// and the replay running between requests, the process CPU and
// allocation deltas of a span belong to the call it wraps. A nil
// tracer runs calls untimed.
type tracer struct {
	mu     sync.Mutex
	allocs *allocSampler
	recs   []spanRec
	cur    int // request the client is working on
	counts map[string]float64
}

func newTracer() *tracer {
	return &tracer{allocs: newAllocSampler(), counts: map[string]float64{}}
}

// span runs fn as one call of the named layer.
func (t *tracer) span(name string, fn func()) {
	if t == nil {
		fn()
		return
	}
	t.mu.Lock()
	req := t.cur
	a0 := t.allocs.read()
	t.mu.Unlock()
	c0 := processCPU()
	w0 := time.Now()
	fn()
	wall := time.Since(w0)
	cpu := processCPU() - c0
	t.mu.Lock()
	t.recs = append(t.recs, spanRec{name: name, req: req, wall: wall, cpu: cpu, allocs: int64(t.allocs.read() - a0)})
	t.mu.Unlock()
}

// begin marks the start of request i's spans.
func (t *tracer) begin(i int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.cur = i
	t.mu.Unlock()
}

// add accumulates a per-layer count.
func (t *tracer) add(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

// handlerFor returns the server's handler; when tracing, every
// ServeHTTP call is timed as service.serve.
func handlerFor(srv *service.Server, t *tracer) http.Handler {
	if t == nil {
		return srv
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t.span("service.serve", func() { srv.ServeHTTP(w, r) })
	})
}

// replayed are the spans the replay times inside a request's
// service.serve span; service.self is what is left.
var replayed = map[string]bool{
	"service.decode_request": true, "service.encode_response": true,
	"asl.parse": true, "dag.decode": true, "dag.fingerprint": true, "dag.canonicalize": true,
	"core.compile": true, "sim.replay": true, "oracle.verify": true, "fleet.submit": true,
}

// spanTotal sums one layer's calls over a run.
type spanTotal struct {
	calls  int
	wall   time.Duration
	cpu    time.Duration
	allocs int64
}

// totals folds the span records into per-layer sums, deriving
// service.self per request as its service.serve span minus the calls the
// replay timed for the same request.
func (t *tracer) totals() map[string]*spanTotal {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[string]*spanTotal{}
	self := map[int]*spanTotal{}
	for _, r := range t.recs {
		st := out[r.name]
		if st == nil {
			st = &spanTotal{}
			out[r.name] = st
		}
		st.calls++
		st.wall += r.wall
		st.cpu += r.cpu
		st.allocs += r.allocs
		sign := 0
		switch {
		case r.name == "service.serve":
			sign = 1
		case replayed[r.name]:
			sign = -1
		}
		if sign == 0 || r.req < 0 {
			continue
		}
		s := self[r.req]
		if s == nil {
			s = &spanTotal{}
			self[r.req] = s
		}
		if sign > 0 {
			s.calls++
		}
		s.wall += time.Duration(sign) * r.wall
		s.cpu += time.Duration(sign) * r.cpu
		s.allocs += int64(sign) * r.allocs
	}
	agg := &spanTotal{}
	for _, s := range self {
		if s.calls == 0 {
			continue // replayed calls of a request the server never saw
		}
		agg.calls += s.calls
		agg.wall += s.wall
		agg.cpu += s.cpu
		agg.allocs += s.allocs
	}
	out["service.self"] = agg
	return out
}

// sizeSearch is the outside driver of core's size search: it runs the
// registered target hooks in the order core.CompileContext runs them —
// default dims, build the chip, place reservoir ports, schedule, validate,
// route, and on an insufficient-resources failure grow and retry — and
// times each hook as its own layer.
type sizeSearch struct {
	spec *core.TargetSpec
	cfg  core.Config
	// grow is the spec's Grow hook (tests substitute a broken one).
	grow func(core.Dims) (core.Dims, bool)
	t    *tracer
}

// searchResult is what the driver found.
type searchResult struct {
	attempts int
	res      *core.Result
	err      error
}

func (s sizeSearch) run(ctx context.Context, a *dag.Assay) searchResult {
	d := s.spec.DefaultDims(s.cfg)
	for attempts := 1; ; attempts++ {
		res, err := s.attempt(ctx, a, d)
		if err == nil {
			return searchResult{attempts: attempts, res: res}
		}
		var pc *arch.PortCapacityError
		if s.spec.Capabilities.FixedPortCapacity && errors.As(err, &pc) {
			return searchResult{attempts: attempts, err: &core.ErrUnsynthesizable{Assay: a.Name, Target: s.spec.ID, Err: err}}
		}
		var ir *scheduler.ErrInsufficientResources
		if !s.cfg.AutoGrow || !s.spec.Capabilities.AutoGrow || !errors.As(err, &ir) {
			return searchResult{attempts: attempts, err: err}
		}
		next, ok := s.grow(d)
		if !ok {
			return searchResult{attempts: attempts, err: &core.ErrChipExhausted{
				Assay: a.Name, Target: s.spec.ID, LastW: d.W, LastH: d.H, Attempts: attempts, Err: err}}
		}
		d = next
	}
}

// attempt runs the flow once on a chip of the given size.
func (s sizeSearch) attempt(ctx context.Context, a *dag.Assay, d core.Dims) (*core.Result, error) {
	var chip *arch.Chip
	var err error
	s.t.span("arch.new_chip", func() { chip, err = s.spec.NewChip(d) })
	if err != nil {
		return nil, err
	}
	s.t.span("core.place_ports", func() { err = core.PlacePortsForAssay(chip, a) })
	if err != nil {
		return nil, err
	}
	var sched *scheduler.Schedule
	s.t.span("scheduler.schedule", func() {
		sched, err = s.spec.Schedule(ctx, a, chip, scheduler.Opts{Workers: s.cfg.Workers})
	})
	if err != nil {
		return nil, err
	}
	if err := sched.Validate(); err != nil {
		return nil, err
	}
	opts := s.cfg.Router
	opts.Workers = s.cfg.Workers
	var routing *router.Result
	s.t.span("router.route", func() { routing, err = s.spec.Route(ctx, sched, opts) })
	if err != nil {
		return nil, err
	}
	return &core.Result{Assay: a, Chip: chip, Schedule: sched, Routing: routing}, nil
}

// serviceConfig is the core.Config the service compiles a request with.
func serviceConfig(req service.CompileRequest) (*core.TargetSpec, core.Config, error) {
	spec, err := core.ParseTarget(req.Target)
	if err != nil {
		return nil, core.Config{}, err
	}
	cfg := core.Config{Target: spec.ID, AutoGrow: req.Grow}
	if req.Sequence {
		rot := req.RotationsPerStep
		if rot <= 0 {
			rot = 12
		}
		cfg.Router = router.Options{EmitProgram: true, RotationsPerStep: rot}
	}
	return spec, cfg, nil
}

// attemptsIn counts the size-search attempts in a compile's trace: every
// attempt on an unfaulted chip starts by placing ports.
func attemptsIn(spans []obs.SpanRecord) int {
	n := 0
	for _, s := range spans {
		if s.Name == "place_ports" {
			n++
		}
	}
	return n
}

// fidelity is what the outside driver must reproduce of a compile.
type fidelity struct {
	attempts, w, h, makespan, cycles int
}

func (f fidelity) String() string {
	return fmt.Sprintf("%d attempts, %dx%d, makespan %d, %d route cycles", f.attempts, f.w, f.h, f.makespan, f.cycles)
}

func fidelityOf(attempts int, res *core.Result) fidelity {
	return fidelity{attempts, res.Chip.W, res.Chip.H, res.Schedule.Makespan, res.Routing.TotalCycles}
}

// replayer re-runs requests through the public functions the service
// calls, timing each.
type replayer struct {
	t    *tracer
	srv  *service.Server
	memo *core.Memo
	// grow overrides the driver's Grow hook (nil: the target's own).
	grow func(core.Dims) (core.Dims, bool)
}

// compile replays one POST /compile. A driver that disagrees with core
// or with the service is an error: the traced run must not report
// numbers from a different pipeline.
func (rp *replayer) compile(ctx context.Context, r *request, status int, body []byte) error {
	t := rp.t
	var req service.CompileRequest
	var err error
	t.span("service.decode_request", func() {
		dec := json.NewDecoder(bytes.NewReader(r.Body))
		dec.DisallowUnknownFields()
		err = dec.Decode(&req)
	})
	if err != nil {
		return err
	}
	a, err := rp.parse(req.ASL, req.DAG)
	if err != nil {
		return err
	}
	t.add("dag.nodes", float64(a.Len()))
	t.add("service.response_bytes", float64(len(body)))
	t.span("dag.fingerprint", func() { _, err = a.Fingerprint() })
	if err != nil {
		return err
	}
	var canon *dag.Assay
	t.span("dag.canonicalize", func() { canon, err = a.Canonical() })
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return rp.refusal(ctx, req, canon)
	}
	var resp service.CompileResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return err
	}
	if !resp.Cached {
		res, err := rp.miss(ctx, req, canon, &resp)
		if err != nil {
			return err
		}
		if prog := res.Routing.Program; prog != nil {
			t.span("sim.replay", func() { _, err = sim.RunCollected(res.Chip, prog, res.Routing.Events, nil, telemetry.New()) })
			if err != nil {
				return fmt.Errorf("%s: sim replay: %w", r.Shape, err)
			}
		}
		if req.Verify {
			t.span("oracle.verify", func() { _, err = oracle.VerifyCompiled(res, oracle.Options{}) })
			if err != nil {
				return err
			}
		}
	}
	t.span("service.encode_response", func() { _, err = json.Marshal(resp) })
	return err
}

// parse decodes the assay as the service does, timed as asl.parse or
// dag.decode.
func (rp *replayer) parse(text string, raw json.RawMessage) (*dag.Assay, error) {
	var a *dag.Assay
	var err error
	if text != "" {
		rp.t.span("asl.parse", func() { a, err = asl.Parse(text) })
		return a, err
	}
	rp.t.span("dag.decode", func() {
		a = &dag.Assay{}
		if err = json.Unmarshal(raw, a); err == nil {
			err = a.Validate()
		}
	})
	return a, err
}

// reference runs core.CompileContext with the service's config (a
// request-scoped observer, a telemetry sink and a structural memo, as
// the service passes) and reports the attempts its trace shows.
func (rp *replayer) reference(ctx context.Context, cfg core.Config, canon *dag.Assay) (*core.Result, int, error) {
	ob := obs.NewRequestScoped(obs.NewRegistry())
	cfg.Obs = ob
	cfg.Router.Telemetry = telemetry.New()
	cfg.Memo = rp.memo
	var res *core.Result
	var err error
	rp.t.span("core.compile", func() { res, err = core.CompileContext(ctx, canon, cfg) })
	return res, attemptsIn(ob.Tracer().Records()), err
}

func (rp *replayer) driver(spec *core.TargetSpec, cfg core.Config) sizeSearch {
	grow := spec.Grow
	if rp.grow != nil {
		grow = rp.grow
	}
	return sizeSearch{spec: spec, cfg: cfg, grow: grow, t: rp.t}
}

// miss replays a compile the service ran: core.CompileContext timed as
// core.compile, then the outside driver timed hook by hook. All three —
// driver, core and the service's reply and journal — must agree on the
// attempt count, the dims, the makespan and the route cycles.
func (rp *replayer) miss(ctx context.Context, req service.CompileRequest, canon *dag.Assay, resp *service.CompileResponse) (*core.Result, error) {
	spec, cfg, err := serviceConfig(req)
	if err != nil {
		return nil, err
	}
	ref, refAttempts, err := rp.reference(ctx, cfg, canon)
	if err != nil {
		return nil, fmt.Errorf("%s: core.CompileContext: %w", canon.Name, err)
	}
	got := rp.driver(spec, cfg).run(ctx, canon)
	if got.err != nil {
		return nil, fmt.Errorf("fidelity: %s on %s: the driver failed where core compiled: %w", canon.Name, spec.Name, got.err)
	}
	entry, ok := rp.srv.Journal().Get(resp.RequestID)
	if !ok {
		return nil, fmt.Errorf("fidelity: %s: request %s is not in the service journal", canon.Name, resp.RequestID)
	}
	drv := fidelityOf(got.attempts, got.res)
	cor := fidelityOf(refAttempts, ref)
	svc := fidelity{attemptsIn(entry.Spans), resp.Chip.W, resp.Chip.H, resp.Stats.Makespan, resp.Stats.RouteCycles}
	if drv != cor || drv != svc {
		return nil, fmt.Errorf("fidelity: %s on %s: driver %v, core %v, service %v", canon.Name, spec.Name, drv, cor, svc)
	}
	rp.t.add("router.cycles", float64(drv.cycles))
	return ref, nil
}

// refusal replays a request the service refused: core and the driver
// must both refuse it as unsynthesizable after the same attempts.
func (rp *replayer) refusal(ctx context.Context, req service.CompileRequest, canon *dag.Assay) error {
	spec, cfg, err := serviceConfig(req)
	if err != nil {
		return err
	}
	_, refAttempts, refErr := rp.reference(ctx, cfg, canon)
	got := rp.driver(spec, cfg).run(ctx, canon)
	var a, b *core.ErrUnsynthesizable
	if !errors.As(refErr, &a) || !errors.As(got.err, &b) || got.attempts != refAttempts {
		return fmt.Errorf("fidelity: %s on %s: core refused with %v after %d attempts, the driver with %v after %d",
			canon.Name, spec.Name, refErr, refAttempts, got.err, got.attempts)
	}
	return nil
}

// submit replays one POST /fleet/jobs: decode, parse, then Fleet.Submit
// on a shadow fleet the benchmark never reconciles, so the timed call
// does not add a job to the measured fleet.
func (rp *replayer) submit(shadow *fleet.Fleet, r *request, body []byte) error {
	t := rp.t
	var req service.FleetJobRequest
	var err error
	t.span("service.decode_request", func() {
		dec := json.NewDecoder(bytes.NewReader(r.Body))
		dec.DisallowUnknownFields()
		err = dec.Decode(&req)
	})
	if err != nil {
		return err
	}
	a, err := rp.parse(req.ASL, req.DAG)
	if err != nil {
		return err
	}
	t.add("dag.nodes", float64(a.Len()))
	t.add("service.response_bytes", float64(len(body)))
	var st fleet.JobStatus
	t.span("fleet.submit", func() { st, err = shadow.Submit(a, req.Target) })
	if err != nil {
		return err
	}
	t.span("service.encode_response", func() { _, err = json.Marshal(st) })
	return err
}
