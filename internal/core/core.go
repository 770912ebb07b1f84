// Package core ties the synthesis stages together: it realizes the
// paper's Figure 3 flow (schedule -> place/bind -> route) against either
// the field-programmable pin-constrained chip or the direct-addressing
// baseline, growing the array when the assay does not fit (as the paper
// does for Protein Split 5-7), and reports the metrics the evaluation
// tables use: array size, electrodes, pins, operation seconds, routing
// seconds and their total.
package core

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"fppc/internal/arch"
	"fppc/internal/dag"
	"fppc/internal/grid"
	"fppc/internal/obs"
	"fppc/internal/router"
	"fppc/internal/scheduler"
)

// TimeStepSeconds is the scheduler granularity (paper: 1 s time-steps).
const TimeStepSeconds = 1.0

// Target selects the architecture to compile for. The constants below
// are the IDs of the built-in registered targets; everything else about
// a target — its geometry, stages, capability flags — lives in its
// TargetSpec (see registry.go).
type Target int

// Built-in compilation targets.
const (
	TargetFPPC Target = iota
	TargetDA
	TargetEnhancedFPPC
)

func (t Target) String() string {
	if spec, ok := LookupTarget(t); ok {
		return spec.Name
	}
	return fmt.Sprintf("target(%d)", int(t))
}

// Config controls compilation.
type Config struct {
	Target Target

	// FPPCHeight fixes the FPPC chip height (12 wide); 0 starts at the
	// paper's 12x21 workhorse size.
	FPPCHeight int
	// DAWidth/DAHeight fix the DA chip size; 0 starts at the paper's
	// 15x19.
	DAWidth, DAHeight int

	// AutoGrow enlarges the array until the assay schedules (the paper's
	// methodology for the larger protein-split benchmarks). Without it,
	// scheduling failures surface as errors.
	AutoGrow bool

	// Router forwards routing options (program emission for simulation).
	Router router.Options

	// SingleOutputPort places only one reservoir per output fluid instead
	// of the default two (ablation: quantifies the routing benefit of a
	// second, nearer waste port).
	SingleOutputPort bool

	// DetectorCount limits how many SSD (or DA work) modules carry
	// detectors; 0 means all of them (the default chip configuration).
	// Supplemental S2's compatibility requirement — "the SSD modules have
	// appropriate detectors" — becomes a real constraint with this set.
	DetectorCount int

	// Workers bounds the concurrency of parallelizable work inside one
	// compilation: the scheduler's precomputation passes run on a pool
	// of this many workers (GOMAXPROCS when 0, inline when 1), and the
	// DA router's per-boundary path searches fan out only above 1.
	// Every worker count produces byte-identical artifacts; the
	// differential tests enforce that.
	Workers int

	// Memo is ignored (see Memo).
	Memo *Memo

	// Obs records stage spans (Compile > Schedule > Route) and pipeline
	// metrics across every layer the compilation touches. Nil (the
	// default) disables observation; the instrumented paths then cost
	// only nil checks.
	Obs *obs.Observer

	// Faults declares hardware defects the flow must synthesize around
	// (the canonical implementation is faults.Set). When non-nil and
	// non-empty, the chip is restricted before port placement — faulted
	// module slots are disabled, lost reservoir rings pruned — the router
	// refuses to path droplets through blocked cells, and AutoGrow is
	// ignored: a fault set describes one physical chip at fixed
	// coordinates, so there is no larger chip to fall back to. Failures
	// surface as *ErrUnsynthesizable.
	Faults FaultModel
}

// FaultModel is core's view of a hardware fault set. Restrict mutates
// the freshly built chip to reflect the faults (disabling modules,
// pruning reservoir attach points) and rejects faults that do not name
// real electrodes or pins; Blocked reports cells the router must not
// path droplets through; Len counts declared faults.
type FaultModel interface {
	Len() int
	Restrict(chip *arch.Chip) error
	Blocked(chip *arch.Chip, cell grid.Cell) bool
}

// faulted reports whether the config carries a non-empty fault set.
func (c Config) faulted() bool { return c.Faults != nil && c.Faults.Len() > 0 }

// Result is a compiled assay.
type Result struct {
	Assay    *dag.Assay
	Chip     *arch.Chip
	Schedule *scheduler.Schedule
	Routing  *router.Result
}

// OperationSeconds is the schedule makespan in seconds.
func (r *Result) OperationSeconds() float64 {
	return float64(r.Schedule.Makespan) * TimeStepSeconds
}

// RoutingSeconds is the droplet transport time in seconds.
func (r *Result) RoutingSeconds() float64 { return r.Routing.Seconds() }

// TotalSeconds is the paper's total: operations plus routing.
func (r *Result) TotalSeconds() float64 {
	return r.OperationSeconds() + r.RoutingSeconds()
}

// Summary renders a one-line report.
func (r *Result) Summary() string {
	return fmt.Sprintf("%s on %s: %dx%d array, %d electrodes, %d pins, ops %.0fs + routing %.1fs = %.1fs",
		r.Assay.Name, r.Chip.Name, r.Chip.W, r.Chip.H,
		r.Chip.ElectrodeCount(), r.Chip.PinCount(),
		r.OperationSeconds(), r.RoutingSeconds(), r.TotalSeconds())
}

// PlacePortsForAssay assigns reservoir ports on the chip for every fluid
// the assay dispenses or outputs. Output fluids get two ports when the
// perimeter allows (halving waste-droplet routes), falling back to one.
func PlacePortsForAssay(chip *arch.Chip, a *dag.Assay) error {
	return placePorts(chip, a, false)
}

func placePorts(chip *arch.Chip, a *dag.Assay, singleOutput bool) error {
	inputs := map[string]int{}
	outSet := map[string]bool{}
	for _, n := range a.Nodes {
		switch n.Kind {
		case dag.Dispense:
			inputs[n.Fluid] = a.ReservoirCount(n.Fluid)
		case dag.Output:
			outSet[n.Fluid] = true
		}
	}
	outs := make([]string, 0, len(outSet))
	for f := range outSet {
		outs = append(outs, f)
	}
	sort.Strings(outs)
	if !singleOutput {
		doubled := append(append([]string{}, outs...), outs...)
		if err := chip.PlacePorts(inputs, doubled); err == nil {
			return nil
		}
	}
	return chip.PlacePorts(inputs, outs)
}

// ErrChipExhausted reports auto-grow giving up: no array within the
// growth bounds schedules the assay. It wraps the last scheduling
// failure and records how far the search went.
type ErrChipExhausted struct {
	Assay        string
	Target       Target
	LastW, LastH int
	Attempts     int
	Err          error
}

func (e *ErrChipExhausted) Error() string {
	return fmt.Sprintf("core: %s does not fit any %s chip (%d sizes tried, last %dx%d): %v",
		e.Assay, e.Target, e.Attempts, e.LastW, e.LastH, e.Err)
}

func (e *ErrChipExhausted) Unwrap() error { return e.Err }

// ErrUnsynthesizable reports that the chip cannot host the assay under
// conditions no amount of growth fixes: a degraded chip (the configured
// size with Config.Faults applied) with too few working module slots, a
// lost reservoir ring or no fault-free route — or, on fixed-perimeter
// targets, an assay needing more reservoir ports than the architecture
// ever provides. It wraps the underlying stage failure. The service
// layer maps this to HTTP 422 with kind "unsynthesizable".
type ErrUnsynthesizable struct {
	Assay  string
	Target Target
	Faults int // declared fault count (0: a capacity limit, not damage)
	Err    error
}

func (e *ErrUnsynthesizable) Error() string {
	if e.Faults == 0 {
		return fmt.Sprintf("core: %s is unsynthesizable on the %s chip: %v", e.Assay, e.Target, e.Err)
	}
	return fmt.Sprintf("core: %s is unsynthesizable on the degraded %s chip (%d faults): %v",
		e.Assay, e.Target, e.Faults, e.Err)
}

func (e *ErrUnsynthesizable) Unwrap() error { return e.Err }

// ErrCanceled reports a compilation aborted by its context: the deadline
// expired or the caller canceled. Err is the context's error
// (context.Canceled or context.DeadlineExceeded), reachable through
// errors.Is; the service layer maps this to HTTP 504.
type ErrCanceled struct {
	Assay  string
	Target Target
	Err    error
}

func (e *ErrCanceled) Error() string {
	return fmt.Sprintf("core: compilation of %s for %s canceled: %v", e.Assay, e.Target, e.Err)
}

func (e *ErrCanceled) Unwrap() error { return e.Err }

// IsCanceled reports whether err stems from a context abort: the typed
// *ErrCanceled, or a bare context.Canceled or DeadlineExceeded.
func IsCanceled(err error) bool {
	var ce *ErrCanceled
	return errors.As(err, &ce) ||
		errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Compile runs the full flow. With AutoGrow it retries on
// ErrInsufficientResources with a taller (FPPC) or larger (DA) array.
func Compile(a *dag.Assay, cfg Config) (*Result, error) {
	return CompileContext(context.Background(), a, cfg)
}

// CompileContext is Compile with cooperative cancellation: the scheduler
// and router main loops check ctx and the whole flow aborts promptly
// with a *ErrCanceled once the context is done. This is what makes
// per-request deadlines real in the compilation service.
func CompileContext(ctx context.Context, a *dag.Assay, cfg Config) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := a.Validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, cancelErr(a, cfg, err)
	}
	sp := cfg.Obs.Span("compile")
	sp.ArgStr("assay", a.Name)
	sp.ArgStr("target", cfg.Target.String())
	defer sp.End()
	spec, ok := LookupTarget(cfg.Target)
	if !ok {
		return nil, fmt.Errorf("core: unknown target %d", int(cfg.Target))
	}
	res, err := compileTarget(ctx, a, cfg, spec)
	if err != nil && ctx.Err() != nil && errors.Is(err, ctx.Err()) {
		return nil, cancelErr(a, cfg, err)
	}
	return res, err
}

// cancelErr wraps a context abort into the typed *ErrCanceled and counts
// it.
func cancelErr(a *dag.Assay, cfg Config, err error) error {
	cfg.Obs.Counter("fppc_compile_canceled_total").Inc()
	return &ErrCanceled{Assay: a.Name, Target: cfg.Target, Err: err}
}

// compileTarget runs the size-search loop for any registered target:
// build the chip at the spec's default size, attempt the full flow, and
// on an insufficient-resources failure ask the spec for the next size
// (when the config and the target both allow growing).
func compileTarget(ctx context.Context, a *dag.Assay, cfg Config, spec *TargetSpec) (*Result, error) {
	d := spec.DefaultDims(cfg)
	grow := cfg.Obs.Counter("fppc_autogrow_iterations_total")
	attempts := 0
	for {
		chip, err := spec.NewChip(d)
		if err != nil {
			return nil, err
		}
		attempts++
		res, err := compileOn(ctx, a, chip, cfg, spec)
		if err == nil {
			return res, nil
		}
		if cfg.faulted() {
			return nil, unsynthesizable(a, cfg, err)
		}
		if spec.Capabilities.FixedPortCapacity && portCapacity(err) {
			// Growth never adds ports on this target, so the assay can
			// never fit — a capacity limit of the architecture itself.
			return nil, unsynthesizable(a, cfg, err)
		}
		if !cfg.AutoGrow || !spec.Capabilities.AutoGrow || !insufficient(err) {
			return nil, err
		}
		grow.Inc()
		next, ok := spec.Grow(d)
		if !ok {
			return nil, &ErrChipExhausted{
				Assay: a.Name, Target: spec.ID,
				LastW: d.W, LastH: d.H, Attempts: attempts, Err: err,
			}
		}
		d = next
	}
}

func insufficient(err error) bool {
	var ir *scheduler.ErrInsufficientResources
	return errors.As(err, &ir)
}

func portCapacity(err error) bool {
	var pc *arch.PortCapacityError
	return errors.As(err, &pc)
}

// unsynthesizable wraps a compilation failure no growth fixes in the
// typed error and counts it. Context aborts pass through the wrapper's
// Unwrap chain, so CompileContext still converts them to *ErrCanceled.
func unsynthesizable(a *dag.Assay, cfg Config, err error) error {
	cfg.Obs.Counter("fppc_compile_unsynthesizable_total").Inc()
	faults := 0
	if cfg.Faults != nil {
		faults = cfg.Faults.Len()
	}
	return &ErrUnsynthesizable{Assay: a.Name, Target: cfg.Target, Faults: faults, Err: err}
}

// stage runs fn under a span named name on the chip-attempt observer.
func stage(ob *obs.Observer, name string, chip *arch.Chip, fn func() error) error {
	sp := ob.Span(name)
	if chip != nil {
		sp.ArgStr("chip", chip.Name)
	}
	err := fn()
	sp.End()
	return err
}

func compileOn(ctx context.Context, a *dag.Assay, chip *arch.Chip, cfg Config, spec *TargetSpec) (*Result, error) {
	ob := cfg.Obs
	if cfg.DetectorCount > 0 {
		chip.LimitDetectors(cfg.DetectorCount)
	}
	if cfg.faulted() {
		// Restriction must precede port placement: a faulted perimeter
		// cell takes its reservoir attach point with it.
		if err := stage(ob, "restrict", chip, func() error {
			return cfg.Faults.Restrict(chip)
		}); err != nil {
			return nil, fmt.Errorf("core: fault restriction on %s: %w", chip.Name, err)
		}
	}
	if err := stage(ob, "place_ports", chip, func() error {
		return placePorts(chip, a, cfg.SingleOutputPort)
	}); err != nil {
		return nil, fmt.Errorf("core: port placement on %s: %w", chip.Name, err)
	}
	var s *scheduler.Schedule
	if err := stage(ob, "schedule", chip, func() error {
		var err error
		s, err = spec.Schedule(ctx, a, chip, scheduler.Opts{Obs: ob, Workers: cfg.Workers})
		return err
	}); err != nil {
		return nil, err
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("core: internal schedule validation failed: %w", err)
	}
	opts := cfg.Router
	opts.Obs = ob
	opts.Workers = cfg.Workers
	if cfg.faulted() {
		opts.Avoid = func(c grid.Cell) bool { return cfg.Faults.Blocked(chip, c) }
	}
	var routing *router.Result
	if err := stage(ob, "route", chip, func() error {
		var err error
		routing, err = spec.Route(ctx, s, opts)
		return err
	}); err != nil {
		return nil, err
	}
	ob.Gauge("fppc_route_total_cycles").Set(float64(routing.TotalCycles))
	return &Result{Assay: a, Chip: chip, Schedule: s, Routing: routing}, nil
}
