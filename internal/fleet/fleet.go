// Package fleet is the chip-fleet control plane: a registry of
// simulated physical chips — each with its own architecture target,
// manufacturing fault set, and cumulative electrode wear — plus a
// desired-state reconciliation loop that keeps every submitted job
// placed on the chip that suits it best.
//
// The model follows the scheduler/agent split of container
// orchestrators, adapted to digital microfluidics:
//
//   - Desired state: every submitted job wants to be running on some
//     chip where its assay is synthesizable.
//   - Actual state: each chip's effective fault set (base manufacturing
//     defects ∪ wear-derived stuck-open electrodes, via
//     faults.FromWear over accumulated duty cycles) and the jobs
//     currently placed on it.
//   - Reconciliation: each pass diffs the two. Pending jobs are placed
//     through the scorer (best fault-fit, lowest predicted wear);
//     placed jobs whose chip degraded underneath them — the wear
//     fault set grew onto electrodes their program actuates — are
//     migrated: the unfinished portion of the assay is re-planned with
//     recovery.Plan, recompiled fault-aware on the next-best chip, and
//     oracle-verified there before the move is recorded.
//
// Every transition (submitted, placed, migrated, completed, degraded,
// failed) lands in a bounded event log, and the fleet counters/gauges
// export through the shared obs registry. Time is virtual: the clock
// advances in schedule time-steps via Tick, which is what makes fleet
// scenarios deterministic and replayable under a fixed seed.
package fleet

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"fppc/internal/core"
	"fppc/internal/dag"
	"fppc/internal/faults"
	"fppc/internal/grid"
	"fppc/internal/lru"
	"fppc/internal/obs"
)

// Config configures a Fleet.
type Config struct {
	// Chips declares the physical chips. At least one is required.
	Chips []ChipSpec
	// RatedLife is the default per-electrode actuation budget before an
	// electrode is declared worn out (default 1_000_000 cycles; a
	// ChipSpec may override it per chip).
	RatedLife int64
	// MaxEvents bounds the event log (default 1024; the oldest events
	// fall off).
	MaxEvents int
	// CompileTimeout caps each placement compile (default 30s).
	CompileTimeout time.Duration
	// Obs receives the fleet counters and per-chip gauges (nil: a fresh
	// metrics-only observer).
	Obs *obs.Observer
}

// Fleet is the control plane. Create one with New; it is safe for
// concurrent use.
type Fleet struct {
	mu    sync.Mutex
	chips map[string]*chip
	order []string // chip ids, sorted — the deterministic scan order
	jobs  map[string]*Job
	// jobOrder lists the jobs in jobs in submission order; retired lists
	// the terminal ones in the order they ended, oldest first.
	jobOrder []*Job
	retired  []*Job
	jobSeq   int
	clock    int64

	events    []Event
	evSeq     int64
	maxEvents int

	kick chan struct{}

	compileTimeout time.Duration
	compiles       *lru.Cache[string, *compiled]

	// reconMu serializes reconciliation passes; the state mutex mu is
	// released around compiles so submissions and reads never block on
	// synthesis.
	reconMu sync.Mutex

	ob                                      *obs.Observer
	cPlaced, cMigrated, cFailed, cCompleted *obs.Counter
	nPlaced, nMigrated, nFailed, nCompleted int
	gChips, gPending, gRunning              *obs.Gauge
}

// New builds the fleet from its chip specs.
func New(cfg Config) (*Fleet, error) {
	if len(cfg.Chips) == 0 {
		return nil, fmt.Errorf("fleet: at least one chip spec is required")
	}
	if cfg.RatedLife <= 0 {
		cfg.RatedLife = 1_000_000
	}
	if cfg.MaxEvents <= 0 {
		cfg.MaxEvents = 1024
	}
	if cfg.CompileTimeout <= 0 {
		cfg.CompileTimeout = 30 * time.Second
	}
	ob := cfg.Obs
	if ob == nil {
		ob = obs.NewMetricsOnly()
	}
	f := &Fleet{
		chips:          make(map[string]*chip),
		jobs:           make(map[string]*Job),
		maxEvents:      cfg.MaxEvents,
		kick:           make(chan struct{}, 1),
		compileTimeout: cfg.CompileTimeout,
		compiles:       lru.New[string, *compiled](compileCacheEntries),
		ob:             ob,
		cPlaced:        ob.Counter("fppc_fleet_jobs_total", "outcome", "placed"),
		cMigrated:      ob.Counter("fppc_fleet_jobs_total", "outcome", "migrated"),
		cFailed:        ob.Counter("fppc_fleet_jobs_total", "outcome", "failed"),
		cCompleted:     ob.Counter("fppc_fleet_jobs_total", "outcome", "completed"),
		gChips:         ob.Gauge("fppc_fleet_chips"),
		gPending:       ob.Gauge("fppc_fleet_jobs_pending"),
		gRunning:       ob.Gauge("fppc_fleet_jobs_running"),
	}
	m := ob.Metrics()
	m.Help("fppc_fleet_jobs_total", "fleet job transitions by outcome: placed, migrated, failed, completed")
	m.Help("fppc_fleet_chips", "physical chips registered with the control plane")
	m.Help("fppc_fleet_jobs_pending", "jobs awaiting placement")
	m.Help("fppc_fleet_jobs_running", "jobs currently placed on a chip")
	m.Help("fppc_fleet_chip_wear", "worst per-electrode life fraction consumed, by chip")
	m.Help("fppc_fleet_chip_faults", "effective fault count (manufacturing + wear), by chip")
	m.Help("fppc_fleet_chip_jobs", "jobs currently placed, by chip")
	for _, spec := range cfg.Chips {
		c, err := newChip(spec, cfg.RatedLife, ob)
		if err != nil {
			return nil, err
		}
		if _, dup := f.chips[c.spec.ID]; dup {
			return nil, fmt.Errorf("fleet: duplicate chip id %q", c.spec.ID)
		}
		f.chips[c.spec.ID] = c
		f.order = append(f.order, c.spec.ID)
	}
	sort.Strings(f.order)
	f.gChips.Set(float64(len(f.order)))
	return f, nil
}

// Observer returns the observer the fleet records onto.
func (f *Fleet) Observer() *obs.Observer { return f.ob }

// JobState is a job's place in its lifecycle.
type JobState string

// The job lifecycle. Desired state is always "running on some chip";
// pending and placed are the reconciler's two live conditions, failed
// and completed are terminal.
const (
	JobPending   JobState = "pending"
	JobPlaced    JobState = "placed"
	JobCompleted JobState = "completed"
	JobFailed    JobState = "failed"
)

// Job is the control plane's record of one submitted assay. All fields
// are owned by the fleet mutex; external readers get JobStatus copies.
type Job struct {
	id     string
	name   string
	target string // "" = any chip
	state  JobState

	assay    *dag.Assay // canonical form of what currently runs (recovery assay after migration)
	original string     // name of the originally submitted assay
	cert     string     // the canonical assay's StructuralHash: its compile-cache key

	chipID     string
	makespan   int
	placedAt   int64
	faultSpec  string      // the chip's effective fault spec the program compiled against
	faultSet   *faults.Set // parsed form of faultSpec, for Blocked checks
	used       map[grid.Cell]bool
	spans      []opSpan
	verified   bool
	migrations int
	errMsg     string
}

// opSpan is one operation's schedule residency, for locating the work
// in flight when a chip degrades mid-run.
type opSpan struct {
	node       int
	start, end int // time-steps, [start, end)
}

// JobStatus is the exported view of a job (GET /fleet/jobs/{id}).
type JobStatus struct {
	ID           string   `json:"id"`
	Name         string   `json:"name"`
	Target       string   `json:"target,omitempty"` // constraint; "" = any
	State        JobState `json:"state"`
	Chip         string   `json:"chip,omitempty"`
	Makespan     int      `json:"makespan_steps,omitempty"`
	PlacedAtStep int64    `json:"placed_at_step,omitempty"`
	Faults       string   `json:"chip_faults,omitempty"`
	Verified     bool     `json:"verified,omitempty"`
	Migrations   int      `json:"migrations"`
	Error        string   `json:"error,omitempty"`
}

func (j *Job) status() JobStatus {
	return JobStatus{
		ID: j.id, Name: j.name, Target: j.target, State: j.state,
		Chip: j.chipID, Makespan: j.makespan, PlacedAtStep: j.placedAt,
		Faults: j.faultSpec, Verified: j.verified,
		Migrations: j.migrations, Error: j.errMsg,
	}
}

// Submit registers a job for placement. Target constrains the chip
// architecture to one registered target name ("" accepts any). The
// assay is canonicalized up front so every placement compile is
// deterministic. Submission only records desired state; the reconciler
// (kicked here, and run by the owner's loop) performs the placement.
func (f *Fleet) Submit(a *dag.Assay, target string) (JobStatus, error) {
	if target != "" {
		if _, ok := core.LookupTargetName(target); !ok {
			return JobStatus{}, fmt.Errorf("fleet: unknown target constraint %q (want one of %s, or empty)",
				target, strings.Join(core.TargetNames(), ", "))
		}
	}
	canon, err := a.Canonical()
	if err != nil {
		return JobStatus{}, err
	}
	f.mu.Lock()
	f.jobSeq++
	j := &Job{
		id:       fmt.Sprintf("j%04d", f.jobSeq),
		name:     a.Name,
		target:   target,
		state:    JobPending,
		assay:    canon,
		original: a.Name,
		cert:     canon.StructuralHash(),
	}
	f.jobs[j.id] = j
	f.jobOrder = append(f.jobOrder, j)
	f.gPending.Set(float64(f.countLocked(JobPending)))
	f.appendEventLocked(Event{Kind: EventSubmitted, Job: j.id, Detail: a.Name})
	st := j.status()
	f.mu.Unlock()
	f.Kick()
	return st, nil
}

// Kick nudges the reconcile loop without blocking.
func (f *Fleet) Kick() {
	select {
	case f.kick <- struct{}{}:
	default:
	}
}

// Run drives the reconciler until the context ends: one pass per
// interval, plus one whenever a submission or degradation kicks it.
func (f *Fleet) Run(ctx context.Context, interval time.Duration) {
	if interval <= 0 {
		interval = 500 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		case <-f.kick:
		}
		f.Reconcile(ctx)
	}
}

// Clock returns the virtual time in schedule steps.
func (f *Fleet) Clock() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.clock
}

// Tick advances virtual time and completes the jobs whose makespan has
// elapsed. Completion frees the chip slot immediately; wear was already
// accounted at placement (the program's full actuation cost is known
// from its telemetry).
func (f *Fleet) Tick(steps int64) {
	if steps <= 0 {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.clock += steps
	// Collect first: completing a job can retire an older one out of
	// jobOrder.
	var done []*Job
	for _, j := range f.jobOrder {
		if j.state == JobPlaced && f.clock-j.placedAt >= int64(j.makespan) {
			done = append(done, j)
		}
	}
	for _, j := range done {
		f.completeLocked(j)
	}
}

// completeLocked marks a placed job done and releases its chip.
func (f *Fleet) completeLocked(j *Job) {
	if c := f.chips[j.chipID]; c != nil {
		delete(c.jobs, j.id)
		c.gJobs.Set(float64(len(c.jobs)))
	}
	j.state = JobCompleted
	f.cCompleted.Inc()
	f.nCompleted++
	f.gRunning.Set(float64(f.countLocked(JobPlaced)))
	f.appendEventLocked(Event{Kind: EventCompleted, Job: j.id, Chip: j.chipID})
	f.retireLocked(j)
}

// maxRetiredJobs bounds the completed and failed jobs the fleet keeps
// for status queries. Past it the job that ended longest ago is
// forgotten, and looking it up reports an unknown job.
const maxRetiredJobs = 1024

// retireLocked records that j reached a terminal state, forgetting the
// oldest terminal job once more than maxRetiredJobs are kept.
func (f *Fleet) retireLocked(j *Job) {
	f.retired = append(f.retired, j)
	if len(f.retired) <= maxRetiredJobs {
		return
	}
	old := f.retired[0]
	f.retired = slices.Delete(f.retired, 0, 1)
	delete(f.jobs, old.id)
	i := slices.Index(f.jobOrder, old)
	f.jobOrder = slices.Delete(f.jobOrder, i, i+1)
}

// AdvanceWear injects seeded synthetic wear into one chip — `cycles`
// further actuation cycles on `cells` of its most-worn electrodes —
// then rederives the effective fault set. If the set grew, the chip is
// marked degraded, the event log records it, and the reconciler is
// kicked so invalidated placements migrate. Returns the chip's new
// effective fault spec.
func (f *Fleet) AdvanceWear(chipID string, seed, cycles int64, cells int) (string, error) {
	f.mu.Lock()
	c := f.chips[chipID]
	if c == nil {
		f.mu.Unlock()
		return "", fmt.Errorf("fleet: unknown chip %q", chipID)
	}
	c.wear.AdvanceSeeded(c.ref, seed, cycles, cells)
	changed := c.refreshEffective()
	spec := c.effSpec
	if changed {
		f.appendEventLocked(Event{Kind: EventDegraded, Chip: chipID, Detail: spec})
	}
	f.mu.Unlock()
	if changed {
		f.Kick()
	}
	return spec, nil
}

// Job returns one job's status.
func (f *Fleet) Job(id string) (JobStatus, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	j, ok := f.jobs[id]
	if !ok {
		return JobStatus{}, false
	}
	return j.status(), true
}

// Jobs returns every job's status in submission order.
func (f *Fleet) Jobs() []JobStatus {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]JobStatus, 0, len(f.jobOrder))
	for _, j := range f.jobOrder {
		out = append(out, j.status())
	}
	return out
}

// Chips returns every chip's status in id order.
func (f *Fleet) Chips() []ChipStatus {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]ChipStatus, 0, len(f.order))
	for _, id := range f.order {
		out = append(out, f.chips[id].status())
	}
	return out
}

// Counts reports the cumulative transition totals (placements include
// re-placements after migration; migrated counts migrations).
func (f *Fleet) Counts() (placed, migrated, failed, completed int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.nPlaced, f.nMigrated, f.nFailed, f.nCompleted
}

func (f *Fleet) countLocked(st JobState) int {
	n := 0
	for _, j := range f.jobs {
		if j.state == st {
			n++
		}
	}
	return n
}

func sortStrings(s []string) { sort.Strings(s) }
