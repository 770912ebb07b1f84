package faults

import (
	"errors"
	"fmt"
	"math/rand"

	"fppc/internal/arch"
	"fppc/internal/assays"
	"fppc/internal/core"
	"fppc/internal/dag"
	"fppc/internal/oracle"
	"fppc/internal/scheduler"
	"fppc/internal/sim"
)

// Outcome classifies one chaos-harness run: an assay executed against
// one randomized fault set.
type Outcome int

// Chaos-run outcomes. Missed is the only bad one — the fault corrupted
// the assay and nothing in the flow noticed.
const (
	// Masked: the fault never intersected the assay's execution — the
	// degraded replay still completes every operation correctly.
	Masked Outcome = iota
	// Resynthesized: the verification layer detected the fault and the
	// fault-aware recompile produced a verified program on the degraded
	// chip.
	Resynthesized
	// Unsynthesizable: the fault was detected but the degraded chip
	// cannot host the assay at its fixed size (typed
	// *core.ErrUnsynthesizable from the recompile).
	Unsynthesizable
	// Missed: the fault corrupted the replay and no verification layer
	// flagged anything. A Missed run is a hole in the safety net; the
	// chaos test fails on any occurrence.
	Missed
)

func (o Outcome) String() string {
	switch o {
	case Masked:
		return "masked"
	case Resynthesized:
		return "resynthesized"
	case Unsynthesizable:
		return "unsynthesizable"
	case Missed:
		return "missed"
	}
	return fmt.Sprintf("Outcome(%d)", int(o))
}

// RunReport is the record of one classified chaos run.
type RunReport struct {
	Assay   string
	Target  core.Target
	Faults  string // canonical fault spec (Set.String)
	Outcome Outcome
	Detail  string // human-readable evidence for the classification
}

// CampaignResult aggregates a chaos campaign.
type CampaignResult struct {
	Runs []RunReport

	Masked          int
	Resynthesized   int
	Unsynthesizable int
	Missed          int
}

func (r *CampaignResult) count(o Outcome) {
	switch o {
	case Masked:
		r.Masked++
	case Resynthesized:
		r.Resynthesized++
	case Unsynthesizable:
		r.Unsynthesizable++
	case Missed:
		r.Missed++
	}
}

// Summary renders the campaign totals on one line.
func (r *CampaignResult) Summary() string {
	return fmt.Sprintf("%d runs: %d masked, %d resynthesized, %d unsynthesizable, %d missed",
		len(r.Runs), r.Masked, r.Resynthesized, r.Unsynthesizable, r.Missed)
}

// CampaignConfig parameterizes a chaos campaign.
type CampaignConfig struct {
	Target core.Target
	// Runs is the number of random fault sets per benchmark (default 3).
	Runs int
	// MaxFaults bounds the faults per set: each run draws 1..MaxFaults
	// (default 3).
	MaxFaults int
	// AllowDead includes dead-pin-driver faults in the random draw.
	AllowDead bool
	// Seed makes the campaign reproducible.
	Seed int64
}

// Campaign sweeps randomized fault sets over the benchmark assays,
// classifying every run. Each benchmark is compiled pristine once
// (auto-grown, as the paper sizes its chips) and the same compiled
// artifact is attacked by every fault set drawn for it. The error
// reports harness failures — a fault set the flow should have handled
// but errored on in an untyped way — not Missed runs, which are
// returned in the result for the caller to assert on.
func Campaign(benchmarks []*dag.Assay, cfg CampaignConfig) (*CampaignResult, error) {
	if cfg.Runs <= 0 {
		cfg.Runs = 3
	}
	if cfg.MaxFaults <= 0 {
		cfg.MaxFaults = 3
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	out := &CampaignResult{}
	for _, a := range benchmarks {
		pristine, err := core.Compile(a.Clone(), oracle.VerifyConfig(cfg.Target))
		if err != nil {
			return out, fmt.Errorf("faults: pristine compile of %s: %w", a.Name, err)
		}
		for run := 0; run < cfg.Runs; run++ {
			n := 1 + rng.Intn(cfg.MaxFaults)
			set, err := RandomSet(rng, pristine.Chip, n, cfg.AllowDead)
			if err != nil {
				return out, err
			}
			rep, err := classify(a, cfg.Target, set, pristine)
			if err != nil {
				return out, fmt.Errorf("faults: %s with faults %q: %w", a.Name, set, err)
			}
			out.Runs = append(out.Runs, rep)
			out.count(rep.Outcome)
		}
	}
	return out, nil
}

// Classify runs the full chaos check for one assay and one fault set:
// compile pristine, inject, detect, and — when detected — attempt the
// fault-aware resynthesis. The returned error reports harness failures,
// never a Missed outcome.
func Classify(a *dag.Assay, target core.Target, set *Set) (RunReport, error) {
	pristine, err := core.Compile(a.Clone(), oracle.VerifyConfig(target))
	if err != nil {
		return RunReport{}, fmt.Errorf("faults: pristine compile of %s: %w", a.Name, err)
	}
	return classify(a, target, set, pristine)
}

// classify dispatches on the target's capability flags given an
// already-compiled pristine result (Campaign reuses one pristine compile
// across many fault sets): targets with a pin program replay it against
// the degraded hardware; the rest are screened statically at schedule
// level.
func classify(a *dag.Assay, target core.Target, set *Set, pristine *core.Result) (RunReport, error) {
	rep := RunReport{Assay: a.Name, Target: target, Faults: set.String()}
	if spec, ok := core.LookupTarget(target); ok && spec.Capabilities.PinProgram {
		return classifyDynamic(a, set, pristine, rep)
	}
	return classifyStatic(a, set, pristine, rep)
}

// classifyDynamic plays the pristine pin program on the faulted hardware.
// Detection is dynamic: the strict oracle (faults injected but NOT
// disclosed as known) must flag a refused actuation, a stuck-closed
// energization, or a downstream physics/assay violation.
func classifyDynamic(a *dag.Assay, set *Set, pristine *core.Result, rep RunReport) (RunReport, error) {
	orep := oracle.Verify(pristine.Chip, pristine.Routing.Program, pristine.Routing.Events,
		oracle.Options{Faults: set})
	orep.CheckAssay(a)
	detected := !orep.Ok()

	// Independent harm assessment: replay through the simulator with the
	// same injection and ask whether the assay still completed intact.
	trace, simErr := sim.RunInjected(pristine.Chip, pristine.Routing.Program, pristine.Routing.Events, nil, nil, set)
	harmless := simErr == nil && traceMatches(a, trace)

	if !detected {
		if harmless {
			rep.Outcome = Masked
			rep.Detail = "fault never intersected the program; degraded replay completed the assay"
			return rep, nil
		}
		rep.Outcome = Missed
		if simErr != nil {
			rep.Detail = fmt.Sprintf("sim failed (%v) but the oracle flagged nothing", simErr)
		} else {
			rep.Detail = "degraded replay corrupted the assay but the oracle flagged nothing"
		}
		return rep, nil
	}
	return resynthesize(a, set, pristine, rep, fmt.Sprintf("oracle flagged %d violations", len(orep.Violations)))
}

// classifyStatic classifies targets without dynamic fault detection
// (the timing-only DA baseline). There is no pin program to replay, so
// detection is static: the fault set is checked against the pristine
// schedule's bindings. Any fault touching a bound module, a reservoir
// port, or an open street cell (which routes may cross) forces
// resynthesis; Missed is structurally impossible because detection
// examines the full declared fault set.
func classifyStatic(a *dag.Assay, set *Set, pristine *core.Result, rep RunReport) (RunReport, error) {
	spec, ok := core.LookupTarget(rep.Target)
	if !ok {
		return rep, fmt.Errorf("faults: unregistered target %v", rep.Target)
	}
	probe, err := spec.NewChip(core.Dims{W: pristine.Chip.W, H: pristine.Chip.H})
	if err != nil {
		return rep, err
	}
	if err := set.Restrict(probe); err != nil {
		return rep, fmt.Errorf("faults: restricting probe chip: %w", err)
	}
	if !set.daAffected(probe, pristine) {
		rep.Outcome = Masked
		rep.Detail = "faults confined to work modules the schedule never binds"
		return rep, nil
	}
	return resynthesize(a, set, pristine, rep, "fault set intersects the schedule's resources")
}

// daAffected reports whether the fault set can touch the pristine
// DA execution: a disabled module the schedule binds operations, moves
// or storage to; a blocked reservoir port cell; or any unusable cell
// outside a work module (street cells are fair game for every route, so
// a fault there always forces re-routing).
func (s *Set) daAffected(probe *arch.Chip, pristine *core.Result) bool {
	disabled := func(l scheduler.Location) bool {
		return l.Kind == scheduler.LocWork && probe.WorkMods[l.Index].Disabled
	}
	for _, op := range pristine.Schedule.Ops {
		if disabled(op.Loc) {
			return true
		}
	}
	for _, m := range pristine.Schedule.Moves {
		if disabled(m.From) || disabled(m.To) {
			return true
		}
	}
	for _, p := range pristine.Chip.Ports {
		if s.unusable(probe, p.Cell) {
			return true
		}
	}
	for _, e := range probe.Electrodes() {
		if e.Kind != arch.Work && s.unusable(probe, e.Cell) {
			return true
		}
	}
	return false
}

// resynthesize recompiles the assay on the degraded chip at the pristine
// chip's fixed size and verifies the result with the faults disclosed as
// known. The typed *core.ErrUnsynthesizable is a legitimate outcome;
// any other failure is a harness error.
func resynthesize(a *dag.Assay, set *Set, pristine *core.Result, rep RunReport, why string) (RunReport, error) {
	cfg := oracle.VerifyConfig(rep.Target)
	cfg.AutoGrow = false
	cfg.Faults = set
	if spec, ok := core.LookupTarget(rep.Target); ok {
		spec.ApplyDims(&cfg, core.Dims{W: pristine.Chip.W, H: pristine.Chip.H})
	}
	res, err := core.Compile(a.Clone(), cfg)
	if err != nil {
		var uns *core.ErrUnsynthesizable
		if errors.As(err, &uns) {
			rep.Outcome = Unsynthesizable
			rep.Detail = fmt.Sprintf("%s; degraded recompile: %v", why, err)
			return rep, nil
		}
		return rep, fmt.Errorf("degraded recompile failed untyped: %w", err)
	}
	if _, err := oracle.VerifyCompiled(res, oracle.Options{Faults: set, KnownFaults: true}); err != nil {
		return rep, fmt.Errorf("resynthesized program failed verification: %w", err)
	}
	rep.Outcome = Resynthesized
	rep.Detail = fmt.Sprintf("%s; recompiled and verified on the degraded chip", why)
	return rep, nil
}

// traceMatches reports whether the simulator trace completed the assay
// exactly: every operation happened, nothing extra, nothing left on the
// array. Mirrors the oracle's CheckAssay totals.
func traceMatches(a *dag.Assay, trace *sim.Trace) bool {
	st, err := a.ComputeStats()
	if err != nil {
		return false
	}
	return trace.Dispenses == st.ByKind[dag.Dispense] &&
		trace.Merges == st.ByKind[dag.Mix] &&
		trace.Splits == st.ByKind[dag.Split] &&
		trace.Outputs == st.ByKind[dag.Output] &&
		len(trace.Remaining) == 0
}

// FuzzCase is the fuzz-target body for FuzzFaultCampaign: generate a
// random well-formed assay, draw a random fault set on its pristine
// FPPC compilation, and classify. It errors on harness failures and on
// any Missed outcome — the chaos invariant is that no injected fault
// silently corrupts an assay.
func FuzzCase(seed int64, nodes, nFaults int) error {
	if nodes < 4 {
		nodes = 4
	}
	if nodes > 24 {
		nodes = 24
	}
	if nFaults < 1 {
		nFaults = 1
	}
	if nFaults > 3 {
		nFaults = 3
	}
	rng := rand.New(rand.NewSource(seed))
	a := assays.Random(rng, nodes, assays.DefaultTiming())
	a.Name = fmt.Sprintf("chaos-%d-%d-%d", seed, nodes, nFaults)
	if err := a.Validate(); err != nil {
		return fmt.Errorf("faults: seed %d: generated assay invalid: %w", seed, err)
	}
	pristine, err := core.Compile(a.Clone(), oracle.VerifyConfig(core.TargetFPPC))
	if err != nil {
		return fmt.Errorf("faults: seed %d: pristine compile: %w", seed, err)
	}
	set, err := RandomSet(rng, pristine.Chip, nFaults, true)
	if err != nil {
		return fmt.Errorf("faults: seed %d: %w", seed, err)
	}
	rep, err := classify(a, core.TargetFPPC, set, pristine)
	if err != nil {
		return fmt.Errorf("faults: seed %d, faults %q: %w", seed, set, err)
	}
	if rep.Outcome == Missed {
		return fmt.Errorf("faults: seed %d: MISSED fault %q on %s: %s", seed, set, a.Name, rep.Detail)
	}
	return nil
}
