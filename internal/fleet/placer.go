package fleet

import (
	"context"
	"fmt"
	"sort"

	"fppc/internal/core"
	"fppc/internal/dag"
	"fppc/internal/faults"
	"fppc/internal/oracle"
)

// compiled is one fleet compile outcome: an assay synthesized for a
// specific chip spec under a specific fault set, with everything the
// control plane needs to score and place it — the commanded wear (its
// electrodes are the cells the program actuates, for degradation-impact
// checks), the operation schedule spans (locating work in flight) and
// the makespan — and, once verified, the oracle's verdict on the
// destination chip.
//
// Compiling does not verify. res and opts keep what the oracle needs
// until the first verify call; it records the verdict and releases
// them. Every evaluate runs under reconMu, which guards the verdict
// fields and res.
type compiled struct {
	err      error // terminal compile error (unsynthesizable etc.)
	wear     faults.ProgramWear
	spans    []opSpan
	makespan int
	mode     string // oracle mode: "frames" (pin program) or "schedule"

	res       *core.Result // nil once verified
	opts      oracle.Options
	verified  bool
	verifyErr error
}

// compileCacheEntries bounds the fleet's compile cache. Every wear step
// mints new fault-spec keys, so the cache must evict; one round of the
// 5-chip benchmark scenario peaks at 108 entries.
const compileCacheEntries = 256

// compileKey names a compile by the certificate of the canonical assay,
// the chip spec and the chip's effective fault spec.
func compileKey(cert string, spec ChipSpec, faultSpec string) string {
	return fmt.Sprintf("%s|%s|h%d|%dx%d|%s", cert, spec.Target, spec.Height, spec.W, spec.H, faultSpec)
}

// compileFor synthesizes the assay for the chip, or returns the cached
// outcome. Compilation is deterministic over canonical assays, so an
// entry never goes stale; a cancelled compile is not cached, so a
// timeout does not poison the key. The fault set must be the one
// faultSpec renders.
func (f *Fleet) compileFor(ctx context.Context, assay *dag.Assay, cert string, spec ChipSpec, set *faults.Set, faultSpec string) *compiled {
	key := compileKey(cert, spec, faultSpec)
	if e, ok := f.compiles.Get(key); ok {
		return e
	}
	cctx, cancel := context.WithTimeout(ctx, f.compileTimeout)
	defer cancel()
	e := f.runCompile(cctx, assay, spec, set)
	if !core.IsCanceled(e.err) {
		f.compiles.Put(key, e)
	}
	return e
}

// runCompile executes the fault-aware compile and records what scoring
// and placement read: the makespan, the module spans in
// Schedule.ModuleOps order, and the wear the program commands on the
// compiled chip. Only pin-program targets emit a program; placements on
// timing-only baselines (DA) carry schedule spans but no wear
// contribution or used cells.
func (f *Fleet) runCompile(ctx context.Context, assay *dag.Assay, spec ChipSpec, set *faults.Set) *compiled {
	e := &compiled{}
	cfg := coreConfig(spec, set)
	if tspec, ok := core.LookupTargetName(spec.Target); ok && tspec.Capabilities.PinProgram {
		cfg.Router.EmitProgram = true
	}
	f.cCompiles.Inc()
	res, err := core.CompileContext(ctx, assay, cfg)
	if err != nil {
		e.err = err
		return e
	}
	prog := res.Routing.Program
	e.makespan = res.Schedule.Makespan
	for _, op := range res.Schedule.ModuleOps() {
		e.spans = append(e.spans, opSpan{node: op.NodeID, start: op.Start, end: op.End})
	}
	e.wear = faults.CommandedWear(res.Chip, prog)
	e.mode = "schedule"
	if prog != nil {
		e.mode = "frames"
	}
	e.res = res
	if set.Len() > 0 {
		e.opts = oracle.Options{Faults: set, KnownFaults: true}
	}
	return e
}

// verify reports whether the compiled program passes the independent
// oracle on its chip, with the chip's known faults injected into the
// oracle's replay and the simulator cross-check. The first call runs
// the oracle and records the verdict; later calls return it. The
// caller holds reconMu.
func (f *Fleet) verify(e *compiled) bool {
	if e.res == nil {
		return e.verified
	}
	_, e.verifyErr = oracle.VerifyCompiled(e.res, e.opts)
	e.verified = e.verifyErr == nil
	e.res, e.opts = nil, oracle.Options{}
	if e.verified {
		f.cVerifyOK.Inc()
	} else {
		f.cVerifyFail.Inc()
	}
	return e.verified
}

// failure renders why the chip was rejected.
func (e *compiled) failure() string {
	switch {
	case e.err != nil:
		return e.err.Error()
	case e.verifyErr != nil:
		return "oracle: " + e.verifyErr.Error()
	default:
		return ""
	}
}

// chipView is a consistent read of one chip taken under the fleet lock,
// used for scoring outside it.
type chipView struct {
	id        string
	spec      ChipSpec
	effective *faults.Set
	effSpec   string
	wear      *faults.WearState // copy taken under the lock, read outside it
	ratedLife int64
	jobs      int
}

// viewsLocked snapshots every chip; the caller holds mu.
func (f *Fleet) viewsLocked() []chipView {
	out := make([]chipView, 0, len(f.order))
	for _, id := range f.order {
		c := f.chips[id]
		out = append(out, chipView{
			id:        id,
			spec:      c.spec,
			effective: c.effective,
			effSpec:   c.effSpec,
			wear:      c.wear.Clone(),
			ratedLife: c.ratedLife,
			jobs:      len(c.jobs),
		})
	}
	return out
}

// score ranks a feasible placement; lower is better, compared
// lexicographically. Fault-fit leads (a chip with fewer effective
// faults constrains the synthesis less), predicted wear follows (the
// worst per-electrode life fraction the chip would reach after running
// this program), then current load, the program's makespan on that
// chip, and finally the chip id for a total deterministic order.
//
// Predicted wear compares in 5%-of-life buckets: one extra run's worth
// of wear must not defeat load balancing, but a chip visibly closer to
// the end of its life should lose placements to a fresher one. The
// exact fraction still breaks ties after load and makespan.
type score struct {
	faults   int
	predWear float64
	jobs     int
	makespan int
	chipID   string
}

// wearBucket coarsens a life fraction into 5% steps.
func wearBucket(w float64) int { return int(w * 20) }

func (a score) better(b score) bool {
	if a.faults != b.faults {
		return a.faults < b.faults
	}
	if wa, wb := wearBucket(a.predWear), wearBucket(b.predWear); wa != wb {
		return wa < wb
	}
	if a.jobs != b.jobs {
		return a.jobs < b.jobs
	}
	if a.makespan != b.makespan {
		return a.makespan < b.makespan
	}
	if a.predWear != b.predWear {
		return a.predWear < b.predWear
	}
	return a.chipID < b.chipID
}

func (a score) String() string {
	return fmt.Sprintf("faults=%d wear=%.4f jobs=%d makespan=%d", a.faults, a.predWear, a.jobs, a.makespan)
}

// candidate pairs a chip with the compile outcome and score of placing
// the assay there.
type candidate struct {
	view chipView
	comp *compiled
	sc   score
}

// evaluate compiles the assay for every compatible chip (skipping
// `exclude`), scores every candidate that compiled, and verifies them
// in score order until one passes: the best verified candidate, as if
// every one had been verified, at one oracle run when the best-scored
// one passes. It returns nil with the per-chip rejection reasons when
// none passes, and then every candidate was verified. A context abort
// surfaces as an error so the reconciler can stop the pass instead of
// failing the job.
func (f *Fleet) evaluate(ctx context.Context, assay *dag.Assay, cert, target string, views []chipView, exclude string) (*candidate, []string, error) {
	var cands []candidate
	var reasons []string
	for _, v := range views {
		if v.id == exclude {
			continue
		}
		if target != "" && target != v.spec.Target {
			continue
		}
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		comp := f.compileFor(ctx, assay, cert, v.spec, v.effective, v.effSpec)
		if comp.err != nil {
			if core.IsCanceled(comp.err) {
				return nil, nil, comp.err
			}
			reasons = append(reasons, fmt.Sprintf("%s: %s", v.id, comp.failure()))
			continue
		}
		// Predicted wear is the chip's worst life fraction once this
		// program has run.
		cands = append(cands, candidate{view: v, comp: comp, sc: score{
			faults:   v.effective.Len(),
			predWear: v.wear.MaxConsumedAfter(comp.wear, v.ratedLife),
			jobs:     v.jobs,
			makespan: comp.makespan,
			chipID:   v.id,
		}})
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].sc.better(cands[j].sc) })
	for i := range cands {
		if f.verify(cands[i].comp) {
			return &cands[i], nil, nil
		}
		reasons = append(reasons, fmt.Sprintf("%s: %s", cands[i].view.id, cands[i].comp.failure()))
	}
	sort.Strings(reasons)
	return nil, reasons, nil
}
