package fleet

import (
	"context"
	"fmt"
	"math"
	"sort"

	"fppc/internal/core"
	"fppc/internal/dag"
	"fppc/internal/recovery"
)

// Stats summarizes one reconciliation pass.
type Stats struct {
	// Placed counts fresh placements of pending jobs.
	Placed int
	// Migrated counts jobs moved off a degraded chip (or resynthesized
	// in place when it was the only feasible chip left).
	Migrated int
	// Completed counts jobs retired because no work remained to migrate.
	Completed int
	// Failed counts jobs with no feasible chip anywhere.
	Failed int
	// Stale counts applications skipped because the fleet state moved
	// under the pass (the chip degraded between scoring and binding); a
	// kicked follow-up pass retries them.
	Stale int
}

// workItem is a pending job captured under the lock.
type workItem struct {
	id     string
	assay  *dag.Assay
	cert   string
	target string
}

// migrationItem is an invalidated placement captured under the lock.
type migrationItem struct {
	id       string
	assay    *dag.Assay
	target   string
	from     string
	spans    []opSpan
	progress int64
}

// Reconcile runs one control-loop pass: it diffs desired state (every
// job running somewhere feasible) against actual state (chip fault
// sets, wear, current placements) and acts on the delta — migrating
// invalidated placements first, then placing pending jobs. Compiles run
// outside the state lock; every application re-validates that the world
// it scored still exists and defers to the next pass otherwise.
func (f *Fleet) Reconcile(ctx context.Context) Stats {
	f.reconMu.Lock()
	defer f.reconMu.Unlock()
	var st Stats

	f.mu.Lock()
	var pending []workItem
	var invalid []migrationItem
	for _, j := range f.jobOrder {
		switch j.state {
		case JobPending:
			pending = append(pending, workItem{id: j.id, assay: j.assay, cert: j.cert, target: j.target})
		case JobPlaced:
			c := f.chips[j.chipID]
			if c == nil || c.effSpec == j.faultSpec || !f.placementInvalidLocked(j, c) {
				continue
			}
			invalid = append(invalid, migrationItem{
				id: j.id, assay: j.assay, target: j.target,
				from: j.chipID, spans: j.spans, progress: f.clock - j.placedAt,
			})
		}
	}
	f.mu.Unlock()

	for _, m := range invalid {
		if err := f.migrate(ctx, m, &st); err != nil {
			return st // context aborted; leave the rest for the next pass
		}
	}
	for _, w := range pending {
		if err := f.placePending(ctx, w, &st); err != nil {
			return st
		}
	}
	if st.Stale > 0 {
		f.Kick()
	}
	return st
}

// placementInvalidLocked reports whether the chip's current fault set
// breaks the job's compiled program: some electrode the program
// actuates is now unusable but was usable when the program compiled.
// Placements on targets without the pin-program capability (no
// electrode-level telemetry, so no actuation map) are conservatively
// invalidated by any fault-set change, as is a pin-program placement
// whose telemetry replay yielded no map.
func (f *Fleet) placementInvalidLocked(j *Job, c *chip) bool {
	if spec, ok := core.LookupTargetName(c.spec.Target); !ok || !spec.Capabilities.PinProgram {
		return true
	}
	if len(j.used) == 0 {
		return true
	}
	for cell := range j.used {
		if c.effective.Blocked(c.ref, cell) && (j.faultSet == nil || !j.faultSet.Blocked(c.ref, cell)) {
			return true
		}
	}
	return false
}

// placePending scores and binds one pending job. A job with no feasible
// chip fails permanently: wear only accumulates, so waiting cannot make
// an infeasible fleet feasible again.
func (f *Fleet) placePending(ctx context.Context, w workItem, st *Stats) error {
	f.mu.Lock()
	views := f.viewsLocked()
	f.mu.Unlock()
	cand, reasons, err := f.evaluate(ctx, w.assay, w.cert, w.target, views, "")
	if err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	j := f.jobs[w.id]
	if j == nil || j.state != JobPending {
		return nil
	}
	if cand == nil {
		f.failLocked(j, "no feasible chip: "+joinReasons(reasons))
		st.Failed++
		return nil
	}
	dest := f.chips[cand.view.id]
	if dest.effSpec != cand.view.effSpec {
		st.Stale++
		return nil
	}
	f.bindLocked(j, dest, cand)
	f.cPlaced.Inc()
	f.nPlaced++
	f.appendEventLocked(Event{
		Kind: EventPlaced, Job: j.id, Chip: dest.spec.ID,
		Detail: cand.sc.String(),
	})
	st.Placed++
	return nil
}

// migrate moves one invalidated job: the work in flight (plus its
// downstream/ancestor closure) is re-planned with recovery.Plan, the
// recovery assay is compiled fault-aware and oracle-verified on the
// next-best chip, and only then is the placement switched. The source
// chip is excluded while any other chip is feasible; when it is the
// last one standing, the job resynthesizes in place.
func (f *Fleet) migrate(ctx context.Context, m migrationItem, st *Stats) error {
	failed := failedOps(m.spans, m.progress)
	if failed == nil {
		// All operations already ran to completion — nothing to recover.
		f.mu.Lock()
		if j := f.jobs[m.id]; j != nil && j.state == JobPlaced && j.chipID == m.from {
			f.completeLocked(j)
			st.Completed++
		}
		f.mu.Unlock()
		return nil
	}
	plan, err := recovery.Plan(m.assay, failed)
	if err != nil {
		f.failMigration(m, st, fmt.Sprintf("recovery plan: %v", err))
		return nil
	}
	planCanon, err := plan.Assay.Canonical()
	if err != nil {
		f.failMigration(m, st, fmt.Sprintf("recovery canonicalize: %v", err))
		return nil
	}
	planCert := planCanon.StructuralHash()

	f.mu.Lock()
	views := f.viewsLocked()
	f.mu.Unlock()
	cand, reasons, err := f.evaluate(ctx, planCanon, planCert, m.target, views, m.from)
	if err != nil {
		return err
	}
	if cand == nil {
		// Last resort: resynthesize on the degraded source chip itself.
		var inPlace, rest []string
		cand, inPlace, err = f.evaluate(ctx, planCanon, planCert, m.target, filterViews(views, m.from), "")
		if err != nil {
			return err
		}
		rest = append(reasons, inPlace...)
		if cand == nil {
			f.failMigration(m, st, "no feasible chip: "+joinReasons(rest))
			return nil
		}
	}

	f.mu.Lock()
	defer f.mu.Unlock()
	j := f.jobs[m.id]
	if j == nil || j.state != JobPlaced || j.chipID != m.from {
		st.Stale++
		return nil
	}
	dest := f.chips[cand.view.id]
	if dest.effSpec != cand.view.effSpec {
		st.Stale++
		return nil
	}
	if src := f.chips[m.from]; src != nil {
		delete(src.jobs, j.id)
		src.gJobs.Set(float64(len(src.jobs)))
	}
	j.assay = planCanon
	j.cert = planCert
	j.migrations++
	f.bindLocked(j, dest, cand)
	f.cMigrated.Inc()
	f.nMigrated++
	f.appendEventLocked(Event{
		Kind: EventMigrated, Job: j.id, From: m.from, To: dest.spec.ID,
		Detail: fmt.Sprintf("recovery plan re-executes %d ops (in flight at step %d: %v); oracle verified (%s) on %s; %s",
			len(plan.Mapping), m.progress, failed, cand.comp.mode, dest.spec.ID, cand.sc),
	})
	st.Migrated++
	return nil
}

// failMigration marks an invalidated job lost (revalidating that it is
// still the placement we inspected).
func (f *Fleet) failMigration(m migrationItem, st *Stats, detail string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	j := f.jobs[m.id]
	if j == nil || j.state != JobPlaced || j.chipID != m.from {
		st.Stale++
		return
	}
	f.failLocked(j, detail)
	st.Failed++
}

// failLocked retires a job as lost; the caller holds mu.
func (f *Fleet) failLocked(j *Job, detail string) {
	if c := f.chips[j.chipID]; c != nil {
		delete(c.jobs, j.id)
		c.gJobs.Set(float64(len(c.jobs)))
	}
	j.state = JobFailed
	j.errMsg = detail
	f.cFailed.Inc()
	f.nFailed++
	f.gPending.Set(float64(f.countLocked(JobPending)))
	f.gRunning.Set(float64(f.countLocked(JobPlaced)))
	f.appendEventLocked(Event{Kind: EventFailed, Job: j.id, Chip: j.chipID, Detail: detail})
	f.retireLocked(j)
}

// bindLocked attaches a compiled placement to the job and charges the
// program's wear to the destination chip; the caller holds mu. Wear is
// charged up front — the program's full actuation cost is known from
// its telemetry — so the chip's effective fault set may grow here,
// which the next pass observes like any other degradation.
func (f *Fleet) bindLocked(j *Job, dest *chip, cand *candidate) {
	j.state = JobPlaced
	j.chipID = dest.spec.ID
	j.makespan = cand.comp.makespan
	j.placedAt = f.clock
	j.faultSpec = cand.view.effSpec
	j.faultSet = cand.view.effective
	j.used = cand.comp.used
	j.spans = cand.comp.spans
	j.verified = cand.comp.verified
	j.errMsg = ""
	dest.jobs[j.id] = true
	dest.gJobs.Set(float64(len(dest.jobs)))
	dest.wear.Absorb(cand.comp.snap)
	if dest.refreshEffective() {
		f.appendEventLocked(Event{Kind: EventDegraded, Chip: dest.spec.ID, Detail: dest.effSpec})
	}
	f.gPending.Set(float64(f.countLocked(JobPending)))
	f.gRunning.Set(float64(f.countLocked(JobPlaced)))
}

// failedOps locates the work to recover at the given progress: the
// operations resident in a module at that step (their droplets are in
// flight and contaminated by the failure), or the next operation to
// start when the failure hits between residencies. Nil means every
// operation already finished.
func failedOps(spans []opSpan, progress int64) []int {
	seen := make(map[int]bool)
	var active []int
	for _, s := range spans {
		if int64(s.start) <= progress && progress < int64(s.end) && !seen[s.node] {
			seen[s.node] = true
			active = append(active, s.node)
		}
	}
	if len(active) > 0 {
		sort.Ints(active)
		return active
	}
	next := -1
	var nextStart int64 = math.MaxInt64
	for _, s := range spans {
		if int64(s.start) >= progress && int64(s.start) < nextStart {
			next, nextStart = s.node, int64(s.start)
		}
	}
	if next >= 0 {
		return []int{next}
	}
	return nil
}

// filterViews keeps only the named chip.
func filterViews(views []chipView, id string) []chipView {
	for _, v := range views {
		if v.id == id {
			return []chipView{v}
		}
	}
	return nil
}

func joinReasons(rs []string) string {
	if len(rs) == 0 {
		return "no compatible chips"
	}
	out := rs[0]
	for _, r := range rs[1:] {
		out += "; " + r
	}
	return out
}
