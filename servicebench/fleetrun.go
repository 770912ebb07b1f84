package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"fppc/internal/fleet"
	"fppc/internal/obs"
)

// fleetRun tallies fleet rounds.
type fleetRun struct {
	jobs int
	// jobRates holds each round's jobs per second, from its first
	// submission to its last terminal job.
	jobRates []float64
	// Reconcile outcomes; applications counts every placement,
	// migration, completion, failure or stale skip a pass decided.
	placements, migrations, stale, applications int
}

func (fr *fleetRun) tally(st fleet.Stats) {
	fr.placements += st.Placed
	fr.migrations += st.Migrated
	fr.stale += st.Stale
	fr.applications += st.Placed + st.Migrated + st.Completed + st.Failed + st.Stale
}

// maxPlacePasses bounds the reconcile passes that place a round's jobs;
// a pass places every pending job it can, so one normally suffices.
const maxPlacePasses = 8

// round runs one fleet scenario on fl, as fleet.RunScenario does but
// with the jobs arriving over HTTP: the closed-loop callers submit every
// job to POST /fleet/jobs, the benchmark reconciles until every job is
// placed, advances the virtual clock to the middle of the busiest chip's
// shortest run and wears that chip out, then reconciles and ticks until
// every job is terminal. A job that ends anything but completed — lost
// or still pending — is a failed operation.
func (fr *fleetRun) round(ctx context.Context, e *env, o runOpts, fl *fleet.Fleet, jobs []request, round int,
	t0 time.Time, lr *loopResult, t *tracer, rp *replayer, shadow *fleet.Fleet) error {
	clients := o.clients
	if t != nil {
		clients = 1
	}
	base := round * fleetJobsRound
	ids := make([]string, len(jobs))
	first := time.Now()
	_, err := closedLoop(ctx, clients, len(jobs), t0, math.MaxInt64, lr, func(ctx context.Context, i int, t0 time.Time, lr *loopResult) error {
		r := &jobs[i]
		t.begin(base + i)
		status, body, err := e.timedPost(ctx, base+i, r, t0, t, lr)
		if err != nil {
			return nil
		}
		st, err := checkSubmit(r, status, body)
		if err != nil {
			lr.fail(err)
			return nil
		}
		ids[i] = st.ID
		if t != nil {
			return rp.submit(shadow, r, body)
		}
		return nil
	})
	if err != nil {
		return err
	}

	t.begin(-1)
	reconcile := func(span string) {
		var st fleet.Stats
		t.span(span, func() { st = fl.Reconcile(ctx) })
		fr.tally(st)
	}
	for pass := 0; pass < maxPlacePasses && countState(fl, fleet.JobPending) > 0; pass++ {
		reconcile("fleet.reconcile")
	}
	if victim, rated, mk := busiestChip(fl); victim != "" {
		if mk > 1 {
			fl.Tick(int64(mk / 2))
		}
		if _, err := fl.AdvanceWear(victim, o.seed*1_000_003+int64(round), rated, 2); err != nil {
			return err
		}
	}
	for iter := 0; iter < 4*len(jobs)+16; iter++ {
		reconcile("fleet.migrate")
		remaining, live := remainingSteps(fl)
		if !live {
			break
		}
		fl.Tick(max(remaining, 1))
	}
	fr.jobRates = append(fr.jobRates, float64(len(jobs))/time.Since(first).Seconds())
	fr.jobs += len(jobs)

	for i, id := range ids {
		if id == "" {
			continue // the submission itself failed and was counted
		}
		st, ok := fl.Job(id)
		if !ok || st.State != fleet.JobCompleted {
			lr.fail(fmt.Errorf("fleet job %s (%s) ended %q: %s", id, jobs[i].Shape, st.State, st.Error))
		}
	}
	return nil
}

// countState counts the fleet's jobs in one state.
func countState(fl *fleet.Fleet, state fleet.JobState) int {
	n := 0
	for _, j := range fl.Jobs() {
		if j.State == state {
			n++
		}
	}
	return n
}

// busiestChip picks the chip carrying the most placed jobs (ties go to
// the lower id) and returns its id, rated life, and the shortest makespan
// among its jobs.
func busiestChip(fl *fleet.Fleet) (id string, rated int64, shortest int) {
	best := -1
	for _, c := range fl.Chips() {
		if n := len(c.Jobs); n > best {
			best, id, rated = n, c.ID, c.RatedLife
		}
	}
	for _, j := range fl.Jobs() {
		if j.State == fleet.JobPlaced && j.Chip == id && (shortest == 0 || j.Makespan < shortest) {
			shortest = j.Makespan
		}
	}
	return id, rated, shortest
}

// remainingSteps reports how far the virtual clock must advance for
// every placed job to finish, and whether any job is still live.
func remainingSteps(fl *fleet.Fleet) (int64, bool) {
	var remaining int64
	live := false
	clock := fl.Clock()
	for _, j := range fl.Jobs() {
		switch j.State {
		case fleet.JobPending:
			live = true
		case fleet.JobPlaced:
			live = true
			if end := j.PlacedAtStep + int64(j.Makespan) - clock; end > remaining {
				remaining = end
			}
		}
	}
	return remaining, live
}

// runFleet runs fleet rounds until the window closes, each on a fresh
// 5-chip fleet and server sharing the run's observer, so every round
// starts from pristine chips and no round's wear leaks into the next.
// Each rate and the CPU per job are medians over the rounds.
func (e *env) runFleet(ctx context.Context, o runOpts, t0 time.Time, t *tracer, rp *replayer, m *measured) error {
	var shadow *fleet.Fleet
	if t != nil {
		var err error
		if shadow, err = newFleet(obs.NewMetricsOnly()); err != nil {
			return err
		}
	}
	var rounds []blockTime // each job is one POST /fleet/jobs
	for round := 0; time.Since(t0) < o.window; round++ {
		lo, hi := round*fleetJobsRound, (round+1)*fleetJobsRound
		if hi > len(e.in.stream) {
			m.lr.exhausted = true
			break
		}
		start, cpu := time.Now(), processCPU()
		fl, err := newFleet(e.ob)
		if err != nil {
			return err
		}
		if e.srv, err = newServer(e.ob, fl); err != nil {
			return err
		}
		e.hn.setHandler(handlerFor(e.srv, t))
		if err := m.fleet.round(ctx, e, o, fl, e.in.stream[lo:hi], round, t0, m.lr, t, rp, shadow); err != nil {
			return err
		}
		rounds = append(rounds, blockTime{hi - lo, time.Since(start), processCPU() - cpu})
	}
	m.elapsed = time.Since(t0)
	m.ops = m.fleet.jobs
	if len(rounds) > 0 {
		m.rate, m.cpuPerOp = blockMedians(rounds)
		m.jobRate = percentile(m.fleet.jobRates, 0.5)
	}
	return nil
}
