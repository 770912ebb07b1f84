package fleet

import (
	"context"
	"math/rand"
	"reflect"
	"runtime"
	"strconv"
	"testing"
	"time"

	"fppc/internal/assays"
)

// TestConeTwinsCompileSeparately submits G1 and then G2, which share a
// fingerprint but not a canonical form: G2 must get its own compile, the
// one a fresh fleet makes for it, not G1's.
func TestConeTwinsCompileSeparately(t *testing.T) {
	g1, g2 := assays.ConeTwins(assays.DefaultTiming())
	ctx := context.Background()
	f := newTestFleet(t, ChipSpec{ID: "c0"})
	if _, err := f.Submit(g1, ""); err != nil {
		t.Fatal(err)
	}
	f.Reconcile(ctx)
	if _, err := f.Submit(g2, ""); err != nil {
		t.Fatal(err)
	}
	f.Reconcile(ctx)
	fresh := newTestFleet(t, ChipSpec{ID: "c0"})
	if _, err := fresh.Submit(g2, ""); err != nil {
		t.Fatal(err)
	}
	fresh.Reconcile(ctx)

	j1, j2, want := f.jobOrder[0], f.jobOrder[1], fresh.jobOrder[0]
	if j1.state != JobPlaced || j2.state != JobPlaced || want.state != JobPlaced {
		t.Fatalf("states %s, %s, fresh %s; want all placed", j1.state, j2.state, want.state)
	}
	if j1.cert == j2.cert {
		t.Fatal("G1 and G2 share a compile-cache key")
	}
	if n := f.compiles.Len(); n != 2 {
		t.Errorf("compile cache holds %d entries after G1 and G2 on one chip, want 2", n)
	}
	if j2.makespan != want.makespan || !reflect.DeepEqual(j2.used, want.used) || !reflect.DeepEqual(j2.spans, want.spans) {
		t.Error("G2's placement differs from its compile on a fresh fleet")
	}
}

// TestJobTableOrderAndBound submits more jobs than four-digit ids
// number, in rounds that all fail at once (no chip matches their
// target). Reconciling must take the jobs in submission order, Jobs
// must list them in that order, and only the maxRetiredJobs most
// recently ended stay known.
func TestJobTableOrderAndBound(t *testing.T) {
	const total, round = 10_001, 1_000
	f, err := New(Config{Chips: []ChipSpec{{ID: "c0"}}, MaxEvents: 2*total + 1})
	if err != nil {
		t.Fatal(err)
	}
	a := assays.PCR(assays.DefaultTiming())
	for n := 0; n < total; {
		for i := 0; i < round && n < total; i++ {
			if _, err := f.Submit(a, "da"); err != nil {
				t.Fatal(err)
			}
			n++
		}
		if st := f.Reconcile(context.Background()); st.Failed == 0 {
			t.Fatalf("reconcile after %d submissions failed no job: %+v", n, st)
		}
	}
	seq := func(id string) int {
		n, err := strconv.Atoi(id[1:])
		if err != nil {
			t.Fatalf("job id %q: %v", id, err)
		}
		return n
	}
	jobs := f.Jobs()
	if len(jobs) != maxRetiredJobs {
		t.Fatalf("fleet keeps %d jobs, want the %d most recently ended", len(jobs), maxRetiredJobs)
	}
	for i, j := range jobs {
		if want := total - maxRetiredJobs + 1 + i; seq(j.ID) != want || j.State != JobFailed {
			t.Fatalf("Jobs()[%d] = %s (%s), want j%d failed", i, j.ID, j.State, want)
		}
	}
	if _, ok := f.Job("j0001"); ok {
		t.Error("evicted job j0001 is still known")
	}
	if len(f.jobs) != maxRetiredJobs || len(f.retired) != maxRetiredJobs {
		t.Errorf("job map %d, retired %d; want %d each", len(f.jobs), len(f.retired), maxRetiredJobs)
	}
	last := 0
	for _, e := range f.Events(0) {
		if e.Kind != EventFailed {
			continue
		}
		if n := seq(e.Job); n != last+1 {
			t.Fatalf("job %s failed after j%d; want submission order", e.Job, last)
		}
		last++
	}
	if last != total {
		t.Errorf("%d failures logged, want %d", last, total)
	}
}

// TestFaultChurnStaysBounded runs many rounds of submissions and wear on
// one fleet, with its background loop running too. Every round mints
// new fault specs on every chip, so the compile cache must evict, and
// more jobs end than the fleet keeps. Both stay within their bounds,
// and once the loop stops no goroutine outlives it.
func TestFaultChurnStaysBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles hundreds of fault landscapes")
	}
	baseline := runtime.NumGoroutine()
	f := newTestFleet(t, ChipSpec{ID: "c0"}, ChipSpec{ID: "c1"}, ChipSpec{ID: "c2"})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		f.Run(ctx, time.Millisecond)
	}()
	const rounds, perRound = 100, 20
	for r := 0; r < rounds; r++ {
		for i := 0; i < perRound; i++ {
			if _, err := f.Submit(scenarioAssay(r+i), ""); err != nil {
				t.Fatal(err)
			}
		}
		f.Reconcile(ctx)
		// Wear concentrates on the most-worn electrodes, so wearing out
		// one more cell than last round adds a fault on every chip.
		for _, id := range f.order {
			if _, err := f.AdvanceWear(id, int64(r), 1_000_000, r+1); err != nil {
				t.Fatal(err)
			}
		}
		f.Reconcile(ctx)
		f.Tick(1_000)
		f.Reconcile(ctx)
		f.Tick(1_000)
		f.mu.Lock()
		jobs, order, retired := len(f.jobs), len(f.jobOrder), len(f.retired)
		f.mu.Unlock()
		if n := f.compiles.Len(); n > compileCacheEntries {
			t.Fatalf("round %d: compile cache holds %d entries, bound %d", r, n, compileCacheEntries)
		}
		if retired > maxRetiredJobs || order != jobs || jobs > maxRetiredJobs+perRound {
			t.Fatalf("round %d: %d jobs (%d in order, %d retired), bound %d retired", r, jobs, order, retired, maxRetiredJobs)
		}
	}
	cancel()
	<-done
	if n := f.compiles.Len(); n != compileCacheEntries {
		t.Errorf("compile cache ended with %d entries; the churn should have filled it to %d", n, compileCacheEntries)
	}
	if n := len(f.retired); n != maxRetiredJobs {
		t.Errorf("%d terminal jobs kept; the churn should have filled the bound of %d", n, maxRetiredJobs)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d running after the churn, baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestJobGaugesMatchRecount drives a seeded mix of submissions,
// placements, migrations, completions, failures and retirements, and
// after every step checks that the pending and running gauges equal a
// recount of the job table.
func TestJobGaugesMatchRecount(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	ctx := context.Background()
	f := newTestFleet(t, ChipSpec{ID: "c0"}, ChipSpec{ID: "c1"})
	check := func(step int, what string) {
		t.Helper()
		f.mu.Lock()
		defer f.mu.Unlock()
		var pending, running int
		for _, j := range f.jobs {
			switch j.state {
			case JobPending:
				pending++
			case JobPlaced:
				running++
			}
		}
		if got := f.gPending.Value(); got != float64(pending) {
			t.Fatalf("step %d (%s): fppc_fleet_jobs_pending = %g, recount %d", step, what, got, pending)
		}
		if got := f.gRunning.Value(); got != float64(running) {
			t.Fatalf("step %d (%s): fppc_fleet_jobs_running = %g, recount %d", step, what, got, running)
		}
	}
	pcr := assays.PCR(assays.DefaultTiming())
	for step := 0; step < 60; step++ {
		var what string
		switch rng.Intn(5) {
		case 0:
			what = "submit"
			for i := rng.Intn(4); i >= 0; i-- {
				if _, err := f.Submit(scenarioAssay(rng.Intn(8)), ""); err != nil {
					t.Fatal(err)
				}
			}
		case 1:
			// No chip takes a DA job: it fails on the next pass, and
			// enough of them push older terminal jobs out of the table.
			what = "submit unplaceable"
			for i := rng.Intn(300); i >= 0; i-- {
				if _, err := f.Submit(pcr, "da"); err != nil {
					t.Fatal(err)
				}
			}
		case 2:
			what = "wear"
			id := f.order[rng.Intn(len(f.order))]
			if _, err := f.AdvanceWear(id, rng.Int63(), 2_000_000, 1+rng.Intn(3)); err != nil {
				t.Fatal(err)
			}
		case 3:
			what = "tick"
			f.Tick(rng.Int63n(800))
		case 4:
			what = "reconcile"
			f.Reconcile(ctx)
		}
		check(step, what)
	}
	f.Reconcile(ctx)
	check(-1, "final reconcile")
	placed, migrated, failed, completed := f.Counts()
	if placed == 0 || migrated == 0 || failed == 0 || completed == 0 {
		t.Errorf("the mix missed a transition: placed %d, migrated %d, failed %d, completed %d",
			placed, migrated, failed, completed)
	}
	if len(f.retired) < maxRetiredJobs {
		t.Errorf("%d terminal jobs kept; the mix should have retired some past the bound of %d", len(f.retired), maxRetiredJobs)
	}
}
