package fleet

import (
	"context"
	"strings"
	"testing"

	"fppc/internal/assays"
	"fppc/internal/dag"
	"fppc/internal/pins"
	"fppc/internal/router"
)

// plantBroken compiles the assay for the chip through the fleet's cache
// and replaces the entry with a copy whose pin program drops one frame
// from the middle, so the oracle rejects it. It returns the planted
// entry.
func plantBroken(t *testing.T, f *Fleet, canon *dag.Assay, chipID string) *compiled {
	t.Helper()
	c := f.chips[chipID]
	cert := canon.StructuralHash()
	good := f.compileFor(context.Background(), canon, cert, c.spec, c.effective, c.effSpec)
	if good.err != nil || good.res == nil || good.res.Routing.Program == nil {
		t.Fatalf("%s: want an unverified pin-program entry, got err=%v", chipID, good.err)
	}
	prog := good.res.Routing.Program
	drop := prog.Len() / 2
	short := &pins.Program{}
	for i := 0; i < prog.Len(); i++ {
		if i != drop {
			short.Append(prog.Cycle(i)...)
		}
	}
	bad := *good
	res := *good.res
	res.Routing = &router.Result{Program: short, Events: good.res.Routing.Events}
	bad.res = &res
	f.compiles.Put(compileKey(cert, c.spec, c.effSpec), &bad)
	return &bad
}

// The best-scored candidate is verified first; when the oracle rejects
// it the job goes to the next chip in score order, and every entry
// keeps its verdict: a later placement that scores the rejected entry
// best again, and then the passing one, runs the oracle on neither.
func TestLazyVerifyFallsBackInScoreOrder(t *testing.T) {
	one, err := holdFaultSpec(0)
	if err != nil {
		t.Fatal(err)
	}
	two, err := holdFaultSpec(1)
	if err != nil {
		t.Fatal(err)
	}
	// The fault count leads the score: c0, then c1, then c2. Distinct
	// fault specs give each chip its own compile-cache key.
	f := newTestFleet(t, ChipSpec{ID: "c0"}, ChipSpec{ID: "c1", Faults: one},
		ChipSpec{ID: "c2", Faults: one + ";" + two})
	tm := assays.DefaultTiming()
	canon, err := assays.PCR(tm).Canonical()
	if err != nil {
		t.Fatal(err)
	}
	bad := plantBroken(t, f, canon, "c0")

	for i := 0; i < 2; i++ {
		st, err := f.Submit(assays.PCR(tm), "")
		if err != nil {
			t.Fatal(err)
		}
		f.Reconcile(context.Background())
		got, _ := f.Job(st.ID)
		if got.State != JobPlaced || got.Chip != "c1" || !got.Verified {
			t.Fatalf("job %d: %+v, want verified on c1", i, got)
		}
		if bad.verified || bad.verifyErr == nil || bad.res != nil {
			t.Fatalf("planted entry: verified=%v err=%v res kept=%v, want a recorded rejection",
				bad.verified, bad.verifyErr, bad.res != nil)
		}
		if n := f.cVerifyFail.Value(); n != 1 {
			t.Errorf("after job %d: failed verifications = %d, want 1", i, n)
		}
		if n := f.cVerifyOK.Value(); n != 1 {
			t.Errorf("after job %d: passed verifications = %d, want 1", i, n)
		}
	}
}

// When no candidate passes, every one was verified and the job fails
// with one reason per chip: compile failures and oracle rejections
// alike.
func TestLazyVerifyAllFailOneReasonPerChip(t *testing.T) {
	f := newTestFleet(t,
		ChipSpec{ID: "chip-a"}, ChipSpec{ID: "chip-b", Height: 27},
		ChipSpec{ID: "chip-c", Faults: killAllMixSpec(t)})
	canon, err := assays.PCR(assays.DefaultTiming()).Canonical()
	if err != nil {
		t.Fatal(err)
	}
	planted := []*compiled{plantBroken(t, f, canon, "chip-a"), plantBroken(t, f, canon, "chip-b")}
	st, err := f.Submit(assays.PCR(assays.DefaultTiming()), "")
	if err != nil {
		t.Fatal(err)
	}
	if stats := f.Reconcile(context.Background()); stats.Failed != 1 {
		t.Fatalf("stats = %+v, want 1 failure", stats)
	}
	got, _ := f.Job(st.ID)
	if got.State != JobFailed || !strings.HasPrefix(got.Error, "no feasible chip: ") {
		t.Fatalf("job: %+v, want failed with no feasible chip", got)
	}
	for _, id := range []string{"chip-a", "chip-b", "chip-c"} {
		if n := strings.Count(got.Error, id+": "); n != 1 {
			t.Errorf("error names %s %d times, want once: %q", id, n, got.Error)
		}
	}
	for i, e := range planted {
		if e.res != nil || e.verifyErr == nil {
			t.Fatalf("planted entry %d was not verified", i)
		}
		if reason := e.failure(); !strings.HasPrefix(reason, "oracle: ") || !strings.Contains(got.Error, reason) {
			t.Errorf("error lacks the oracle's reason %q: %q", reason, got.Error)
		}
	}
	if n := f.cVerifyFail.Value(); n != 2 {
		t.Errorf("failed verifications = %d, want 2 (chip-c never compiled)", n)
	}
}
