package main

import (
	"context"
	"strings"
	"testing"

	"fppc/internal/assays"
	"fppc/internal/core"
)

// TestFidelityCatchesSkippedGrowStep replays a compile that auto-grows
// (Protein Split 5 on fppc grows past the 12x21 default) with a driver
// whose Grow hook skips a size: the replay must refuse to report.
func TestFidelityCatchesSkippedGrowStep(t *testing.T) {
	ctx := context.Background()
	e, err := setup(ctx, testOpts("cold"))
	if err != nil {
		t.Fatal(err)
	}
	defer e.hn.close()
	r, err := compileRequest(assays.ProteinSplit(5, assays.DefaultTiming()), "Protein Split 5", "fppc", false, false, false)
	if err != nil {
		t.Fatal(err)
	}
	status, body, err := e.hn.post(ctx, r.Path, r.Body)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := checkCompile(&r, false, status, body); err != nil {
		t.Fatal(err)
	}
	spec, err := core.ParseTarget("fppc")
	if err != nil {
		t.Fatal(err)
	}

	faithful := &replayer{t: newTracer(), srv: e.srv, memo: core.NewMemo(0)}
	if err := faithful.compile(ctx, &r, status, body); err != nil {
		t.Fatalf("the faithful driver failed the fidelity check: %v", err)
	}
	if got := faithful.t.totals()["scheduler.schedule"]; got == nil || got.calls < 2 {
		t.Fatalf("Protein Split 5 did not auto-grow (%v schedule calls)", got)
	}

	skipping := &replayer{t: newTracer(), srv: e.srv, memo: core.NewMemo(0), grow: func(d core.Dims) (core.Dims, bool) {
		next, ok := spec.Grow(d)
		if !ok {
			return next, false
		}
		return spec.Grow(next)
	}}
	err = skipping.compile(ctx, &r, status, body)
	if err == nil || !strings.Contains(err.Error(), "fidelity") {
		t.Fatalf("a driver skipping a grow step passed the fidelity check: %v", err)
	}
}

// TestServiceSelf checks the derived span: a request's serve time minus
// the calls replayed for it, and nothing for calls outside any request.
func TestServiceSelf(t *testing.T) {
	tr := newTracer()
	tr.recs = []spanRec{
		{name: "service.serve", req: 0, wall: 10, cpu: 12, allocs: 100},
		{name: "dag.canonicalize", req: 0, wall: 6, cpu: 7, allocs: 60},
		{name: "service.encode_response", req: 0, wall: 1, cpu: 1, allocs: 10},
		{name: "http.client", req: 0, wall: 11, cpu: 13, allocs: 101},
		{name: "fleet.reconcile", req: -1, wall: 50, cpu: 50, allocs: 500},
	}
	self := tr.totals()["service.self"]
	if self.calls != 1 || self.wall != 3 || self.cpu != 4 || self.allocs != 30 {
		t.Fatalf("service.self = %+v, want 1 call, wall 3, cpu 4, allocs 30", *self)
	}
}
