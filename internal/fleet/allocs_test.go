package fleet

import (
	"context"
	"testing"

	"fppc/internal/allocfloor"
	"fppc/internal/assays"
	"fppc/internal/dag"
)

// placeRound builds a fresh 5-chip scenario fleet, submits PCR, In-Vitro
// 1 and Protein Split 1, and places them in one reconcile pass: every
// job compiles on every compatible chip, cold.
func placeRound(tb testing.TB) {
	specs, err := ScenarioSpecs(5)
	if err != nil {
		tb.Fatal(err)
	}
	f, err := New(Config{Chips: specs})
	if err != nil {
		tb.Fatal(err)
	}
	tm := assays.DefaultTiming()
	for _, a := range []*dag.Assay{assays.PCR(tm), assays.InVitroN(1, tm), assays.ProteinSplit(1, tm)} {
		if _, err := f.Submit(a, ""); err != nil {
			tb.Fatal(err)
		}
	}
	if st := f.Reconcile(context.Background()); st.Placed != 3 {
		tb.Fatalf("placed %d of 3 jobs: %+v", st.Placed, st)
	}
}

// BenchmarkFleetRound times one cold placement round (placeRound).
func BenchmarkFleetRound(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		placeRound(b)
	}
}

// TestAllocsCeilingFleetRound is the fleet's part of the allocation
// ratchet: one cold placement round, compiles and oracle runs included.
func TestAllocsCeilingFleetRound(t *testing.T) {
	allocs, bytes := allocfloor.PerRun(3, func() { placeRound(t) })
	t.Logf("%.0f allocs/op, %.0f bytes/op", allocs, bytes)
	allocfloor.Check(t, "fleet_place_round", allocs)
	allocfloor.Check(t, "fleet_place_round_bytes", bytes)
}
