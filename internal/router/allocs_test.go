package router

import (
	"testing"

	"fppc/internal/allocfloor"
	"fppc/internal/assays"
)

// TestAllocsCeilingRouteFPPC is the router half of the allocation
// ratchet: a full FPPC route of Protein Split 3 must stay under the
// committed ceiling. The router's scratch reuse (path cache, frontier
// buffers, emit buffers) is what keeps this number flat in the move
// count; a regression means a per-move or per-cycle allocation crept
// back into the hot loop.
func TestAllocsCeilingRouteFPPC(t *testing.T) {
	a := assays.ProteinSplit(3, assays.DefaultTiming())
	s := fppcSchedule(t, a, 21)
	allocfloor.Check(t, "route_fppc_protein3", testing.AllocsPerRun(10, func() {
		if _, err := RouteFPPC(s, Options{}); err != nil {
			t.Fatal(err)
		}
	}))
}
