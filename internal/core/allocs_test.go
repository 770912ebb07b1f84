package core

import (
	"fmt"
	"testing"

	"fppc/internal/allocfloor"
	"fppc/internal/assays"
)

// TestAllocsCeilingCompile is the compiler part of the allocation
// ratchet: an auto-grown compile of Protein Split 3 and of Protein
// Split 7 on every registered target must stay under the committed
// allocs/op and bytes/op ceilings (rows compile_<target>_protein<n>
// and compile_<target>_protein<n>_bytes). The counts cover port
// placement, every schedule attempt and the route; every compile runs
// on the caller's goroutine, so they repeat exactly.
func TestAllocsCeilingCompile(t *testing.T) {
	for _, n := range []int{3, 7} {
		a := assays.ProteinSplit(n, assays.DefaultTiming())
		for _, spec := range Targets() {
			name := fmt.Sprintf("compile_%s_protein%d", spec.Name, n)
			t.Run(name, func(t *testing.T) {
				allocs, bytes := allocfloor.PerRun(3, func() {
					if _, err := Compile(a, Config{Target: spec.ID, AutoGrow: true}); err != nil {
						t.Fatal(err)
					}
				})
				t.Logf("%.0f allocs/op, %.0f bytes/op", allocs, bytes)
				allocfloor.Check(t, name, allocs)
				allocfloor.Check(t, name+"_bytes", bytes)
			})
		}
	}
}
