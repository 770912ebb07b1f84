// Package allocfloor enforces the allocation ratchet,
// scripts/allocs_floor.txt: one "name ceiling" pair per line, with
// '#' comment lines. The ceiling tests of internal/core, internal/dag,
// internal/faults, internal/fleet, internal/oracle, internal/router and
// internal/sim call it. go test runs each in its package directory,
// two levels below the repository root, so the path below is relative
// to such a directory.
package allocfloor

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

const path = "../../scripts/allocs_floor.txt"

// Check fails t when got, a per-operation count, exceeds the ceiling
// named name. A missing file, name or unparsable ceiling fails t too.
func Check(t testing.TB, name string, got float64) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 2 || fields[0] != name {
			continue
		}
		ceiling, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			t.Fatalf("allocs_floor.txt: bad ceiling %q: %v", sc.Text(), err)
		}
		if got > ceiling {
			t.Errorf("%s = %.0f per op, ceiling %.0f (scripts/allocs_floor.txt)", name, got, ceiling)
		}
		return
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	t.Fatalf("allocs_floor.txt: no ceiling named %q", name)
}

// PerRun is testing.AllocsPerRun that also counts bytes: after one
// warm-up call it runs f runs times at GOMAXPROCS 1, as AllocsPerRun
// does, and returns the mean heap allocations and heap bytes per run.
// Compiles start no goroutines, so the counts repeat exactly; what
// they compute is pinned separately, by
// internal/oracle/testdata/table1_compiles.golden.
func PerRun(runs int, f func()) (allocs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	n := float64(runs)
	return float64(after.Mallocs-before.Mallocs) / n, float64(after.TotalAlloc-before.TotalAlloc) / n
}
