package dag_test

import (
	"bufio"
	"os"
	"strconv"
	"strings"
	"testing"

	"fppc/internal/assays"
)

// allocCeiling reads one named ceiling from scripts/allocs_floor.txt —
// the allocation ratchet committed next to the coverage floor.
func allocCeiling(t *testing.T, name string) float64 {
	t.Helper()
	f, err := os.Open("../../scripts/allocs_floor.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 2 && fields[0] == name {
			v, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				t.Fatalf("allocs_floor.txt: bad ceiling %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("allocs_floor.txt: no ceiling named %q", name)
	return 0
}

// TestAllocsCeilingCanonical is the canonicalization part of the
// allocation ratchet: canonicalizing Protein Split 7, and certifying it
// as a cache hit does, must stay under the committed ceilings. The cone
// hashes and the partition refinement run in a fixed set of buffers,
// so Canonical's count is dominated by the renumbered copy's nodes and
// edge lists, and the certificate, which builds no copy, allocates a
// few dozen times; a regression means per-node or per-round scratch
// came back.
func TestAllocsCeilingCanonical(t *testing.T) {
	a := assays.ProteinSplit(7, assays.DefaultTiming())
	for _, c := range []struct {
		name string
		run  func() error
	}{
		{"canonical_protein7", func() error {
			_, err := a.Canonical()
			return err
		}},
		{"certificate_protein7", func() error {
			id, err := a.Identify()
			if err == nil {
				_ = id.Certificate()
			}
			return err
		}},
	} {
		ceiling := allocCeiling(t, c.name)
		allocs := testing.AllocsPerRun(5, func() {
			if err := c.run(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > ceiling {
			t.Errorf("%s = %.0f allocs/op, ceiling %.0f (scripts/allocs_floor.txt)", c.name, allocs, ceiling)
		}
	}
}
