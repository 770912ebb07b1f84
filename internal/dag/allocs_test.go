package dag_test

import (
	"testing"

	"fppc/internal/allocfloor"
	"fppc/internal/assays"
)

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
		allocfloor.Check(t, c.name, testing.AllocsPerRun(5, func() {
			if err := c.run(); err != nil {
				t.Fatal(err)
			}
		}))
	}
}
