package dag

import (
	"crypto/sha256"
	"encoding/hex"
)

// structuralHashVersion is bumped whenever the raw encoding changes, so
// compile-cache entries keyed by old certificates can never be served
// against new ones.
const structuralHashVersion = "fppc/dag-structural/v1"

// StructuralHash returns a SHA-256 (hex) over the assay's raw structure
// in node-ID order: per node its kind, fluid, duration and child IDs,
// plus the effective reservoir count of every dispensed fluid.
//
// Unlike Fingerprint, this hash is deliberately sensitive to node
// numbering: the synthesis pipeline's tie-breaks consult node IDs, so
// two renumberings of one graph can compile to different (equally
// valid) artifacts. Taken over the canonical form, which fixes the
// numbering, it is the assay's certificate (Identity.Certificate): a
// compile cache keyed by it only ever serves a result for an input the
// pipeline would have treated identically. Labels and the assay name
// are excluded: they appear in no compiled artifact.
func (a *Assay) StructuralHash() string {
	h := sha256.New()
	writeString(h, structuralHashVersion)
	writeInt(h, len(a.Nodes))
	for _, n := range a.Nodes {
		h.Write([]byte{byte(n.Kind)})
		writeString(h, n.Fluid)
		writeInt(h, n.Duration)
		writeInt(h, len(n.Children))
		for _, c := range n.Children {
			writeInt(h, c)
		}
	}
	// Reservoir counts in node order of first dispense, so no sorting
	// (and no map iteration) enters the encoding.
	seen := map[string]bool{}
	for _, n := range a.Nodes {
		if n.Kind != Dispense || seen[n.Fluid] {
			continue
		}
		seen[n.Fluid] = true
		writeString(h, n.Fluid)
		writeInt(h, a.ReservoirCount(n.Fluid))
	}
	return hex.EncodeToString(h.Sum(nil))
}
