package dag

import "slices"

// FingerprintVersion exposes the fingerprint encoding version to the
// external test package, which pins the Table 1 fingerprints against it.
const FingerprintVersion = fingerprintVersion

// RefinedCells returns the seed cells Identify starts from and
// the equitable partition its first refinement reaches, each as node
// IDs cell by cell.
func (a *Assay) RefinedCells() (seed, refined [][]int, err error) {
	order, err := a.ValidateAndOrder()
	if err != nil {
		return nil, nil, err
	}
	p := newPartition(a, a.coneKeys(order))
	seed = p.cellList()
	p.refine()
	return seed, p.cellList(), nil
}

func (p *partition) cellList() [][]int {
	var out [][]int
	for s := 0; s < len(p.elems); s = p.end[s] {
		out = append(out, slices.Clone(p.elems[s:p.end[s]]))
	}
	return out
}
