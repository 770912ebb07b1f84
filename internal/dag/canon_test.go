package dag_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"fppc/internal/assays"
	"fppc/internal/dag"
)

// sampleAssay builds a small mix/split/output assay for permutation tests.
func sampleAssay(t *testing.T) *dag.Assay {
	t.Helper()
	a := dag.New("canon-sample")
	d1 := a.Add(dag.Dispense, "D1", "sample", 2)
	d2 := a.Add(dag.Dispense, "D2", "buffer", 2)
	m := a.Add(dag.Mix, "M1", "", 3)
	a.AddEdge(d1, m)
	a.AddEdge(d2, m)
	s := a.Add(dag.Split, "S1", "", 0)
	a.AddEdge(m, s)
	o1 := a.Add(dag.Output, "O1", "waste", 0)
	o2 := a.Add(dag.Output, "O2", "waste", 0)
	a.AddEdge(s, o1)
	a.AddEdge(s, o2)
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	return a
}

// siblingFan builds k identical, unconnected dispense-mix-detect-output
// units: every unit is interchangeable with every other, the most
// symmetric input individualization faces.
func siblingFan(k int) *dag.Assay {
	a := dag.New(fmt.Sprintf("fan-%d", k))
	for i := 0; i < k; i++ {
		s := a.Add(dag.Dispense, fmt.Sprintf("S%d", i), "sample", 2)
		r := a.Add(dag.Dispense, fmt.Sprintf("R%d", i), "reagent", 2)
		m := a.Add(dag.Mix, fmt.Sprintf("M%d", i), "", 3)
		a.AddEdge(s, m)
		a.AddEdge(r, m)
		d := a.Add(dag.Detect, fmt.Sprintf("T%d", i), "", 5)
		a.AddEdge(m, d)
		a.AddEdge(d, a.Add(dag.Output, fmt.Sprintf("O%d", i), "waste", 0))
	}
	return a
}

// uniformRandom builds a random assay in which all dispenses, mixes and
// splits look alike (one fluid, fixed durations, no detects), so most
// nodes tie on their cone keys and only refinement and
// individualization tell them apart. It is the one input family here
// whose refinement splits cells by more than one count.
func uniformRandom(rng *rand.Rand, n int) *dag.Assay {
	a := dag.New(fmt.Sprintf("uniform-%d", n))
	var live []*dag.Node
	take := func() *dag.Node {
		i := rng.Intn(len(live))
		v := live[i]
		live[i] = live[len(live)-1]
		live = live[:len(live)-1]
		return v
	}
	output := func() { a.AddEdge(take(), a.Add(dag.Output, "O", "waste", 0)) }
	dispense := func() { live = append(live, a.Add(dag.Dispense, "D", "sample", 2)) }
	dispense()
	dispense()
	for a.Len() < n {
		switch c := rng.Intn(8); {
		case c < 3 || len(live) == 0:
			dispense()
		case c < 6 && len(live) >= 2:
			m := a.Add(dag.Mix, "M", "", 3)
			a.AddEdge(take(), m)
			a.AddEdge(take(), m)
			live = append(live, m)
		case c < 7:
			s := a.Add(dag.Split, "S", "", 0)
			a.AddEdge(take(), s)
			live = append(live, s, s)
		default:
			output()
		}
	}
	for len(live) > 0 {
		output()
	}
	return a
}

// canonCases are the inputs of the canonicalization properties: the
// sample, every Table 1 assay (up to Protein Split 7's 2,686 nodes),
// the In-Vitro s×r grids, a wide fan of identical siblings, 200
// `assays.Random` assays and 300 uniform random ones.
func canonCases(t *testing.T) []*dag.Assay {
	tm := assays.DefaultTiming()
	out := append([]*dag.Assay{sampleAssay(t)}, assays.Table1Benchmarks(tm)...)
	for s := 1; s <= 4; s++ {
		for r := 1; r <= 4; r++ {
			out = append(out, assays.InVitro(s, r, tm))
		}
	}
	out = append(out, siblingFan(64))
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a := assays.Random(rng, 5+rng.Intn(150), tm)
		a.Name = fmt.Sprintf("%s seed %d", a.Name, seed)
		out = append(out, a)
	}
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a := uniformRandom(rng, 10+rng.Intn(150))
		a.Name = fmt.Sprintf("%s seed %d", a.Name, seed)
		out = append(out, a)
	}
	return out
}

func TestRenumberedPreservesStructureAndFingerprint(t *testing.T) {
	a := sampleAssay(t)
	fp, err := a.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		b, err := a.Renumbered(rng.Perm(a.Len()))
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Validate(); err != nil {
			t.Fatalf("trial %d: renumbered assay invalid: %v", trial, err)
		}
		fpb, err := b.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		if fpb != fp {
			t.Fatalf("trial %d: fingerprint changed under renumbering", trial)
		}
	}
}

func TestRenumberedRejectsBadPermutations(t *testing.T) {
	a := sampleAssay(t)
	for _, perm := range [][]int{
		{0, 1},                 // wrong length
		{0, 1, 2, 3, 4, 4, 6},  // duplicate
		{0, 1, 2, 3, 4, 5, 99}, // out of range
		{-1, 1, 2, 3, 4, 5, 6}, // negative
	} {
		if _, err := a.Renumbered(perm); err == nil {
			t.Errorf("Renumbered(%v) accepted a non-permutation", perm)
		}
	}
}

func TestRelabeledKeepsFingerprint(t *testing.T) {
	a := sampleAssay(t)
	fp, _ := a.Fingerprint()
	b := a.Relabeled(func(old string) string { return "x-" + old })
	fpb, err := b.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fpb != fp {
		t.Fatal("fingerprint changed under relabeling")
	}
	if b.Nodes[0].Label == a.Nodes[0].Label {
		t.Fatal("Relabeled did not rewrite labels")
	}
}

// TestCanonicalInvariantUnderRenumbering submits every case under
// random renumberings and relabelings: each must canonicalize to the
// same assay as the original.
func TestCanonicalInvariantUnderRenumbering(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, a := range canonCases(t) {
		ca, err := a.Canonical()
		if err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		if err := ca.Validate(); err != nil {
			t.Fatalf("%s: canonical assay invalid: %v", a.Name, err)
		}
		for trial := 0; trial < 4; trial++ {
			b, err := a.Renumbered(rng.Perm(a.Len()))
			if err != nil {
				t.Fatal(err)
			}
			b = b.Relabeled(func(old string) string { return fmt.Sprintf("t%d-%s", trial, old) })
			cb, err := b.Canonical()
			if err != nil {
				t.Fatalf("%s trial %d: %v", a.Name, trial, err)
			}
			if !sameShape(ca, cb) {
				t.Fatalf("%s trial %d: canonical forms differ structurally", a.Name, trial)
			}
		}
	}
}

// sameShape compares everything the synthesis flow observes (kinds,
// fluids, durations, edges, reservoirs) while ignoring labels, which
// automorphic nodes may legitimately swap.
func sameShape(a, b *dag.Assay) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i := range a.Nodes {
		x, y := a.Nodes[i], b.Nodes[i]
		if x.Kind != y.Kind || x.Fluid != y.Fluid || x.Duration != y.Duration ||
			!slices.Equal(x.Children, y.Children) || !slices.Equal(x.Parents, y.Parents) {
			return false
		}
	}
	for f, n := range a.Reservoirs {
		if b.ReservoirCount(f) != n {
			return false
		}
	}
	return true
}

func TestCanonicalIdempotent(t *testing.T) {
	for _, a := range canonCases(t) {
		c1, err := a.Canonical()
		if err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		c2, err := c1.Canonical()
		if err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		if !sameShape(c1, c2) {
			t.Fatalf("%s: Canonical is not idempotent", a.Name)
		}
	}
}

// TestRefinementMatchesColorRefinement checks the integer partition
// refinement against textbook colour refinement from the same seed
// cells: both must reach the same partition, the coarsest equitable
// one.
func TestRefinementMatchesColorRefinement(t *testing.T) {
	for _, a := range canonCases(t) {
		seed, refined, err := a.RefinedCells()
		if err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		color, colors := referenceRefine(a, seed)
		if len(refined) != colors {
			t.Fatalf("%s: %d cells, colour refinement finds %d", a.Name, len(refined), colors)
		}
		for _, cell := range refined {
			for _, v := range cell[1:] {
				if color[v] != color[cell[0]] {
					t.Fatalf("%s: nodes %d and %d share a cell but not a colour", a.Name, cell[0], v)
				}
			}
		}
	}
}

// referenceRefine recolours every node by its colour and the sorted
// colours of its parents and children until the number of colours stops
// growing, and returns the colours and their number.
func referenceRefine(a *dag.Assay, seed [][]int) ([]int, int) {
	color := make([]int, a.Len())
	for c, cell := range seed {
		for _, v := range cell {
			color[v] = c
		}
	}
	colorsOf := func(ids []int) []int {
		out := make([]int, len(ids))
		for i, id := range ids {
			out[i] = color[id]
		}
		slices.Sort(out)
		return out
	}
	for colors := len(seed); ; {
		sigs := map[string]int{}
		next := make([]int, a.Len())
		for _, n := range a.Nodes {
			sig := fmt.Sprint(color[n.ID], colorsOf(n.Parents), colorsOf(n.Children))
			c, ok := sigs[sig]
			if !ok {
				c = len(sigs)
				sigs[sig] = c
			}
			next[n.ID] = c
		}
		color = next
		if len(sigs) == colors {
			return color, colors
		}
		colors = len(sigs)
	}
}

func BenchmarkCanonical(b *testing.B) {
	for _, levels := range []int{3, 5, 7} {
		a := assays.ProteinSplit(levels, assays.DefaultTiming())
		b.Run(fmt.Sprintf("protein%d", levels), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := a.Canonical(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
