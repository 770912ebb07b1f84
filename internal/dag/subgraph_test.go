package dag

import "testing"

// twoMixChain builds Dispense -> Mix(3) -> Mix(2) -> Output, the
// smallest assay with a non-trivial cone structure.
func twoMixChain() *Assay {
	a := New("chain")
	d1 := a.Add(Dispense, "D1", "r1", 2)
	d2 := a.Add(Dispense, "D2", "r2", 2)
	m1 := a.Add(Mix, "M1", "", 3)
	a.AddEdge(d1, m1)
	a.AddEdge(d2, m1)
	d3 := a.Add(Dispense, "D3", "r1", 2)
	m2 := a.Add(Mix, "M2", "", 2)
	a.AddEdge(m1, m2)
	a.AddEdge(d3, m2)
	o := a.Add(Output, "O", "", 0)
	a.AddEdge(m2, o)
	return a
}

func TestStructuralHashIgnoresLabelsAndName(t *testing.T) {
	a := twoMixChain()
	h := a.StructuralHash()
	b := a.Relabeled(func(old string) string { return old + "-renamed" })
	b.Name = "entirely different"
	if got := b.StructuralHash(); got != h {
		t.Errorf("relabel/rename changed the structural hash: %s -> %s", h, got)
	}
}

func TestStructuralHashNumberingSensitive(t *testing.T) {
	a := twoMixChain()
	h := a.StructuralHash()
	// Swap the two r-reservoir dispenses (IDs 0 and 1): the graph is
	// isomorphic only up to labels, but the pipeline's id tie-breaks see
	// a different input, so the memo key must differ.
	perm := []int{1, 0, 2, 3, 4, 5}
	b, err := a.Renumbered(perm)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.StructuralHash(); got == h {
		t.Errorf("renumbering left the structural hash unchanged (%s); the memo could replay a differently-numbered compile", h)
	}
}

func TestStructuralHashSensitiveToEdits(t *testing.T) {
	base := twoMixChain().StructuralHash()

	dur := twoMixChain()
	dur.Nodes[2].Duration++
	if dur.StructuralHash() == base {
		t.Error("duration edit left the hash unchanged")
	}

	fluid := twoMixChain()
	fluid.Nodes[0].Fluid = "r9"
	if fluid.StructuralHash() == base {
		t.Error("fluid edit left the hash unchanged")
	}

	grown := twoMixChain()
	ex := grown.Add(Detect, "DT", "", 4)
	grown.AddEdge(grown.Nodes[4], ex)
	if grown.StructuralHash() == base {
		t.Error("added node left the hash unchanged")
	}

	res := twoMixChain()
	res.Reservoirs = map[string]int{"r1": 3}
	if res.StructuralHash() == base {
		t.Error("reservoir-count edit left the hash unchanged")
	}
}

// TestValidateAndOrderMatchesSeparateCalls pins the fused entry point
// against its parts: same order as TopologicalOrder, same acceptance as
// the historical Validate.
func TestValidateAndOrderMatchesSeparateCalls(t *testing.T) {
	a := twoMixChain()
	order, err := a.ValidateAndOrder()
	if err != nil {
		t.Fatal(err)
	}
	want, err := a.TopologicalOrder()
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != len(want) {
		t.Fatalf("order lengths %d vs %d", len(order), len(want))
	}
	for i := range order {
		if order[i] != want[i] {
			t.Fatalf("order[%d] = %d, want %d (ValidateAndOrder must preserve the min-id Kahn order)", i, order[i], want[i])
		}
	}
	bad := New("bad")
	bad.Add(Mix, "M", "", 3) // mix with no parents
	if _, err := bad.ValidateAndOrder(); err == nil {
		t.Error("ValidateAndOrder accepted an invalid assay")
	}
	if err := bad.Validate(); err == nil {
		t.Error("Validate accepted an invalid assay")
	}
}
