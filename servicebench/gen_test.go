package main

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// smallScale keeps generated streams short enough for unit tests while
// still covering every rotation slot of each workload.
const smallScale = 0.05

func TestSameSeedSameStream(t *testing.T) {
	for _, w := range []string{"hit", "cold", "program", "fleet"} {
		a, err := generate(w, 7, smallScale)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		b, err := generate(w, 7, smallScale)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if a.digest() != b.digest() {
			t.Errorf("%s: seed 7 generated two different streams", w)
		}
		c, err := generate(w, 8, smallScale)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if a.digest() == c.digest() {
			t.Errorf("%s: seeds 7 and 8 generated the same stream", w)
		}
	}
}

func TestHitKeys(t *testing.T) {
	in, err := generate("hit", 1, smallScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(in.stream) != 2*39 {
		t.Fatalf("hit has %d forms, want 39 keys in two forms", len(in.stream))
	}
	forms := map[string][]bool{} // key -> ASL or not, per form
	for _, r := range in.stream {
		if r.WantStatus != 200 {
			t.Errorf("hit key %s on %s expects %d", r.Shape, r.Target, r.WantStatus)
		}
		_, req, err := sentAssay(r.Body)
		if err != nil {
			t.Fatal(err)
		}
		forms[r.key()] = append(forms[r.key()], req.ASL != "")
	}
	if len(forms) != 39 {
		t.Fatalf("hit has %d keys, want 39", len(forms))
	}
	for k, f := range forms {
		if len(f) != 2 || f[0] == f[1] {
			t.Errorf("hit key %s: forms %v, want one DAG JSON and one ASL", k, f)
		}
	}
	// Every block is whole rounds: each form equally often.
	count := make([]int, len(in.stream))
	for _, k := range in.order[:in.block] {
		count[k]++
	}
	for k, c := range count {
		if c != hitRoundsPerBlock {
			t.Fatalf("form %d is sent %d times in the first block, want %d", k, c, hitRoundsPerBlock)
		}
	}
}

// TestDrawsSpanStrata checks that the first drawStrata draws of a shape
// take one assay from each critical-path stratum of their chunk.
func TestDrawsSpanStrata(t *testing.T) {
	sh := shapesNamed("Protein Split 2")[0]
	d := newTimingDraws(sh, rand.New(rand.NewSource(5)), drawChunk)
	var cps []int
	for i := 0; i < drawChunk; i++ {
		a, err := d.draw()
		if err != nil {
			t.Fatal(err)
		}
		cp, err := a.CriticalPath()
		if err != nil {
			t.Fatal(err)
		}
		cps = append(cps, cp)
	}
	if _, err := d.draw(); err == nil {
		t.Fatal("a draw past the planned count succeeded")
	}
	first, all := slices.Clone(cps[:drawStrata]), slices.Clone(cps)
	slices.Sort(first)
	slices.Sort(all)
	per := drawChunk / drawStrata
	for s, cp := range first {
		if lo, hi := all[s*per], all[(s+1)*per-1]; cp < lo || cp > hi {
			t.Fatalf("draws %v: stratum %d holds critical paths %d..%d, not %d", cps[:drawStrata], s, lo, hi, cp)
		}
	}
}

// TestDrawnStreamsAreNeverSeen generates the full cold, program and fleet
// streams: generation itself asserts that no fingerprint repeats, so this
// fails if the duration spaces are too small for the stream lengths.
func TestDrawnStreamsAreNeverSeen(t *testing.T) {
	if testing.Short() {
		t.Skip("generates the full streams")
	}
	for _, w := range []string{"cold", "program", "fleet"} {
		in, err := generate(w, 3, 0)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if err := assertUnique(in); err != nil {
			t.Fatalf("%s: %v", w, err)
		}
	}
}

func TestAssertUniqueCatchesRepeats(t *testing.T) {
	in, err := generate("program", 1, smallScale)
	if err != nil {
		t.Fatal(err)
	}
	in.stream = append(in.stream, in.stream[0])
	if err := assertUnique(in); err == nil || !strings.Contains(err.Error(), "repeats") {
		t.Fatalf("a repeated request passed the uniqueness check: %v", err)
	}
}

// TestExpectedOutcomes checks that exactly the In-Vitro 3-5 requests on
// the enhanced chip expect the typed refusal, and that the program
// workload, which wants programs back, sends none of them.
func TestExpectedOutcomes(t *testing.T) {
	cold, err := generate("cold", 1, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	refusals := 0
	for _, r := range cold.stream[:39] {
		want := refused(r.Shape, r.Target)
		if want != (r.WantStatus == 422 && r.WantKind == "unsynthesizable") {
			t.Errorf("%s on %s: expected status %d %q", r.Shape, r.Target, r.WantStatus, r.WantKind)
		}
		if want {
			refusals++
		}
	}
	if refusals != 3 {
		t.Errorf("one rotation of cold holds %d refusals, want 3", refusals)
	}
	prog, err := generate("program", 1, smallScale)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range prog.stream {
		if r.WantStatus != 200 || !r.Sequence || !r.Verify {
			t.Fatalf("program request %s on %s: status %d sequence %t verify %t", r.Shape, r.Target, r.WantStatus, r.Sequence, r.Verify)
		}
	}
}
