package faults

import (
	"slices"
	"testing"

	"fppc/internal/arch"
	"fppc/internal/assays"
	"fppc/internal/core"
	"fppc/internal/grid"
	"fppc/internal/router"
	"fppc/internal/sim"
	"fppc/internal/telemetry"
)

// compileWear compiles PCR on the workhorse chip around the faults of
// set (nil for none), replays it through a telemetry collector with
// those faults injected, and returns the replay's snapshot and the
// program's commanded wear.
func compileWear(t *testing.T, set *Set) (*telemetry.Snapshot, ProgramWear) {
	t.Helper()
	cfg := core.Config{Target: core.TargetFPPC, Router: router.Options{EmitProgram: true}}
	var inj sim.Injector
	if set != nil {
		cfg.Faults = set
		inj = set
	}
	res, err := core.Compile(assays.PCR(assays.DefaultTiming()), cfg)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	tc := telemetry.New()
	if _, err := sim.RunInjected(res.Chip, res.Routing.Program, res.Routing.Events, nil, tc, inj); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return tc.Snapshot(), CommandedWear(res.Chip, res.Routing.Program)
}

// The commanded wear is what a full replay's collector records, with
// and without faults injected into the replay: both count the frames
// the program commands.
func TestCommandedWearMatchesReplay(t *testing.T) {
	chip, err := arch.NewFPPC(21)
	if err != nil {
		t.Fatal(err)
	}
	known := mustSet(t,
		Fault{Kind: StuckOpen, Cell: chip.MixModules[0].Hold},
		Fault{Kind: StuckClosed, Cell: chip.SSDModules[1].Hold},
	)
	for _, set := range []*Set{nil, known} {
		snap, pw := compileWear(t, set)
		if pw.Cycles != int64(snap.Cycles) {
			t.Fatalf("faults %q: cycles = %d, replay recorded %d", set, pw.Cycles, snap.Cycles)
		}
		var want []ElectrodeWear
		for _, e := range snap.Electrodes {
			if e.Actuations > 0 {
				want = append(want, ElectrodeWear{Cell: grid.Cell{X: e.X, Y: e.Y}, Actuations: e.Actuations})
			}
		}
		if len(want) == 0 || !slices.Equal(pw.Electrodes, want) {
			t.Fatalf("faults %q: commanded wear differs from the replay's:\n got %v\nwant %v", set, pw.Electrodes, want)
		}
	}
}

func TestWearAbsorbAccumulates(t *testing.T) {
	snap, pw := compileWear(t, nil)
	w := NewWearState()
	w.Absorb(pw)
	w.Absorb(pw)
	if w.Cycles() != 2*int64(snap.Cycles) {
		t.Fatalf("cycles = %d, want %d", w.Cycles(), 2*snap.Cycles)
	}
	var checked int
	for _, e := range snap.Electrodes {
		if e.Actuations == 0 {
			continue
		}
		c := grid.Cell{X: e.X, Y: e.Y}
		if got := w.Actuations(c); got != 2*e.Actuations {
			t.Fatalf("actuations at %v = %d, want %d", c, got, 2*e.Actuations)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("snapshot recorded no actuated electrodes")
	}
}

// MaxConsumedAfter reads the same float64 that absorbing into a copy
// and taking MaxConsumed does, whether the projection or the existing
// wear holds the maximum.
func TestWearMaxConsumedAfter(t *testing.T) {
	_, pw := compileWear(t, nil)
	chip, err := arch.NewFPPC(21)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWearState()
	for _, cycles := range []int64{0, 37, 100_000} {
		w.AdvanceSeeded(chip, cycles, cycles, 3)
		for _, rated := range []int64{1, 997, 1_000_000} {
			cl := w.Clone()
			cl.Absorb(pw)
			want := cl.MaxConsumed(rated)
			if got := w.MaxConsumedAfter(pw, rated); got != want {
				t.Errorf("after %d seeded cycles, rated %d: MaxConsumedAfter = %v, Clone+Absorb = %v", cycles, rated, got, want)
			}
		}
	}
	if got := w.MaxConsumedAfter(pw, 0); got != 0 {
		t.Errorf("rated life 0: %v, want 0", got)
	}
}

func TestWearFaultSetMatchesFromWear(t *testing.T) {
	snap, pw := compileWear(t, nil)
	chip, err := arch.NewFPPC(21)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWearState()
	w.Absorb(pw)
	// Rate the life so the hottest electrode is exactly worn out.
	var maxActs int64
	for _, e := range snap.Electrodes {
		if e.Actuations > maxActs {
			maxActs = e.Actuations
		}
	}
	set, err := w.FaultSet(chip, maxActs)
	if err != nil {
		t.Fatalf("FaultSet: %v", err)
	}
	if set.Len() == 0 {
		t.Fatal("no electrode at rated life despite rating = max actuations")
	}
	// Every derived fault is stuck-open at a fully consumed electrode.
	for _, f := range set.Faults() {
		if f.Kind != StuckOpen {
			t.Fatalf("wear fault %v is not stuck-open", f)
		}
		if got := w.Consumed(f.Cell, maxActs); got < 1.0 {
			t.Fatalf("faulted cell %v consumed %.3f < 1.0", f.Cell, got)
		}
	}
	// The export Snapshot round-trips through the FromWear bridge.
	viaBridge, err := FromWear(w.Snapshot(chip, maxActs), 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if viaBridge.String() != set.String() {
		t.Fatalf("FaultSet %q != FromWear(Snapshot) %q", set, viaBridge)
	}
}

func TestWearAdvanceSeededDeterministic(t *testing.T) {
	chip, err := arch.NewFPPC(21)
	if err != nil {
		t.Fatal(err)
	}
	run := func(seed int64) string {
		w := NewWearState()
		w.AdvanceSeeded(chip, seed, 1000, 3)
		w.AdvanceSeeded(chip, seed+1, 500, 2)
		set, err := w.FaultSet(chip, 900)
		if err != nil {
			t.Fatal(err)
		}
		return set.String()
	}
	a, b := run(7), run(7)
	if a != b {
		t.Fatalf("same seed diverged: %q vs %q", a, b)
	}
	if a == "" {
		t.Fatal("seeded advance past rated life produced no faults")
	}
	if c := run(8); c == a {
		t.Logf("note: seeds 7 and 8 wore the same cells (%q)", a)
	}
}

func TestWearAdvanceSeededPrefersWornCells(t *testing.T) {
	chip, err := arch.NewFPPC(21)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWearState()
	hot := chip.Electrodes()[0].Cell
	w.acts[hot] = 10_000
	w.AdvanceSeeded(chip, 42, 5000, 1)
	if w.Actuations(hot) != 15_000 {
		t.Fatalf("most-worn cell not advanced: acts = %d", w.Actuations(hot))
	}
}

func TestWearCloneIsIndependent(t *testing.T) {
	chip, err := arch.NewFPPC(21)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWearState()
	w.AdvanceSeeded(chip, 1, 100, 2)
	cl := w.Clone()
	cl.AdvanceSeeded(chip, 2, 100, 2)
	if cl.Cycles() != 200 || w.Cycles() != 100 {
		t.Fatalf("clone not independent: clone cycles %d, original %d", cl.Cycles(), w.Cycles())
	}
}

func TestWearNilSafety(t *testing.T) {
	var w *WearState
	w.Absorb(ProgramWear{Cycles: 5, Electrodes: []ElectrodeWear{{Actuations: 5}}})
	w.AdvanceSeeded(nil, 1, 10, 1)
	if w.Cycles() != 0 || w.MaxConsumed(100) != 0 || w.Consumed(grid.Cell{}, 100) != 0 {
		t.Fatal("nil WearState not inert")
	}
	if got := w.Clone(); got == nil || got.Cycles() != 0 {
		t.Fatal("nil Clone not empty")
	}
}

func TestMerge(t *testing.T) {
	base, err := ParseSpec("closed@3,4;dead#5")
	if err != nil {
		t.Fatal(err)
	}
	extra, err := ParseSpec("open@3,4;open@7,8;dead#5;dead#6")
	if err != nil {
		t.Fatal(err)
	}
	got := Merge(base, extra).String()
	// The wear-derived open@3,4 contradicts the base stuck-closed and is
	// dropped; dead#5 deduplicates.
	want := "open@7,8;closed@3,4;dead#5;dead#6"
	if got != want {
		t.Fatalf("Merge = %q, want %q", got, want)
	}
	if s := Merge(nil, nil); s.Len() != 0 {
		t.Fatalf("Merge(nil,nil) = %q", s)
	}
	if s := Merge(base, nil); s.String() != base.String() {
		t.Fatalf("Merge(base,nil) = %q", s)
	}
	if s := Merge(nil, extra); s.String() != extra.String() {
		t.Fatalf("Merge(nil,extra) = %q", s)
	}
}
