package faults

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"fppc/internal/arch"
	"fppc/internal/assays"
	"fppc/internal/core"
	"fppc/internal/grid"
	"fppc/internal/pins"
	"fppc/internal/telemetry"
)

func mustSet(t *testing.T, fs ...Fault) *Set {
	t.Helper()
	s, err := New(fs...)
	if err != nil {
		t.Fatalf("New(%v): %v", fs, err)
	}
	return s
}

func TestNewDedupAndConflict(t *testing.T) {
	c := grid.Cell{X: 3, Y: 4}
	s := mustSet(t,
		Fault{Kind: StuckOpen, Cell: c},
		Fault{Kind: StuckOpen, Cell: c}, // duplicate
		Fault{Kind: DeadPin, Pin: 5},
		Fault{Kind: DeadPin, Pin: 5}, // duplicate
	)
	if s.Len() != 2 {
		t.Errorf("Len = %d after dedup, want 2", s.Len())
	}

	_, err := New(Fault{Kind: StuckOpen, Cell: c}, Fault{Kind: StuckClosed, Cell: c})
	var ce *ConflictError
	if !errors.As(err, &ce) {
		t.Fatalf("overlapping stuck-open+stuck-closed: got %v, want *ConflictError", err)
	}
	if ce.Cell != c {
		t.Errorf("ConflictError.Cell = %v, want %v", ce.Cell, c)
	}
	if !IsConflict(err) {
		t.Error("IsConflict = false for a *ConflictError")
	}
	// Order must not matter.
	if _, err := New(Fault{Kind: StuckClosed, Cell: c}, Fault{Kind: StuckOpen, Cell: c}); !IsConflict(err) {
		t.Errorf("reversed overlap: got %v, want conflict", err)
	}

	if _, err := New(Fault{Kind: DeadPin, Pin: 0}); err == nil {
		t.Error("dead pin 0 accepted; pins are numbered from 1")
	}
}

func TestSpecRoundTrip(t *testing.T) {
	s := mustSet(t,
		Fault{Kind: DeadPin, Pin: 7},
		Fault{Kind: StuckClosed, Cell: grid.Cell{X: 7, Y: 2}},
		Fault{Kind: StuckOpen, Cell: grid.Cell{X: 3, Y: 4}},
		Fault{Kind: StuckOpen, Cell: grid.Cell{X: 1, Y: 4}},
	)
	want := "open@1,4;open@3,4;closed@7,2;dead#7"
	if got := s.String(); got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
	back, err := ParseSpec(" open@1,4; open@3,4 ;closed@7,2;dead#7 ")
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	if back.String() != want {
		t.Errorf("round trip = %q, want %q", back.String(), want)
	}
	if empty, err := ParseSpec("  "); err != nil || empty.Len() != 0 {
		t.Errorf("empty spec: set %v, err %v", empty, err)
	}
	for _, bad := range []string{"open@x,y", "flaky@1,2", "dead#-3", "dead#zero", "open@12", "closed@1;2"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted", bad)
		}
	}
}

func TestFromWear(t *testing.T) {
	snap := &telemetry.Snapshot{Electrodes: []telemetry.ElectrodeStat{
		{X: 1, Y: 2, Duty: 0.9},
		{X: 3, Y: 4, Duty: 0.2},
		{X: 5, Y: 6, Duty: 0.5},
	}}
	s, err := FromWear(snap, 0.5)
	if err != nil {
		t.Fatalf("FromWear: %v", err)
	}
	if got, want := s.String(), "open@1,2;open@5,6"; got != want {
		t.Errorf("FromWear = %q, want %q", got, want)
	}
	if _, err := FromWear(snap, 0); err == nil {
		t.Error("threshold 0 accepted")
	}
}

func TestRandomSetDeterministic(t *testing.T) {
	chip, err := arch.NewFPPC(21)
	if err != nil {
		t.Fatal(err)
	}
	a, err := RandomSet(rand.New(rand.NewSource(42)), chip, 5, true)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RandomSet(rand.New(rand.NewSource(42)), chip, 5, true)
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("same seed drew different sets: %q vs %q", a, b)
	}
	if a.Len() != 5 {
		t.Errorf("Len = %d, want 5", a.Len())
	}
	noDead, err := RandomSet(rand.New(rand.NewSource(7)), chip, 8, false)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(noDead.String(), "dead#") {
		t.Errorf("allowDead=false drew a dead pin: %q", noDead)
	}
}

func TestTransformSemantics(t *testing.T) {
	chip, err := arch.NewFPPC(21)
	if err != nil {
		t.Fatal(err)
	}
	var openCell, closedCell grid.Cell
	var deadPin int
	for _, e := range chip.Electrodes() {
		switch {
		case openCell == (grid.Cell{}) && e.Kind == arch.BusH:
			openCell = e.Cell
		case closedCell == (grid.Cell{}) && e.Kind == arch.BusV:
			closedCell = e.Cell
		case deadPin == 0 && e.Kind == arch.MixLoop:
			deadPin = e.Pin
		}
	}
	s := mustSet(t,
		Fault{Kind: StuckOpen, Cell: openCell},
		Fault{Kind: StuckClosed, Cell: closedCell},
		Fault{Kind: DeadPin, Pin: deadPin},
	)

	active := grid.NewCellSet(chip.W, chip.H)
	active.Add(openCell)
	for _, c := range chip.PinCells(deadPin) {
		active.Add(c)
	}
	s.Transform(chip, active)
	if active.Has(openCell) {
		t.Error("stuck-open cell still active after Transform")
	}
	for _, c := range chip.PinCells(deadPin) {
		if active.Has(c) {
			t.Errorf("dead-pin cell %v still active after Transform", c)
		}
	}
	if !active.Has(closedCell) {
		t.Error("stuck-closed cell not active after Transform")
	}

	// Refused reports the commanded-but-dead electrodes, once per cell.
	openPin := chip.ElectrodeAt(openCell).Pin
	ref := s.Refused(chip, pins.Activation{openPin, deadPin})
	seen := map[grid.Cell]bool{}
	for _, p := range ref {
		seen[p.Cell] = true
	}
	if !seen[openCell] {
		t.Errorf("Refused missing stuck-open cell %v", openCell)
	}
	for _, c := range chip.PinCells(deadPin) {
		if !seen[c] {
			t.Errorf("Refused missing dead-pin cell %v", c)
		}
	}
	if got := s.Refused(chip, pins.Activation{}); len(got) != 0 {
		t.Errorf("Refused with idle frame = %v, want none", got)
	}

	on := s.StuckOn(chip)
	if len(on) != 1 || on[0].Cell != closedCell {
		t.Errorf("StuckOn = %v, want [%v]", on, closedCell)
	}
}

func TestRestrictValidation(t *testing.T) {
	chip, err := arch.NewFPPC(21)
	if err != nil {
		t.Fatal(err)
	}
	// FPPC arrays are sparse; find a cell with no electrode.
	bare := grid.Cell{X: -1}
	for y := 0; y < chip.H && bare.X < 0; y++ {
		for x := 0; x < chip.W; x++ {
			if c := (grid.Cell{X: x, Y: y}); chip.ElectrodeAt(c) == nil {
				bare = c
				break
			}
		}
	}
	if bare.X < 0 {
		t.Fatal("chip geometry changed; no bare cell to test against")
	}
	s := mustSet(t, Fault{Kind: StuckOpen, Cell: bare})
	if err := s.Restrict(chip); err == nil {
		t.Error("Restrict accepted a fault on a non-electrode cell")
	}
	s = mustSet(t, Fault{Kind: DeadPin, Pin: chip.PinCount() + 1})
	if err := s.Restrict(chip); err == nil {
		t.Error("Restrict accepted a dead pin beyond the chip's pin count")
	}
}

func TestRestrictDisablesModules(t *testing.T) {
	chip, err := arch.NewFPPC(21)
	if err != nil {
		t.Fatal(err)
	}
	mix := chip.MixModules[1]
	ssd := chip.SSDModules[0]
	s := mustSet(t,
		Fault{Kind: StuckOpen, Cell: mix.Rect.Cells()[0]},
		Fault{Kind: StuckClosed, Cell: ssd.Hold},
	)
	if err := s.Restrict(chip); err != nil {
		t.Fatal(err)
	}
	if !mix.Disabled {
		t.Error("mix module with a stuck-open work cell not disabled")
	}
	if !ssd.Disabled {
		t.Error("SSD module with a stuck-closed hold cell not disabled")
	}
	if chip.MixModules[0].Disabled {
		t.Error("unfaulted mix module disabled")
	}
	// The stuck-closed hold cell and its cardinal neighbors are blocked.
	if !s.Blocked(chip, ssd.Hold) {
		t.Error("stuck-closed cell not Blocked")
	}
	for _, n := range ssd.Hold.Neighbors4() {
		if chip.ElectrodeAt(n) != nil && !s.Blocked(chip, n) {
			t.Errorf("cardinal neighbor %v of stuck-closed cell not Blocked", n)
		}
	}
}

// TestReservoirRingFault pins the edge case of a fault landing on a
// reservoir attach cell: fault-aware compilation must either shift the
// port off the dead cell or fail with the typed unsynthesizable error —
// never place a port on an electrode that cannot actuate.
func TestReservoirRingFault(t *testing.T) {
	a := assays.PCR(assays.DefaultTiming())
	pristine := compileFPPC(t, a, nil)
	if len(pristine.Chip.Ports) == 0 {
		t.Fatal("pristine compile placed no ports")
	}
	for _, port := range pristine.Chip.Ports[:2] {
		set := mustSet(t, Fault{Kind: StuckOpen, Cell: port.Cell})
		cfg := fixedConfig(core.TargetFPPC, pristine.Chip.H, 0, 0, set)
		res, err := core.Compile(a.Clone(), cfg)
		if err != nil {
			var uns *core.ErrUnsynthesizable
			if !errors.As(err, &uns) {
				t.Fatalf("port-cell fault at %v: untyped failure %v", port.Cell, err)
			}
			continue
		}
		for _, p := range res.Chip.Ports {
			if p.Cell == port.Cell {
				t.Errorf("port for %q still placed on the faulted cell %v", p.Fluid, p.Cell)
			}
		}
	}
}

// TestWholeBusPhaseFault kills every electrode of one FPPC transport-bus
// phase (all cells wired to one shared bus pin) and demands the flow
// notice: the outcome must be detected-and-resynthesized or
// unsynthesizable, never masked or missed — a silenced bus phase breaks
// every transport crossing it.
func TestWholeBusPhaseFault(t *testing.T) {
	chip, err := arch.NewFPPC(21)
	if err != nil {
		t.Fatal(err)
	}
	// Find a vertical-bus phase pin and fault every cell it drives.
	var busPin int
	for _, e := range chip.Electrodes() {
		if e.Kind == arch.BusV {
			busPin = e.Pin
			break
		}
	}
	if busPin == 0 {
		t.Fatal("no vertical bus electrode found")
	}
	var fs []Fault
	for _, c := range chip.PinCells(busPin) {
		fs = append(fs, Fault{Kind: StuckOpen, Cell: c})
	}
	if len(fs) < 2 {
		t.Fatalf("bus pin %d drives %d cells; expected a shared phase", busPin, len(fs))
	}
	set := mustSet(t, fs...)

	rep, err := Classify(assays.PCR(assays.DefaultTiming()), core.TargetFPPC, set)
	if err != nil {
		t.Fatalf("Classify: %v", err)
	}
	if rep.Outcome != Resynthesized && rep.Outcome != Unsynthesizable {
		t.Errorf("whole bus phase stuck-open classified %v (%s), want resynthesized or unsynthesizable",
			rep.Outcome, rep.Detail)
	}
}

func TestKindAndConflictRendering(t *testing.T) {
	want := map[Kind]string{
		StuckOpen:   "stuck-open",
		StuckClosed: "stuck-closed",
		DeadPin:     "dead-pin",
		Kind(9):     "Kind(9)",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), k.String(), s)
		}
	}
	ce := &ConflictError{Cell: grid.Cell{X: 2, Y: 3}}
	if !strings.Contains(ce.Error(), "both stuck-open and stuck-closed") {
		t.Errorf("conflict message %q", ce.Error())
	}
	var nilSet *Set
	if nilSet.Len() != 0 || nilSet.String() != "" || nilSet.Faults() != nil {
		t.Error("nil *Set is not the empty set")
	}
}
