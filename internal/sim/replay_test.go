package sim

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"fppc/internal/arch"
	"fppc/internal/assays"
	"fppc/internal/core"
	"fppc/internal/grid"
	"fppc/internal/pins"
	"fppc/internal/router"
)

func TestReplayMatchesRun(t *testing.T) {
	c := chip(t, 9)
	ssd := c.SSDModules[0]
	var p pins.Program
	events := []router.Event{{Cycle: 0, Kind: router.EvDispense, Cell: ssd.Bus}}
	p.Append(pinAt(t, c, ssd.Bus))
	p.Append(pinAt(t, c, ssd.Bus), pinAt(t, c, ssd.IO))
	p.Append(pinAt(t, c, ssd.Bus), pinAt(t, c, ssd.Hold))

	want, err := Run(c, &p, events)
	if err != nil {
		t.Fatal(err)
	}
	r := NewReplay(c, &p, events)
	steps := 0
	for r.Step() {
		steps++
	}
	if r.Err() != nil {
		t.Fatalf("replay error: %v", r.Err())
	}
	if steps != p.Len() {
		t.Errorf("steps = %d, want %d", steps, p.Len())
	}
	got := r.Trace()
	if got.Splits != want.Splits || got.Merges != want.Merges ||
		got.Dispenses != want.Dispenses || len(got.Remaining) != len(want.Remaining) {
		t.Errorf("replay trace %+v != run trace %+v", got, want)
	}
}

// table1Traces pins the simulator's trace of every Table 1 program
// (FPPC, auto-grown, one rotation per step): cycles, merges, splits,
// cross contacts over foreign residue and droplets left on the array.
var table1Traces = []struct {
	name                                             string
	cycles, merges, splits, crossContacts, remaining int
}{
	{"PCR", 200, 7, 0, 95, 0},
	{"In-Vitro 1", 194, 4, 0, 84, 0},
	{"In-Vitro 2", 326, 6, 0, 182, 0},
	{"In-Vitro 3", 483, 9, 0, 302, 0},
	{"In-Vitro 4", 717, 12, 0, 502, 0},
	{"In-Vitro 5", 1033, 16, 0, 757, 0},
	{"Protein Split 1", 440, 9, 9, 6, 0},
	{"Protein Split 2", 927, 19, 19, 6, 0},
	{"Protein Split 3", 1932, 39, 39, 6, 0},
	{"Protein Split 4", 4160, 79, 79, 6, 0},
	{"Protein Split 5", 8986, 159, 159, 6, 0},
	{"Protein Split 6", 18699, 319, 319, 6, 0},
	{"Protein Split 7", 41917, 639, 639, 6, 0},
}

// TestReplayToEndMatchesRun steps a Replay through every Table 1
// program, and through PCR's program broken three ways: the final trace
// and error must be Run's, including the error for reservoir events
// scheduled past the program's end. The Table 1 traces must also match
// table1Traces.
func TestReplayToEndMatchesRun(t *testing.T) {
	type replayCase struct {
		name    string
		chip    *arch.Chip
		prog    *pins.Program
		events  []router.Event
		wantErr string // "" for a clean run
	}
	var cases []replayCase
	for _, a := range assays.Table1Benchmarks(assays.DefaultTiming()) {
		res, err := core.Compile(a, core.Config{
			Target: core.TargetFPPC, AutoGrow: true,
			Router: router.Options{EmitProgram: true, RotationsPerStep: 1},
		})
		if err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		cases = append(cases, replayCase{a.Name, res.Chip, res.Routing.Program, res.Routing.Events, ""})
	}
	pcr := cases[0]
	mid := pcr.prog.Len() / 2
	past := append(append([]router.Event(nil), pcr.events...),
		router.Event{Cycle: pcr.prog.Len() + 3, Kind: router.EvOutput, Cell: pcr.events[0].Cell})
	var stray []router.Event
	for i, ev := range pcr.events {
		if ev.Cycle > mid && (i == 0 || pcr.events[i-1].Cycle <= mid) {
			stray = append(stray, router.Event{Cycle: mid, Kind: router.EvOutput, Cell: grid.Cell{X: 0, Y: 0}})
		}
		stray = append(stray, ev)
	}
	var blank pins.Program
	for c := 0; c < pcr.prog.Len(); c++ {
		if c == mid {
			blank.Append()
		} else {
			blank.Append(pcr.prog.Cycle(c)...)
		}
	}
	cases = append(cases,
		replayCase{"PCR, events past the end", pcr.chip, pcr.prog, past, "beyond the program's end"},
		replayCase{"PCR, output with no droplet", pcr.chip, pcr.prog, stray, "no droplet at the port"},
		replayCase{"PCR, blank frame", pcr.chip, &blank, pcr.events, "drifts"})
	for i, c := range cases {
		want, wantErr := Run(c.chip, c.prog, c.events)
		if (wantErr == nil) != (c.wantErr == "") || (wantErr != nil && !strings.Contains(wantErr.Error(), c.wantErr)) {
			t.Fatalf("%s: Run returned %v, want an error containing %q", c.name, wantErr, c.wantErr)
		}
		if i < len(table1Traces) {
			w := table1Traces[i]
			if c.name != w.name || want.Cycles != w.cycles || want.Merges != w.merges || want.Splits != w.splits ||
				want.CrossContacts != w.crossContacts || len(want.Remaining) != w.remaining {
				t.Errorf("%s: cycles %d, merges %d, splits %d, cross contacts %d, remaining %d; want %+v",
					c.name, want.Cycles, want.Merges, want.Splits, want.CrossContacts, len(want.Remaining), w)
			}
		}
		r := NewReplay(c.chip, c.prog, c.events)
		for r.Step() {
		}
		if got, gotErr := r.Trace(), r.Err(); fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: replay ended at cycle %d with %v; Run ended at %d with %v (traces equal: %t)",
				c.name, got.Cycles, gotErr, want.Cycles, wantErr, reflect.DeepEqual(got, want))
		}
	}
}

func TestReplayStopsOnError(t *testing.T) {
	c := chip(t, 9)
	var p pins.Program
	events := []router.Event{{Cycle: 0, Kind: router.EvDispense, Cell: grid.Cell{X: 0, Y: 0}}}
	p.Append(pinAt(t, c, grid.Cell{X: 0, Y: 0}))
	p.Append() // drift
	p.Append(pinAt(t, c, grid.Cell{X: 0, Y: 0}))
	r := NewReplay(c, &p, events)
	for r.Step() {
	}
	if r.Err() == nil {
		t.Fatal("drift not detected")
	}
	if r.Cycle() != 1 {
		t.Errorf("stopped at cycle %d, want 1", r.Cycle())
	}
	if r.Step() {
		t.Errorf("Step continued after error")
	}
}

func TestReplayFrame(t *testing.T) {
	c := chip(t, 9)
	var p pins.Program
	events := []router.Event{{Cycle: 0, Kind: router.EvDispense, Cell: grid.Cell{X: 4, Y: 0}}}
	p.Append(pinAt(t, c, grid.Cell{X: 4, Y: 0}))
	r := NewReplay(c, &p, events)
	r.Step()
	frame := r.Frame()
	if !strings.Contains(frame, "o") {
		t.Errorf("frame missing droplet:\n%s", frame)
	}
	if !strings.Contains(frame, "cycle 1/1") {
		t.Errorf("frame header wrong:\n%s", frame)
	}
	lines := strings.Split(strings.TrimRight(frame, "\n"), "\n")
	if len(lines) != 1+c.H {
		t.Errorf("frame has %d lines, want %d", len(lines), 1+c.H)
	}
	for _, line := range lines[1:] {
		if len(line) != c.W {
			t.Errorf("frame row width %d, want %d", len(line), c.W)
		}
	}
	// Interference regions render as spaces.
	if !strings.Contains(frame, " ") {
		t.Errorf("frame missing interference spaces")
	}
}
