// Package pinmap implements assay-specific broadcast pin assignment in
// the style of Xu & Chakrabarty [DAC 2008], the approach the paper's
// Table 2 compares against: given one concrete assay execution, electrodes
// whose activation constraints never conflict are merged onto a shared
// control pin, minimizing the pin count for that assay alone.
//
// The per-electrode constraint sequences are derived by replaying the
// compiled program on the electrowetting simulator: at every cycle an
// electrode is either required on (it is energized), required off (a
// droplet sits on or next to it and energizing it would disturb the
// droplet), or don't-care (no droplet nearby). Two electrodes may share a
// pin iff no cycle requires one on and the other off.
//
// Contrasting the resulting assay-specific pin count with the chip's
// fixed field-programmable assignment reproduces the paper's central
// trade-off: fewer pins per assay versus one wiring that runs them all.
package pinmap

import (
	"fmt"

	"fppc/internal/arch"
	"fppc/internal/grid"
	"fppc/internal/pins"
	"fppc/internal/router"
	"fppc/internal/sim"
)

// State is one electrode's requirement during one cycle.
type State int8

// Constraint states.
const (
	DontCare State = iota
	MustOff
	MustOn
)

// Constraints holds per-electrode requirement sequences for a program.
type Constraints struct {
	Cells  []grid.Cell // electrode enumeration (row-major)
	Cycles int
	seq    [][]State // indexed [cell][cycle]
}

// Derive replays the program and records every electrode's requirement
// per cycle. The replay must succeed (a physics violation aborts).
func Derive(chip *arch.Chip, prog *pins.Program, events []router.Event) (*Constraints, error) {
	cons := &Constraints{Cycles: prog.Len()}
	index := map[grid.Cell]int{}
	for _, e := range chip.Electrodes() {
		index[e.Cell] = len(cons.Cells)
		cons.Cells = append(cons.Cells, e.Cell)
	}
	cons.seq = make([][]State, len(cons.Cells))
	for i := range cons.seq {
		cons.seq[i] = make([]State, prog.Len())
	}

	rep := sim.NewReplay(chip, prog, events)
	for !rep.Done() {
		cycle := rep.Cycle()
		// Must-off: every electrode in the interference neighbourhood of
		// a droplet (including under it), unless this cycle energizes it.
		for _, d := range rep.Trace().Remaining {
			for _, cell := range d.Cells {
				nbrs := cell.Neighbors8()
				for _, c2 := range append([]grid.Cell{cell}, nbrs[:]...) {
					if i, ok := index[c2]; ok {
						cons.seq[i][cycle] = MustOff
					}
				}
			}
		}
		for cell := range pins.ActiveCells(chip, prog.Cycle(cycle)) {
			cons.seq[index[cell]][cycle] = MustOn
		}
		if !rep.Step() {
			break
		}
	}
	if err := rep.Err(); err != nil {
		return nil, fmt.Errorf("pinmap: constraint replay failed: %w", err)
	}
	return cons, nil
}

// Assignment maps electrodes to assay-specific broadcast pins.
type Assignment struct {
	Pins   int
	PinOf  map[grid.Cell]int // 1-based
	Groups [][]grid.Cell
}

// Merge greedily packs electrodes into compatible broadcast groups
// (first-fit over the electrode enumeration order, which is
// deterministic). The assignment is guaranteed conflict-free: within a
// group no cycle mixes MustOn and MustOff.
func Merge(cons *Constraints) *Assignment {
	asg := &Assignment{PinOf: map[grid.Cell]int{}}
	// Group requirement profile: the merged sequence so far.
	var profiles [][]State
	for i, cell := range cons.Cells {
		placed := false
		for g := range profiles {
			if compatible(profiles[g], cons.seq[i]) {
				union(profiles[g], cons.seq[i])
				asg.PinOf[cell] = g + 1
				asg.Groups[g] = append(asg.Groups[g], cell)
				placed = true
				break
			}
		}
		if !placed {
			prof := make([]State, cons.Cycles)
			copy(prof, cons.seq[i])
			profiles = append(profiles, prof)
			asg.Groups = append(asg.Groups, []grid.Cell{cell})
			asg.PinOf[cell] = len(profiles)
		}
	}
	asg.Pins = len(profiles)
	return asg
}

// compatible reports whether the sequences never demand opposite states.
func compatible(a, b []State) bool {
	for i := range a {
		if (a[i] == MustOn && b[i] == MustOff) || (a[i] == MustOff && b[i] == MustOn) {
			return false
		}
	}
	return true
}

// union folds b into a (MustOn/MustOff dominate DontCare).
func union(a, b []State) {
	for i := range a {
		if a[i] == DontCare {
			a[i] = b[i]
		}
	}
}

// Verify re-checks an assignment against the constraints: every group
// must be internally conflict-free, and broadcasting a group's union
// must satisfy each member's MustOn cycles.
func Verify(cons *Constraints, asg *Assignment) error {
	index := map[grid.Cell]int{}
	for i, cell := range cons.Cells {
		index[cell] = i
	}
	for g, group := range asg.Groups {
		for cyc := 0; cyc < cons.Cycles; cyc++ {
			on, off := false, false
			for _, cell := range group {
				switch cons.seq[index[cell]][cyc] {
				case MustOn:
					on = true
				case MustOff:
					off = true
				}
			}
			if on && off {
				return fmt.Errorf("pinmap: group %d conflicts at cycle %d", g+1, cyc)
			}
		}
	}
	for cell, pin := range asg.PinOf {
		if pin < 1 || pin > asg.Pins {
			return fmt.Errorf("pinmap: cell %v has pin %d outside [1,%d]", cell, pin, asg.Pins)
		}
	}
	return nil
}

// MergeByActivity is Merge with the electrodes considered busiest-first
// (most MustOn cycles), a common first-fit-decreasing improvement: the
// hard-to-place sequences seed the groups and the quiet electrodes fill
// in. Returns the better of the two orders.
func MergeByActivity(cons *Constraints) *Assignment {
	type scored struct{ idx, ons int }
	order := make([]scored, len(cons.Cells))
	for i := range cons.Cells {
		ons := 0
		for _, st := range cons.seq[i] {
			if st == MustOn {
				ons++
			}
		}
		order[i] = scored{i, ons}
	}
	for i := 1; i < len(order); i++ { // stable insertion by descending ons
		for j := i; j > 0 && order[j-1].ons < order[j].ons; j-- {
			order[j-1], order[j] = order[j], order[j-1]
		}
	}
	perm := &Constraints{Cycles: cons.Cycles}
	for _, sc := range order {
		perm.Cells = append(perm.Cells, cons.Cells[sc.idx])
		perm.seq = append(perm.seq, cons.seq[sc.idx])
	}
	a := Merge(perm)
	b := Merge(cons)
	if b.Pins < a.Pins {
		return b
	}
	return a
}
