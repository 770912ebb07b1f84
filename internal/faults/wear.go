package faults

import (
	"fmt"
	"math/rand"
	"sort"

	"fppc/internal/arch"
	"fppc/internal/grid"
	"fppc/internal/pins"
	"fppc/internal/telemetry"
)

// WearState accumulates per-electrode actuation counts across the
// lifetime of one physical chip. Each compiled program that runs on the
// chip contributes its commanded wear (Absorb of CommandedWear); fleet
// scenarios and tests that need reproducible degradation without a
// program use AdvanceSeeded instead. The accumulated state converts
// back into the telemetry Snapshot form, where each electrode's Duty is
// the fraction of its rated actuation life already consumed — so
// FromWear (the facade's FaultsFromWear) with threshold 1.0 yields the
// chip's wear-derived fault set.
//
// The model is cycle-count dielectric degradation: an electrode is worn
// out after ratedLife actuation cycles, independent of how the cycles
// were spread across programs. This is deliberately simpler than a
// duty-cycle-within-one-run model, which would declare a droplet-holding
// electrode dead after a single assay.
type WearState struct {
	cycles int64
	acts   map[grid.Cell]int64
}

// NewWearState returns an empty wear record.
func NewWearState() *WearState {
	return &WearState{acts: make(map[grid.Cell]int64)}
}

// Cycles returns the total program cycles absorbed so far.
func (w *WearState) Cycles() int64 {
	if w == nil {
		return 0
	}
	return w.cycles
}

// Actuations returns the accumulated actuation count of one electrode.
func (w *WearState) Actuations(c grid.Cell) int64 {
	if w == nil {
		return 0
	}
	return w.acts[c]
}

// ProgramWear is the wear one run of a compiled program adds to its
// chip: the cycles it runs and, in row-major order, every electrode it
// actuates with its actuation count.
type ProgramWear struct {
	Cycles     int64
	Electrodes []ElectrodeWear
}

// ElectrodeWear is one electrode's share of a ProgramWear.
type ElectrodeWear struct {
	Cell       grid.Cell
	Actuations int64
}

// CommandedWear counts the wear the program commands on the chip: each
// cycle drives its frame's pins, and a driven pin actuates every
// electrode wired to it. These are the counts a telemetry collector
// records over a full replay of the same program, which also counts
// the commanded frames (with or without injected faults), so they need
// no droplet physics. A nil program commands no wear.
func CommandedWear(chip *arch.Chip, prog *pins.Program) ProgramWear {
	if prog == nil {
		return ProgramWear{}
	}
	pinActs := make([]int64, chip.PinCount()+1)
	for i := 0; i < prog.Len(); i++ {
		for _, pin := range prog.Cycle(i) {
			if pin > 0 && pin < len(pinActs) {
				pinActs[pin]++
			}
		}
	}
	pw := ProgramWear{Cycles: int64(prog.Len())}
	for _, e := range chip.Electrodes() {
		if n := pinActs[e.Pin]; n > 0 {
			pw.Electrodes = append(pw.Electrodes, ElectrodeWear{Cell: e.Cell, Actuations: n})
		}
	}
	return pw
}

// Absorb adds one program run's wear to the record: every electrode's
// actuation count and the program's cycle count.
func (w *WearState) Absorb(pw ProgramWear) {
	if w == nil {
		return
	}
	w.cycles += pw.Cycles
	for _, e := range pw.Electrodes {
		w.acts[e.Cell] += e.Actuations
	}
}

// AdvanceSeeded synthesizes the wear of `cycles` further actuation
// cycles without running a replay: a PRNG seeded by `seed` charges
// `cells` electrodes, preferring the already most-worn ones (ties and
// pristine cells in (y,x) order), each for the full cycle count. The
// result is deterministic for a fixed (seed, cycles, cells) triple and
// the current state, which is what makes fleet scenarios and tests
// reproducible.
func (w *WearState) AdvanceSeeded(chip *arch.Chip, seed int64, cycles int64, cells int) {
	if w == nil || chip == nil || cycles <= 0 || cells <= 0 {
		return
	}
	ranked := w.rankedCells(chip)
	if len(ranked) == 0 {
		return
	}
	if cells > len(ranked) {
		cells = len(ranked)
	}
	// The rng walks the ranking from the top, skipping each candidate
	// with small probability, so distinct seeds wear slightly different
	// cell sets while still concentrating on the hot ones.
	rng := rand.New(rand.NewSource(seed))
	chosen := make([]grid.Cell, 0, cells)
	for _, c := range ranked {
		if len(chosen) == cells {
			break
		}
		if rng.Float64() < 0.25 {
			continue
		}
		chosen = append(chosen, c)
	}
	// Backfill from the top if the skips exhausted the ranking.
	for _, c := range ranked {
		if len(chosen) == cells {
			break
		}
		if !containsCell(chosen, c) {
			chosen = append(chosen, c)
		}
	}
	w.cycles += cycles
	for _, c := range chosen {
		w.acts[c] += cycles
	}
}

// rankedCells orders the chip's electrodes most-worn first, with ties
// (including pristine cells) broken by (y,x).
func (w *WearState) rankedCells(chip *arch.Chip) []grid.Cell {
	els := chip.Electrodes()
	cells := make([]grid.Cell, len(els))
	for i, e := range els {
		cells[i] = e.Cell
	}
	sort.Slice(cells, func(i, j int) bool {
		a, b := cells[i], cells[j]
		if w.acts[a] != w.acts[b] {
			return w.acts[a] > w.acts[b]
		}
		if a.Y != b.Y {
			return a.Y < b.Y
		}
		return a.X < b.X
	})
	return cells
}

func containsCell(cs []grid.Cell, c grid.Cell) bool {
	for _, x := range cs {
		if x == c {
			return true
		}
	}
	return false
}

// Clone returns an independent copy, a consistent read of the record
// while the original keeps changing.
func (w *WearState) Clone() *WearState {
	out := NewWearState()
	if w == nil {
		return out
	}
	out.cycles = w.cycles
	for c, n := range w.acts {
		out.acts[c] = n
	}
	return out
}

// Consumed returns the fraction of the electrode's rated actuation life
// already spent (may exceed 1.0 once the electrode is past its rating).
func (w *WearState) Consumed(c grid.Cell, ratedLife int64) float64 {
	if w == nil || ratedLife <= 0 {
		return 0
	}
	return float64(w.acts[c]) / float64(ratedLife)
}

// MaxConsumed returns the worst per-electrode life consumption — the
// chip's headline wear gauge.
func (w *WearState) MaxConsumed(ratedLife int64) float64 {
	if w == nil || ratedLife <= 0 {
		return 0
	}
	var max float64
	for _, n := range w.acts {
		if v := float64(n) / float64(ratedLife); v > max {
			max = v
		}
	}
	return max
}

// MaxConsumedAfter returns what MaxConsumed would read after
// Absorb(pw), without changing the record: the larger of the current
// worst consumption and each absorbed electrode's (actuations + n) /
// ratedLife. The values are the same float64s, bit for bit.
func (w *WearState) MaxConsumedAfter(pw ProgramWear, ratedLife int64) float64 {
	if ratedLife <= 0 {
		return 0
	}
	max := w.MaxConsumed(ratedLife)
	for _, e := range pw.Electrodes {
		if v := float64(w.Actuations(e.Cell)+e.Actuations) / float64(ratedLife); v > max {
			max = v
		}
	}
	return max
}

// Snapshot exports the wear record in the telemetry Snapshot form, with
// each electrode's Duty set to its consumed life fraction. Feeding the
// result to FromWear with threshold 1.0 yields the wear-derived fault
// set (every electrode at or past its rated life becomes stuck-open).
func (w *WearState) Snapshot(chip *arch.Chip, ratedLife int64) *telemetry.Snapshot {
	snap := &telemetry.Snapshot{
		Chip: telemetry.ChipMeta{Name: chip.Name, W: chip.W, H: chip.H, Pins: chip.PinCount()},
	}
	if w == nil || ratedLife <= 0 {
		return snap
	}
	snap.Cycles = int(w.cycles)
	var cells []grid.Cell
	for c, n := range w.acts {
		if n > 0 {
			cells = append(cells, c)
		}
	}
	sort.Slice(cells, func(i, j int) bool {
		if cells[i].Y != cells[j].Y {
			return cells[i].Y < cells[j].Y
		}
		return cells[i].X < cells[j].X
	})
	for _, c := range cells {
		stat := telemetry.ElectrodeStat{
			X: c.X, Y: c.Y,
			Actuations: w.acts[c],
			Duty:       float64(w.acts[c]) / float64(ratedLife),
		}
		if e := chip.ElectrodeAt(c); e != nil {
			stat.Pin = e.Pin
			stat.Kind = e.Kind.String()
		}
		snap.Electrodes = append(snap.Electrodes, stat)
		snap.ElectrodeActuations += stat.Actuations
		if stat.Duty > snap.MaxDuty {
			snap.MaxDuty = stat.Duty
		}
	}
	return snap
}

// FaultSet derives the chip's wear fault set: every electrode whose
// rated actuation life is exhausted is declared stuck-open, via the
// same FromWear bridge the telemetry layer established.
func (w *WearState) FaultSet(chip *arch.Chip, ratedLife int64) (*Set, error) {
	if ratedLife <= 0 {
		return nil, fmt.Errorf("faults: rated life %d must be positive", ratedLife)
	}
	return FromWear(w.Snapshot(chip, ratedLife), 1.0)
}

// Merge combines a chip's base (manufacturing) fault set with an extra
// (wear-derived) one. Extra faults that duplicate or contradict a base
// declaration are dropped — the base set describes defects already
// known, so a worn-out electrode that was already stuck-closed stays
// stuck-closed. Merge never fails and is nil-safe on both sides.
func Merge(base, extra *Set) *Set {
	var fs []Fault
	if base != nil {
		fs = append(fs, base.Faults()...)
	}
	if extra != nil {
		for _, f := range extra.Faults() {
			switch f.Kind {
			case StuckOpen, StuckClosed:
				if base != nil && (base.open[f.Cell] || base.closed[f.Cell]) {
					continue
				}
			case DeadPin:
				if base != nil && base.dead[f.Pin] {
					continue
				}
			}
			fs = append(fs, f)
		}
	}
	s, err := New(fs...)
	if err != nil {
		// Unreachable: conflicts between base and extra were filtered
		// above, and each input set is internally consistent.
		s, _ = New()
		if base != nil {
			return base
		}
	}
	return s
}
