// Package sim is a cycle-level electrowetting simulator: it replays a
// compiled pin-activation program on a chip and moves droplets according
// to the standard DMFB physics abstraction (paper section 1.1.1):
//
//   - a droplet moves onto an adjacent activated electrode;
//   - it holds if its own electrode stays activated;
//   - with no activated electrode nearby it drifts unpredictably — an
//     execution error;
//   - two adjacent activated electrodes stretch a droplet across both;
//     releasing the middle of a stretched droplet while energizing both
//     ends splits it (Figure 8);
//   - droplets that come within the interference range (Chebyshev
//     distance 1) merge (Figure 2).
//
// Because activation is per-PIN, the simulator exercises exactly the
// hazard the pin-constrained architecture must avoid: an activation
// intended for one droplet energizing an electrode near another.
package sim

import (
	"fmt"

	"fppc/internal/arch"
	"fppc/internal/grid"
	"fppc/internal/obs"
	"fppc/internal/pins"
	"fppc/internal/router"
	"fppc/internal/telemetry"
)

// Droplet is a body of fluid on the array occupying one cell, or two
// while stretched during a split.
type Droplet struct {
	ID     int
	Cells  []grid.Cell
	Volume float64 // in dispense units
	// Solute tracks how much of each dispensed fluid the droplet carries
	// (in dispense units); Solute sums to Volume. Concentration of fluid
	// f is Solute[f]/Volume.
	Solute map[string]float64

	// fluid is the dominant fluid (dominantFluid), the residue the
	// droplet leaves. Solute changes only at dispense, split and
	// coalesce, so those three set it.
	fluid string
}

// Concentration returns the fraction of the droplet that originated from
// the given dispense fluid.
func (d *Droplet) Concentration(fluid string) float64 {
	if d.Volume == 0 {
		return 0
	}
	return d.Solute[fluid] / d.Volume
}

// contains reports whether the droplet covers the cell.
func (d *Droplet) contains(c grid.Cell) bool {
	for _, dc := range d.Cells {
		if dc == c {
			return true
		}
	}
	return false
}

// near reports whether the droplet comes within the fluidic interference
// range of the other droplet.
func (d *Droplet) near(o *Droplet) bool {
	for _, a := range d.Cells {
		for _, b := range o.Cells {
			if grid.Chebyshev(a, b) <= 1 {
				return true
			}
		}
	}
	return false
}

// Error is a physics violation during replay.
type Error struct {
	Cycle   int
	Droplet int
	Cell    grid.Cell
	Msg     string
}

func (e *Error) Error() string {
	return fmt.Sprintf("sim: cycle %d, droplet %d at %v: %s", e.Cycle, e.Droplet, e.Cell, e.Msg)
}

// MergeEvent records one droplet coalescence for diagnostics.
type MergeEvent struct {
	Cycle int
	Cell  grid.Cell
}

// Trace summarizes a replay.
type Trace struct {
	Cycles    int
	Dispenses int
	Outputs   int
	Merges    int
	Splits    int

	MergeLog []MergeEvent

	// CrossContacts counts cells where a droplet traveled over residue
	// left by a droplet of different composition — the cross-contamination
	// exposure that wash-droplet methodologies (Lin & Chang, cited as
	// related work) exist to clean. Sequential routing over shared buses
	// makes this metric interesting for the pin-constrained design.
	CrossContacts int

	VolumeIn  float64 // total dispensed
	VolumeOut float64 // total absorbed by output reservoirs

	Remaining []Droplet // droplets still on the array at the end
	Collected []Droplet // droplets absorbed by output reservoirs, in order
}

// VolumeRemaining sums the volume still on-chip.
func (t *Trace) VolumeRemaining() float64 {
	v := 0.0
	for _, d := range t.Remaining {
		v += d.Volume
	}
	return v
}

// Run replays the program with its reservoir events on the chip. It
// returns the trace and the first physics violation encountered (the
// trace is valid up to that cycle).
func Run(chip *arch.Chip, prog *pins.Program, events []router.Event) (*Trace, error) {
	return RunObserved(chip, prog, events, nil)
}

// RunObserved is Run with cycle, droplet-move and interference-check
// metrics recorded on ob (nil disables).
func RunObserved(chip *arch.Chip, prog *pins.Program, events []router.Event, ob *obs.Observer) (*Trace, error) {
	return RunCollected(chip, prog, events, ob, nil)
}

// RunCollected is RunObserved additionally streaming chip-level
// execution telemetry — per-electrode actuations, congestion, droplet
// motion — into tc (nil disables; the hooks then cost one nil check
// per cycle, pinned by BenchmarkSimTelemetryOff).
func RunCollected(chip *arch.Chip, prog *pins.Program, events []router.Event, ob *obs.Observer, tc *telemetry.Collector) (*Trace, error) {
	return RunInjected(chip, prog, events, ob, tc, nil)
}

// Injector mutates the set of energized cells each cycle before the
// droplet physics runs, modeling hardware faults: a stuck-open electrode
// is removed from the active set even when its pin is driven, a
// stuck-closed electrode is added even when its pin is idle. The
// canonical implementation is faults.Set.
type Injector interface {
	Transform(chip *arch.Chip, active *grid.CellSet)
}

// RunInjected is RunCollected with a hardware fault injector applied to
// every cycle's active-cell set (nil behaves exactly like RunCollected).
// The replay reports how the *physical* degraded chip would behave; the
// telemetry collector still records the commanded frames, matching what
// the controller believes it sent. It steps the same loop as Replay.
func RunInjected(chip *arch.Chip, prog *pins.Program, events []router.Event, ob *obs.Observer, tc *telemetry.Collector, inj Injector) (*Trace, error) {
	sp := ob.Span("simulate")
	sp.ArgInt("cycles", int64(prog.Len()))
	defer sp.End()
	r := newReplay(chip, prog, events, ob, inj)
	r.Collect(tc)
	for r.Step() {
	}
	return r.st.finish(r.cycle), r.err
}

type state struct {
	chip   *arch.Chip
	drops  []*Droplet
	nextID int
	trace  *Trace
	tc     *telemetry.Collector // nil when telemetry is off

	// residue records, row-major per cell, the dominant fluid last
	// deposited there.
	residue []cellResidue

	// Per-cycle scratch, reused so the replay loop stays allocation-free
	// on its steady state (pinned by the sim_replay_pcr ceiling in
	// scripts/allocs_floor.txt): the energized-electrode set, reset each
	// cycle; advance's candidate set, reset per droplet, and its pull
	// list; and step's next-generation droplet list.
	active   *grid.CellSet
	seen     *grid.CellSet
	pullsBuf []grid.Cell
	dropsBuf []*Droplet

	cCycles *obs.Counter
	cMoves  *obs.Counter
	cChecks *obs.Counter
	cMerges *obs.Counter
	cSplits *obs.Counter
}

// cellResidue is one cell's residue: the dominant fluid of the last
// droplet that covered it, once any has.
type cellResidue struct {
	fluid string
	dirty bool
}

// apply handles a reservoir event at the start of a cycle.
func (s *state) apply(cyc int, ev router.Event) error {
	switch ev.Kind {
	case router.EvDispense:
		for _, d := range s.drops {
			for _, c := range d.Cells {
				if grid.Chebyshev(c, ev.Cell) <= 1 {
					return &Error{Cycle: cyc, Droplet: d.ID, Cell: ev.Cell,
						Msg: "dispense into another droplet's interference region"}
				}
			}
		}
		s.drops = append(s.drops, &Droplet{
			ID: s.nextID, Cells: []grid.Cell{ev.Cell}, Volume: 1,
			Solute: map[string]float64{ev.Fluid: 1}, fluid: ev.Fluid,
		})
		s.nextID++
		s.trace.Dispenses++
		s.trace.VolumeIn++
		return nil
	case router.EvOutput:
		for i, d := range s.drops {
			if d.contains(ev.Cell) {
				s.trace.Outputs++
				s.trace.VolumeOut += d.Volume
				s.trace.Collected = append(s.trace.Collected, *d)
				s.drops = append(s.drops[:i], s.drops[i+1:]...)
				return nil
			}
		}
		return &Error{Cycle: cyc, Cell: ev.Cell, Droplet: -1, Msg: "output event with no droplet at the port"}
	}
	return fmt.Errorf("sim: unknown event kind %d", int(ev.Kind))
}

// step advances every droplet one actuation cycle under s.active.
func (s *state) step(cyc int) error {
	newDrops := s.dropsBuf[:0]
	for _, d := range s.drops {
		moved, extra, err := s.advance(cyc, d)
		if err != nil {
			return err
		}
		newDrops = append(newDrops, moved)
		if extra != nil {
			newDrops = append(newDrops, extra)
			s.trace.Splits++
			s.cSplits.Inc()
		}
	}
	// Swap generations: the old droplet list becomes next cycle's scratch.
	s.drops, s.dropsBuf = newDrops, s.drops
	s.trackResidue()
	if err := s.mergePass(cyc); err != nil {
		return err
	}
	if s.tc != nil {
		for _, d := range s.drops {
			s.tc.Occupy(d.ID, d.Cells)
		}
	}
	return nil
}

// trackResidue updates per-cell residue footprints and counts crossings
// over foreign residue. It runs right after advance, which leaves every
// droplet on energized electrodes, so every cell is on the array.
func (s *state) trackResidue() {
	for _, d := range s.drops {
		for _, c := range d.Cells {
			r := &s.residue[c.Y*s.chip.W+c.X]
			if r.dirty && r.fluid != d.fluid {
				s.trace.CrossContacts++
			}
			r.fluid, r.dirty = d.fluid, true
		}
	}
}

// dominantFluid names the droplet's largest solute component (ties by
// name order), or "" for untracked droplets.
func dominantFluid(d *Droplet) string {
	best, bestV := "", -1.0
	for f, v := range d.Solute {
		if v > bestV || (v == bestV && f < best) {
			best, bestV = f, v
		}
	}
	return best
}

// advance computes a droplet's response to the activation pattern. It
// may return a second droplet when the fluid splits.
func (s *state) advance(cyc int, d *Droplet) (*Droplet, *Droplet, error) {
	// Candidate electrodes: the droplet's own cells and their cardinal
	// neighbours that carry electrodes.
	s.seen.Reset()
	pulls := s.pullsBuf[:0]
	consider := func(c grid.Cell) {
		if s.seen.Has(c) {
			return
		}
		s.seen.Add(c)
		if s.active.Has(c) && s.chip.ElectrodeAt(c) != nil {
			pulls = append(pulls, c)
		}
	}
	for _, c := range d.Cells {
		consider(c)
	}
	for _, c := range d.Cells {
		for _, n := range c.Neighbors4() {
			consider(n)
		}
	}
	s.pullsBuf = pulls[:0]

	switch len(d.Cells) {
	case 1:
		cur := d.Cells[0]
		switch len(pulls) {
		case 0:
			return nil, nil, &Error{Cycle: cyc, Droplet: d.ID, Cell: cur, Msg: "no activated electrode nearby: droplet drifts"}
		case 1:
			if pulls[0] != cur {
				s.cMoves.Inc()
			}
			d.Cells[0] = pulls[0]
			return d, nil, nil
		case 2:
			a, b := pulls[0], pulls[1]
			if (a == cur || b == cur) && grid.Adjacent4(a, b) {
				// Own cell plus one neighbour: stretch across both.
				d.Cells = []grid.Cell{a, b}
				s.cMoves.Inc()
				return d, nil, nil
			}
			if grid.Adjacent4(a, cur) && grid.Adjacent4(b, cur) {
				return nil, nil, &Error{Cycle: cyc, Droplet: d.ID, Cell: cur,
					Msg: fmt.Sprintf("two opposing electrodes %v and %v activated: droplet tears", a, b)}
			}
			return nil, nil, &Error{Cycle: cyc, Droplet: d.ID, Cell: cur, Msg: "ambiguous activation pattern"}
		default:
			return nil, nil, &Error{Cycle: cyc, Droplet: d.ID, Cell: cur,
				Msg: fmt.Sprintf("%d electrodes activated around one droplet", len(pulls))}
		}
	case 2:
		a, b := d.Cells[0], d.Cells[1]
		onBody := func(c grid.Cell) bool { return c == a || c == b }
		switch len(pulls) {
		case 0:
			return nil, nil, &Error{Cycle: cyc, Droplet: d.ID, Cell: a, Msg: "stretched droplet with no activated electrode: drifts"}
		case 1:
			p := pulls[0]
			if onBody(p) || grid.Adjacent4(p, a) || grid.Adjacent4(p, b) {
				d.Cells = []grid.Cell{p}
				s.cMoves.Inc()
				return d, nil, nil
			}
			return nil, nil, &Error{Cycle: cyc, Droplet: d.ID, Cell: a, Msg: "stretched droplet pulled to a detached electrode"}
		case 2:
			p, q := pulls[0], pulls[1]
			if onBody(p) && onBody(q) {
				return d, nil, nil // hold the stretch
			}
			// One end held, the other half pulled away: split (Figure 8).
			var keep, pull grid.Cell
			switch {
			case onBody(p) && !onBody(q):
				keep, pull = p, q
			case onBody(q) && !onBody(p):
				keep, pull = q, p
			default:
				return nil, nil, &Error{Cycle: cyc, Droplet: d.ID, Cell: a, Msg: "stretched droplet pulled by two detached electrodes"}
			}
			half := d.Volume / 2
			halfSolute := make(map[string]float64, len(d.Solute))
			for f, v := range d.Solute {
				halfSolute[f] = v / 2
				d.Solute[f] = v / 2
			}
			d.Cells = []grid.Cell{keep}
			d.Volume = half
			// Halving every component keeps the dominant fluid.
			other := &Droplet{ID: s.nextID, Cells: []grid.Cell{pull}, Volume: half, Solute: halfSolute, fluid: d.fluid}
			s.nextID++
			s.cMoves.Inc()
			return d, other, nil
		default:
			return nil, nil, &Error{Cycle: cyc, Droplet: d.ID, Cell: a,
				Msg: fmt.Sprintf("%d electrodes activated around a stretched droplet", len(pulls))}
		}
	}
	return nil, nil, &Error{Cycle: cyc, Droplet: d.ID, Cell: d.Cells[0], Msg: "droplet covers more than two cells"}
}

// mergePass coalesces droplets that entered each other's interference
// range, repeating until stable.
func (s *state) mergePass(cyc int) error {
	for {
		merged := false
		for i := 0; i < len(s.drops) && !merged; i++ {
			for j := i + 1; j < len(s.drops); j++ {
				s.cChecks.Inc()
				if s.drops[i].near(s.drops[j]) {
					s.trace.MergeLog = append(s.trace.MergeLog, MergeEvent{Cycle: cyc, Cell: s.drops[i].Cells[0]})
					s.drops[i] = coalesce(s.drops[i], s.drops[j])
					s.drops = append(s.drops[:j], s.drops[j+1:]...)
					s.trace.Merges++
					s.cMerges.Inc()
					merged = true
					break
				}
			}
		}
		if !merged {
			return nil
		}
	}
}

// coalesce unions two droplets. The result sits on the union of their
// cells (trimmed to at most two; the next cycle's activation contracts
// it onto the energized electrode).
func coalesce(a, b *Droplet) *Droplet {
	cells := append(append([]grid.Cell{}, a.Cells...), b.Cells...)
	if len(cells) > 2 {
		cells = cells[:2]
	}
	solute := make(map[string]float64, len(a.Solute)+len(b.Solute))
	for f, v := range a.Solute {
		solute[f] += v
	}
	for f, v := range b.Solute {
		solute[f] += v
	}
	d := &Droplet{ID: a.ID, Cells: cells, Volume: a.Volume + b.Volume, Solute: solute}
	d.fluid = dominantFluid(d)
	return d
}

// finish snapshots the trace.
func (s *state) finish(cycles int) *Trace {
	s.trace.Cycles = cycles
	s.trace.Remaining = nil
	for _, d := range s.drops {
		s.trace.Remaining = append(s.trace.Remaining, *d)
	}
	return s.trace
}
