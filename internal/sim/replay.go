package sim

import (
	"fmt"
	"strings"

	"fppc/internal/arch"
	"fppc/internal/grid"
	"fppc/internal/obs"
	"fppc/internal/pins"
	"fppc/internal/router"
	"fppc/internal/telemetry"
)

// Replay is a stepwise simulator: the same physics as Run, advanced one
// actuation cycle at a time, with frame rendering for visual inspection.
// RunInjected steps the same loop to the end.
type Replay struct {
	chip   *arch.Chip
	prog   *pins.Program
	events []router.Event
	inj    Injector // nil: the commanded frames energize as driven

	st    state
	cycle int
	evIdx int
	err   error
}

// NewReplay prepares a stepwise replay of a compiled program.
func NewReplay(chip *arch.Chip, prog *pins.Program, events []router.Event) *Replay {
	r := newReplay(chip, prog, events, nil, nil)
	return &r
}

// newReplay readies a replay at cycle 0 that counts on ob's simulator
// metrics and energizes through inj (both may be nil).
func newReplay(chip *arch.Chip, prog *pins.Program, events []router.Event, ob *obs.Observer, inj Injector) Replay {
	r := Replay{
		chip:   chip,
		prog:   prog,
		events: events,
		inj:    inj,
		st: state{
			chip:    chip,
			trace:   &Trace{},
			residue: make([]cellResidue, chip.W*chip.H),
			active:  grid.NewCellSet(chip.W, chip.H),
			seen:    grid.NewCellSet(chip.W, chip.H),
			cCycles: ob.Counter("fppc_sim_cycles_total"),
			cMoves:  ob.Counter("fppc_sim_droplet_moves_total"),
			cChecks: ob.Counter("fppc_sim_interference_checks_total"),
			cMerges: ob.Counter("fppc_sim_merges_total"),
			cSplits: ob.Counter("fppc_sim_splits_total"),
		},
	}
	r.checkEnd()
	return r
}

// Collect streams chip-level execution telemetry from the remaining
// steps into tc (nil disables), mirroring RunCollected.
func (r *Replay) Collect(tc *telemetry.Collector) {
	tc.BindChip(r.chip)
	r.st.tc = tc
}

// Done reports whether the program is exhausted or a violation occurred.
func (r *Replay) Done() bool { return r.err != nil || r.cycle >= r.prog.Len() }

// Err returns the first physics violation, if any, or the reservoir
// events left over once the program is exhausted.
func (r *Replay) Err() error { return r.err }

// Cycle returns the next cycle to execute.
func (r *Replay) Cycle() int { return r.cycle }

// Trace returns the running counters (valid at any point).
func (r *Replay) Trace() *Trace {
	t := *r.st.finish(r.cycle)
	return &t
}

// Step executes one actuation cycle: the cycle's reservoir events, then
// the droplet physics under its energized electrodes. It returns false
// once the replay cannot advance (completion or error).
func (r *Replay) Step() bool {
	if r.Done() {
		return false
	}
	s, cyc := &r.st, r.cycle
	for r.evIdx < len(r.events) && r.events[r.evIdx].Cycle == cyc {
		if r.err = s.apply(cyc, r.events[r.evIdx]); r.err != nil {
			return false
		}
		r.evIdx++
	}
	frame := r.prog.Cycle(cyc)
	s.active.Reset()
	for _, pin := range frame {
		for _, c := range r.chip.PinCells(pin) {
			s.active.Add(c)
		}
	}
	if r.inj != nil {
		r.inj.Transform(r.chip, s.active)
	}
	s.cCycles.Inc()
	s.tc.Frame(frame)
	if r.err = s.step(cyc); r.err != nil {
		return false
	}
	r.cycle++
	r.checkEnd()
	return true
}

// checkEnd fails the replay once the program is exhausted with
// reservoir events still pending.
func (r *Replay) checkEnd() {
	if r.cycle == r.prog.Len() && r.evIdx != len(r.events) {
		r.err = fmt.Errorf("sim: %d reservoir events beyond the program's end", len(r.events)-r.evIdx)
	}
}

// Frame renders the current array state as ASCII art: droplets as 'o'
// ('O' when stretched or merged beyond unit volume), energized electrodes
// as '+', idle electrodes as '-', interference regions as spaces.
func (r *Replay) Frame() string {
	var active map[grid.Cell]bool
	if r.cycle < r.prog.Len() {
		active = pins.ActiveCells(r.chip, r.prog.Cycle(r.cycle))
	} else {
		active = map[grid.Cell]bool{}
	}
	droplet := map[grid.Cell]*Droplet{}
	for _, d := range r.st.drops {
		for _, c := range d.Cells {
			droplet[c] = d
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "cycle %d/%d  droplets %d  merges %d  splits %d\n",
		r.cycle, r.prog.Len(), len(r.st.drops), r.st.trace.Merges, r.st.trace.Splits)
	for y := 0; y < r.chip.H; y++ {
		for x := 0; x < r.chip.W; x++ {
			cell := grid.Cell{X: x, Y: y}
			switch {
			case droplet[cell] != nil:
				d := droplet[cell]
				if len(d.Cells) > 1 || d.Volume > 1 {
					b.WriteByte('O')
				} else {
					b.WriteByte('o')
				}
			case r.chip.ElectrodeAt(cell) == nil:
				b.WriteByte(' ')
			case active[cell]:
				b.WriteByte('+')
			default:
				b.WriteByte('-')
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
