// Package oracle is an independent electrode-level verifier for
// compiled pin-activation programs. It re-derives droplet positions and
// fluidic-constraint violations directly from the per-cycle pin frames
// and the chip's wiring table, sharing no position-tracking code with
// internal/sim, and then checks end-to-end invariants against the assay
// DAG: no unintended merges, no droplet loss, every operation
// completed, and conservation of dispensed volume.
//
// The simulator (internal/sim) answers "what happens when this program
// runs"; the oracle answers "is what happened correct" — and because
// the two are implemented independently, their agreement on a program
// is evidence rather than bookkeeping. The harness in this package
// cross-checks them on every compiled benchmark, on randomized
// pipeline fuzz cases, and against deliberately corrupted frame
// streams (mutation mode), where the oracle must flag the fault.
package oracle

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"slices"
	"strconv"

	"fppc/internal/arch"
	"fppc/internal/dag"
	"fppc/internal/grid"
	"fppc/internal/pins"
	"fppc/internal/router"
	"fppc/internal/telemetry"
)

// ViolationKind classifies what the oracle observed going wrong.
type ViolationKind int

// Electrode-level violation kinds (found during frame replay) and
// assay-level kinds (found when checking the finished run against the
// DAG's expectations).
const (
	// DropletLost: no activated electrode holds or pulls the droplet;
	// on real hardware it drifts unpredictably.
	DropletLost ViolationKind = iota
	// DropletTorn: activated electrodes pull one droplet in
	// irreconcilable directions.
	DropletTorn
	// Overpull: more than two electrodes energized in a droplet's
	// reach, leaving its motion undefined.
	Overpull
	// SpuriousActivation: a pin is driven high although none of its
	// electrodes is near any droplet — actuation that cannot be doing
	// work, the signature of a corrupted or mis-addressed frame.
	SpuriousActivation
	// DispenseConflict: a dispense lands inside the interference range
	// of a droplet already on the array.
	DispenseConflict
	// OutputMiss: an output event fires with no droplet on the port.
	OutputMiss
	// EventOverrun: reservoir events remain after the program's last
	// cycle.
	EventOverrun
	// OpCountMismatch: dispense/merge/split/output totals disagree with
	// the assay DAG (assay-level).
	OpCountMismatch
	// ResidualDroplet: droplets remain on the array after the program
	// ends (assay-level).
	ResidualDroplet
	// VolumeLeak: dispensed volume does not equal collected volume
	// (assay-level).
	VolumeLeak
	// RefusedActuation: a driven pin reaches an electrode that a declared
	// hardware fault (stuck-open cell or dead pin driver) prevents from
	// energizing. Only raised when Options.Faults is set; this is the
	// invariant that catches faults the droplet physics masks.
	RefusedActuation
)

var violationNames = [...]string{
	"droplet-lost", "droplet-torn", "overpull", "spurious-activation",
	"dispense-conflict", "output-miss", "event-overrun",
	"op-count-mismatch", "residual-droplet", "volume-leak",
	"refused-actuation",
}

// String returns the kind's kebab-case name.
func (k ViolationKind) String() string {
	if k < DropletLost || int(k) >= len(violationNames) {
		return fmt.Sprintf("ViolationKind(%d)", int(k))
	}
	return violationNames[k]
}

// Violation is one oracle finding. Cycle is -1 for assay-level
// findings, Droplet is -1 when no specific droplet is implicated.
type Violation struct {
	Kind    ViolationKind
	Cycle   int
	Droplet int
	Cell    grid.Cell
	Pin     int
	Msg     string
}

func (v Violation) String() string {
	if v.Cycle < 0 {
		return fmt.Sprintf("oracle: %v: %s", v.Kind, v.Msg)
	}
	return fmt.Sprintf("oracle: cycle %d: %v: %s", v.Cycle, v.Kind, v.Msg)
}

// Report is the oracle's account of one program replay.
type Report struct {
	Cycles    int
	Dispenses int
	Outputs   int
	Merges    int
	Splits    int

	VolumeIn   float64
	VolumeOut  float64
	VolumeLeft float64

	// RemainingDroplets counts bodies still on the array at the end.
	RemainingDroplets int

	// FootprintHash digests every cycle's droplet footprints (positions
	// and volumes, droplet IDs excluded). Two replays with equal hashes
	// executed the same fluidic behavior; mutation mode uses it to catch
	// corruptions that perturb a droplet without breaking an invariant
	// (e.g. a transient stretch that heals the next cycle).
	FootprintHash string

	Violations []Violation

	// Truncated reports that replay stopped early because the violation
	// budget (Options.MaxViolations) was exhausted; counts cover only
	// the cycles replayed.
	Truncated bool
}

// Ok reports a clean run.
func (r *Report) Ok() bool { return len(r.Violations) == 0 }

// Err returns the first violation as an error, or nil.
func (r *Report) Err() error {
	if len(r.Violations) == 0 {
		return nil
	}
	return fmt.Errorf("%s", r.Violations[0].String())
}

// Options tune the oracle.
type Options struct {
	// MaxViolations stops replay once this many violations accumulate
	// (0 = 32). Replay past the first violation is best-effort: once
	// physics has been violated the derived positions are suspect.
	MaxViolations int
	// DisableSpuriousCheck turns off the spurious-activation invariant
	// (useful when verifying hand-written programs that idle pins on
	// purpose).
	DisableSpuriousCheck bool
	// Collector, when non-nil, receives chip-level execution telemetry
	// from the replay (internal/telemetry). Because the oracle derives
	// positions independently of the simulator, a snapshot collected
	// here cross-checks one collected by sim.RunCollected.
	Collector *telemetry.Collector
	// Faults declares hardware defects to inject into the replay: the
	// energized set is transformed each cycle (stuck-open cells refuse,
	// stuck-closed cells energize spuriously) and fault-specific
	// invariants run. The canonical implementation is faults.Set.
	Faults FaultInjector
	// KnownFaults switches the fault invariants from detection to
	// re-verification. With it false (detection, the default) every
	// commanded actuation of a refusing electrode and every stuck-closed
	// electrode is flagged — the replay asks "would a controller notice
	// this chip is broken?". With it true the program is expected to have
	// been resynthesized around the declared faults: refused actuations
	// are flagged only when they would have moved fluid (the faulted cell
	// borders a droplet), because shared FPPC pins make harmless commands
	// to faulted electrodes unavoidable, and stuck-closed cells are left
	// to the droplet physics, which flags them the moment a droplet
	// strays into their reach.
	KnownFaults bool
}

// FaultPoint locates one faulted electrode implicated in an injection.
type FaultPoint struct {
	Cell grid.Cell
	Pin  int
}

// FaultInjector is the oracle's view of a hardware fault set. Transform
// rewrites a cycle's energized set to what the broken chip physically
// does; Refused lists the electrodes a frame commands that cannot
// energize (stuck-open cells, dead pin drivers); StuckOn lists the
// electrodes that are energized no matter what is driven.
type FaultInjector interface {
	Transform(chip *arch.Chip, active *grid.CellSet)
	Refused(chip *arch.Chip, act pins.Activation) []FaultPoint
	StuckOn(chip *arch.Chip) []FaultPoint
}

// blob is the oracle's independent droplet model: one or two occupied
// cells plus the volume ledger. The cells live in the blob's own array,
// and the replay rewrites them in place.
type blob struct {
	id     int
	cells  []grid.Cell
	volume float64
	at     [2]grid.Cell // backing array of cells
}

// newBlob places a fresh single-cell body under the next droplet ID.
func (v *verifier) newBlob(c grid.Cell, volume float64) *blob {
	b := &blob{id: v.nextID, volume: volume}
	b.cells = append(b.at[:0], c)
	v.nextID++
	return b
}

func (b *blob) covers(c grid.Cell) bool {
	for _, bc := range b.cells {
		if bc == c {
			return true
		}
	}
	return false
}

// verifier carries replay state. The per-cycle sets and buffers are
// reused from cycle to cycle, so a replay allocates per droplet event,
// not per cycle.
type verifier struct {
	chip     *arch.Chip
	pinCells [][]grid.Cell // pin id -> electrode cells, rebuilt from the wiring
	blobs    []*blob
	spare    []*blob // step's next generation, swapped with blobs
	nextID   int
	rep      *Report
	opts     Options
	fp       hash.Hash // running digest of per-cycle footprints
	foot     footprint // renders each cycle's footprints for fp

	// justify collects the cells that legitimize activations this
	// cycle: every live droplet cell plus cells vacated by this cycle's
	// output events.
	justify *grid.CellSet
	// active holds this cycle's energized electrodes; seen and pulls are
	// reach's per-blob scratch.
	active *grid.CellSet
	seen   *grid.CellSet
	pulls  []grid.Cell

	// stuckOn is Faults.StuckOn, listed once per replay in detection mode.
	stuckOn []FaultPoint
	// refusedSeen/stuckSeen deduplicate fault findings: each faulted
	// electrode is reported at most once per replay, so a dead bus-phase
	// pin does not exhaust the violation budget by itself.
	refusedSeen map[grid.Cell]bool
	stuckSeen   map[grid.Cell]bool
}

// Verify replays the program's pin frames on the chip and returns the
// oracle's report. It never shares state with the simulator: active
// electrodes are re-derived from the chip's electrode table and droplet
// motion is re-computed from scratch each cycle.
func Verify(chip *arch.Chip, prog *pins.Program, events []router.Event, opts Options) *Report {
	if opts.MaxViolations <= 0 {
		opts.MaxViolations = 32
	}
	v := &verifier{chip: chip, rep: &Report{}, opts: opts, fp: sha256.New(),
		justify: grid.NewCellSet(chip.W, chip.H),
		active:  grid.NewCellSet(chip.W, chip.H),
		seen:    grid.NewCellSet(chip.W, chip.H),
	}
	v.buildPinMap()
	if opts.Faults != nil {
		v.refusedSeen = map[grid.Cell]bool{}
		v.stuckSeen = map[grid.Cell]bool{}
		if !opts.KnownFaults {
			v.stuckOn = opts.Faults.StuckOn(chip)
		}
	}
	opts.Collector.BindChip(chip)
	evIdx := 0
	cyc := 0
	for ; cyc < prog.Len(); cyc++ {
		v.justify.Reset()
		for evIdx < len(events) && events[evIdx].Cycle == cyc {
			v.applyEvent(cyc, events[evIdx])
			evIdx++
		}
		for _, b := range v.blobs {
			for _, c := range b.cells {
				v.justify.Add(c)
			}
		}
		act := prog.Cycle(cyc)
		v.activeCells(cyc, act)
		if !opts.DisableSpuriousCheck {
			v.checkSpurious(cyc, act)
		}
		if opts.Faults != nil {
			v.injectFaults(cyc, act)
		}
		opts.Collector.Frame(act)
		v.step(cyc)
		v.mergePass(cyc)
		if opts.Collector != nil {
			for _, b := range v.blobs {
				opts.Collector.Occupy(b.id, b.cells)
			}
		}
		v.fp.Write(v.foot.render(cyc, v.blobs))
		if len(v.rep.Violations) >= opts.MaxViolations {
			v.rep.Truncated = true
			cyc++
			break
		}
	}
	if evIdx != len(events) && !v.rep.Truncated {
		v.flag(Violation{Kind: EventOverrun, Cycle: prog.Len(), Droplet: -1,
			Msg: fmt.Sprintf("%d reservoir events beyond the program's end", len(events)-evIdx)})
	}
	v.rep.Cycles = cyc
	v.rep.RemainingDroplets = len(v.blobs)
	for _, b := range v.blobs {
		v.rep.VolumeLeft += b.volume
	}
	v.rep.FootprintHash = hex.EncodeToString(v.fp.Sum(nil))
	return v.rep
}

// footprint renders one cycle's droplet footprints for the running
// digest, ID-independently, into buffers reused across cycles: "c<cyc>:",
// then each blob as "[(x,y) (x,y)]@<volume>;" with its cells in (y,x)
// order and the volume as %.9g renders it, the blob renderings sorted
// bytewise.
type footprint struct {
	lines []byte      // every blob's rendering, back to back
	spans [][2]int    // [start, end) of each rendering in lines
	cells []grid.Cell // one blob's cells, sorted
	out   []byte
}

// render returns the cycle's bytes; they stay valid until the next call.
func (f *footprint) render(cyc int, blobs []*blob) []byte {
	f.lines, f.spans = f.lines[:0], f.spans[:0]
	for _, b := range blobs {
		start := len(f.lines)
		f.cells = append(f.cells[:0], b.cells...)
		slices.SortFunc(f.cells, func(p, q grid.Cell) int {
			if p.Y != q.Y {
				return cmp.Compare(p.Y, q.Y)
			}
			return cmp.Compare(p.X, q.X)
		})
		f.lines = append(f.lines, '[')
		for i, c := range f.cells {
			if i > 0 {
				f.lines = append(f.lines, ' ')
			}
			f.lines = append(f.lines, '(')
			f.lines = strconv.AppendInt(f.lines, int64(c.X), 10)
			f.lines = append(f.lines, ',')
			f.lines = strconv.AppendInt(f.lines, int64(c.Y), 10)
			f.lines = append(f.lines, ')')
		}
		f.lines = append(f.lines, "]@"...)
		f.lines = strconv.AppendFloat(f.lines, b.volume, 'g', 9, 64)
		f.spans = append(f.spans, [2]int{start, len(f.lines)})
	}
	slices.SortFunc(f.spans, func(p, q [2]int) int {
		return bytes.Compare(f.lines[p[0]:p[1]], f.lines[q[0]:q[1]])
	})
	f.out = append(f.out[:0], 'c')
	f.out = strconv.AppendInt(f.out, int64(cyc), 10)
	f.out = append(f.out, ':')
	for _, sp := range f.spans {
		f.out = append(f.out, f.lines[sp[0]:sp[1]]...)
		f.out = append(f.out, ';')
	}
	return f.out
}

// buildPinMap derives pin -> cells from the electrode table, on purpose
// not reusing arch.Chip.PinCells or pins.ActiveCells: the oracle trusts
// only the wiring description.
func (v *verifier) buildPinMap() {
	v.pinCells = make([][]grid.Cell, v.chip.PinCount()+1)
	for _, e := range v.chip.Electrodes() {
		if e.Pin > 0 && e.Pin < len(v.pinCells) {
			v.pinCells[e.Pin] = append(v.pinCells[e.Pin], e.Cell)
		}
	}
}

func (v *verifier) flag(viol Violation) {
	v.rep.Violations = append(v.rep.Violations, viol)
}

func (v *verifier) applyEvent(cyc int, ev router.Event) {
	switch ev.Kind {
	case router.EvDispense:
		for _, b := range v.blobs {
			for _, c := range b.cells {
				if grid.Chebyshev(c, ev.Cell) <= 1 {
					v.flag(Violation{Kind: DispenseConflict, Cycle: cyc, Droplet: b.id, Cell: ev.Cell,
						Msg: fmt.Sprintf("dispense at %v inside droplet %d's interference range", ev.Cell, b.id)})
				}
			}
		}
		v.blobs = append(v.blobs, v.newBlob(ev.Cell, 1))
		v.rep.Dispenses++
		v.rep.VolumeIn++
	case router.EvOutput:
		for i, b := range v.blobs {
			if b.covers(ev.Cell) {
				v.rep.Outputs++
				v.rep.VolumeOut += b.volume
				for _, c := range b.cells {
					v.justify.Add(c) // port actuation this cycle is not spurious
				}
				v.blobs = append(v.blobs[:i], v.blobs[i+1:]...)
				return
			}
		}
		v.flag(Violation{Kind: OutputMiss, Cycle: cyc, Droplet: -1, Cell: ev.Cell,
			Msg: fmt.Sprintf("output event at %v with no droplet on the port", ev.Cell)})
	default:
		v.flag(Violation{Kind: EventOverrun, Cycle: cyc, Droplet: -1, Cell: ev.Cell,
			Msg: fmt.Sprintf("unknown reservoir event kind %d", int(ev.Kind))})
	}
}

// activeCells expands the frame's pin list into v.active, the energized
// electrode positions, using the oracle's own wiring map.
func (v *verifier) activeCells(cyc int, act pins.Activation) {
	v.active.Reset()
	for _, pin := range act {
		if pin <= 0 || pin >= len(v.pinCells) {
			v.flag(Violation{Kind: SpuriousActivation, Cycle: cyc, Droplet: -1, Pin: pin,
				Msg: fmt.Sprintf("pin %d outside the chip's [1,%d] range", pin, len(v.pinCells)-1)})
			continue
		}
		for _, c := range v.pinCells[pin] {
			v.active.Add(c)
		}
	}
}

// checkSpurious flags pins whose electrodes are all out of reach of
// every droplet: energy spent where no fluid can respond. Legitimate
// shared-pin programs always have at least one justified electrode per
// driven pin (that is what the activation is for); a corrupted frame
// usually does not.
func (v *verifier) checkSpurious(cyc int, act pins.Activation) {
	for _, pin := range act {
		if pin <= 0 || pin >= len(v.pinCells) {
			continue // already flagged by activeCells
		}
		justified := false
	cells:
		for _, c := range v.pinCells[pin] {
			// On a justify cell or cardinally adjacent to one: only there
			// can the activation move fluid (diagonal neighbours exert no
			// pull), so anything farther is wasted actuation.
			if v.justify.Has(c) {
				justified = true
				break
			}
			for _, n := range c.Neighbors4() {
				if v.justify.Has(n) {
					justified = true
					break cells
				}
			}
		}
		if !justified {
			v.flag(Violation{Kind: SpuriousActivation, Cycle: cyc, Droplet: -1, Pin: pin,
				Msg: fmt.Sprintf("pin %d driven with no droplet near any of its %d electrodes", pin, len(v.pinCells[pin]))})
		}
	}
}

// injectFaults applies the declared hardware faults to this cycle's
// energized set and runs the fault invariants. In detection mode
// (KnownFaults false) any command to a refusing electrode and any
// stuck-closed electrode energizing while its pin is idle is flagged; in
// known-faults mode only refused actuations that border a droplet are —
// on a correctly resynthesized program neither occurs. Either way the
// active set is rewritten to the broken chip's physical truth before the
// droplet physics runs, so physics-level consequences (lost droplets,
// overpulls near a stuck-closed cell) surface through the ordinary
// invariants.
func (v *verifier) injectFaults(cyc int, act pins.Activation) {
	for _, p := range v.opts.Faults.Refused(v.chip, act) {
		if v.refusedSeen[p.Cell] {
			continue
		}
		if v.opts.KnownFaults && !v.nearJustified(p.Cell) {
			continue
		}
		v.refusedSeen[p.Cell] = true
		v.flag(Violation{Kind: RefusedActuation, Cycle: cyc, Droplet: -1, Cell: p.Cell, Pin: p.Pin,
			Msg: fmt.Sprintf("pin %d driven but electrode %v cannot energize (stuck-open or dead driver)", p.Pin, p.Cell)})
	}
	for _, p := range v.stuckOn {
		if v.stuckSeen[p.Cell] || slices.Contains(act, p.Pin) {
			continue
		}
		v.stuckSeen[p.Cell] = true
		v.flag(Violation{Kind: SpuriousActivation, Cycle: cyc, Droplet: -1, Cell: p.Cell, Pin: p.Pin,
			Msg: fmt.Sprintf("electrode %v energized while pin %d is idle: stuck-closed", p.Cell, p.Pin)})
	}
	v.opts.Faults.Transform(v.chip, v.active)
}

// nearJustified reports whether the cell is on, or cardinally adjacent
// to, a cell that legitimizes actuation this cycle — the only positions
// where a refusing electrode actually costs the program fluid motion.
func (v *verifier) nearJustified(c grid.Cell) bool {
	if v.justify.Has(c) {
		return true
	}
	for _, n := range c.Neighbors4() {
		if v.justify.Has(n) {
			return true
		}
	}
	return false
}

// step recomputes every droplet's position from the energized set.
func (v *verifier) step(cyc int) {
	next := v.spare[:0]
	for _, b := range v.blobs {
		moved, extra := v.advance(cyc, b)
		if moved != nil {
			next = append(next, moved)
		}
		if extra != nil {
			next = append(next, extra)
			v.rep.Splits++
		}
	}
	// Swap generations: the old list becomes next cycle's scratch.
	v.blobs, v.spare = next, v.blobs
}

// reach collects the energized electrodes that can act on the blob: its
// own cells plus cardinal neighbours, deduplicated, in deterministic
// order (own cells first). The result is valid until the next call.
func (v *verifier) reach(b *blob) []grid.Cell {
	v.seen.Reset()
	out := v.pulls[:0]
	add := func(c grid.Cell) {
		if !v.seen.Has(c) {
			v.seen.Add(c)
			if v.active.Has(c) {
				out = append(out, c)
			}
		}
	}
	for _, c := range b.cells {
		add(c)
	}
	for _, c := range b.cells {
		for _, n := range c.Neighbors4() {
			add(n)
		}
	}
	v.pulls = out
	return out
}

// advance derives the blob's next footprint, rewriting its cells in
// place. A nil first return drops the blob (after flagging); a non-nil
// second return is a split half.
func (v *verifier) advance(cyc int, b *blob) (*blob, *blob) {
	pulls := v.reach(b)
	switch {
	case len(pulls) == 0:
		v.flag(Violation{Kind: DropletLost, Cycle: cyc, Droplet: b.id, Cell: b.cells[0],
			Msg: fmt.Sprintf("droplet %d at %v has no energized electrode in reach", b.id, b.cells[0])})
		return nil, nil
	case len(pulls) > 2:
		v.flag(Violation{Kind: Overpull, Cycle: cyc, Droplet: b.id, Cell: b.cells[0],
			Msg: fmt.Sprintf("droplet %d at %v reached by %d energized electrodes", b.id, b.cells[0], len(pulls))})
		return nil, nil
	case len(pulls) == 1:
		b.cells = append(b.cells[:0], pulls[0])
		return b, nil
	}
	// Exactly two energized electrodes in reach.
	p, q := pulls[0], pulls[1]
	onBody := b.covers(p)
	qOnBody := b.covers(q)
	switch {
	case onBody && qOnBody:
		// Both under the body: hold the stretch.
		b.cells = append(b.cells[:0], p, q)
		return b, nil
	case !onBody && !qOnBody:
		// Neither energized electrode holds the body: the droplet is
		// pulled toward two detached cells at once.
		v.flag(Violation{Kind: DropletTorn, Cycle: cyc, Droplet: b.id, Cell: b.cells[0],
			Msg: fmt.Sprintf("droplet %d at %v pulled apart by detached electrodes %v and %v", b.id, b.cells[0], p, q)})
		return nil, nil
	}
	// Exactly one electrode under the body.
	keep, pull := p, q
	if qOnBody {
		keep, pull = q, p
	}
	if len(b.cells) == 1 {
		// A single-cell droplet held by its own electrode and pulled by
		// a cardinal neighbour stretches across the pair.
		b.cells = append(b.cells[:0], keep, pull)
		return b, nil
	}
	// Stretched droplet with one end held and the other half pulled
	// away: a split (paper Figure 8).
	b.volume /= 2
	b.cells = append(b.cells[:0], keep)
	return b, v.newBlob(pull, b.volume)
}

// mergePass coalesces droplets within fluidic interference range
// (Chebyshev distance <= 1), repeating until stable so chains collapse
// in one cycle.
func (v *verifier) mergePass(cyc int) {
	for {
		merged := false
	scan:
		for i := 0; i < len(v.blobs); i++ {
			for j := i + 1; j < len(v.blobs); j++ {
				if !blobsNear(v.blobs[i], v.blobs[j]) {
					continue
				}
				// The union of the cells, trimmed to two; the next
				// cycle's activation contracts it onto one electrode.
				a, b := v.blobs[i], v.blobs[j]
				for _, c := range b.cells {
					if len(a.cells) == 2 {
						break
					}
					a.cells = append(a.cells, c)
				}
				a.volume += b.volume
				v.blobs = append(v.blobs[:j], v.blobs[j+1:]...)
				v.rep.Merges++
				merged = true
				break scan
			}
		}
		if !merged {
			return
		}
	}
}

func blobsNear(a, b *blob) bool {
	for _, ca := range a.cells {
		for _, cb := range b.cells {
			if grid.Chebyshev(ca, cb) <= 1 {
				return true
			}
		}
	}
	return false
}

// CheckAssay compares the replay totals against the assay DAG's
// expectations — every operation completed, nothing extra happened, and
// volume is conserved — appending any mismatch to the report. The
// returned slice holds just the newly found violations.
func (r *Report) CheckAssay(a *dag.Assay) []Violation {
	st, err := a.ComputeStats()
	if err != nil {
		v := Violation{Kind: OpCountMismatch, Cycle: -1, Droplet: -1,
			Msg: fmt.Sprintf("assay does not validate: %v", err)}
		r.Violations = append(r.Violations, v)
		return []Violation{v}
	}
	var found []Violation
	expect := func(kind dag.Kind, got int) {
		want := st.ByKind[kind]
		if got != want {
			found = append(found, Violation{Kind: OpCountMismatch, Cycle: -1, Droplet: -1,
				Msg: fmt.Sprintf("%d %s events, assay has %d %s operations", got, kind, want, kind)})
		}
	}
	expect(dag.Dispense, r.Dispenses)
	expect(dag.Mix, r.Merges)
	expect(dag.Split, r.Splits)
	expect(dag.Output, r.Outputs)
	if r.RemainingDroplets != 0 {
		found = append(found, Violation{Kind: ResidualDroplet, Cycle: -1, Droplet: -1,
			Msg: fmt.Sprintf("%d droplets (%.3g units) remain on the array", r.RemainingDroplets, r.VolumeLeft)})
	}
	if math.Abs(r.VolumeIn-r.VolumeOut-r.VolumeLeft) > 1e-9 ||
		(r.RemainingDroplets == 0 && math.Abs(r.VolumeIn-r.VolumeOut) > 1e-9) {
		found = append(found, Violation{Kind: VolumeLeak, Cycle: -1, Droplet: -1,
			Msg: fmt.Sprintf("volume not conserved: %.6g in, %.6g out, %.6g left", r.VolumeIn, r.VolumeOut, r.VolumeLeft)})
	}
	r.Violations = append(r.Violations, found...)
	return found
}
