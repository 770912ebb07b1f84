package scheduler

import (
	"context"
	"fmt"

	"fppc/internal/arch"
	"fppc/internal/dag"
)

// fppcState is the FPPC scheduler's resource model: typed modules with
// single-droplet occupancy, one SSD reserved for the router (section 4.3).
type fppcState struct {
	*base
	mixBusyTo   []int // per mix module: first free time-step
	mixParked   []int // droplet parked in the module, or -1
	ssdBusyTo   []int
	ssdParked   []int
	splitStep   []int // last time-step each SSD hosted a split
	reservedSSD int   // router's buffer SSD (ReservedSSD), or -1
}

// ReservedSSD returns the SSD module the FPPC-family router keeps as
// its cycle-breaking buffer — the chip's designated interchange module
// when it has one (and it survived fault filtering), otherwise the
// highest-indexed enabled module — or -1 when every SSD is disabled.
// The scheduler never binds operations to it; the router and
// fault-aware compilation share this choice.
func ReservedSSD(chip *arch.Chip) int {
	if i := chip.InterchangeSSD; i >= 0 && i < len(chip.SSDModules) && !chip.SSDModules[i].Disabled {
		return i
	}
	for i := len(chip.SSDModules) - 1; i >= 0; i-- {
		if !chip.SSDModules[i].Disabled {
			return i
		}
	}
	return -1
}

// ssdUsable reports whether the scheduler may bind to the SSD module:
// not disabled by a hardware fault and not the router's reserved buffer.
func (st *fppcState) ssdUsable(idx int) bool {
	return idx != st.reservedSSD && !st.chip.SSDModules[idx].Disabled
}

// ScheduleFPPC runs the module-type-aware list scheduler against a
// field-programmable pin-constrained chip whose ports have been placed.
// One SSD module is reserved as the router's cycle-breaking buffer, so a
// chip needs at least two SSD modules to schedule anything that stores,
// detects or splits.
func ScheduleFPPC(a *dag.Assay, chip *arch.Chip) (*Schedule, error) {
	return ScheduleFPPCWith(nil, a, chip, Opts{})
}

// ScheduleFPPCWith is the fully-configurable FPPC entry point; see Opts.
// The worker count only parallelizes precomputation, so the schedule is
// byte-identical for every value. The time-step loop checks ctx once
// per step and aborts with an error wrapping ctx.Err(); a nil ctx never
// cancels.
func ScheduleFPPCWith(ctx context.Context, a *dag.Assay, chip *arch.Chip, opts Opts) (*Schedule, error) {
	if chip.Arch == arch.DirectAddressing {
		return nil, fmt.Errorf("scheduler: ScheduleFPPC on %v chip %s", chip.Arch, chip.Name)
	}
	b, err := newBase(a, chip, fppcPolicy, opts)
	if err != nil {
		return nil, err
	}
	if err := checkSplitDurations(a); err != nil {
		return nil, err
	}
	st := &fppcState{
		base:        b,
		mixBusyTo:   make([]int, len(chip.MixModules)),
		mixParked:   make([]int, len(chip.MixModules)),
		ssdBusyTo:   make([]int, len(chip.SSDModules)),
		ssdParked:   make([]int, len(chip.SSDModules)),
		splitStep:   make([]int, len(chip.SSDModules)),
		reservedSSD: ReservedSSD(chip),
	}
	for i := range st.mixParked {
		st.mixParked[i] = -1
	}
	for i := range st.ssdParked {
		st.ssdParked[i] = -1
	}
	for i := range st.splitStep {
		st.splitStep[i] = -1
	}

	for t := 0; st.doneCnt < a.Len(); t++ {
		if err := canceled(ctx, a.Name, chip.Name, t); err != nil {
			return nil, err
		}
		st.completeAt(t)
		if st.dirty {
			st.dirty = false
			st.compactPending()
			for {
				if st.tryStart(t) {
					continue
				}
				if st.tryEvict(t) {
					st.cEvictMix.Inc()
					continue
				}
				if st.tryEvictPort(t) {
					st.cEvictPort.Inc()
					continue
				}
				break
			}
		}
		if st.doneCnt < a.Len() && !st.anyRunning(t) {
			return nil, &ErrInsufficientResources{
				Chip: chip.Name, Assay: a.Name, TS: t, Pending: st.pendingCount(),
			}
		}
	}
	return st.finishSchedule(), nil
}

// completeAt finalizes operations whose End == t: their result droplets
// park in the module/port that executed them, keeping it occupied.
func (st *fppcState) completeAt(t int) {
	for _, id := range st.endingAt(t) {
		if !st.done[id] {
			st.finish(id)
		}
	}
}

// finish marks the node done and parks its outputs at its location.
func (st *fppcState) finish(id int) {
	st.markDone(id)
	op := st.ops[id]
	for _, d := range st.es.byProd[id] {
		d.parked = true
		d.loc = op.Loc
		switch op.Loc.Kind {
		case LocReservoir:
			st.portParked[op.Loc.Index] = d.id
		case LocMix:
			st.mixParked[op.Loc.Index] = d.id
		case LocSSD:
			st.ssdParked[op.Loc.Index] = d.id
			st.noteStored(1)
		}
	}
}

// release frees the slot the droplet occupies. A split's away half
// nominally sits at the split SSD while its stay twin owns the parking
// registration, so only the registered occupant clears the slot.
func (st *fppcState) release(d *droplet) {
	loc := d.loc
	switch loc.Kind {
	case LocReservoir:
		if st.portParked[loc.Index] == d.id {
			st.portParked[loc.Index] = -1
		}
	case LocMix:
		if st.mixParked[loc.Index] == d.id {
			st.mixParked[loc.Index] = -1
		}
	case LocSSD:
		if st.ssdParked[loc.Index] == d.id {
			st.ssdParked[loc.Index] = -1
			st.noteStored(-1)
		}
	}
}

// freeMix returns the lowest-numbered idle, unoccupied mix module, or -1.
func (st *fppcState) freeMix(t int) int {
	for m := range st.mixBusyTo {
		if !st.chip.MixModules[m].Disabled && st.mixBusyTo[m] <= t && st.mixParked[m] == -1 {
			return m
		}
	}
	return -1
}

// freeSSD returns the lowest-numbered idle, unoccupied usable SSD, or -1.
func (st *fppcState) freeSSD(t int) int {
	for s := range st.ssdBusyTo {
		if st.ssdUsable(s) && st.ssdBusyTo[s] <= t && st.ssdParked[s] == -1 {
			return s
		}
	}
	return -1
}

// freeSSDCount returns how many usable SSDs are idle and unoccupied.
func (st *fppcState) freeSSDCount(t int) int {
	n := 0
	for s := range st.ssdBusyTo {
		if st.ssdUsable(s) && st.ssdBusyTo[s] <= t && st.ssdParked[s] == -1 {
			n++
		}
	}
	return n
}

// tryStart attempts to start exactly one ready operation at time-step t,
// highest priority first. Returns true if one started.
func (st *fppcState) tryStart(t int) bool {
	for _, id := range st.pending {
		if !st.ready(id) {
			continue
		}
		if st.startNode(id, t) {
			return true
		}
		st.cDeferred.Inc()
	}
	return false
}

// startNode tries to start one specific node; returns false if the
// resources it needs are not available at t.
func (st *fppcState) startNode(id, t int) bool {
	n := st.assay.Node(id)
	switch n.Kind {
	case dag.Dispense:
		// Fan-out throttle: a dispense that multiplies live droplets
		// (feeding an expanding split) only runs with storage headroom,
		// so concurrent storage tracks the chip's capacity instead of the
		// assay's width. Storage-neutral dispenses (dilution rounds,
		// simple chains) are never throttled, which keeps the ports
		// saturated and execution dispense-bound.
		if !st.expansionAdmissible(id, st.freeSSDCount(t)) {
			return false
		}
		pi := st.freeInputPort(id, t)
		if pi < 0 {
			return false
		}
		st.begin(id, t, n.Duration, Location{Kind: LocReservoir, Index: pi})
		st.portBusyTo[pi] = t + n.Duration
		st.noteExpansionStart(id)
		return true

	case dag.Mix:
		// Prefer mixing in a module already holding one of the inputs.
		m := -1
		for _, d := range st.es.byCons[id] {
			if d.loc.Kind == LocMix && st.mixBusyTo[d.loc.Index] <= t {
				m = d.loc.Index
				break
			}
		}
		if m < 0 {
			m = st.nearestFreeMix(t, st.es.byCons[id])
		}
		if m < 0 {
			return false
		}
		loc := Location{Kind: LocMix, Index: m}
		st.consumeInputs(id, t, loc)
		st.begin(id, t, n.Duration, loc)
		st.mixBusyTo[m] = t + n.Duration
		return true

	case dag.Detect, dag.Store:
		// Detection binds only to SSDs with a detector affixed above them
		// (section 3.1.4); storage uses any SSD.
		needDetector := n.Kind == dag.Detect
		ok := func(idx int) bool {
			return !needDetector || st.chip.SSDModules[idx].Detector
		}
		s := -1
		for _, d := range st.es.byCons[id] {
			if d.loc.Kind == LocSSD && st.ssdUsable(d.loc.Index) &&
				st.ssdBusyTo[d.loc.Index] <= t && ok(d.loc.Index) {
				s = d.loc.Index
				break
			}
		}
		if s < 0 {
			s = st.nearestFreeSSD(t, st.es.byCons[id], ok)
		}
		if s < 0 {
			return false
		}
		loc := Location{Kind: LocSSD, Index: s}
		st.consumeInputs(id, t, loc)
		st.begin(id, t, n.Duration, loc)
		st.ssdBusyTo[s] = t + n.Duration
		return true

	case dag.Split:
		return st.startSplit(id, t)

	case dag.Output:
		pi := st.outPort[n.Fluid]
		loc := Location{Kind: LocOutput, Index: pi}
		st.consumeInputs(id, t, loc)
		st.begin(id, t, n.Duration, loc)
		return true
	}
	return false
}

// moduleRow returns the chip row a droplet at the given module location
// parks on (its hold cell), or -1 for ports. Using the chip's own
// geometry keeps the distance heuristics architecture-independent.
func (st *fppcState) moduleRow(loc Location) int {
	switch loc.Kind {
	case LocMix:
		return st.chip.MixModules[loc.Index].Hold.Y
	case LocSSD:
		return st.chip.SSDModules[loc.Index].Hold.Y
	}
	return -1
}

// nearestFreeMix picks the idle, unoccupied mix module closest (by
// module row distance) to the input droplets' current SSD rows, reducing
// transport length; falls back to the lowest index for port-sourced
// inputs.
func (st *fppcState) nearestFreeMix(t int, inputs []*droplet) int {
	type cand struct{ idx, cost int }
	best := cand{-1, 1 << 30}
	for m := range st.mixBusyTo {
		if st.chip.MixModules[m].Disabled || st.mixBusyTo[m] > t || st.mixParked[m] != -1 {
			continue
		}
		cost := m // mild bias toward low indices (near the top ports)
		mr := st.chip.MixModules[m].Hold.Y
		for _, d := range inputs {
			if d.loc.Kind == LocSSD {
				diff := mr - st.moduleRow(d.loc)
				if diff < 0 {
					diff = -diff
				}
				cost += 3 * diff
			}
		}
		if cost < best.cost {
			best = cand{m, cost}
		}
	}
	return best.idx
}

// nearestFreeSSD picks the idle, unoccupied usable SSD closest to the
// input droplet's current module row (measured between hold cells), with
// a mild low-index bias. ok filters candidates (detector requirements);
// nil accepts all.
func (st *fppcState) nearestFreeSSD(t int, inputs []*droplet, ok func(int) bool) int {
	best, bestCost := -1, 1<<30
	for sIdx := range st.ssdBusyTo {
		if !st.ssdUsable(sIdx) || st.ssdBusyTo[sIdx] > t || st.ssdParked[sIdx] != -1 || (ok != nil && !ok(sIdx)) {
			continue
		}
		cost := sIdx
		sr := st.chip.SSDModules[sIdx].Hold.Y
		for _, d := range inputs {
			if row := st.moduleRow(d.loc); row >= 0 {
				diff := sr - row
				if diff < 0 {
					diff = -diff
				}
				cost += 2 * diff
			}
		}
		if cost < bestCost {
			best, bestCost = sIdx, cost
		}
	}
	return best
}

// startSplit implements the Figure 8/9 semantics: the input droplet
// travels to an SSD module and splits there; one result stays stored in
// that SSD, the other must immediately find a home (its consumer if it is
// an output, otherwise another free SSD).
func (st *fppcState) startSplit(id, t int) bool {
	in := st.es.byCons[id][0]
	// One split per SSD per time-step: a second split reusing an SSD in
	// the same routing sub-problem would create an unorderable cyclic
	// dependency between the two splits' bus halves.
	s := -1
	if in.loc.Kind == LocSSD && st.ssdUsable(in.loc.Index) &&
		st.ssdBusyTo[in.loc.Index] <= t && st.splitStep[in.loc.Index] != t {
		s = in.loc.Index
	} else {
		s = st.nearestFreeSSD(t, st.es.byCons[id], func(idx int) bool {
			return st.splitStep[idx] != t
		})
	}
	if s < 0 {
		return false
	}
	st.splitStep[s] = t

	outs := st.es.byProd[id]
	stay, away := outs[0], outs[1]
	awayToOutput := st.assay.Node(away.consumer).Kind == dag.Output
	stayToOutput := st.assay.Node(stay.consumer).Kind == dag.Output
	if stayToOutput && !awayToOutput {
		stay, away = away, stay
		awayToOutput = true
	}
	// Find the second droplet's home before committing.
	s2 := -1
	if !awayToOutput {
		// Temporarily treat s as taken while searching.
		for cand := range st.ssdBusyTo {
			if cand != s && st.ssdUsable(cand) && st.ssdBusyTo[cand] <= t && st.ssdParked[cand] == -1 {
				s2 = cand
				break
			}
		}
		if s2 < 0 {
			return false
		}
	}

	ssdLoc := Location{Kind: LocSSD, Index: s}
	st.release(in)
	in.consumed = true
	st.emitMove(t, in, MoveSplit, ssdLoc, id)
	st.moves[len(st.moves)-1].Away = away.id
	st.begin(id, t, 0, ssdLoc)
	st.noteSplitDone(id)

	// First half stays stored in s.
	stay.parked = true
	stay.loc = ssdLoc
	st.ssdParked[s] = stay.id
	st.noteStored(1)

	// Second half leaves immediately.
	away.parked = true
	away.loc = ssdLoc
	if awayToOutput {
		// The consuming output becomes startable in this same fixpoint
		// pass; nothing to do here.
		return true
	}
	s2Loc := Location{Kind: LocSSD, Index: s2}
	st.emitMove(t, away, MoveStore, s2Loc, -1)
	st.ssdParked[s2] = away.id
	st.noteStored(1)
	return true
}

// consumeInputs routes every input droplet of the node to loc (skipping
// droplets already there) and frees their previous slots.
func (st *fppcState) consumeInputs(id, t int, loc Location) {
	for _, d := range st.es.byCons[id] {
		st.release(d)
		d.consumed = true
		if d.loc != loc {
			st.emitMove(t, d, MoveConsume, loc, id)
		}
	}
}

// begin records the bound op; zero-duration ops complete immediately.
func (st *fppcState) begin(id, t, dur int, loc Location) {
	st.started[id] = true
	st.noteStarted(id)
	st.ops[id] = BoundOp{NodeID: id, Start: t, End: t + dur, Loc: loc}
	if dur == 0 {
		if st.assay.Node(id).Kind == dag.Split {
			// Split parks its outputs itself (two droplets, two homes).
			st.markDone(id)
			return
		}
		st.finish(id)
		return
	}
	st.noteRunning(id, t+dur)
}

// tryEvictPort frees one reservoir port that a ready dispense is blocked
// on by relocating the port's waiting droplet into a free SSD. Eviction
// only happens under port contention, so droplets whose consumers keep up
// travel directly from the reservoir to their module.
func (st *fppcState) tryEvictPort(t int) bool {
	for _, id := range st.pendingDisp {
		if !st.ready(id) {
			continue
		}
		if st.freeInputPort(id, t) >= 0 {
			continue // startable; tryStart will get it
		}
		for _, pi := range st.portsOf[id] {
			did := st.portParked[pi]
			if did < 0 {
				continue
			}
			s := st.freeSSD(t)
			if s < 0 {
				return false
			}
			d := st.es.drops[did]
			st.portParked[pi] = -1
			loc := Location{Kind: LocSSD, Index: s}
			st.emitMove(t, d, MoveStore, loc, -1)
			st.ssdParked[s] = did
			st.noteStored(1)
			return true
		}
	}
	return false
}

// tryEvict relocates one droplet parked in a mix module to a free SSD so
// the mix module can do useful work; the droplet then stays in that SSD
// until consumed (section 4.1: a stored droplet never migrates between
// SSDs). Returns true if an eviction happened.
func (st *fppcState) tryEvict(t int) bool {
	for m, did := range st.mixParked {
		if did < 0 || st.mixBusyTo[m] > t {
			continue
		}
		s := st.freeSSD(t)
		if s < 0 {
			return false
		}
		d := st.es.drops[did]
		st.mixParked[m] = -1
		loc := Location{Kind: LocSSD, Index: s}
		st.emitMove(t, d, MoveStore, loc, -1)
		st.ssdParked[s] = did
		st.noteStored(1)
		return true
	}
	return false
}
