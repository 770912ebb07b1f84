package scheduler

import (
	"context"
	"fmt"

	"fppc/internal/arch"
	"fppc/internal/dag"
)

// daState models the direct-addressing baseline's resources: a pool of
// identical work modules, each able to run any operation or store up to
// two droplets, with storage consolidation between singleton-stored
// modules (the policy the paper identifies as the source of DA's extra
// routing on the protein benchmarks).
type daState struct {
	*base
	busyTo []int   // per work module: first free time-step
	stored [][]int // droplet ids stored per module (cap DAStorePerMod)
}

// ScheduleDA runs the list scheduler against a direct-addressing chip.
func ScheduleDA(a *dag.Assay, chip *arch.Chip) (*Schedule, error) {
	return ScheduleDAWith(nil, a, chip, Opts{})
}

// ScheduleDAWith is the fully-configurable DA entry point; see Opts. The
// worker count only parallelizes precomputation, so the schedule is
// byte-identical for every value. Cancellation works as in
// ScheduleFPPCWith.
func ScheduleDAWith(ctx context.Context, a *dag.Assay, chip *arch.Chip, opts Opts) (*Schedule, error) {
	if chip.Arch != arch.DirectAddressing {
		return nil, fmt.Errorf("scheduler: ScheduleDA on %v chip %s", chip.Arch, chip.Name)
	}
	b, err := newBase(a, chip, daPolicy, opts)
	if err != nil {
		return nil, err
	}
	if err := checkSplitDurations(a); err != nil {
		return nil, err
	}
	st := &daState{
		base:   b,
		busyTo: make([]int, len(chip.WorkMods)),
		stored: make([][]int, len(chip.WorkMods)),
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
				if st.tryEvictPort(t) {
					st.cEvictPort.Inc()
					continue
				}
				break
			}
			st.consolidate(t)
		}
		if st.doneCnt < a.Len() && !st.anyRunning(t) {
			return nil, &ErrInsufficientResources{
				Chip: chip.Name, Assay: a.Name, TS: t, Pending: st.pendingCount(),
			}
		}
	}
	return st.finishSchedule(), nil
}

// checkSplitDurations enforces the Figure 9 convention shared by both
// schedulers: splits are instantaneous (their storage is explicit).
func checkSplitDurations(a *dag.Assay) error {
	for _, n := range a.Nodes {
		if n.Kind == dag.Split && n.Duration != 0 {
			return fmt.Errorf("scheduler: split node %q has duration %d; splits are instantaneous (Figure 9)",
				n.Label, n.Duration)
		}
	}
	return nil
}

func (st *daState) completeAt(t int) {
	for _, id := range st.endingAt(t) {
		if !st.done[id] {
			st.finish(id)
		}
	}
}

// finish parks the node's outputs in the module (or port) that ran it.
func (st *daState) finish(id int) {
	st.markDone(id)
	op := st.ops[id]
	for _, d := range st.es.byProd[id] {
		d.parked = true
		switch op.Loc.Kind {
		case LocReservoir:
			d.loc = op.Loc
			st.portParked[op.Loc.Index] = d.id
		case LocWork:
			slot := st.park(op.Loc.Index, d.id)
			d.loc = Location{Kind: LocWork, Index: op.Loc.Index, Slot: slot}
		default:
			d.loc = op.Loc
		}
	}
}

// park stores a droplet in the module, returning the slot used.
func (st *daState) park(w, did int) int {
	slot := len(st.stored[w])
	if slot >= arch.DAStorePerMod {
		panic(fmt.Sprintf("scheduler: module %d storage overflow", w))
	}
	st.stored[w] = append(st.stored[w], did)
	st.noteStored(1)
	return slot
}

// unpark removes a droplet from its module slot.
func (st *daState) unpark(w, did int) {
	kept := st.stored[w][:0]
	for _, d := range st.stored[w] {
		if d != did {
			kept = append(kept, d)
		}
	}
	if len(kept) == len(st.stored[w]) {
		panic(fmt.Sprintf("scheduler: droplet %d not stored in module %d", did, w))
	}
	st.stored[w] = kept
	st.noteStored(-1)
	// Re-slot the survivor so slots stay dense.
	for i, d := range st.stored[w] {
		st.es.drops[d].loc = Location{Kind: LocWork, Index: w, Slot: i}
	}
}

func (st *daState) release(d *droplet) {
	switch d.loc.Kind {
	case LocReservoir:
		st.portParked[d.loc.Index] = -1
	case LocWork:
		st.unpark(d.loc.Index, d.id)
	}
}

// moduleFor finds a work module for the node: preferably one already
// storing only this node's input droplets (in-place execution), otherwise
// the lowest-numbered idle empty module. Returns -1 when none qualifies.
func (st *daState) moduleFor(id, t int) int {
	inputs := st.es.byCons[id]
	for _, d := range inputs {
		if d.loc.Kind != LocWork {
			continue
		}
		w := d.loc.Index
		if st.busyTo[w] > t {
			continue
		}
		// Every droplet stored in w must be one of this node's inputs.
		ok := true
		for _, sd := range st.stored[w] {
			isInput := false
			for _, in := range inputs {
				if in.id == sd {
					isInput = true
					break
				}
			}
			if !isInput {
				ok = false
				break
			}
		}
		if ok {
			return w
		}
	}
	for w := range st.busyTo {
		if !st.chip.WorkMods[w].Disabled && st.busyTo[w] <= t && len(st.stored[w]) == 0 {
			return w
		}
	}
	return -1
}

func (st *daState) tryStart(t int) bool {
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

func (st *daState) startNode(id, t int) bool {
	n := st.assay.Node(id)
	switch n.Kind {
	case dag.Dispense:
		// Fan-out throttle, mirroring the FPPC scheduler: dispenses that
		// multiply live droplets wait for storage headroom.
		if !st.expansionAdmissible(id, st.freeStorageSlots(t)) {
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

	case dag.Mix, dag.Detect, dag.Store, dag.Split:
		w := st.moduleFor(id, t)
		if w < 0 {
			return false
		}
		loc := Location{Kind: LocWork, Index: w}
		st.consumeInputs(id, t, loc)
		st.begin(id, t, n.Duration, loc)
		st.busyTo[w] = t + n.Duration
		if n.Kind == dag.Split {
			st.noteSplitDone(id)
		}
		return true

	case dag.Output:
		loc := Location{Kind: LocOutput, Index: st.outPort[n.Fluid]}
		st.consumeInputs(id, t, loc)
		st.begin(id, t, n.Duration, loc)
		return true
	}
	return false
}

func (st *daState) consumeInputs(id, t int, loc Location) {
	kind := MoveConsume
	if st.assay.Node(id).Kind == dag.Split {
		kind = MoveSplit
	}
	for _, d := range st.es.byCons[id] {
		sameModule := d.loc.Kind == LocWork && loc.Kind == LocWork && d.loc.Index == loc.Index
		st.release(d)
		d.consumed = true
		if !sameModule {
			st.emitMove(t, d, kind, loc, id)
		}
	}
}

func (st *daState) begin(id, t, dur int, loc Location) {
	st.started[id] = true
	st.noteStarted(id)
	st.ops[id] = BoundOp{NodeID: id, Start: t, End: t + dur, Loc: loc}
	if dur == 0 {
		st.finish(id)
		return
	}
	st.noteRunning(id, t+dur)
}

// freeStorageSlots counts storage capacity on idle work modules.
func (st *daState) freeStorageSlots(t int) int {
	n := 0
	for w := range st.busyTo {
		if !st.chip.WorkMods[w].Disabled && st.busyTo[w] <= t {
			n += arch.DAStorePerMod - len(st.stored[w])
		}
	}
	return n
}

// storageModule finds an idle work module with a free storage slot,
// preferring modules already used for storage so empty ones stay
// available for operations. Returns -1 when storage is exhausted.
func (st *daState) storageModule(t int) int {
	best := -1
	for w := range st.busyTo {
		if st.chip.WorkMods[w].Disabled || st.busyTo[w] > t || len(st.stored[w]) >= arch.DAStorePerMod {
			continue
		}
		if len(st.stored[w]) > 0 {
			return w
		}
		if best < 0 {
			best = w
		}
	}
	return best
}

// tryEvictPort frees a contended reservoir port by storing its waiting
// droplet in a work module (mirroring the FPPC port eviction).
func (st *daState) tryEvictPort(t int) bool {
	for _, id := range st.pendingDisp {
		if !st.ready(id) {
			continue
		}
		if st.freeInputPort(id, t) >= 0 {
			continue
		}
		for _, pi := range st.portsOf[id] {
			did := st.portParked[pi]
			if did < 0 {
				continue
			}
			w := st.storageModule(t)
			if w < 0 {
				return false
			}
			d := st.es.drops[did]
			st.portParked[pi] = -1
			slot := st.park(w, did)
			st.emitMove(t, d, MoveStore, Location{Kind: LocWork, Index: w, Slot: slot}, -1)
			return true
		}
	}
	return false
}

// consolidate merges singleton-stored droplets pairwise so fewer modules
// are tied up by storage (section 5.1: "droplets stored alone in separate
// modules will consolidate in order to free up more modules to do useful
// work; routing these droplets adds to the routing time").
func (st *daState) consolidate(t int) {
	for {
		dst, src := -1, -1
		for w := range st.stored {
			if st.busyTo[w] > t || len(st.stored[w]) != 1 {
				continue
			}
			if dst < 0 {
				dst = w
			} else {
				src = w
				break
			}
		}
		if src < 0 {
			return
		}
		did := st.stored[src][0]
		d := st.es.drops[did]
		st.unpark(src, did)
		slot := st.park(dst, did)
		st.emitMove(t, d, MoveStore, Location{Kind: LocWork, Index: dst, Slot: slot}, -1)
	}
}
