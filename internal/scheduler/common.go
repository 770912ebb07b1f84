package scheduler

import (
	"context"
	"fmt"
	"sort"

	"fppc/internal/arch"
	"fppc/internal/dag"
	"fppc/internal/obs"
)

// Opts configures a scheduling run beyond the assay and chip.
type Opts struct {
	// Obs records list-scheduling iteration, deferred-op and eviction
	// instrumentation (nil disables).
	Obs *obs.Observer
	// Workers is ignored: scheduling runs on the caller's goroutine.
	// The field stays for callers that set it.
	Workers int
}

// policy selects the scheduling heuristics. The FPPC scheduler uses the
// storage-frugal policy the paper's architecture depends on (section 4.1:
// stored droplets never migrate, splits convert to stores, storage stays
// near the chip's SSD capacity); the DA baseline [3] is a classic list
// scheduler that expands the DAG breadth-first and relies on
// consolidation, which is what generates its extra storage routing on the
// protein benchmarks (section 5.1).
type policy struct {
	// depthOrder ranks ready operations deepest-first (finish in-flight
	// chains before opening new ones) instead of by classic longest
	// remaining path.
	depthOrder bool
	// jitDispense gates dispenses until their consumer's other inputs are
	// underway, so reagents are not pumped into storage early.
	jitDispense bool
	// gateExpansion throttles droplet-multiplying dispenses to two in
	// flight, bounding concurrent storage near the DAG depth.
	gateExpansion bool
}

// fppcPolicy and daPolicy are the per-architecture heuristic sets. The DA
// baseline shares the storage-frugal admission policy (its published
// flow also treats storage as a first-class resource); what
// differentiates it is consolidation — stored droplets migrate between
// modules to free capacity, which the FPPC flow never does (section 4.1).
var (
	fppcPolicy = policy{depthOrder: true, jitDispense: true, gateExpansion: true}
	daPolicy   = policy{depthOrder: true, jitDispense: true, gateExpansion: true}
)

// base carries the architecture-independent scheduling state: droplet
// tracking, reservoir ports, priorities and move emission.
type base struct {
	assay *dag.Assay
	chip  *arch.Chip
	es    *edgeSet
	pol   policy
	prio  []int
	order []int // node ids sorted by policy priority (stable by id)

	// pending is the subsequence of order whose nodes have every parent
	// done but have not started — the only nodes ready() can accept, so
	// the start/evict scans iterate nothing else. Nodes enter when
	// markDone drops their parentsLeft to zero (insertion keeps the
	// order-position sort) and leave by per-time-step compaction after
	// they start; ready() rejects started nodes anyway, so compaction
	// lag is unobservable. pendingDisp is its dispense-only subsequence
	// (the port-eviction scan considers nothing else).
	pending     []int
	pendingDisp []int

	// orderPos inverts order: orderPos[id] is the node's scan position.
	orderPos []int32

	// dirty records whether scheduler state has changed since the last
	// start/evict sweep. Every resource a sweep consults frees exactly
	// at an op completion (busy-until times equal op end times) or
	// through an explicit mutation (start, evict, consolidation), so a
	// time-step with no completions and a clean flag would run the
	// identical no-op sweep the previous step proved empty — it is
	// skipped wholesale.
	dirty bool

	// parentsLeft counts each node's unfinished parents (duplicates
	// included), decremented by markDone — the O(1) form of ready()'s
	// all-parents-done scan.
	parentsLeft []int

	// jitOK marks nodes whose just-in-time gate has opened. For a
	// dispense the gate requires every non-dispense sibling feeding the
	// consumer to be started-or-imminent; "imminent" means an
	// instantaneous (duration-0) node all of whose own inputs are
	// underway. Unrolling that recursion, the gate is exactly "every
	// timed node in a fixed ancestor closure has started" — a monotone
	// predicate of started[], since started never reverts. newBase
	// flattens the closure per dispense, gateLeft counts its unstarted
	// members, and gateRev inverts it so noteStarted can open gates in
	// O(1) amortized instead of re-walking siblings every pass.
	jitOK    []bool
	gateLeft []int32
	gateRev  [][]int32

	// maxRunningEnd is the latest end time of any begun timed op; endAt
	// buckets begun ops by end time so completion is O(ops ending now)
	// instead of a full ops scan per time-step.
	maxRunningEnd int
	endAt         map[int][]int

	ops     []BoundOp
	started []bool
	done    []bool
	doneCnt int
	moves   []Move

	// Input ports: index into chip.Ports. A port is unavailable while a
	// dispense is in progress or while its finished droplet waits to be
	// consumed — that is what serializes same-fluid dispenses.
	inPorts    map[string][]int
	portBusyTo []int // per chip port (inputs only meaningful)
	portParked []int // droplet id parked at the port, or -1

	outPort map[string]int // fluid -> chip port index (with fallback)

	// portsOf resolves each dispense node's candidate input ports once,
	// so the hot scans never hash the fluid name.
	portsOf [][]int

	expansion []bool // per node: dispense that multiplies live droplets

	// expansionSplit maps an expansion dispense to the split that will
	// eventually consume the storage it commits; inFlightExpansion counts
	// dispenses admitted whose split has not yet executed, each of which
	// will need up to two storage slots.
	expansionSplit    []int
	splitInFlight     []int // per split node: admitted-but-unsplit dispenses
	inFlightExpansion int

	storedNow    int
	peakStored   int
	storageMoves int

	// Observability: pre-resolved instruments so the scheduling loop pays
	// only nil checks when observation is off.
	cDeferred  *obs.Counter // ready ops that could not start this pass
	cMoves     *obs.Counter
	cStoreRel  *obs.Counter
	cEvictMix  *obs.Counter
	cEvictPort *obs.Counter
}

func newBase(a *dag.Assay, chip *arch.Chip, pol policy, opts Opts) (*base, error) {
	topo, err := a.ValidateAndOrder()
	if err != nil {
		return nil, err
	}
	ob := opts.Obs
	b := &base{
		assay:       a,
		chip:        chip,
		pol:         pol,
		es:          newEdgeSet(a),
		prio:        priorities(a, topo),
		ops:         make([]BoundOp, a.Len()),
		started:     make([]bool, a.Len()),
		done:        make([]bool, a.Len()),
		parentsLeft: make([]int, a.Len()),
		endAt:       map[int][]int{},
		dirty:       true,
		inPorts:     map[string][]int{},
		portBusyTo:  make([]int, len(chip.Ports)),
		portParked:  make([]int, len(chip.Ports)),
		outPort:     map[string]int{},
		cDeferred:   ob.Counter("fppc_sched_deferred_ops_total"),
		cMoves:      ob.Counter("fppc_sched_moves_total"),
		cStoreRel:   ob.Counter("fppc_sched_storage_relocations_total"),
		cEvictMix:   ob.Counter("fppc_sched_evictions_total", "kind", "mix"),
		cEvictPort:  ob.Counter("fppc_sched_evictions_total", "kind", "port"),
	}
	for i := range b.ops {
		b.ops[i] = BoundOp{NodeID: i, Start: -1, End: -1}
	}
	for _, n := range a.Nodes {
		b.parentsLeft[n.ID] = len(n.Parents)
	}
	for i := range b.portParked {
		b.portParked[i] = -1
	}
	firstOut := -1
	for i, p := range chip.Ports {
		if p.Input {
			b.inPorts[p.Fluid] = append(b.inPorts[p.Fluid], i)
		} else {
			if firstOut < 0 {
				firstOut = i
			}
			if _, dup := b.outPort[p.Fluid]; !dup {
				b.outPort[p.Fluid] = i
			}
		}
	}
	// Check every fluid has ports before scheduling starts.
	b.portsOf = make([][]int, a.Len())
	for _, n := range a.Nodes {
		switch n.Kind {
		case dag.Dispense:
			if len(b.inPorts[n.Fluid]) == 0 {
				return nil, fmt.Errorf("scheduler: no input port for fluid %q on %s", n.Fluid, chip.Name)
			}
			b.portsOf[n.ID] = b.inPorts[n.Fluid]
		case dag.Output:
			if _, ok := b.outPort[n.Fluid]; !ok {
				if firstOut < 0 {
					return nil, fmt.Errorf("scheduler: no output ports on %s", chip.Name)
				}
				b.outPort[n.Fluid] = firstOut
			}
		}
	}
	b.order = make([]int, a.Len())
	for i := range b.order {
		b.order[i] = i
	}
	if pol.depthOrder {
		// Ready operations are considered deepest-first (largest ASAP
		// finish time first): droplet chains already in flight are driven
		// to completion before new chains are opened. Combined with
		// just-in-time dispensing (see ready), this keeps the number of
		// concurrently stored droplets near the assay's path depth
		// instead of its width — which is what lets Protein Split 3 run
		// with ~6 stored droplets (paper section 5.2) rather than one per
		// branch. Ties break by node id for determinism.
		sortByDepthDesc(b.order, asapFinish(a, topo))
	} else {
		// Classic list scheduling: longest remaining duration path first.
		sortByDepthDesc(b.order, b.prio)
	}
	b.orderPos = make([]int32, a.Len())
	for i, id := range b.order {
		b.orderPos[id] = int32(i)
	}
	for _, id := range b.order {
		if b.parentsLeft[id] != 0 {
			continue
		}
		b.pending = append(b.pending, id)
		if a.Nodes[id].Kind == dag.Dispense {
			b.pendingDisp = append(b.pendingDisp, id)
		}
	}
	b.jitOK = make([]bool, a.Len())
	if pol.jitDispense {
		b.gateLeft = make([]int32, a.Len())
		b.gateRev = make([][]int32, a.Len())
		// Flatten each dispense's gate to the timed nodes whose starts
		// open it: siblings with a duration directly, instantaneous
		// siblings via their timed ancestors (the unrolled
		// started-or-imminent recursion; see the jitOK field comment).
		inGate := make([]int, a.Len()) // 1-based dispense ID+1, 0 = absent
		var collect func(d, x int)
		collect = func(d, x int) {
			n := a.Nodes[x]
			if n.Duration != 0 {
				if inGate[x] != d+1 {
					inGate[x] = d + 1
					b.gateLeft[d]++
					b.gateRev[x] = append(b.gateRev[x], int32(d))
				}
				return
			}
			for _, p := range n.Parents {
				collect(d, p)
			}
		}
		for _, n := range a.Nodes {
			if n.Kind != dag.Dispense || len(n.Children) != 1 {
				continue
			}
			consumer := a.Node(n.Children[0])
			for _, p := range consumer.Parents {
				if sib := a.Node(p); sib.ID != n.ID && sib.Kind != dag.Dispense {
					collect(n.ID, p)
				}
			}
		}
		for i := range b.jitOK {
			b.jitOK[i] = b.gateLeft[i] == 0
		}
	}
	b.expansion = expansionDispenses(a)
	b.expansionSplit = make([]int, a.Len())
	b.splitInFlight = make([]int, a.Len())
	for i := range b.expansionSplit {
		b.expansionSplit[i] = -1
	}
	for _, n := range a.Nodes {
		if !b.expansion[n.ID] {
			continue
		}
		consumer := a.Node(n.Children[0])
		if consumer.Kind == dag.Split {
			b.expansionSplit[n.ID] = consumer.ID
			continue
		}
		for _, gc := range consumer.Children {
			if a.Node(gc).Kind == dag.Split {
				b.expansionSplit[n.ID] = gc
				break
			}
		}
	}
	return b, nil
}

// expansionAdmissible decides whether a droplet-multiplying dispense may
// start: expansions are strictly serialized (at most one split's worth of
// droplets in flight), which combined with deepest-first ordering drives
// the fan-out depth-first and bounds concurrent storage near the DAG's
// depth. A dispense whose partner (feeding the same split) has already
// been admitted must always proceed, or the pair deadlocks.
func (b *base) expansionAdmissible(dispenseID int, freeStorage int) bool {
	if !b.pol.gateExpansion || !b.expansion[dispenseID] {
		return true
	}
	sp := b.expansionSplit[dispenseID]
	if sp >= 0 && b.splitInFlight[sp] > 0 {
		return true // partner already committed
	}
	return b.inFlightExpansion < 2 && freeStorage >= 2+2*b.inFlightExpansion
}

// noteExpansionStart records that an admitted dispense has committed
// future storage; noteSplitDone releases the commitment.
func (b *base) noteExpansionStart(dispenseID int) {
	if sp := b.expansionSplit[dispenseID]; sp >= 0 {
		b.splitInFlight[sp]++
		b.inFlightExpansion++
	}
}

func (b *base) noteSplitDone(splitID int) {
	if n := b.splitInFlight[splitID]; n > 0 {
		b.splitInFlight[splitID] = 0
		b.inFlightExpansion -= n
	}
}

// expansionDispenses marks the dispenses that increase the chip's live
// droplet census: those feeding an operation whose split child multiplies
// droplets without returning one off-chip (no output among the split's
// children). The schedulers throttle these when storage headroom is low,
// which bounds concurrent storage near the chip's capacity instead of the
// assay's width while keeping the dispense ports saturated.
func expansionDispenses(a *dag.Assay) []bool {
	out := make([]bool, a.Len())
	isExpandingSplit := func(id int) bool {
		n := a.Node(id)
		if n.Kind != dag.Split {
			return false
		}
		for _, c := range n.Children {
			if a.Node(c).Kind == dag.Output {
				return false
			}
		}
		return true
	}
	for _, n := range a.Nodes {
		if n.Kind != dag.Dispense || len(n.Children) != 1 {
			continue
		}
		consumer := n.Children[0]
		if isExpandingSplit(consumer) {
			out[n.ID] = true
			continue
		}
		for _, gc := range a.Node(consumer).Children {
			if isExpandingSplit(gc) {
				out[n.ID] = true
				break
			}
		}
	}
	return out
}

// asapFinish computes each node's earliest possible finish time on
// unlimited resources — the depth metric the ready order uses. order is
// a topological order of the assay.
func asapFinish(a *dag.Assay, order []int) []int {
	fin := make([]int, a.Len())
	for _, id := range order {
		n := a.Nodes[id]
		start := 0
		for _, p := range n.Parents {
			if fin[p] > start {
				start = fin[p]
			}
		}
		fin[id] = start + n.Duration
	}
	// A dispense is a DAG source, so its own ASAP depth says nothing about
	// how far along the chain it feeds is. Rank it by its consumer's depth
	// so late-stage reagent dispenses outrank chain-opening ones.
	for _, n := range a.Nodes {
		if n.Kind != dag.Dispense {
			continue
		}
		for _, c := range n.Children {
			if fin[c] > fin[n.ID] {
				fin[n.ID] = fin[c]
			}
		}
	}
	return fin
}

// sortByDepthDesc sorts ids by descending depth then ascending id. The
// key (depth, id) is a total order, so the result is unique — any
// correct sort produces the byte-identical ordering the old insertion
// sort did, at O(n log n) instead of O(n²) per auto-grow attempt.
func sortByDepthDesc(ids []int, depth []int) {
	sort.Slice(ids, func(i, j int) bool {
		x, y := ids[i], ids[j]
		if depth[x] != depth[y] {
			return depth[x] > depth[y]
		}
		return x < y
	})
}

// ready reports whether the node can be considered for starting.
// Dispenses are additionally gated just-in-time: a dispense only runs
// once every non-dispense input of its consumer is already underway, so
// reagent droplets are not pumped onto the chip (and into storage) long
// before the droplet they will combine with exists.
func (b *base) ready(node int) bool {
	if b.started[node] || b.parentsLeft[node] != 0 {
		return false
	}
	if !b.es.inputsParked(node) {
		return false
	}
	if b.pol.jitDispense && !b.jitOK[node] {
		return false
	}
	return true
}

// noteStarted opens just-in-time gates whose last awaited timed node is
// this one. Called wherever started flips true; gates only ever open
// (started never reverts), so the countdown is exact.
func (b *base) noteStarted(id int) {
	if b.gateRev == nil {
		return
	}
	for _, d := range b.gateRev[id] {
		b.gateLeft[d]--
		if b.gateLeft[d] == 0 {
			b.jitOK[d] = true
		}
	}
}

// markDone finalizes a node's completion bookkeeping: done flags, the
// done counter, and the children's unfinished-parent counts.
func (b *base) markDone(id int) {
	b.done[id] = true
	b.doneCnt++
	b.dirty = true
	for _, c := range b.assay.Nodes[id].Children {
		b.parentsLeft[c]--
		if b.parentsLeft[c] == 0 {
			b.enqueuePending(c)
		}
	}
}

// enqueuePending inserts a node whose last parent just finished into the
// pending scan list at its order position (binary search; the list stays
// sorted by scan priority).
func (b *base) enqueuePending(id int) {
	pos := b.orderPos[id]
	i := sort.Search(len(b.pending), func(k int) bool { return b.orderPos[b.pending[k]] >= pos })
	b.pending = append(b.pending, 0)
	copy(b.pending[i+1:], b.pending[i:])
	b.pending[i] = id
}

// noteRunning registers a begun timed op for completion tracking.
func (b *base) noteRunning(id, end int) {
	b.dirty = true
	if end > b.maxRunningEnd {
		b.maxRunningEnd = end
	}
	b.endAt[end] = append(b.endAt[end], id)
}

// endingAt returns the begun ops whose End == t, ascending by node id —
// the same visit order the old full-ops scan produced.
func (b *base) endingAt(t int) []int {
	ids := b.endAt[t]
	if len(ids) == 0 {
		return nil
	}
	delete(b.endAt, t)
	sort.Ints(ids)
	return ids
}

// anyRunning reports whether some begun op is still executing after t.
// Ends are never retracted, so the max begun end time decides it.
func (b *base) anyRunning(t int) bool { return b.maxRunningEnd > t }

// compactPending drops started nodes from the pending scan lists.
// Called once per active time-step; ready() rejects started nodes
// regardless, so the scans behave identically whenever compaction runs.
func (b *base) compactPending() {
	kept := b.pending[:0]
	for _, id := range b.pending {
		if !b.started[id] {
			kept = append(kept, id)
		}
	}
	b.pending = kept
	keptD := b.pendingDisp[:0]
	for _, id := range b.pendingDisp {
		if !b.started[id] {
			keptD = append(keptD, id)
		}
	}
	b.pendingDisp = keptD
}

// emitMove records a droplet transfer and updates the droplet location.
func (b *base) emitMove(ts int, d *droplet, kind MoveKind, to Location, nodeID int) {
	b.moves = append(b.moves, Move{TS: ts, Droplet: d.id, Kind: kind, From: d.loc, To: to, NodeID: nodeID, Away: -1})
	d.loc = to
	b.dirty = true
	b.cMoves.Inc()
	if kind == MoveStore {
		b.storageMoves++
		b.cStoreRel.Inc()
	}
}

// freeInputPort returns an available port index for the dispense node
// (candidate ports pre-resolved in portsOf), or -1.
func (b *base) freeInputPort(id, t int) int {
	for _, pi := range b.portsOf[id] {
		if b.portBusyTo[pi] <= t && b.portParked[pi] == -1 {
			return pi
		}
	}
	return -1
}

// noteStored adjusts the live storage census used for PeakStored.
func (b *base) noteStored(delta int) {
	b.storedNow += delta
	if b.storedNow > b.peakStored {
		b.peakStored = b.storedNow
	}
}

// finishSchedule assembles the Schedule after the main loop.
func (b *base) finishSchedule() *Schedule {
	makespan := 0
	for _, op := range b.ops {
		if op.End > makespan {
			makespan = op.End
		}
	}
	drops := make([]DropletRef, len(b.es.drops))
	for i, d := range b.es.drops {
		drops[i] = DropletRef{ID: d.id, Producer: d.producer, Consumer: d.consumer, ChildIdx: d.childIdx}
	}
	return &Schedule{
		Assay:        b.assay,
		Chip:         b.chip,
		Ops:          b.ops,
		Moves:        b.moves,
		Droplets:     drops,
		Makespan:     makespan,
		StorageMoves: b.storageMoves,
		PeakStored:   b.peakStored,
	}
}

// pendingCount returns how many nodes remain unfinished.
func (b *base) pendingCount() int { return b.assay.Len() - b.doneCnt }

// canceled returns an error wrapping ctx.Err() once the context is done,
// annotated with where the scheduling loop stopped. A nil ctx never
// cancels, so the uncancellable entry points cost one nil check per
// time-step.
func canceled(ctx context.Context, assay, chip string, t int) error {
	if ctx == nil {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("scheduler: %s on %s canceled at time-step %d: %w", assay, chip, t, err)
	}
	return nil
}
