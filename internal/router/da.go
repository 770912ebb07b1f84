package router

import (
	"context"
	"fmt"

	"fppc/internal/arch"
	"fppc/internal/dag"
	"fppc/internal/graphs"
	"fppc/internal/grid"
	"fppc/internal/obs"
	"fppc/internal/scheduler"
	"fppc/internal/telemetry"
)

// daRouter routes one direct-addressing schedule. Every electrode is
// individually controllable, so droplets move concurrently; a routing
// sub-problem costs the longest single route (plus stalls) rather than
// the sum. Droplets travel the streets and the perimeter ring, keeping
// out of other modules' interference halos.
type daRouter struct {
	s    *scheduler.Schedule
	chip *arch.Chip
	opts Options
	// busy maps module index to the half-open [from, to) boundary ranges
	// during which its halo is impassable (an operation is running or a
	// droplet is stored there).
	busy [][][2]int

	pf *pathFinder // reusable BFS workspace

	cStalls    *obs.Counter         // cycles droplets wait on clearance/conflicts
	tc         *telemetry.Collector // chip telemetry pass-through (nil disables)
	stallTotal int                  // run-wide stall cycles, lands on Result.StallCycles
}

// computeBusy reconstructs per-module occupancy from the schedule: ops
// with positive duration, plus the parking interval of every droplet
// (from its arrival at the module until its departure).
func (r *daRouter) computeBusy() {
	r.busy = make([][][2]int, len(r.chip.WorkMods))
	add := func(w, from, to int) {
		if w >= 0 && to > from {
			r.busy[w] = append(r.busy[w], [2]int{from, to})
		}
	}
	for i := range r.s.Ops {
		op := &r.s.Ops[i]
		if op.Loc.Kind == scheduler.LocWork && op.End > op.Start {
			add(op.Loc.Index, op.Start, op.End)
		}
	}
	// Group the TS-sorted move list by droplet in one pass: each
	// droplet's subsequence keeps its original order, so the per-droplet
	// timeline walk below visits exactly the moves the old full-list
	// scan per droplet did.
	storesBy := make([][]int32, len(r.s.Droplets))
	for i := range r.s.Moves {
		m := &r.s.Moves[i]
		if m.Kind == scheduler.MoveStore {
			storesBy[m.Droplet] = append(storesBy[m.Droplet], int32(i))
		}
	}
	// Droplet parking timeline: producer end (or split boundary), then
	// each relocation, until the consumer starts.
	for _, d := range r.s.Droplets {
		prod, cons := r.s.Ops[d.Producer], r.s.Ops[d.Consumer]
		at := prod.End
		if r.s.Assay.Node(d.Producer).Kind == dag.Split {
			at = prod.Start
		}
		loc := prod.Loc
		for _, mi := range storesBy[d.ID] {
			m := &r.s.Moves[mi]
			add(moduleIdx(loc), at, m.TS)
			at, loc = m.TS, m.To
		}
		add(moduleIdx(loc), at, cons.Start)
	}
}

// moduleBusyAt reports whether the module's halo is blocked during the
// routing sub-problem at boundary ts (which executes between time-steps
// ts-1 and ts): any occupancy interval strictly containing the boundary.
func (r *daRouter) moduleBusyAt(w, ts int) bool {
	for _, iv := range r.busy[w] {
		if iv[0] < ts && ts < iv[1] {
			return true
		}
	}
	return false
}

// daClearance is the stall (in cycles) a droplet waits after a
// predecessor departs the contested location.
const daClearance = 3

// RouteDA routes every sub-problem of a DA schedule and returns cycle
// counts (no pin program: the DA baseline is timing-only in this repo;
// the electrode-level simulator validates the pin-constrained design).
func RouteDA(s *scheduler.Schedule, opts Options) (*Result, error) {
	return routeDA(nil, s, opts)
}

func routeDA(ctx context.Context, s *scheduler.Schedule, opts Options) (*Result, error) {
	if s.Chip.Arch != arch.DirectAddressing {
		return nil, fmt.Errorf("router: RouteDA on %v chip", s.Chip.Arch)
	}
	if opts.EmitProgram {
		return nil, fmt.Errorf("router: program emission is only supported for the FPPC architecture")
	}
	ob := opts.Obs
	ob.Metrics().Help("fppc_router_retries_total", "deadlock-breaking relocation sweeps in the FPPC router")
	ob.Counter("fppc_router_retries_total") // DA never relocates; export 0 for dashboard parity
	cMoves := ob.Counter("fppc_router_moves_total")
	hBoundaries := ob.Histogram("fppc_route_cycles", nil)
	r := &daRouter{s: s, chip: s.Chip, opts: opts, tc: opts.Telemetry,
		pf:      newPathFinder(s.Chip.W, s.Chip.H),
		cStalls: ob.Counter("fppc_router_stall_cycles_total")}
	r.computeBusy()
	res := &Result{}
	for _, ts := range s.Boundaries() {
		if err := routeCanceled(ctx, ts); err != nil {
			return nil, err
		}
		nMoves := len(s.MovesSpan(ts))
		sp := ob.Span("route_boundary")
		sp.ArgInt("ts", int64(ts))
		sp.ArgInt("moves", int64(nMoves))
		cycles, err := r.routeBoundary(ts)
		if err != nil {
			sp.End()
			return nil, err
		}
		sp.ArgInt("cycles", int64(cycles))
		sp.End()
		hBoundaries.Observe(float64(cycles))
		cMoves.Add(int64(nMoves))
		res.Boundaries = append(res.Boundaries, BoundaryResult{TS: ts, Moves: nMoves, Cycles: cycles})
		res.TotalCycles += cycles
		res.MoveCount += nMoves
	}
	res.StallCycles = r.stallTotal
	return res, nil
}

// cellOf maps a DA location to its cell.
func (r *daRouter) cellOf(l scheduler.Location) (grid.Cell, error) {
	switch l.Kind {
	case scheduler.LocReservoir, scheduler.LocOutput:
		return r.chip.Ports[l.Index].Cell, nil
	case scheduler.LocWork:
		m := r.chip.WorkMods[l.Index]
		if l.Slot == 0 {
			return grid.Cell{X: m.Rect.X0, Y: m.Rect.Y0}, nil
		}
		return grid.Cell{X: m.Rect.X1 - 1, Y: m.Rect.Y1 - 1}, nil
	}
	return grid.Cell{}, fmt.Errorf("router: DA location %v has no cell", l)
}

// moduleIdx returns the work-module index of a location, or -1.
func moduleIdx(l scheduler.Location) int {
	if l.Kind == scheduler.LocWork {
		return l.Index
	}
	return -1
}

// pathFor computes a shortest street path for the move using the
// router's BFS workspace. Idle, empty modules are routable (direct addressing can
// drive any electrode); only the halos of modules that are busy during
// this boundary block the path, source and destination excepted.
func (r *daRouter) pathFor(ts int, m scheduler.Move) ([]grid.Cell, error) {
	pf := r.pf
	src, err := r.cellOf(m.From)
	if err != nil {
		return nil, err
	}
	to := m.To
	if to.Kind == scheduler.LocOutput {
		to.Index = nearestOutputPort(r.chip, to.Index, src)
	}
	dst, err := r.cellOf(to)
	if err != nil {
		return nil, err
	}
	srcMod, dstMod := moduleIdx(m.From), moduleIdx(m.To)
	pf.resetBlocked()
	for _, w := range r.chip.WorkMods {
		if w.Index == srcMod || w.Index == dstMod || !r.moduleBusyAt(w.Index, ts) {
			continue
		}
		for _, cell := range w.Rect.Expand(1).Cells() {
			pf.block(cell)
		}
	}
	ok := func(c grid.Cell) bool {
		return r.chip.InBounds(c) && !pf.blocked(c) && !r.opts.avoided(c)
	}
	path := pf.find(src, dst, ok, nil)
	if path == nil {
		return nil, fmt.Errorf("router: DA move droplet %d: no path %v -> %v", m.Droplet, src, dst)
	}
	return path, nil
}

// routeBoundary routes one DA sub-problem concurrently: paths start
// simultaneously, dependency edges add clearance stalls, and pairwise
// spatio-temporal conflicts delay the later droplet.
func (r *daRouter) routeBoundary(ts int) (int, error) {
	moves := r.s.MovesSpan(ts)
	paths, err := r.computePaths(ts, moves)
	if err != nil {
		return 0, err
	}

	// Dependency graph: same construction as the FPPC router, including
	// emission-order chaining of a droplet's multiple hops.
	g := graphs.NewDigraph(len(moves))
	for i := range moves {
		for j := range moves {
			if i == j {
				continue
			}
			if moves[i].Droplet == moves[j].Droplet {
				if i < j {
					g.AddEdge(j, i)
				}
				continue
			}
			if locKey(moves[i].To) != locKey(moves[j].From) {
				continue
			}
			if moves[i].Kind == scheduler.MoveSplit &&
				r.s.Droplets[moves[j].Droplet].Producer == moves[i].NodeID {
				g.AddEdge(j, i)
				continue
			}
			g.AddEdge(i, j)
		}
	}

	// Start times: predecessors (moves that must leave first) impose a
	// clearance delay; unresolvable cycles serialize (direct addressing
	// can always wait in place on a street, so serialization is safe).
	start := make([]int, len(moves))
	order, err := graphs.TopologicalOrder(g)
	if err != nil {
		// Cyclic: route the cyclic moves strictly one after another.
		cyc, _ := err.(*graphs.ErrCyclic)
		t := 0
		for i := range moves {
			start[i] = 0
		}
		for _, idx := range cyc.Remaining {
			start[idx] = t
			t += len(paths[idx]) + daClearance
		}
		order = make([]int, 0, len(moves))
		for i := range moves {
			order = append(order, i)
		}
	} else {
		// Process in reverse topological order: a move starts after the
		// moves vacating its destination have cleared.
		for i := len(order) - 1; i >= 0; i-- {
			idx := order[i]
			for _, pred := range g.Succ(idx) { // pred routes first
				if s := start[pred] + daClearance; s > start[idx] {
					start[idx] = s
				}
			}
		}
	}

	// Source clearance: if move i's path brushes the cell where move j's
	// droplet waits, j must depart first. Mutual brushes (droplets
	// swapping) keep only the lower-index constraint.
	srcNear := func(i, j int) bool {
		if moves[j].From.Kind == scheduler.LocReservoir {
			return false // waiting droplets in reservoirs are off-chip
		}
		src := paths[j][0]
		for _, c := range paths[i] {
			if grid.Chebyshev(c, src) <= 1 {
				return true
			}
		}
		return false
	}
	for pass := 0; pass < len(moves)+1; pass++ {
		for i := range moves {
			for j := range moves {
				if i == j || !srcNear(i, j) {
					continue
				}
				if srcNear(j, i) && j > i {
					continue
				}
				if s := start[j] + daClearance; s > start[i] {
					start[i] = s
				}
			}
		}
	}

	// Pairwise transit conflict resolution: two droplets within the
	// fluidic interference range at the same cycle stall the later one.
	// Moves feeding the same operation are exempt — they merge on purpose.
	for pass := 0; pass < 256; pass++ {
		conflict := false
		for i := 0; i < len(moves); i++ {
			for j := i + 1; j < len(moves); j++ {
				if moves[i].NodeID >= 0 && moves[i].NodeID == moves[j].NodeID {
					continue
				}
				if firstConflict(paths[i], start[i], paths[j], start[j]) {
					// Delay the move that starts later (ties: higher idx).
					if start[i] > start[j] {
						start[i] += 2
					} else {
						start[j] += 2
					}
					conflict = true
				}
			}
		}
		if !conflict {
			break
		}
	}

	// Operational moves run concurrently (the sub-problem costs the
	// longest route); consolidation moves are housekeeping executed as a
	// sequential pass afterwards, which is the routing overhead the paper
	// attributes to the DA baseline's storage management (section 5.1).
	total := 0
	consol := 0
	for i := range moves {
		r.cStalls.Add(int64(start[i]))
		r.tc.RouterStall(start[i])
		r.stallTotal += start[i]
		if moves[i].Kind == scheduler.MoveStore && moves[i].NodeID < 0 {
			consol += len(paths[i])
			continue
		}
		if end := start[i] + len(paths[i]); end > total {
			total = end
		}
	}
	return total + consol, nil
}

// computePaths finds the street path of every move in the sub-problem.
func (r *daRouter) computePaths(ts int, moves []scheduler.Move) ([][]grid.Cell, error) {
	paths := make([][]grid.Cell, len(moves))
	for i, m := range moves {
		p, err := r.pathFor(ts, m)
		if err != nil {
			return nil, err
		}
		paths[i] = p
	}
	return paths, nil
}

// firstConflict reports whether two timed paths ever put their droplets
// within Chebyshev distance 1 of each other at the same cycle while both
// are in transit (the waiting and parked phases are protected by the
// source-clearance ordering and module spacing instead).
func firstConflict(pa []grid.Cell, sa int, pb []grid.Cell, sb int) bool {
	at := func(p []grid.Cell, s, t int) (grid.Cell, bool) {
		if t < s || t >= s+len(p) {
			return grid.Cell{}, false
		}
		return p[t-s], true
	}
	end := sa + len(pa)
	if e2 := sb + len(pb); e2 > end {
		end = e2
	}
	for t := 0; t < end; t++ {
		ca, oka := at(pa, sa, t)
		cb, okb := at(pb, sb, t)
		if oka && okb && grid.Chebyshev(ca, cb) <= 1 {
			return true
		}
	}
	return false
}
