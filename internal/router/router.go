// Package router implements the paper's droplet routing stage (section
// 4.3 and supplemental S3) for both architectures.
//
// The FPPC router realizes each routing sub-problem sequentially: one
// droplet at a time travels the 3-phase transport buses between modules,
// entering and exiting through dedicated I/O electrodes. Before routing,
// the droplet dependency graph is built (edge Dx->Dy when Dx's
// destination is Dy's current location), strongly connected components
// are broken by relocating one droplet to the reserved routing-buffer SSD
// (Figure 10), and the remaining moves execute in reverse topological
// order.
//
// The DA router routes droplets concurrently on the fully addressable
// array, avoiding occupied module halos, resolving droplet-droplet
// conflicts with start-time stalls; a sub-problem costs the longest
// individual route rather than the sum.
package router

import (
	"context"
	"fmt"
	"strings"

	"fppc/internal/arch"
	"fppc/internal/grid"
	"fppc/internal/obs"
	"fppc/internal/pins"
	"fppc/internal/scheduler"
	"fppc/internal/telemetry"
)

// CycleSeconds is the duration of one electrode actuation cycle: 10 ms at
// the 100 Hz actuation rate of supplemental S2.
const CycleSeconds = 0.01

// Options control routing.
type Options struct {
	// EmitProgram additionally produces the per-cycle pin activation
	// program (FPPC only), including the operation-phase hold/rotation
	// cycles, so the electrode-level simulator can replay the assay.
	EmitProgram bool
	// RotationsPerStep is the number of full mixer-loop rotations emitted
	// per time-step in the program's operation phases. The physical chip
	// runs ~12 (100 cycles at 8 activations per lap); tests use fewer to
	// keep programs small. Zero means one idle hold cycle per time-step.
	RotationsPerStep int

	// Workers is ignored: routing runs on the caller's goroutine. The
	// field stays for callers that set it.
	Workers int

	// Obs records per-boundary spans and routing counters (retries,
	// relocations, bus-phase cycles). Nil disables observation at the
	// cost of a nil check per instrument call.
	Obs *obs.Observer

	// Telemetry receives stall/relocation counts for chip-level
	// execution telemetry (internal/telemetry). Nil disables.
	Telemetry *telemetry.Collector

	// Avoid marks cells droplets must not travel through — set by
	// fault-aware compilation to keep routes off faulted electrodes and
	// out of a stuck-closed cell's pull radius. Nil blocks nothing.
	// Module-interior cells are governed by module disabling, not Avoid;
	// the router consults it for transport (bus/street) cells.
	Avoid func(grid.Cell) bool
}

// avoided reports whether the cell is blocked by the Avoid predicate.
func (o Options) avoided(c grid.Cell) bool { return o.Avoid != nil && o.Avoid(c) }

// BoundaryResult reports one routing sub-problem.
type BoundaryResult struct {
	TS     int
	Moves  int
	Cycles int
}

// Result is the routing outcome for a whole schedule.
type Result struct {
	Boundaries  []BoundaryResult
	TotalCycles int
	// MoveCount is the number of droplet transfers routed (including
	// deadlock-buffer relocations).
	MoveCount int
	// BufferReloc counts droplets temporarily parked in the reserved SSD
	// to break cyclic routing dependencies (none occur on the paper's
	// benchmarks; see supplemental S3).
	BufferReloc int
	// StallCycles totals the cycles droplets waited on clearance or
	// transit conflicts (DA router).
	StallCycles int
	Program     *pins.Program // non-nil when Options.EmitProgram
	Events      []Event       // reservoir actions aligned to program cycles
}

// Seconds returns the total routing time in seconds.
func (r *Result) Seconds() float64 { return float64(r.TotalCycles) * CycleSeconds }

// MeanCyclesPerMove reports the average droplet transfer cost — for the
// sequential FPPC router this is the mean route length plus module I/O
// overhead, the quantity that explains routing-time differences between
// architectures and port placements.
func (r *Result) MeanCyclesPerMove() float64 {
	if r.MoveCount == 0 {
		return 0
	}
	return float64(r.TotalCycles) / float64(r.MoveCount)
}

// locKey canonicalizes a location for dependency analysis: DA storage
// slots within one module share the key because their halos interact.
func locKey(l scheduler.Location) scheduler.Location {
	l.Slot = 0
	return l
}

// MoveError reports a failure routing one specific droplet transfer. It
// carries the boundary time-step and droplet so callers (and the
// operator reading an error out of a long Protein Split run) can tell
// exactly which transfer stalled.
type MoveError struct {
	TS      int
	Droplet int
	Move    scheduler.Move
	Msg     string
}

func (e *MoveError) Error() string {
	return fmt.Sprintf("router: boundary %d, droplet %d (%v %v->%v): %s",
		e.TS, e.Droplet, e.Move.Kind, e.Move.From, e.Move.To, e.Msg)
}

// ErrDeadlock reports a routing sub-problem whose pending moves cannot
// be ordered even after buffer relocations (an externally built cyclic
// sub-problem beyond Figure 10's single-buffer remedy).
type ErrDeadlock struct {
	TS          int   // boundary time-step
	Remaining   int   // moves still unrouted
	Relocations int   // buffer relocations attempted before giving up
	Droplets    []int // droplets of the stuck moves
}

func (e *ErrDeadlock) Error() string {
	ids := make([]string, len(e.Droplets))
	for i, d := range e.Droplets {
		ids[i] = fmt.Sprint(d)
	}
	return fmt.Sprintf("router: boundary %d: unresolvable routing dependencies (%d moves stuck, droplets [%s], %d relocations attempted)",
		e.TS, e.Remaining, strings.Join(ids, " "), e.Relocations)
}

// routeError wraps routing failures with move context.
func routeError(ts int, m scheduler.Move, msg string, args ...any) error {
	return &MoveError{TS: ts, Droplet: m.Droplet, Move: m, Msg: fmt.Sprintf(msg, args...)}
}

// grow returns buf resized to n elements, reallocating only when the
// capacity is short. Contents are unspecified; callers reinitialize.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// bfsPath returns the shortest path (inclusive of both endpoints) from a
// to b over the cells for which ok returns true. Returns nil when
// unreachable. Deterministic: neighbours expand in grid.Dirs order.
func bfsPath(a, b grid.Cell, ok func(grid.Cell) bool) []grid.Cell {
	if a == b {
		return []grid.Cell{a}
	}
	prev := map[grid.Cell]grid.Cell{a: a}
	queue := []grid.Cell{a}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, n := range cur.Neighbors4() {
			if _, seen := prev[n]; seen || !ok(n) {
				continue
			}
			prev[n] = cur
			if n == b {
				var path []grid.Cell
				for c := b; ; c = prev[c] {
					path = append(path, c)
					if c == a {
						break
					}
				}
				for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
					path[i], path[j] = path[j], path[i]
				}
				return path
			}
			queue = append(queue, n)
		}
	}
	return nil
}

// pathFinder is a reusable grid-indexed BFS workspace: epoch-marked
// visited/blocked arrays and an index queue replace the per-call maps of
// bfsPath, so the routers' hot path allocates nothing per search. The
// expansion order (grid.Dirs on a FIFO frontier) and therefore every
// returned path is byte-identical to bfsPath's.
type pathFinder struct {
	w, h int

	visitEpoch int32
	seen       []int32 // cell visited when seen[i] == visitEpoch
	prev       []int32 // predecessor cell index, valid when seen

	blockEpoch int32
	blockedAt  []int32 // cell blocked when blockedAt[i] == blockEpoch

	queue []int32
}

func newPathFinder(w, h int) *pathFinder {
	n := w * h
	return &pathFinder{
		w: w, h: h,
		seen:      make([]int32, n),
		prev:      make([]int32, n),
		blockedAt: make([]int32, n),
		queue:     make([]int32, 0, n),
	}
}

func (f *pathFinder) idx(c grid.Cell) int32 { return int32(c.Y*f.w + c.X) }

func (f *pathFinder) cell(i int32) grid.Cell {
	return grid.Cell{X: int(i) % f.w, Y: int(i) / f.w}
}

// resetBlocked starts a fresh blocked set (O(1)).
func (f *pathFinder) resetBlocked() { f.blockEpoch++ }

// block marks an in-bounds cell impassable for the current blocked set.
func (f *pathFinder) block(c grid.Cell) {
	if c.X >= 0 && c.X < f.w && c.Y >= 0 && c.Y < f.h {
		f.blockedAt[f.idx(c)] = f.blockEpoch
	}
}

// blocked reports whether the cell is in the current blocked set.
func (f *pathFinder) blocked(c grid.Cell) bool { return f.blockedAt[f.idx(c)] == f.blockEpoch }

// find appends the shortest a->b path (inclusive of both endpoints) over
// cells passing ok to buf and returns it; nil when unreachable. ok is
// only consulted for in-bounds cells — out-of-bounds neighbours are
// rejected outright, exactly as an InBounds-checking ok would.
func (f *pathFinder) find(a, b grid.Cell, ok func(grid.Cell) bool, buf []grid.Cell) []grid.Cell {
	if a == b {
		return append(buf, a)
	}
	f.visitEpoch++
	ai := f.idx(a)
	f.seen[ai] = f.visitEpoch
	f.prev[ai] = ai
	f.queue = f.queue[:0]
	f.queue = append(f.queue, ai)
	for qi := 0; qi < len(f.queue); qi++ {
		cur := f.queue[qi]
		cc := f.cell(cur)
		for _, d := range grid.Dirs {
			n := cc.Step(d)
			if n.X < 0 || n.X >= f.w || n.Y < 0 || n.Y >= f.h {
				continue
			}
			ni := f.idx(n)
			if f.seen[ni] == f.visitEpoch || !ok(n) {
				continue
			}
			f.seen[ni] = f.visitEpoch
			f.prev[ni] = cur
			if n == b {
				start := len(buf)
				for c := ni; ; c = f.prev[c] {
					buf = append(buf, f.cell(c))
					if c == ai {
						break
					}
				}
				for i, j := start, len(buf)-1; i < j; i, j = i+1, j-1 {
					buf[i], buf[j] = buf[j], buf[i]
				}
				return buf
			}
			f.queue = append(f.queue, ni)
		}
	}
	return nil
}

// nearestOutputPort returns the chip port index of the output port for
// the given fluid closest (Manhattan) to the droplet's current cell,
// falling back to the scheduler's original choice.
func nearestOutputPort(c *arch.Chip, original int, from grid.Cell) int {
	fluid := c.Ports[original].Fluid
	best, bestDist := original, 1<<30
	for i, p := range c.Ports {
		if p.Input || p.Fluid != fluid {
			continue
		}
		if d := grid.Manhattan(from, p.Cell); d < bestDist {
			best, bestDist = i, d
		}
	}
	return best
}

// Route dispatches on the schedule's chip architecture.
func Route(s *scheduler.Schedule, opts Options) (*Result, error) {
	switch s.Chip.Arch {
	case arch.FPPC, arch.EnhancedFPPC:
		return routeFPPC(nil, s, opts)
	case arch.DirectAddressing:
		return routeDA(nil, s, opts)
	}
	return nil, fmt.Errorf("router: unknown architecture %v", s.Chip.Arch)
}

// RouteFPPCContext is the sequential bus router with cooperative
// cancellation, serving both FPPC-family architectures. Target plug-ins
// reference it directly.
func RouteFPPCContext(ctx context.Context, s *scheduler.Schedule, opts Options) (*Result, error) {
	return routeFPPC(ctx, s, opts)
}

// RouteDAContext is the concurrent direct-addressing router with
// cooperative cancellation. Target plug-ins reference it directly.
func RouteDAContext(ctx context.Context, s *scheduler.Schedule, opts Options) (*Result, error) {
	return routeDA(ctx, s, opts)
}

// routeCanceled returns an error wrapping ctx.Err() once the context is
// done (nil ctx never cancels).
func routeCanceled(ctx context.Context, ts int) error {
	if ctx == nil {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("router: canceled at time-step %d: %w", ts, err)
	}
	return nil
}
