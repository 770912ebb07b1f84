package scheduler

import (
	"fmt"
	"sort"
	"strings"

	"fppc/internal/dag"
)

// ModuleOps returns the operations resident in a module slot (mix, SSD
// or DA work module) for at least one time-step, ordered by track (the
// slot's Location rendering, compared as strings) and then by start
// step; ties keep node order. This is the row order of the telemetry
// module timeline, and the fleet breaks start-step ties by it when it
// locates the work in flight.
func (s *Schedule) ModuleOps() []BoundOp {
	type row struct {
		track string
		op    BoundOp
	}
	var rows []row
	for _, op := range s.Ops {
		switch op.Loc.Kind {
		case LocMix, LocSSD, LocWork:
		default:
			continue
		}
		if op.End > op.Start {
			rows = append(rows, row{op.Loc.String(), op})
		}
	}
	sort.SliceStable(rows, func(i, j int) bool {
		if rows[i].track != rows[j].track {
			return rows[i].track < rows[j].track
		}
		return rows[i].op.Start < rows[j].op.Start
	})
	out := make([]BoundOp, len(rows))
	for i, r := range rows {
		out[i] = r.op
	}
	return out
}

// Gantt renders the schedule as a text chart: one row per module/port
// track, one column per time-step, with operation labels placed at their
// start. Useful for eyeballing module utilization and storage pressure.
func (s *Schedule) Gantt() string {
	type track struct {
		name string
		loc  Location
	}
	var tracks []track
	if s.Chip != nil {
		for i := range s.Chip.MixModules {
			tracks = append(tracks, track{fmt.Sprintf("mix[%d]", i), Location{Kind: LocMix, Index: i}})
		}
		for i := range s.Chip.SSDModules {
			tracks = append(tracks, track{fmt.Sprintf("ssd[%d]", i), Location{Kind: LocSSD, Index: i}})
		}
		for i := range s.Chip.WorkMods {
			tracks = append(tracks, track{fmt.Sprintf("work[%d]", i), Location{Kind: LocWork, Index: i}})
		}
	}

	width := s.Makespan
	if width < 1 {
		width = 1
	}
	const maxWidth = 200
	scale := 1
	for (width+scale-1)/scale > maxWidth {
		scale++
	}
	cols := (width + scale - 1) / scale

	var b strings.Builder
	fmt.Fprintf(&b, "%s on %s: %d time-steps", s.Assay.Name, s.Chip.Name, s.Makespan)
	if scale > 1 {
		fmt.Fprintf(&b, " (each column = %d steps)", scale)
	}
	b.WriteByte('\n')

	for _, tr := range tracks {
		row := make([]byte, cols)
		for i := range row {
			row[i] = '.'
		}
		used := false
		for _, op := range s.Ops {
			key := op.Loc
			key.Slot = 0
			if key != tr.loc || op.End <= op.Start {
				continue
			}
			used = true
			glyph := opGlyph(s.Assay.Node(op.NodeID).Kind)
			for t := op.Start; t < op.End; t++ {
				if c := t / scale; c < cols {
					row[c] = glyph
				}
			}
		}
		// Storage intervals: droplets parked on the track between moves.
		for _, iv := range s.storageIntervals(tr.loc) {
			used = true
			for t := iv[0]; t < iv[1]; t++ {
				if c := t / scale; c < cols && row[c] == '.' {
					row[c] = 's'
				}
			}
		}
		if !used {
			continue
		}
		fmt.Fprintf(&b, "%-9s |%s|\n", tr.name, row)
	}
	fmt.Fprintf(&b, "legend: M mix, D detect, S store-op, s stored droplet, . idle\n")
	return b.String()
}

// opGlyph maps operation kinds to Gantt glyphs.
func opGlyph(k dag.Kind) byte {
	switch k {
	case dag.Mix:
		return 'M'
	case dag.Detect:
		return 'D'
	case dag.Store:
		return 'S'
	case dag.Split:
		return '^'
	}
	return '#'
}

// storageIntervals reconstructs the [from, to) time-step spans during
// which a droplet is parked at the location awaiting its consumer.
func (s *Schedule) storageIntervals(loc Location) [][2]int {
	var out [][2]int
	for _, d := range s.Droplets {
		prod, cons := s.Ops[d.Producer], s.Ops[d.Consumer]
		at := prod.End
		if s.Assay.Node(d.Producer).Kind == dag.Split {
			at = prod.Start
		}
		cur := prod.Loc
		record := func(until int) {
			key := cur
			key.Slot = 0
			if key == loc && until > at {
				out = append(out, [2]int{at, until})
			}
		}
		for _, m := range s.Moves {
			if m.Droplet != d.ID {
				continue
			}
			record(m.TS)
			at, cur = m.TS, m.To
		}
		record(cons.Start)
	}
	return out
}

// Utilization summarizes per-kind module busy fractions over the
// makespan, the numbers behind the paper's resource-scaling discussion.
func (s *Schedule) Utilization() map[string]float64 {
	if s.Makespan == 0 {
		return map[string]float64{}
	}
	busy := map[string]int{}
	count := map[string]int{}
	if s.Chip != nil {
		count["mix"] = len(s.Chip.MixModules)
		count["ssd"] = len(s.Chip.SSDModules)
		count["work"] = len(s.Chip.WorkMods)
	}
	for _, op := range s.Ops {
		dur := op.End - op.Start
		switch op.Loc.Kind {
		case LocMix:
			busy["mix"] += dur
		case LocSSD:
			busy["ssd"] += dur
		case LocWork:
			busy["work"] += dur
		}
	}
	out := map[string]float64{}
	for kind, n := range count {
		if n > 0 {
			out[kind] = float64(busy[kind]) / float64(n*s.Makespan)
		}
	}
	return out
}
