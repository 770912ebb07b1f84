package telemetry

import (
	"sort"

	"fppc/internal/scheduler"
)

// Snapshot is the immutable export form of a Collector: everything the
// replay recorded, reduced to JSON-friendly values. Duty cycles are
// actuations divided by replayed cycles — the fraction of the program
// during which the electrode held charge, the standard wear proxy.
type Snapshot struct {
	Chip   ChipMeta `json:"chip"`
	Cycles int      `json:"cycles"`

	// PinActivations equals the number of set bits across all ctrl
	// frames of the program (one bit per driven pin per cycle).
	PinActivations      int64 `json:"total_pin_activations"`
	ElectrodeActuations int64 `json:"total_electrode_actuations"`

	MaxDuty  float64 `json:"max_duty"`
	MeanDuty float64 `json:"mean_duty"`

	Electrodes []ElectrodeStat `json:"electrodes"`
	Pins       []PinStat       `json:"pins"`
	Bus        BusStats        `json:"bus"`
	Congestion CongestionStats `json:"congestion"`

	// Hottest lists the top-K electrodes by actuation count — the cells
	// to watch for dielectric degradation.
	Hottest []ElectrodeStat `json:"hottest_electrodes"`

	Droplets []DropletStat `json:"droplets,omitempty"`
	Modules  []ModuleSpan  `json:"module_timeline,omitempty"`
	Router   RouterStats   `json:"router"`
}

// ChipMeta identifies the array the telemetry describes.
type ChipMeta struct {
	Name string `json:"name"`
	W    int    `json:"w"`
	H    int    `json:"h"`
	Pins int    `json:"pins"`
}

// CellRef is a grid coordinate in export form.
type CellRef struct {
	X int `json:"x"`
	Y int `json:"y"`
}

// ElectrodeStat is the wear record of one wired cell.
type ElectrodeStat struct {
	X          int     `json:"x"`
	Y          int     `json:"y"`
	Pin        int     `json:"pin"`
	Kind       string  `json:"kind"`
	Actuations int64   `json:"actuations"`
	Duty       float64 `json:"duty"`
}

// PinStat is the activation record of one control pin. On the FPPC
// target one pin drives many electrodes (shared bus phases), so pin
// duty bounds the duty of every electrode it drives.
type PinStat struct {
	Pin         int     `json:"pin"`
	Cells       int     `json:"cells"`
	Activations int64   `json:"activations"`
	Duty        float64 `json:"duty"`
}

// BusStats summarizes the 3-phase transport-bus electrodes.
type BusStats struct {
	Cells        int   `json:"cells"`
	Actuations   int64 `json:"actuations"`
	ActiveCycles int64 `json:"active_cycles"`
	// Occupancy is the fraction of cycles with at least one bus
	// electrode energized — how busy the shared transport fabric is.
	Occupancy float64 `json:"occupancy"`
}

// CongestionStats reports droplet-cycles per cell: how long droplets
// rested on each cell, the queueing signal of the array.
type CongestionStats struct {
	MaxVisits int64      `json:"max_visits"`
	Cells     []CellStat `json:"cells,omitempty"`
}

// CellStat is one cell's droplet-cycle count (nonzero cells only,
// row-major order).
type CellStat struct {
	X      int   `json:"x"`
	Y      int   `json:"y"`
	Visits int64 `json:"visits"`
}

// DropletStat is one droplet's motion trace: every footprint change
// with the cycle it happened at.
type DropletStat struct {
	ID     int         `json:"id"`
	Cycles int         `json:"cycles"`
	Path   []Footprint `json:"path"`
}

// Footprint is a droplet's cell set starting at Cycle (1-2 cells:
// single, or stretched across an I/O boundary mid split/merge).
type Footprint struct {
	Cycle int       `json:"cycle"`
	Cells []CellRef `json:"cells"`
}

// ModuleSpan is one operation's residency in a module slot — together
// they form the Gantt of the schedule.
type ModuleSpan struct {
	Module string `json:"module"` // e.g. "mix[0]", "work[2].1"
	Op     string `json:"op"`     // dag kind: mix, split, detect, store
	NodeID int    `json:"node"`
	Start  int    `json:"start"` // time-steps, [Start, End)
	End    int    `json:"end"`
}

// RouterStats carries the router pass-through counts.
type RouterStats struct {
	StallCycles       int64 `json:"stall_cycles"`
	BufferRelocations int64 `json:"buffer_relocations"`
}

// TopK controls how many hottest electrodes a snapshot retains.
const TopK = 5

// Snapshot reduces the collector to its export form. Safe to call on a
// nil or unbound collector (router-only collectors produce a snapshot
// with zero chip geometry but live router counts).
func (c *Collector) Snapshot() *Snapshot {
	s := &Snapshot{}
	if c == nil {
		return s
	}
	s.Router = RouterStats{StallCycles: c.stallCycles, BufferRelocations: c.relocations}
	s.Modules = moduleTimeline(c.schedule)
	if c.chip == nil {
		return s
	}
	s.Chip = ChipMeta{Name: c.chip.Name, W: c.w, H: c.h, Pins: c.chip.PinCount()}
	s.Cycles = c.cycles
	s.PinActivations = c.pinActivations
	s.ElectrodeActuations = c.electrodeActuations

	cycles := float64(c.cycles)
	for _, e := range c.chip.Electrodes() {
		acts := c.electrodeActs[e.Cell.Y*c.w+e.Cell.X]
		st := ElectrodeStat{X: e.Cell.X, Y: e.Cell.Y, Pin: e.Pin, Kind: e.Kind.String(), Actuations: acts}
		if cycles > 0 {
			st.Duty = float64(acts) / cycles
		}
		s.Electrodes = append(s.Electrodes, st)
		s.MeanDuty += st.Duty
		if st.Duty > s.MaxDuty {
			s.MaxDuty = st.Duty
		}
	}
	if n := len(s.Electrodes); n > 0 {
		s.MeanDuty /= float64(n)
	}

	for pin := 1; pin < len(c.pinActs); pin++ {
		st := PinStat{Pin: pin, Cells: len(c.pinCells[pin]), Activations: c.pinActs[pin]}
		if cycles > 0 {
			st.Duty = float64(st.Activations) / cycles
		}
		s.Pins = append(s.Pins, st)
	}

	s.Bus = BusStats{Actuations: c.busActuations, ActiveCycles: c.busActiveCycles}
	for _, b := range c.isBus {
		if b {
			s.Bus.Cells++
		}
	}
	if cycles > 0 {
		s.Bus.Occupancy = float64(c.busActiveCycles) / cycles
	}

	for i, v := range c.occupancy {
		if v == 0 {
			continue
		}
		s.Congestion.Cells = append(s.Congestion.Cells, CellStat{X: i % c.w, Y: i / c.w, Visits: v})
		if v > s.Congestion.MaxVisits {
			s.Congestion.MaxVisits = v
		}
	}

	s.Hottest = hottest(s.Electrodes, TopK)

	for _, id := range c.order {
		t := c.traces[id]
		s.Droplets = append(s.Droplets, DropletStat{ID: t.id, Cycles: t.cycles, Path: t.path})
	}
	return s
}

// hottest returns the top-k electrodes by actuation count, ties broken
// row-major for determinism. Zero-actuation electrodes are omitted.
func hottest(stats []ElectrodeStat, k int) []ElectrodeStat {
	sorted := make([]ElectrodeStat, len(stats))
	copy(sorted, stats)
	sort.SliceStable(sorted, func(i, j int) bool {
		return sorted[i].Actuations > sorted[j].Actuations
	})
	var out []ElectrodeStat
	for _, st := range sorted {
		if st.Actuations == 0 || len(out) == k {
			break
		}
		out = append(out, st)
	}
	return out
}

// moduleTimeline flattens the schedule's module-resident operations
// into Gantt spans, in Schedule.ModuleOps order: by module track, then
// start time.
func moduleTimeline(s *scheduler.Schedule) []ModuleSpan {
	if s == nil || s.Assay == nil {
		return nil
	}
	var out []ModuleSpan
	for _, op := range s.ModuleOps() {
		out = append(out, ModuleSpan{
			Module: op.Loc.String(),
			Op:     s.Assay.Node(op.NodeID).Kind.String(),
			NodeID: op.NodeID,
			Start:  op.Start,
			End:    op.End,
		})
	}
	return out
}
