// Package pins represents compiled electrode-actuation programs: the
// per-cycle lists of control pins the dry controller drives (paper section
// 1.1.3), plus static checks on a chip's pin assignment such as the
// 3-phase transport-bus property of Figure 6.
package pins

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"fppc/internal/arch"
	"fppc/internal/grid"
)

// Activation is the set of pins driven high during one cycle, sorted
// ascending with no duplicates.
type Activation []int

// normalize sorts and deduplicates in place, returning the result.
func normalize(a []int) Activation {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j-1] > a[j]; j-- {
			a[j-1], a[j] = a[j], a[j-1]
		}
	}
	out := a[:0]
	for i, v := range a {
		if i == 0 || v != a[i-1] {
			out = append(out, v)
		}
	}
	return Activation(out)
}

// Program is a sequence of cycle activations for a specific chip.
type Program struct {
	cycles []Activation
}

// Len returns the number of cycles.
func (p *Program) Len() int { return len(p.cycles) }

// Append adds one cycle driving the given pins (copied, normalized).
func (p *Program) Append(pins ...int) {
	cp := append([]int(nil), pins...)
	p.cycles = append(p.cycles, normalize(cp))
}

// Cycle returns the activation of cycle i. The slice is shared; callers
// must not mutate it.
func (p *Program) Cycle(i int) Activation { return p.cycles[i] }

// ActiveCells expands an activation into the set of energized electrodes
// on the chip.
func ActiveCells(c *arch.Chip, act Activation) map[grid.Cell]bool {
	out := make(map[grid.Cell]bool)
	for _, pin := range act {
		for _, cell := range c.PinCells(pin) {
			out[cell] = true
		}
	}
	return out
}

// Validate checks that every referenced pin exists on the chip.
func (p *Program) Validate(c *arch.Chip) error {
	for i, act := range p.cycles {
		for _, pin := range act {
			if pin <= 0 || pin > c.PinCount() {
				return fmt.Errorf("pins: cycle %d drives pin %d outside [1,%d]", i, pin, c.PinCount())
			}
		}
	}
	return nil
}

// WriteTo emits the program as text, one cycle per line of
// space-separated pin ids (empty line = all pins low).
func (p *Program) WriteTo(w io.Writer) (int64, error) {
	var total int64
	bw := bufio.NewWriter(w)
	for _, act := range p.cycles {
		var sb strings.Builder
		for i, pin := range act {
			if i > 0 {
				sb.WriteByte(' ')
			}
			sb.WriteString(strconv.Itoa(pin))
		}
		sb.WriteByte('\n')
		n, err := bw.WriteString(sb.String())
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	return total, bw.Flush()
}

// Read parses a program in WriteTo's format.
func Read(r io.Reader) (*Program, error) {
	p := &Program{}
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		fields := strings.Fields(sc.Text())
		var act []int // stays nil for all-low cycles, matching Append()
		for _, f := range fields {
			v, err := strconv.Atoi(f)
			if err != nil {
				return nil, fmt.Errorf("pins: line %d: %v", line, err)
			}
			act = append(act, v)
		}
		p.cycles = append(p.cycles, normalize(act))
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return p, nil
}

// CheckThreePhase verifies the transport-bus pin constraint on an FPPC
// chip: along every bus, cells closer than 3 steps apart use distinct
// pins, so a droplet can ride the activation wave without being torn
// apart (Figure 6: at least 3 repeatable pins per straight path).
func CheckThreePhase(c *arch.Chip) error {
	check := func(cells []grid.Cell) error {
		for i := range cells {
			for j := i + 1; j < len(cells) && j <= i+2; j++ {
				ei, ej := c.ElectrodeAt(cells[i]), c.ElectrodeAt(cells[j])
				if ei == nil || ej == nil {
					return fmt.Errorf("pins: bus cell missing electrode near %v", cells[i])
				}
				if ei.Pin == ej.Pin {
					return fmt.Errorf("pins: bus cells %v and %v within 2 steps share pin %d",
						cells[i], cells[j], ei.Pin)
				}
			}
		}
		return nil
	}
	// Collect the bus runs: horizontal rows and vertical columns.
	rows := map[int][]grid.Cell{}
	cols := map[int][]grid.Cell{}
	for _, e := range c.Electrodes() {
		switch e.Kind {
		case arch.BusH:
			rows[e.Cell.Y] = append(rows[e.Cell.Y], e.Cell)
		case arch.BusV:
			cols[e.Cell.X] = append(cols[e.Cell.X], e.Cell)
		}
	}
	for _, run := range rows {
		if err := check(run); err != nil {
			return err
		}
	}
	for _, run := range cols {
		if err := check(run); err != nil {
			return err
		}
	}
	return nil
}

// CheckIntersections verifies that around every meeting point of two
// buses, all bus electrodes in the 8-neighbourhood carry distinct pins
// (supplemental Figure S2), so corner turns cannot tear a droplet.
func CheckIntersections(c *arch.Chip) error {
	for _, e := range c.Electrodes() {
		if e.Kind != arch.BusH {
			continue
		}
		// An intersection is a horizontal bus cell with a vertical bus
		// neighbour.
		isX := false
		for _, n := range e.Cell.Neighbors4() {
			if ne := c.ElectrodeAt(n); ne != nil && ne.Kind == arch.BusV {
				isX = true
			}
		}
		if !isX {
			continue
		}
		seen := map[int]grid.Cell{}
		nbrs := e.Cell.Neighbors8()
		cells := append([]grid.Cell{e.Cell}, nbrs[:]...)
		for _, cell := range cells {
			ne := c.ElectrodeAt(cell)
			if ne == nil || (ne.Kind != arch.BusH && ne.Kind != arch.BusV) {
				continue
			}
			if prev, dup := seen[ne.Pin]; dup {
				return fmt.Errorf("pins: intersection at %v: %v and %v share pin %d",
					e.Cell, prev, cell, ne.Pin)
			}
			seen[ne.Pin] = cell
		}
	}
	return nil
}
