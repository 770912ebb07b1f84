package grid

import (
	"math"
	"testing"
)

// TestCellSetMembership covers Add, Has and Del on the array and on the
// one-cell padding ring, and that cells farther off are never members.
func TestCellSetMembership(t *testing.T) {
	const w, h = 4, 3
	s := NewCellSet(w, h)
	var on, ring, far []Cell
	for y := -3; y < h+3; y++ {
		for x := -3; x < w+3; x++ {
			c := Cell{x, y}
			switch {
			case x >= 0 && x < w && y >= 0 && y < h:
				on = append(on, c)
			case x >= -1 && x <= w && y >= -1 && y <= h:
				ring = append(ring, c)
			default:
				far = append(far, c)
			}
		}
	}
	if len(ring) != 2*(w+2)+2*h {
		t.Fatalf("padding ring has %d cells, want %d", len(ring), 2*(w+2)+2*h)
	}
	for _, group := range [][]Cell{on, ring, far} {
		for _, c := range group {
			if s.Has(c) {
				t.Errorf("fresh set has %v", c)
			}
			s.Add(c)
		}
	}
	for _, c := range on {
		if !s.Has(c) {
			t.Errorf("array cell %v missing after Add", c)
		}
	}
	for _, c := range ring {
		if !s.Has(c) {
			t.Errorf("padding cell %v missing after Add", c)
		}
	}
	for _, c := range far {
		if s.Has(c) {
			t.Errorf("cell %v, two or more off the array, became a member", c)
		}
		s.Del(c) // ignored like Add
	}
	member := append(append([]Cell(nil), on...), ring...)
	for i, c := range member {
		if i%2 == 0 {
			s.Del(c)
		}
	}
	for i, c := range member {
		if got := s.Has(c); got != (i%2 == 1) {
			t.Errorf("after deleting every other cell, Has(%v) = %t", c, got)
		}
	}
	s.Del(on[1])
	s.Del(on[1])
	if s.Has(on[1]) {
		t.Errorf("double Del left %v a member", on[1])
	}
}

// TestCellSetReset checks that Reset empties the set, that the set is
// reusable afterwards, and that the zero value holds nothing.
func TestCellSetReset(t *testing.T) {
	s := NewCellSet(5, 5)
	a, b := Cell{0, 0}, Cell{5, -1}
	s.Add(a)
	s.Add(b)
	s.Reset()
	if s.Has(a) || s.Has(b) {
		t.Fatalf("Reset kept members: Has(%v)=%t Has(%v)=%t", a, s.Has(a), b, s.Has(b))
	}
	s.Add(b)
	if s.Has(a) || !s.Has(b) {
		t.Errorf("after Reset and Add(%v): Has(%v)=%t Has(%v)=%t", b, a, s.Has(a), b, s.Has(b))
	}
	var zero CellSet
	zero.Add(a)
	zero.Del(a)
	if zero.Has(a) {
		t.Errorf("zero CellSet has %v", a)
	}
	zero.Reset()
}

// TestCellSetGenerationWrap pins the wrap-around of the generation
// counter: a stamp written in generation 1 must not turn into a member
// again when the counter wraps and restarts at 1.
func TestCellSetGenerationWrap(t *testing.T) {
	s := NewCellSet(3, 3)
	stale, live := Cell{1, 1}, Cell{2, 2}
	s.Add(stale) // stamped with generation 1
	s.gen = math.MaxUint32
	s.Add(live)
	if s.Has(stale) || !s.Has(live) {
		t.Fatalf("at the last generation: Has(%v)=%t Has(%v)=%t", stale, s.Has(stale), live, s.Has(live))
	}
	s.Reset()
	if s.gen != 1 {
		t.Fatalf("generation after wrap = %d, want 1", s.gen)
	}
	if s.Has(stale) || s.Has(live) {
		t.Errorf("after wrap: Has(%v)=%t Has(%v)=%t, want both false", stale, s.Has(stale), live, s.Has(live))
	}
	s.Add(live)
	if !s.Has(live) {
		t.Errorf("Add after wrap lost %v", live)
	}
}
