package grid

// CellSet is a set of cells of a W×H array, stored densely over the
// array padded by one cell on every side, so the cardinal neighbours of
// every on-array cell can be members too. Cells farther off the array
// are never members: Add ignores them. Membership is a generation
// stamp, so Reset empties the set in O(1) and a replay loop can reuse
// one set every cycle instead of allocating a map. The zero value is an
// empty set with no room for any cell.
type CellSet struct {
	w, h  int      // padded dimensions
	gen   uint32   // current generation, never 0
	stamp []uint32 // padded row-major; stamp == gen marks a member
}

// NewCellSet returns an empty set for a w×h array.
func NewCellSet(w, h int) *CellSet {
	s := &CellSet{w: w + 2, h: h + 2, gen: 1}
	s.stamp = make([]uint32, s.w*s.h)
	return s
}

// index locates c in the padded array, or returns -1 when c lies more
// than one cell off the array.
func (s *CellSet) index(c Cell) int {
	x, y := c.X+1, c.Y+1
	if x < 0 || x >= s.w || y < 0 || y >= s.h {
		return -1
	}
	return y*s.w + x
}

// Add inserts c; a cell more than one step off the array is ignored.
func (s *CellSet) Add(c Cell) {
	if i := s.index(c); i >= 0 {
		s.stamp[i] = s.gen
	}
}

// Del removes c.
func (s *CellSet) Del(c Cell) {
	if i := s.index(c); i >= 0 {
		s.stamp[i] = 0
	}
}

// Has reports whether c is a member.
func (s *CellSet) Has(c Cell) bool {
	i := s.index(c)
	return i >= 0 && s.stamp[i] == s.gen
}

// Reset empties the set. When the generation counter wraps, the stamps
// are cleared so no stale stamp can match the restarted count.
func (s *CellSet) Reset() {
	s.gen++
	if s.gen == 0 {
		clear(s.stamp)
		s.gen = 1
	}
}
