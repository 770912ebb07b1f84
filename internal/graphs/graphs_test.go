package graphs

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestDigraphBasics(t *testing.T) {
	g := NewDigraph(3)
	if g.N() != 3 {
		t.Fatalf("N() = %d, want 3", g.N())
	}
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(0, 2)
	for u, want := range [][]int{{1, 2}, {2}, nil} {
		if got := g.Succ(u); !reflect.DeepEqual(got, want) {
			t.Errorf("Succ(%d) = %v, want %v", u, got, want)
		}
	}
}

func TestDigraphPanicsOnBadVertex(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("AddEdge out of range did not panic")
		}
	}()
	NewDigraph(2).AddEdge(0, 5)
}

func TestNewDigraphNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("NewDigraph(-1) did not panic")
		}
	}()
	NewDigraph(-1)
}

// respectsEdges reports whether order lists every vertex of g once and
// puts each edge's tail before its head.
func respectsEdges(g *Digraph, order []int) bool {
	if len(order) != g.N() {
		return false
	}
	pos := make([]int, g.N())
	for i := range pos {
		pos[i] = -1
	}
	for i, v := range order {
		if pos[v] >= 0 {
			return false
		}
		pos[v] = i
	}
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Succ(u) {
			if pos[u] >= pos[v] {
				return false
			}
		}
	}
	return true
}

func TestTopologicalOrder(t *testing.T) {
	g := NewDigraph(6)
	g.AddEdge(5, 2)
	g.AddEdge(5, 0)
	g.AddEdge(4, 0)
	g.AddEdge(4, 1)
	g.AddEdge(2, 3)
	g.AddEdge(3, 1)
	order, err := TopologicalOrder(g)
	if err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
	if !respectsEdges(g, order) {
		t.Errorf("order %v violates an edge", order)
	}
}

func TestTopologicalOrderDeterministic(t *testing.T) {
	g := NewDigraph(4)
	g.AddEdge(3, 1)
	// 0, 2, 3 all sources: smallest-id tie-break gives 0, 2, 3, 1.
	order, err := TopologicalOrder(g)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(order, []int{0, 2, 3, 1}) {
		t.Errorf("order = %v, want [0 2 3 1]", order)
	}
}

func TestTopologicalOrderCycleError(t *testing.T) {
	g := NewDigraph(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 0)
	_, err := TopologicalOrder(g)
	ce, ok := err.(*ErrCyclic)
	if !ok {
		t.Fatalf("error = %v, want *ErrCyclic", err)
	}
	if !reflect.DeepEqual(ce.Remaining, []int{0, 1}) {
		t.Errorf("Remaining = %v, want [0 1]", ce.Remaining)
	}
	if ce.Error() == "" {
		t.Errorf("empty error string")
	}
}

// randomDigraph builds a digraph with n vertices and roughly density*n*n
// edges from the given seed.
func randomDigraph(seed int64, n int, density float64) *Digraph {
	rng := rand.New(rand.NewSource(seed))
	g := NewDigraph(n)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v && rng.Float64() < density {
				g.AddEdge(u, v)
			}
		}
	}
	return g
}

func TestQuickTopoOrderValidOnDAGs(t *testing.T) {
	prop := func(seed int64, nn uint8) bool {
		n := int(nn%30) + 1
		rng := rand.New(rand.NewSource(seed))
		g := NewDigraph(n)
		// Only forward edges: guaranteed acyclic.
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < 0.2 {
					g.AddEdge(u, v)
				}
			}
		}
		order, err := TopologicalOrder(g)
		return err == nil && respectsEdges(g, order)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestQuickCyclicGraphsDetected forces a 0 <-> 1 cycle into random
// graphs: both vertices must land in ErrCyclic.Remaining, the list the
// DA router serializes.
func TestQuickCyclicGraphsDetected(t *testing.T) {
	prop := func(seed int64, nn uint8) bool {
		n := int(nn%20) + 3
		g := randomDigraph(seed, n, 0.1)
		g.AddEdge(0, 1)
		g.AddEdge(1, 0)
		_, err := TopologicalOrder(g)
		ce, ok := err.(*ErrCyclic)
		if !ok || len(ce.Remaining) < 2 {
			return false
		}
		// Remaining is ascending, so 0 and 1 lead it when present.
		return ce.Remaining[0] == 0 && ce.Remaining[1] == 1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkTopoOrder(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	g := NewDigraph(500)
	for u := 0; u < 500; u++ {
		for v := u + 1; v < 500; v++ {
			if rng.Float64() < 0.01 {
				g.AddEdge(u, v)
			}
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := TopologicalOrder(g); err != nil {
			b.Fatal(err)
		}
	}
}
