// Package graphs holds the dependency graph the direct-addressing
// router orders a routing sub-problem with: a directed graph over dense
// integer vertex ids (one vertex per droplet move) and topological
// sorting via Kahn's algorithm [Kahn 1962], whose *ErrCyclic names the
// moves it could not order. The FPPC router breaks Figure 10's cyclic
// dependencies without a graph: it sweeps the pending moves greedily
// and parks one blocked droplet in temporary storage.
package graphs

import "fmt"

// Digraph is a directed graph over vertices 0..N-1.
type Digraph struct {
	adj [][]int
}

// NewDigraph creates a directed graph with n vertices and no edges.
func NewDigraph(n int) *Digraph {
	if n < 0 {
		panic(fmt.Sprintf("graphs: negative vertex count %d", n))
	}
	return &Digraph{adj: make([][]int, n)}
}

// N returns the number of vertices.
func (g *Digraph) N() int { return len(g.adj) }

// AddEdge inserts the directed edge u -> v. Duplicate edges are kept;
// TopologicalOrder tolerates them.
func (g *Digraph) AddEdge(u, v int) {
	g.check(u)
	g.check(v)
	g.adj[u] = append(g.adj[u], v)
}

// Succ returns the successor list of u. The slice is shared; callers must
// not mutate it.
func (g *Digraph) Succ(u int) []int {
	g.check(u)
	return g.adj[u]
}

func (g *Digraph) check(v int) {
	if v < 0 || v >= len(g.adj) {
		panic(fmt.Sprintf("graphs: vertex %d out of range [0,%d)", v, len(g.adj)))
	}
}

// ErrCyclic is returned by TopologicalOrder when the graph has a cycle.
type ErrCyclic struct {
	// Remaining holds the vertices that could not be ordered (those on or
	// downstream of a cycle).
	Remaining []int
}

func (e *ErrCyclic) Error() string {
	return fmt.Sprintf("graphs: cycle detected; %d vertices unordered", len(e.Remaining))
}

// TopologicalOrder returns the vertices in topological order (every edge
// goes from an earlier to a later vertex) using Kahn's algorithm. Ties are
// broken by smallest vertex id so the result is deterministic. If the
// graph is cyclic it returns an *ErrCyclic carrying the unordered
// vertices.
func TopologicalOrder(g *Digraph) ([]int, error) {
	n := g.N()
	indeg := make([]int, n)
	for _, vs := range g.adj {
		for _, v := range vs {
			indeg[v]++
		}
	}
	ready := &intHeap{}
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			ready.push(v)
		}
	}
	order := make([]int, 0, n)
	for ready.len() > 0 {
		v := ready.pop()
		order = append(order, v)
		for _, w := range g.adj[v] {
			indeg[w]--
			if indeg[w] == 0 {
				ready.push(w)
			}
		}
	}
	if len(order) != n {
		seen := make([]bool, n)
		for _, v := range order {
			seen[v] = true
		}
		var remaining []int
		for v := 0; v < n; v++ {
			if !seen[v] {
				remaining = append(remaining, v)
			}
		}
		return order, &ErrCyclic{Remaining: remaining}
	}
	return order, nil
}

// intHeap is a tiny binary min-heap over ints (avoids container/heap
// interface boilerplate for this hot, simple use).
type intHeap struct{ a []int }

func (h *intHeap) len() int { return len(h.a) }

func (h *intHeap) push(v int) {
	h.a = append(h.a, v)
	i := len(h.a) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h.a[parent] <= h.a[i] {
			break
		}
		h.a[parent], h.a[i] = h.a[i], h.a[parent]
		i = parent
	}
}

func (h *intHeap) pop() int {
	top := h.a[0]
	last := len(h.a) - 1
	h.a[0] = h.a[last]
	h.a = h.a[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h.a) && h.a[l] < h.a[small] {
			small = l
		}
		if r < len(h.a) && h.a[r] < h.a[small] {
			small = r
		}
		if small == i {
			break
		}
		h.a[i], h.a[small] = h.a[small], h.a[i]
		i = small
	}
	return top
}
