package dag

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"sort"
)

// Renumbered returns a copy of the assay with node IDs permuted: the
// node currently at index i moves to index perm[i]. Edges are re-linked
// accordingly, so the result describes the same graph and hashes to the
// same Fingerprint. perm must be a permutation of [0,len(Nodes)).
//
// This is the metamorphic twin-generator of the verification harness:
// any synthesis pipeline property that holds for an assay must hold,
// bit for bit, for every renumbering of it.
func (a *Assay) Renumbered(perm []int) (*Assay, error) {
	n := len(a.Nodes)
	if len(perm) != n {
		return nil, fmt.Errorf("dag: permutation length %d for %d nodes", len(perm), n)
	}
	seen := make([]bool, n)
	for _, p := range perm {
		if p < 0 || p >= n || seen[p] {
			return nil, fmt.Errorf("dag: not a permutation of [0,%d)", n)
		}
		seen[p] = true
	}
	out := New(a.Name)
	if a.Reservoirs != nil {
		out.Reservoirs = make(map[string]int, len(a.Reservoirs))
		for f, c := range a.Reservoirs {
			out.Reservoirs[f] = c
		}
	}
	out.Nodes = make([]*Node, n)
	for i, src := range a.Nodes {
		m := &Node{ID: perm[i], Kind: src.Kind, Label: src.Label,
			Fluid: src.Fluid, Duration: src.Duration}
		for _, p := range src.Parents {
			m.Parents = append(m.Parents, perm[p])
		}
		for _, c := range src.Children {
			m.Children = append(m.Children, perm[c])
		}
		out.Nodes[perm[i]] = m
	}
	return out, nil
}

// Relabeled returns a copy with every node label rewritten by fn
// (labels are presentation-only: the Fingerprint and every compiled
// artifact must be unaffected).
func (a *Assay) Relabeled(fn func(old string) string) *Assay {
	c := a.Clone()
	for _, n := range c.Nodes {
		n.Label = fn(n.Label)
	}
	return c
}

// Identity is an assay's structural identity, computed in one pass
// over its cone keys: its canonical order, and from that order its
// certificate, its fingerprint and its canonical form.
type Identity struct {
	a     *Assay
	keys  [][sha256.Size]byte // cone keys, indexed by node ID
	order []int               // canonical order: order[k] gets ID k
	rank  []int               // inverse of order: node v gets ID rank[v]
}

// Identify validates the assay and computes its Identity. The canonical
// order comes from partition refinement with individualization:
//
//   - The initial cells group nodes with equal cone keys (the per-node
//     hashes the Fingerprint digests), ordered by key.
//   - Refinement splits cells until every member of a cell has the same
//     number of parents and the same number of children in each cell
//     (an equitable partition).
//   - While some cell holds more than one node, the lowest-ID member of
//     the first such cell is split off into a cell of its own, ahead of
//     the rest, and refinement resumes.
//
// Every step depends on structure and cell positions alone, except for
// which member individualization picks. That choice assumes the
// members of a cell are interchangeable under a graph automorphism, so
// that picking another one yields the same adjacency: two renumberings
// of the same graph then canonicalize to identical assays. Refinement
// cannot prove the assumption — some graphs have equitable cells whose
// members are not automorphic — and where it fails, two numberings
// canonicalize to different, equally valid, forms of the same graph.
// They then differ in certificate too, which costs a cache miss and
// never a wrong hit.
func (a *Assay) Identify() (*Identity, error) {
	order, err := a.ValidateAndOrder()
	if err != nil {
		return nil, err
	}
	keys := a.coneKeys(order)
	p := newPartition(a, keys)
	p.refine()
	for s := p.nextTied(); s >= 0; s = p.nextTied() {
		p.individualize(s)
		p.refine()
	}
	return &Identity{a: a, keys: keys, order: p.elems, rank: p.pos}, nil
}

// Canonical returns the assay's canonical form (Identity.Canonical).
func (a *Assay) Canonical() (*Assay, error) {
	id, err := a.Identify()
	if err != nil {
		return nil, err
	}
	return id.Canonical(), nil
}

// Certificate returns the StructuralHash of the canonical form without
// building that form. Equal certificates mean equal canonical forms, so
// two assays that share a certificate compile to the same artifacts:
// unlike the fingerprint, it is a sound compile-cache key.
func (id *Identity) Certificate() string {
	nodes := id.a.Nodes
	h := sha256.New()
	b := appendInt(appendString(nil, structuralHashVersion), len(nodes))
	var kids []int
	for _, v := range id.order {
		n := nodes[v]
		b = append(b, byte(n.Kind))
		b = appendString(b, n.Fluid)
		b = appendInt(b, n.Duration)
		b = appendInt(b, len(n.Children))
		kids = kids[:0]
		for _, c := range n.Children {
			kids = append(kids, id.rank[c])
		}
		slices.Sort(kids)
		for _, c := range kids {
			b = appendInt(b, c)
		}
		h.Write(b)
		b = b[:0]
	}
	seen := map[string]bool{}
	for _, v := range id.order {
		n := nodes[v]
		if n.Kind != Dispense || seen[n.Fluid] {
			continue
		}
		seen[n.Fluid] = true
		b = appendString(b, n.Fluid)
		b = appendInt(b, id.a.ReservoirCount(n.Fluid))
	}
	h.Write(b)
	return hex.EncodeToString(h.Sum(nil))
}

// Fingerprint returns the assay's Fingerprint from the cone keys the
// identity already holds. Cells start in key order and only ever split,
// so the canonical order lists the keys sorted.
func (id *Identity) Fingerprint() string {
	sorted := make([][sha256.Size]byte, len(id.order))
	for k, v := range id.order {
		sorted[k] = id.keys[v]
	}
	return id.a.fingerprint(sorted)
}

// Canonical returns the assay renumbered into canonical order, with
// every edge list sorted. Renumbered variants of one graph canonicalize
// to structurally identical assays (automorphic nodes may swap labels),
// so compiling the canonical form makes the whole synthesis pipeline
// invariant to how the caller happened to number the DAG.
func (id *Identity) Canonical() *Assay {
	c, err := id.a.Renumbered(id.rank)
	if err != nil {
		panic(err) // unreachable: rank is a permutation by construction
	}
	// Edge lists are multisets to every consumer (the fingerprint hashes
	// them sorted); pin their order too so automorphic siblings cannot
	// leave a trace of the original numbering.
	for _, n := range c.Nodes {
		sort.Ints(n.Parents)
		sort.Ints(n.Children)
	}
	return c
}

// partition is an ordered partition of an assay's nodes: elems lists
// the nodes cell by cell, and the cell [s, end[s]) is named by its
// start position s. Cells only ever split, so a start stays a start.
type partition struct {
	a     *Assay
	elems []int // position -> node
	pos   []int // node -> position
	cell  []int // node -> start of its cell
	end   []int // cell start -> one past its last position
	cells int

	// queue holds the starts of the cells still to refine against, in
	// FIFO order; pending[s] marks s as queued. A split into k cells
	// pushes at most k-1 of them, so pushes never outnumber cell
	// starts, and the queue never outgrows its len(elems) capacity.
	queue   []int
	pending []bool

	// Scratch of one splitBy: each node's number of parents (pc) and
	// children (cc) inside the splitter, the nodes with a nonzero count,
	// and the starts of the cells a split produced.
	pc, cc  []int
	touched []int
	bounds  []int

	tied int // every cell before position tied is a singleton
}

// newPartition seeds one cell per distinct key, in key order, and
// queues every cell.
func newPartition(a *Assay, keys [][sha256.Size]byte) *partition {
	n := len(a.Nodes)
	p := &partition{
		a: a, elems: make([]int, n), pos: make([]int, n), cell: make([]int, n), end: make([]int, n),
		queue: make([]int, 0, n), pending: make([]bool, n), pc: make([]int, n), cc: make([]int, n),
	}
	for i := range p.elems {
		p.elems[i] = i
	}
	slices.SortFunc(p.elems, func(x, y int) int { return compareHashes(keys[x], keys[y]) })
	for s := 0; s < n; {
		e := s + 1
		for e < n && keys[p.elems[e]] == keys[p.elems[s]] {
			e++
		}
		for i := s; i < e; i++ {
			p.pos[p.elems[i]], p.cell[p.elems[i]] = i, s
		}
		p.end[s] = e
		p.cells++
		p.push(s)
		s = e
	}
	return p
}

func (p *partition) push(s int) {
	p.pending[s] = true
	p.queue = append(p.queue, s)
}

// refine splits cells against queued splitters until none is left (the
// partition is then equitable) or every cell is a singleton.
func (p *partition) refine() {
	for len(p.queue) > 0 && p.cells < len(p.elems) {
		s := p.queue[0]
		p.queue = p.queue[1:]
		p.pending[s] = false
		p.splitBy(s, p.end[s])
	}
}

// splitBy splits every cell holding a parent or child of the splitter
// cell [ws, we) by how many parents and children its members have in
// the splitter. Only those neighbours' cells are examined.
func (p *partition) splitBy(ws, we int) {
	nodes := p.a.Nodes
	for _, w := range p.elems[ws:we] {
		for _, c := range nodes[w].Children {
			p.touch(c)
			p.pc[c]++
		}
		for _, q := range nodes[w].Parents {
			p.touch(q)
			p.cc[q]++
		}
	}
	// Group the touched nodes by cell, cells in position order, members
	// by count: every new cell start and queue entry below then follows
	// from structure alone.
	slices.SortFunc(p.touched, func(x, y int) int {
		if c := cmp.Compare(p.cell[x], p.cell[y]); c != 0 {
			return c
		}
		return p.compareCounts(x, y)
	})
	for i := 0; i < len(p.touched); {
		s := p.cell[p.touched[i]]
		j := i + 1
		for j < len(p.touched) && p.cell[p.touched[j]] == s {
			j++
		}
		p.splitCell(s, p.touched[i:j])
		i = j
	}
	for _, v := range p.touched {
		p.pc[v], p.cc[v] = 0, 0
	}
	p.touched = p.touched[:0]
}

func (p *partition) touch(v int) {
	if p.pc[v] == 0 && p.cc[v] == 0 {
		p.touched = append(p.touched, v)
	}
}

func (p *partition) compareCounts(x, y int) int {
	if c := cmp.Compare(p.pc[x], p.pc[y]); c != 0 {
		return c
	}
	return cmp.Compare(p.cc[x], p.cc[y])
}

// splitCell splits the cell starting at s, given its touched members t
// sorted by count, into sub-cells ordered by (parents, children) in the
// splitter: the untouched members (0, 0) first, then one sub-cell per
// distinct count. It queues the sub-cells the partition is not yet
// known to be stable against: all of them when the old cell was still
// queued (its entry now names the first), else all but the largest,
// whose counts follow from the old cell's and the others'.
func (p *partition) splitCell(s int, t []int) {
	e := p.end[s]
	if len(t) == e-s && p.compareCounts(t[0], t[len(t)-1]) == 0 {
		return
	}
	// Swap the touched members into the cell's tail, then lay them out
	// in count order.
	tail := e - len(t)
	for k, v := range t {
		p.swap(p.pos[v], e-1-k)
	}
	copy(p.elems[tail:e], t)
	for k, v := range t {
		p.pos[v] = tail + k
	}
	b := p.bounds[:0]
	if tail > s {
		b = append(b, s)
	}
	for k := range t {
		if k == 0 || p.compareCounts(t[k-1], t[k]) != 0 {
			b = append(b, tail+k)
		}
	}
	b = append(b, e)
	p.bounds = b
	largest := 0
	for i := 0; i+1 < len(b); i++ {
		lo, hi := b[i], b[i+1]
		p.end[lo] = hi
		if lo != s {
			for _, v := range p.elems[lo:hi] {
				p.cell[v] = lo
			}
		}
		if hi-lo > b[largest+1]-b[largest] {
			largest = i
		}
	}
	p.cells += len(b) - 2
	wasPending := p.pending[s]
	for i := 0; i+1 < len(b); i++ {
		if (wasPending && i > 0) || (!wasPending && i != largest) {
			p.push(b[i])
		}
	}
}

func (p *partition) swap(i, j int) {
	p.elems[i], p.elems[j] = p.elems[j], p.elems[i]
	p.pos[p.elems[i]], p.pos[p.elems[j]] = i, j
}

// nextTied returns the start of the first cell holding more than one
// node, or -1 once every cell is a singleton.
func (p *partition) nextTied() int {
	for p.tied < len(p.elems) && p.end[p.tied] == p.tied+1 {
		p.tied++
	}
	if p.tied == len(p.elems) {
		return -1
	}
	return p.tied
}

// individualize splits the lowest-ID member v of the cell starting at s
// into a cell of its own at s, ahead of the rest, and queues {v} alone:
// the partition was equitable, so counts into the rest follow from
// counts into the old cell and into {v}.
func (p *partition) individualize(s int) {
	e := p.end[s]
	v := slices.Min(p.elems[s:e])
	p.swap(s, p.pos[v])
	p.end[s], p.end[s+1] = s+1, e
	for _, u := range p.elems[s+1 : e] {
		p.cell[u] = s + 1
	}
	p.cells++
	p.push(s)
}
