package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"

	"fppc/internal/asl"
	"fppc/internal/assays"
	"fppc/internal/dag"
	"fppc/internal/service"
)

// The three registered targets, in the rotation order the workloads use.
var targets = []string{"fppc", "da", "enhanced-fppc"}

// pinProgramTargets are the targets that accept "sequence": true.
var pinProgramTargets = map[string]bool{"fppc": true, "enhanced-fppc": true}

// refused reports whether the Table 1 shape is refused on the target with
// the typed 422 "unsynthesizable": the enhanced chip's fixed perimeter
// has too few reservoir ports for In-Vitro 3-5.
func refused(shape, target string) bool {
	return target == "enhanced-fppc" &&
		(shape == "In-Vitro 3" || shape == "In-Vitro 4" || shape == "In-Vitro 5")
}

// param is one operation duration a timing draw varies, over [lo, hi]
// time-steps.
type param struct {
	lo, hi int
	set    func(tm *assays.Timing, v int)
}

func (p param) size() int { return p.hi - p.lo + 1 }

// shape is one Table 1 assay family member together with the durations
// its DAG depends on. Only those durations are drawn: a draw that varied
// a duration the shape never uses would repeat its fingerprint.
type shape struct {
	name   string
	build  func(tm assays.Timing) *dag.Assay
	params []param
}

// Duration ranges per family. PCR has only two durations, so its ranges
// are wide enough to supply every draw a run can consume.
var (
	pcrDispense     = param{1, 32, func(tm *assays.Timing, v int) { tm.Dispense = v }}
	pcrMix          = param{1, 32, func(tm *assays.Timing, v int) { tm.Mix = v }}
	ivDispense      = param{1, 4, func(tm *assays.Timing, v int) { tm.Dispense = v }}
	ivMix           = param{2, 5, func(tm *assays.Timing, v int) { tm.Mix = v }}
	proteinDispense = param{3, 12, func(tm *assays.Timing, v int) { tm.ProteinDispense = v }}
	proteinMix      = param{2, 6, func(tm *assays.Timing, v int) { tm.Mix = v }}
	proteinDetect   = param{15, 45, func(tm *assays.Timing, v int) { tm.ProteinDetect = v }}
)

func ivDetect(j int) param {
	return param{4, 11, func(tm *assays.Timing, v int) { tm.InVitroDetect[j] = v }}
}

// table1Shapes returns the paper's thirteen Table 1 assays in publication
// order.
func table1Shapes() []shape {
	out := []shape{{
		name:   "PCR",
		build:  assays.PCR,
		params: []param{pcrDispense, pcrMix},
	}}
	reagents := [5]int{2, 3, 3, 4, 4} // assays.InVitroN's configurations
	for n := 1; n <= 5; n++ {
		n := n
		ps := []param{ivDispense, ivMix}
		for j := 0; j < reagents[n-1]; j++ {
			ps = append(ps, ivDetect(j))
		}
		out = append(out, shape{
			name:   fmt.Sprintf("In-Vitro %d", n),
			build:  func(tm assays.Timing) *dag.Assay { return assays.InVitroN(n, tm) },
			params: ps,
		})
	}
	for l := 1; l <= 7; l++ {
		l := l
		out = append(out, shape{
			name:   fmt.Sprintf("Protein Split %d", l),
			build:  func(tm assays.Timing) *dag.Assay { return assays.ProteinSplit(l, tm) },
			params: []param{proteinDispense, proteinMix, proteinDetect},
		})
	}
	return out
}

// shapesNamed picks shapes from table1Shapes by name, in the given order.
func shapesNamed(names ...string) []shape {
	all := table1Shapes()
	out := make([]shape, 0, len(names))
	for _, n := range names {
		for _, s := range all {
			if s.name == n {
				out = append(out, s)
			}
		}
	}
	return out
}

// The shapes that fit their target's default array: the hit keys and
// the program workload draw from these.
var defaultSizeShapes = []string{
	"PCR", "In-Vitro 1", "In-Vitro 2", "In-Vitro 3", "In-Vitro 4", "In-Vitro 5",
	"Protein Split 1", "Protein Split 2", "Protein Split 3",
}

// The small assays fleet jobs use.
var fleetShapes = []string{"PCR", "In-Vitro 1", "In-Vitro 2", "Protein Split 1", "Protein Split 2"}

// timingDraws hands out distinct timings of one shape, as assays: a
// seeded permutation of the shape's whole duration space, consumed in
// order, so no two draws ever give the shape the same durations.
//
// The permutation is consumed in chunks of drawChunk. A chunk's draws
// are sorted by the critical path of their assays and cut into
// drawStrata strata, and the chunk deals one draw from each stratum
// before it deals a second from any. So the few dozen draws of a shape
// that one run sends span its whole range of assay lengths, and the work
// in a run varies less from seed to seed than under draws taken as they
// come.
type timingDraws struct {
	sh    shape
	rng   *rand.Rand
	perm  []int
	limit int   // draws the stream will take; no chunk reaches past it
	next  int   // perm entries taken into chunks
	queue []int // the current chunk's duration indexes, in dealing order
}

const (
	drawChunk  = 64
	drawStrata = 8
)

func newTimingDraws(sh shape, rng *rand.Rand, limit int) *timingDraws {
	n := 1
	for _, p := range sh.params {
		n *= p.size()
	}
	return &timingDraws{sh: sh, rng: rng, perm: rng.Perm(n), limit: limit}
}

func (d *timingDraws) draw() (*dag.Assay, error) {
	if len(d.queue) == 0 {
		if err := d.deal(); err != nil {
			return nil, err
		}
	}
	idx := d.queue[0]
	d.queue = d.queue[1:]
	return d.sh.build(d.timing(idx)), nil
}

// deal takes the next chunk of the permutation and queues it in
// stratified order. It keeps indexes, not assays: a chunk of the largest
// assays held at once would set the run's peak memory.
func (d *timingDraws) deal() error {
	take := min(drawChunk, d.limit-d.next)
	switch {
	case take <= 0:
		return fmt.Errorf("servicebench: %s drawn more than the %d times planned", d.sh.name, d.limit)
	case d.next+take > len(d.perm):
		return fmt.Errorf("servicebench: %s has only %d distinct timings", d.sh.name, len(d.perm))
	}
	type cand struct{ idx, cp int }
	cs := make([]cand, take)
	for i := range cs {
		idx := d.perm[d.next+i]
		cp, err := d.sh.build(d.timing(idx)).CriticalPath()
		if err != nil {
			return err
		}
		cs[i] = cand{idx, cp}
	}
	d.next += take
	sort.SliceStable(cs, func(i, j int) bool { return cs[i].cp < cs[j].cp })
	strata := make([][]int, drawStrata)
	for i, c := range cs {
		s := i * drawStrata / take
		strata[s] = append(strata[s], c.idx)
	}
	for _, st := range strata {
		d.rng.Shuffle(len(st), func(i, j int) { st[i], st[j] = st[j], st[i] })
	}
	d.queue = make([]int, 0, take)
	for len(d.queue) < take {
		off := d.rng.Intn(drawStrata)
		for _, b := range strataOrder {
			s := (b + off) % drawStrata
			if st := strata[s]; len(st) > 0 {
				d.queue = append(d.queue, st[0])
				strata[s] = st[1:]
			}
		}
	}
	return nil
}

// strataOrder deals the strata in bit-reversed order, rotated by a seeded
// offset. Within a round, draws 1-2, 3-4, ... come from opposite halves
// of the range and draws 1-4 and 5-8 from its four quarters, which
// matters where a run sends only a handful of draws of a shape (cold's
// largest).
var strataOrder = [drawStrata]int{0, 4, 2, 6, 1, 5, 3, 7}

// timing decodes one index of the shape's duration space.
func (d *timingDraws) timing(idx int) assays.Timing {
	tm := assays.DefaultTiming()
	for _, p := range d.sh.params {
		p.set(&tm, p.lo+idx%p.size())
		idx /= p.size()
	}
	return tm
}

// request is one generated operation: the HTTP body the server sees and
// the outcome the benchmark expects back.
type request struct {
	Path   string // "/compile" or "/fleet/jobs"
	Body   []byte
	Shape  string
	Target string // "" for fleet jobs (any chip)

	Sequence, Verify bool

	Fingerprint string // dag.Fingerprint of the assay as sent
	CritPath    int    // the sent DAG's critical path in time-steps

	WantStatus int
	WantKind   string // error kind of an expected non-2xx reply
}

// key names the cache entry a compile request addresses: its
// fingerprint, target and whether it asks for a pin program.
func (r *request) key() string {
	return fmt.Sprintf("%s/%s/%t", r.Fingerprint, r.Target, r.Sequence)
}

// encodeAssay renders the assay as ASL text or DAG JSON and returns the
// assay the server will decode from it.
func encodeAssay(a *dag.Assay, useASL bool) (text string, raw json.RawMessage, sent *dag.Assay, err error) {
	if useASL {
		text, err = asl.Format(a)
		if err != nil {
			return "", nil, nil, err
		}
		sent, err = asl.Parse(text)
		return text, nil, sent, err
	}
	raw, err = json.Marshal(a)
	return "", raw, a, err
}

// describe fills the fields derived from the sent assay.
func (r *request) describe(sent *dag.Assay) error {
	fp, err := sent.Fingerprint()
	if err != nil {
		return err
	}
	cp, err := sent.CriticalPath()
	if err != nil {
		return err
	}
	r.Fingerprint, r.CritPath = fp, cp
	return nil
}

// compileRequest builds a POST /compile request. Every request sets grow.
func compileRequest(a *dag.Assay, shapeName, target string, useASL, seq, verify bool) (request, error) {
	text, raw, sent, err := encodeAssay(a, useASL)
	if err != nil {
		return request{}, err
	}
	body, err := json.Marshal(service.CompileRequest{
		ASL: text, DAG: raw, Target: target, Grow: true, Sequence: seq, Verify: verify,
	})
	if err != nil {
		return request{}, err
	}
	r := request{
		Path: "/compile", Body: body, Shape: shapeName, Target: target,
		Sequence: seq, Verify: verify, WantStatus: 200,
	}
	if refused(shapeName, target) {
		r.WantStatus, r.WantKind = 422, "unsynthesizable"
	}
	return r, r.describe(sent)
}

// fleetRequest builds a POST /fleet/jobs submission (any chip).
func fleetRequest(a *dag.Assay, shapeName string, useASL bool) (request, error) {
	text, raw, sent, err := encodeAssay(a, useASL)
	if err != nil {
		return request{}, err
	}
	body, err := json.Marshal(service.FleetJobRequest{ASL: text, DAG: raw})
	if err != nil {
		return request{}, err
	}
	r := request{Path: "/fleet/jobs", Body: body, Shape: shapeName, WantStatus: 202}
	return r, r.describe(sent)
}

// Stream lengths. A run stops sending when its stream runs out, so each
// is at least twice what the current code completes in a 25 s window.
const (
	hitStreamLen     = 1 << 18
	coldStreamLen    = 600
	programStreamLen = 3000
	fleetRounds      = 150
	fleetJobsRound   = 20
)

// hitRoundsPerBlock is how many rounds over the hit forms make one
// measured block.
const hitRoundsPerBlock = 6

// inputs is a workload's generated traffic.
type inputs struct {
	// warm are requests sent during set-up; their fingerprints are
	// disjoint from the stream's.
	warm []request
	// stream is what the timed window sends, in order. For hit it is
	// the table of key forms and order indexes into it.
	stream []request
	order  []int
	// block is how many consecutive requests of the stream make one
	// measured block: in a drawn stream a rotation that sends each
	// shape × target pair once, in hit whole rounds over its forms.
	block int
}

// at returns the i-th request of the stream.
func (in *inputs) at(i int) *request {
	if in.order != nil {
		return &in.stream[in.order[i]]
	}
	return &in.stream[i]
}

// length is how many requests the stream can send.
func (in *inputs) length() int {
	if in.order != nil {
		return len(in.order)
	}
	return len(in.stream)
}

// digest hashes the traffic in send order — warm-up bodies, the
// request table, then the send order — so equal seeds must give equal
// digests.
func (in *inputs) digest() string {
	h := sha256.New()
	for _, list := range [][]request{in.warm, in.stream} {
		for _, r := range list {
			h.Write([]byte(r.Path))
			h.Write(r.Body)
		}
	}
	var buf [8]byte
	for _, k := range in.order {
		binary.LittleEndian.PutUint64(buf[:], uint64(k))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// generate builds the workload's traffic from the seed alone.
func generate(workload string, seed int64, scale float64) (*inputs, error) {
	switch workload {
	case "hit":
		return genHit(seed, scaled(hitStreamLen, scale))
	case "cold":
		// The warm-up fills the service's 256-entry cache, so every
		// compile of the window evicts an entry, as on a long-running
		// server.
		return genDrawn(seed, table1Shapes(), targets, false, scaled(coldStreamLen, scale),
			shapesNamed("PCR", "In-Vitro 1", "Protein Split 1"), scaled(256, scale))
	case "program":
		return genDrawn(seed, shapesNamed(defaultSizeShapes...), []string{"fppc", "enhanced-fppc"}, true,
			scaled(programStreamLen, scale), shapesNamed("PCR", "Protein Split 1"), 4)
	case "fleet":
		return genFleet(seed, scaled(fleetRounds*fleetJobsRound, scale))
	}
	return nil, fmt.Errorf("servicebench: unknown workload %q (want hit, cold, program or fleet)", workload)
}

func scaled(n int, scale float64) int {
	if scale <= 0 || scale >= 1 {
		return n
	}
	if m := int(float64(n) * scale); m > 0 {
		return m
	}
	return 1
}

// genHit builds the 39 default-size keys — shape × target, with sequence
// on and off for the pin-program targets, minus the refusals — in their
// default timing. Each key is sent in two forms, ASL text and DAG JSON,
// each byte-identical on every send; both carry the key's fingerprint,
// so they share its cache entry. The stream is seeded rounds that send
// every form once in a fresh order, so a block of whole rounds holds the
// same mix whatever the seed.
func genHit(seed int64, n int) (*inputs, error) {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{}
	for _, sh := range shapesNamed(defaultSizeShapes...) {
		a := sh.build(assays.DefaultTiming())
		for _, tgt := range targets {
			if refused(sh.name, tgt) {
				continue
			}
			seqs := []bool{false}
			if pinProgramTargets[tgt] {
				seqs = []bool{false, true}
			}
			for _, seq := range seqs {
				for _, useASL := range []bool{false, true} {
					r, err := compileRequest(a, sh.name, tgt, useASL, seq, false)
					if err != nil {
						return nil, err
					}
					in.stream = append(in.stream, r)
				}
			}
		}
	}
	in.block = hitRoundsPerBlock * len(in.stream)
	in.order = make([]int, 0, n)
	for len(in.order) < n {
		for _, k := range rng.Perm(len(in.stream)) {
			if len(in.order) < n {
				in.order = append(in.order, k)
			}
		}
	}
	return in, nil
}

// genDrawn builds a never-seen stream: request i is shape i mod |shapes|
// on target (i / |shapes|) mod |targets| (skipping refused pairs when
// seq is set, since a program workload wants programs back), each under
// its own timing draw and a seeded choice of ASL or DAG JSON. The warm
// set-up requests rotate over the small warmShapes on every target and
// take the first draws, so they never share a fingerprint with the
// stream.
func genDrawn(seed int64, shapes []shape, tgts []string, seq bool, n int, warmShapes []shape, warm int) (*inputs, error) {
	rng := rand.New(rand.NewSource(seed))
	type combo struct {
		sh  shape
		tgt string
	}
	var combos []combo
	for _, tgt := range tgts {
		for _, sh := range shapes {
			if seq && refused(sh.name, tgt) {
				continue
			}
			combos = append(combos, combo{sh, tgt})
		}
	}
	plan := make([]combo, 0, warm+n)
	for i := 0; i < warm; i++ {
		plan = append(plan, combo{warmShapes[i%len(warmShapes)], tgts[i/len(warmShapes)%len(tgts)]})
	}
	for i := 0; i < n; i++ {
		plan = append(plan, combos[i%len(combos)])
	}
	uses := make(map[string]int, len(shapes))
	for _, c := range plan {
		uses[c.sh.name]++
	}
	draws := make(map[string]*timingDraws, len(shapes))
	for _, sh := range shapes {
		draws[sh.name] = newTimingDraws(sh, rng, uses[sh.name])
	}
	in := &inputs{block: len(combos)}
	for i, c := range plan {
		a, err := draws[c.sh.name].draw()
		if err != nil {
			return nil, err
		}
		r, err := compileRequest(a, c.sh.name, c.tgt, rng.Intn(2) == 0, seq, seq)
		if err != nil {
			return nil, err
		}
		if i < warm {
			in.warm = append(in.warm, r)
		} else {
			in.stream = append(in.stream, r)
		}
	}
	return in, assertUnique(in)
}

// genFleet builds fleet submissions rotating over the small shapes, each
// under its own timing draw. The warm-up round takes one job per shape.
func genFleet(seed int64, n int) (*inputs, error) {
	rng := rand.New(rand.NewSource(seed))
	shapes := shapesNamed(fleetShapes...)
	draws := make([]*timingDraws, len(shapes))
	for k, sh := range shapes {
		draws[k] = newTimingDraws(sh, rng, 1+(n+len(shapes)-1-k)/len(shapes))
	}
	next := func(k int) (request, error) {
		a, err := draws[k].draw()
		if err != nil {
			return request{}, err
		}
		return fleetRequest(a, shapes[k].name, rng.Intn(2) == 0)
	}
	in := &inputs{}
	for k := range shapes {
		r, err := next(k)
		if err != nil {
			return nil, err
		}
		in.warm = append(in.warm, r)
	}
	for i := 0; i < n; i++ {
		r, err := next(i % len(shapes))
		if err != nil {
			return nil, err
		}
		in.stream = append(in.stream, r)
	}
	return in, assertUnique(in)
}

// assertUnique fails when two requests of the workload (warm-up
// included) share a fingerprint: the server would then see a repeat.
func assertUnique(in *inputs) error {
	seen := make(map[string]string, len(in.warm)+len(in.stream))
	all := append(append([]request(nil), in.warm...), in.stream...)
	for _, r := range all {
		if prev, dup := seen[r.Fingerprint]; dup {
			return fmt.Errorf("servicebench: fingerprint %s repeats (%s and %s)", r.Fingerprint[:12], prev, r.Shape)
		}
		seen[r.Fingerprint] = r.Shape
	}
	return nil
}
