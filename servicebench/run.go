package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fppc/internal/core"
	"fppc/internal/fleet"
	"fppc/internal/obs"
	"fppc/internal/service"
)

// runOpts selects one run of one workload.
type runOpts struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	clients  int     // closed-loop clients (the traced run uses one)
	setups   int     // set-up repetitions; setup_s is their median
	scale    float64 // shrinks the generated streams (tests); 0 = full
	log      io.Writer
}

// report is a run's outcome: the correctness tally, the metrics of the
// result line, and figures printed only in the human summary.
type report struct {
	attempted, failed int
	metrics           map[string]float64
	notes             []string
}

// env is a set-up workload: its traffic, its server and the harness
// driving it.
type env struct {
	in  *inputs
	ob  *obs.Observer
	srv *service.Server
	hn  *harness
	// hitWant holds each hit key's set-up reply in hitForm; hitReply the
	// full reply, for re-verification.
	hitWant, hitReply [][]byte

	mu       sync.Mutex
	programs []kept // program replies sampled for re-verification
}

// kept is a sampled reply to stream request i.
type kept struct {
	i    int
	body []byte
}

// setup builds the server (and, for fleet, a warm-up fleet), generates
// the traffic, and sends the warm-up requests: every hit key once, the
// warm-up draws of cold and program, one fleet round of warm-up jobs.
func setup(ctx context.Context, o runOpts) (*env, error) {
	in, err := generate(o.workload, o.seed, o.scale)
	if err != nil {
		return nil, err
	}
	e := &env{in: in, ob: obs.NewMetricsOnly()}
	var fl *fleet.Fleet
	if o.workload == "fleet" {
		if fl, err = newFleet(e.ob); err != nil {
			return nil, err
		}
	}
	if e.srv, err = newServer(e.ob, fl); err != nil {
		return nil, err
	}
	if e.hn, err = newHarness(e.srv, o.clients); err != nil {
		return nil, err
	}
	if err := e.warm(ctx, o, fl); err != nil {
		e.hn.close()
		return nil, err
	}
	return e, nil
}

func (e *env) warm(ctx context.Context, o runOpts, fl *fleet.Fleet) error {
	switch o.workload {
	case "hit":
		compiled := make(map[string]bool, len(e.in.stream))
		for i := range e.in.stream {
			r := &e.in.stream[i]
			status, body, err := e.hn.post(ctx, r.Path, r.Body)
			if err != nil {
				return err
			}
			// A key's second form finds the entry its first one compiled.
			cached := compiled[r.key()]
			compiled[r.key()] = true
			if _, err := checkCompile(r, cached, status, body); err != nil {
				return fmt.Errorf("servicebench: set-up compile: %w", err)
			}
			want, _, err := hitForm(body)
			if err != nil {
				return err
			}
			e.hitWant = append(e.hitWant, want)
			e.hitReply = append(e.hitReply, body)
		}
	case "cold", "program":
		for i := range e.in.warm {
			r := &e.in.warm[i]
			status, body, err := e.hn.post(ctx, r.Path, r.Body)
			if err != nil {
				return err
			}
			if _, err := checkCompile(r, false, status, body); err != nil {
				return fmt.Errorf("servicebench: warm-up compile: %w", err)
			}
		}
	case "fleet":
		var fr fleetRun
		lr := &loopResult{log: o.log}
		if err := fr.round(ctx, e, o, fl, e.in.warm, -1, time.Now(), lr, nil, nil, nil); err != nil {
			return err
		}
		if lr.failed > 0 {
			return fmt.Errorf("servicebench: %d warm-up fleet jobs failed", lr.failed)
		}
	}
	return nil
}

// sample is one request's stream index, its send and reply times as
// offsets from the start of the window, and the process CPU clock when
// the reply arrived.
type sample struct {
	i          int
	start, end time.Duration
	cpu        time.Duration
}

func (s sample) latency() time.Duration { return s.end - s.start }

// loopResult collects a closed loop's samples and failures.
type loopResult struct {
	mu        sync.Mutex
	samples   []sample
	sent      int // operations attempted
	failed    int
	exhausted bool
	logged    int
	log       io.Writer
}

// fail counts one operation whose outcome differs from the expected
// one, printing the first few.
func (lr *loopResult) fail(err error) {
	lr.mu.Lock()
	defer lr.mu.Unlock()
	lr.failed++
	if lr.logged < 5 && lr.log != nil {
		fmt.Fprintf(lr.log, "servicebench: check failed: %v\n", err)
		lr.logged++
	}
}

// sendFunc sends request i, checks the reply and returns an error only
// when the run must stop (a fidelity failure). Check failures go to
// lr.fail.
type sendFunc func(ctx context.Context, i int, t0 time.Time, lr *loopResult) error

// closedLoop runs `clients` keep-alive callers. Each sends the next
// request of the stream as soon as its previous reply arrives, until the
// window closes or the stream's n requests are taken. It returns when
// every caller has, reporting whether the stream ran out.
func closedLoop(ctx context.Context, clients, n int, t0 time.Time, window time.Duration, lr *loopResult, send sendFunc) (bool, error) {
	var next atomic.Int64
	var exhausted atomic.Bool
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make(chan error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil && time.Since(t0) < window {
				i := int(next.Add(1) - 1)
				if i >= n {
					exhausted.Store(true)
					return
				}
				if err := send(ctx, i, t0, lr); err != nil {
					errs <- err
					cancel()
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	return exhausted.Load(), <-errs // nil when no caller failed
}

// timedPost sends stream request i and records its latency.
func (e *env) timedPost(ctx context.Context, i int, r *request, t0 time.Time, t *tracer, lr *loopResult) (int, []byte, error) {
	var status int
	var body []byte
	var err error
	start := time.Since(t0)
	t.span("http.client", func() { status, body, err = e.hn.post(ctx, r.Path, r.Body) })
	end := time.Since(t0)
	cpu := processCPU()
	lr.mu.Lock()
	lr.sent++
	if err == nil {
		lr.samples = append(lr.samples, sample{i, start, end, cpu})
	}
	lr.mu.Unlock()
	if err != nil {
		lr.fail(err)
	}
	return status, body, err
}

// counter reads one series of the shared registry.
func (e *env) counter(name string, labels ...string) float64 {
	return float64(e.ob.Counter(name, labels...).Value())
}

// counters are the server-side counts a traced run reports as ratios.
type counters struct{ hits, misses, memoHits, memoMisses, sloCaptures float64 }

func (e *env) counters() counters {
	return counters{
		hits:        e.counter("fppc_service_cache_hits_total"),
		misses:      e.counter("fppc_service_cache_misses_total"),
		memoHits:    e.counter("fppc_memo_total", "outcome", "hit"),
		memoMisses:  e.counter("fppc_memo_total", "outcome", "miss"),
		sloCaptures: e.counter("fppc_perf_profiles_total", "kind", "cpu", "trigger", "slo"),
	}
}

func (a counters) sub(b counters) counters {
	return counters{a.hits - b.hits, a.misses - b.misses, a.memoHits - b.memoHits, a.memoMisses - b.memoMisses, a.sloCaptures - b.sloCaptures}
}

// measured is what the timed window of any workload produced.
type measured struct {
	lr       *loopResult
	cpu0     time.Duration // process CPU clock at the window start
	elapsed  time.Duration // window start to the last reply (or terminal job)
	ops      int           // completed requests, or fleet jobs
	rate     float64       // throughput_rps
	jobRate  float64       // jobs_per_s
	cpuPerOp time.Duration // cpu_ms_per_op; 0 means the whole run's CPU ÷ ops
	gc       gcStats
	srv      counters
	fleet    fleetRun
}

// run sets up the workload (several times when untraced; setup_s is
// the median), runs its timed window — traced or not — and checks every
// output.
func run(ctx context.Context, o runOpts) (*report, error) {
	var e *env
	setupTimes := make([]float64, 0, o.setups)
	digest := ""
	for k := 0; k < o.setups; k++ {
		if e != nil {
			if err := e.hn.close(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var err error
		if e, err = setup(ctx, o); err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
		d := e.in.digest()
		if digest != "" && d != digest {
			return nil, fmt.Errorf("servicebench: seed %d generated two different request streams", o.seed)
		}
		digest = d
	}
	defer e.hn.close()

	var t *tracer
	if o.trace {
		t = newTracer()
		e.hn.setHandler(handlerFor(e.srv, t))
	}
	rp := &replayer{t: t, srv: e.srv, memo: core.NewMemo(128)}
	lr := &loopResult{log: o.log}
	srv0, gc0 := e.counters(), readGC()
	m := &measured{lr: lr, cpu0: processCPU()}
	t0 := time.Now()
	var err error
	switch o.workload {
	case "fleet":
		err = e.runFleet(ctx, o, t0, t, rp, m)
	default:
		err = e.runCompile(ctx, o, t0, t, rp, m)
	}
	if err != nil {
		return nil, err
	}
	if m.ops == 0 {
		return nil, fmt.Errorf("servicebench: %s completed no operation in %s", o.workload, o.window)
	}
	if m.cpuPerOp == 0 {
		m.cpuPerOp = (processCPU() - m.cpu0) / time.Duration(m.ops)
	}
	m.gc = readGC().sub(gc0)
	m.srv = e.counters().sub(srv0)

	e.reverify(o, lr)
	rep := &report{attempted: lr.sent, failed: lr.failed}
	if o.trace {
		rep.metrics = layerMetrics(t, m)
	} else {
		rep.metrics = endToEndMetrics(m, percentile(setupTimes, 0.5))
	}
	rep.notes = append(rep.notes,
		fmt.Sprintf("failed_frac %.6g ratio (%d of %d operations)", float64(rep.failed)/float64(max(rep.attempted, 1)), rep.failed, rep.attempted),
		fmt.Sprintf("latency_samples %d count", len(lr.samples)),
		fmt.Sprintf("window_s %.3f s (stream exhausted: %t)", m.elapsed.Seconds(), lr.exhausted))
	return rep, nil
}

// runCompile drives a compile workload's closed loop.
func (e *env) runCompile(ctx context.Context, o runOpts, t0 time.Time, t *tracer, rp *replayer, m *measured) error {
	lr := m.lr
	clients := o.clients
	if t != nil {
		clients = 1
	}
	keep := sampler(o.seed)
	var err error
	lr.exhausted, err = closedLoop(ctx, clients, e.in.length(), t0, o.window, lr, func(ctx context.Context, i int, t0 time.Time, lr *loopResult) error {
		r := e.in.at(i)
		t.begin(i)
		status, body, err := e.timedPost(ctx, i, r, t0, t, lr)
		if err != nil {
			return nil
		}
		if o.workload == "hit" {
			if err := checkHit(r, e.hitWant[e.in.order[i]], status, body); err != nil {
				lr.fail(err)
				return nil
			}
		} else if _, err := checkCompile(r, false, status, body); err != nil {
			lr.fail(err)
			return nil
		} else if r.Sequence && keep(i) {
			e.keepProgram(i, body)
		}
		if t != nil {
			return rp.compile(ctx, r, status, body)
		}
		return nil
	})
	if err != nil {
		return err
	}
	m.elapsed = time.Since(t0)
	m.ops = len(lr.samples)
	window := min(o.window, m.elapsed)
	if lr.exhausted {
		window = m.elapsed
	}
	if blocks := wholeBlocks(lr.samples, e.in.block, window, m.cpu0); len(blocks) > 0 {
		m.rate, m.cpuPerOp = blockMedians(blocks)
	} else {
		m.rate = fractionalRate(lr.samples, window)
	}
	m.jobRate = m.rate
	return nil
}

// blockTime is the wall and process CPU time a block of ops operations
// took, from the end of the block before it (or the window start) to
// the reply that completed it.
type blockTime struct {
	ops       int
	wall, cpu time.Duration
}

// wholeBlocks splits the stream into consecutive blocks of `block`
// requests and times each block whose replies all arrived inside the
// window, up to the first one that did not; cpu0 is the process CPU
// clock at the window start. A drawn stream mixes sub-millisecond
// requests with multi-second ones, so counting up to an arbitrary
// instant would make the rate depend on where in the rotation the
// window happens to end; over whole blocks every run measures the same
// mix. A block that concurrent callers finished before the one ahead of
// it is timed together with that one.
func wholeBlocks(samples []sample, block int, window, cpu0 time.Duration) []blockTime {
	if block <= 0 {
		return nil
	}
	done := make(map[int]sample, len(samples))
	for _, s := range samples {
		if s.end <= window {
			done[s.i] = s
		}
	}
	var out []blockTime
	last, ops := sample{cpu: cpu0}, 0
	for n := 0; ; n += block {
		blockLast := last
		for i := n; i < n+block; i++ {
			s, ok := done[i]
			if !ok {
				return out
			}
			if s.end > blockLast.end {
				blockLast = s
			}
		}
		ops += block
		if blockLast.end > last.end {
			out = append(out, blockTime{ops, blockLast.end - last.end, blockLast.cpu - last.cpu})
			last, ops = blockLast, 0
		}
	}
}

// blockMedians returns the median over the blocks of their rates and of
// their CPU time per operation, so that the seconds in which a shared
// host ran the process slowly move neither.
func blockMedians(blocks []blockTime) (rate float64, cpuPerOp time.Duration) {
	rates := make([]float64, len(blocks))
	cpus := make([]float64, len(blocks))
	for i, b := range blocks {
		rates[i] = float64(b.ops) / b.wall.Seconds()
		cpus[i] = b.cpu.Seconds() / float64(b.ops)
	}
	return percentile(rates, 0.5), time.Duration(percentile(cpus, 0.5) * float64(time.Second))
}

// fractionalRate is completed requests per second of the window, where
// a request still in flight when the window closes counts by the share
// of its latency that fell inside it. It is the rate of a window too
// short for one whole block.
func fractionalRate(samples []sample, window time.Duration) float64 {
	n := 0.0
	for _, s := range samples {
		switch {
		case s.end <= window:
			n++
		case s.start < window:
			n += float64(window-s.start) / float64(s.latency())
		}
	}
	return n / window.Seconds()
}

// sampler picks the seeded sample of program replies re-verified after
// the window: one request in sixteen, at a seeded offset.
func sampler(seed int64) func(i int) bool {
	off := rand.New(rand.NewSource(seed)).Intn(16)
	return func(i int) bool { return i%16 == off }
}

// maxKept bounds the program replies held for re-verification.
const maxKept = 64

func (e *env) keepProgram(i int, body []byte) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.programs) < maxKept {
		e.programs = append(e.programs, kept{i, body})
	}
}

// reverify replays a seeded sample of returned programs with the
// oracle after the window; each failure counts as a failed operation.
func (e *env) reverify(o runOpts, lr *loopResult) {
	check := func(r *request, body []byte) {
		if err := reverify(r, body); err != nil {
			lr.fail(err)
		}
	}
	switch o.workload {
	case "hit":
		rng := rand.New(rand.NewSource(o.seed))
		for _, k := range rng.Perm(len(e.in.stream))[:8] {
			if r := &e.in.stream[k]; r.Sequence {
				check(r, e.hitReply[k])
			}
		}
	case "program":
		for _, p := range e.programs {
			check(e.in.at(p.i), p.body)
		}
	}
}

// percentile by linear interpolation between closest ranks.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}
