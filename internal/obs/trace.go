package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Tracer records hierarchical spans. It is safe for concurrent use; the
// depth bookkeeping that nests spans assumes the usual case of one
// goroutine per pipeline stage (concurrent spans still record correct
// timings, only their indentation in summaries may interleave).
type Tracer struct {
	mu      sync.Mutex
	now     func() time.Time // injectable for deterministic tests
	start   time.Time
	depth   int
	done    []SpanRecord
	sampler CostSampler
}

// CostSample is a point-in-time reading of cumulative resource
// counters: CPU time consumed, heap objects allocated, and heap bytes
// allocated. Samplers return monotone values; spans record the delta
// between their start and end samples.
type CostSample struct {
	CPU    time.Duration
	Allocs int64
	Bytes  int64
}

// CostSampler reads the current cumulative cost counters. The canonical
// implementation is perf.Sampler (runtime.MemStats plus thread CPU
// time); obs only defines the contract so the zero-dependency tracer
// can carry cost deltas without importing runtime internals.
type CostSampler func() CostSample

// The span annotation keys carrying cost deltas when a sampler is set.
const (
	CostArgCPU    = "cpu_ns"
	CostArgAllocs = "allocs"
	CostArgBytes  = "bytes"
)

// SetCostSampler attaches a cost sampler: every subsequent span records
// CPU-time, alloc-count and alloc-bytes deltas as the cpu_ns, allocs
// and bytes annotations. Sampling costs one sampler call at Span and
// one at End, so this is a profiling-run tool, not an always-on hot
// path default. Nil-safe; a nil sampler turns cost recording off.
func (t *Tracer) SetCostSampler(s CostSampler) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.sampler = s
	t.mu.Unlock()
}

// NewTracer returns an empty tracer anchored at the current time.
func NewTracer() *Tracer {
	t := &Tracer{now: time.Now}
	t.start = t.now()
	return t
}

// Arg is one span annotation. Exactly one of Str/Num is meaningful,
// selected by IsNum; the split keeps the disabled path allocation-free
// (no interface boxing).
type Arg struct {
	Key   string
	Str   string
	Num   float64
	IsNum bool
}

func (a Arg) value() any {
	if a.IsNum {
		if a.Num == float64(int64(a.Num)) {
			return int64(a.Num)
		}
		return a.Num
	}
	return a.Str
}

// SpanRecord is one completed span.
type SpanRecord struct {
	Name  string
	Depth int           // nesting depth at start (0 = root)
	Start time.Duration // offset from the tracer's anchor
	Dur   time.Duration
	Args  []Arg
}

// Span is an in-flight span. End must be called exactly once.
type Span struct {
	tr    *Tracer
	name  string
	depth int
	start time.Time
	args  []Arg

	// cost tracking, active only when the tracer carries a sampler.
	sampler CostSampler
	cost0   CostSample
}

// Span opens a new span. On a nil tracer it returns nil without reading
// the clock.
func (t *Tracer) Span(name string) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	d := t.depth
	t.depth++
	sampler := t.sampler
	t.mu.Unlock()
	s := &Span{tr: t, name: name, depth: d, sampler: sampler}
	if sampler != nil {
		s.cost0 = sampler()
	}
	s.start = t.now()
	return s
}

// ArgInt annotates the span with an integer value.
func (s *Span) ArgInt(key string, v int64) {
	if s == nil {
		return
	}
	s.args = append(s.args, Arg{Key: key, Num: float64(v), IsNum: true})
}

// ArgStr annotates the span with a string value.
func (s *Span) ArgStr(key, v string) {
	if s == nil {
		return
	}
	s.args = append(s.args, Arg{Key: key, Str: v})
}

// End closes the span and returns its duration (0 on nil).
func (s *Span) End() time.Duration {
	if s == nil {
		return 0
	}
	t := s.tr
	end := t.now()
	if s.sampler != nil {
		// Sample before taking the tracer lock so another span's commit
		// cannot inflate this span's cost account.
		c := s.sampler()
		s.args = append(s.args,
			Arg{Key: CostArgCPU, Num: float64(c.CPU - s.cost0.CPU), IsNum: true},
			Arg{Key: CostArgAllocs, Num: float64(c.Allocs - s.cost0.Allocs), IsNum: true},
			Arg{Key: CostArgBytes, Num: float64(c.Bytes - s.cost0.Bytes), IsNum: true})
	}
	t.mu.Lock()
	t.depth--
	t.done = append(t.done, SpanRecord{
		Name:  s.name,
		Depth: s.depth,
		Start: s.start.Sub(t.start),
		Dur:   end.Sub(s.start),
		Args:  s.args,
	})
	t.mu.Unlock()
	return end.Sub(s.start)
}

// Records returns the completed spans ordered by start time (ties: outer
// span first, then completion order).
func (t *Tracer) Records() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]SpanRecord, len(t.done))
	copy(out, t.done)
	t.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].Depth < out[j].Depth
	})
	return out
}

// chromeEvent is one trace_event entry ("X" = complete event; ts and dur
// are microseconds). The JSON array format is what chrome://tracing and
// Perfetto load directly.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace emits the recorded spans as a Chrome trace_event JSON
// array. On a nil tracer it writes an empty array.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	return WriteChromeTrace(w, t.Records())
}

// ChromeTraceJSON renders span records as a Chrome trace_event JSON
// document ("[]" plus newline for an empty set). Used by the service to
// embed a request-scoped trace in journal entries and compile responses.
func ChromeTraceJSON(recs []SpanRecord) []byte {
	var buf bytes.Buffer
	// Encoding span records cannot fail: every value is a
	// JSON-marshalable scalar or map of scalars.
	_ = WriteChromeTrace(&buf, recs)
	return buf.Bytes()
}

// WriteChromeTrace emits span records as a Chrome trace_event JSON
// array, independent of the tracer that recorded them.
func WriteChromeTrace(w io.Writer, recs []SpanRecord) error {
	events := make([]chromeEvent, 0, len(recs))
	for _, r := range recs {
		ev := chromeEvent{
			Name: r.Name,
			Ph:   "X",
			Ts:   float64(r.Start) / float64(time.Microsecond),
			Dur:  float64(r.Dur) / float64(time.Microsecond),
			Pid:  1,
			Tid:  1,
		}
		if len(r.Args) > 0 {
			ev.Args = make(map[string]any, len(r.Args))
			for _, a := range r.Args {
				ev.Args[a.Key] = a.value()
			}
		}
		events = append(events, ev)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(events)
}

// FormatArgs renders a record's annotations as "k=v k=v" for summaries.
func (r SpanRecord) FormatArgs() string {
	out := ""
	for i, a := range r.Args {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%s=%v", a.Key, a.value())
	}
	return out
}
