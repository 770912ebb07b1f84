package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// metricDef names one metric of BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// workloadDef is one workload of BENCHMARK.json.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloadDefs = []workloadDef{
	{"hit", "cache hits over the 39 default-size keys: decode, parse, fingerprint, canonicalize, lookup and encode do all the work"},
	{"cold", "never-seen Table 1 assays on all three targets: canonicalizing large DAGs, auto-grow scheduling and routing do the work"},
	{"program", "never-seen default-size assays with sequence and verify: program emission, simulator and oracle replay, and encoding dominate"},
	{"fleet", "a 5-chip fleet placing never-seen jobs on every candidate chip, with faulted compiles and migrations after mid-run wear"},
}

// endToEndDefs are what a caller of the service sees, measured with
// tracing off. failed_frac is printed in the summary, not here: it is 0
// on a correct run, and a bound relative to 0 means nothing; the result
// line carries it as failed/attempted.
var endToEndDefs = []metricDef{
	{"throughput_rps", "1/s", "higher", 0.25},
	{"jobs_per_s", "1/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p95_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// layerSpans are the calls the traced run times, named layer.call; each
// reports .calls, .wall_ms, .cpu_ms and .allocs per operation.
var layerSpans = []string{
	"http.client", "service.serve", "service.decode_request", "service.encode_response", "service.self",
	"asl.parse", "dag.decode", "dag.fingerprint", "dag.canonicalize",
	"core.compile", "arch.new_chip", "core.place_ports", "scheduler.schedule",
	"router.route",
	"sim.replay", "oracle.verify",
	"fleet.submit", "fleet.reconcile", "fleet.migrate",
}

// layerCounts are the traced run's counts and ratios.
var layerCounts = []metricDef{
	{Name: "service.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "service.response_bytes", Unit: "bytes/op", Better: "lower"},
	{Name: "dag.nodes", Unit: "nodes/op", Better: "lower"},
	{Name: "core.useful_attempt_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.memo_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "router.cycles", Unit: "cycles/op", Better: "lower"},
	{Name: "fleet.placements", Unit: "count/op", Better: "lower"},
	{Name: "fleet.migrations", Unit: "count/op", Better: "lower"},
	{Name: "fleet.stale_ratio", Unit: "ratio", Better: "lower"},
	{Name: "perf.slo_captures", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "count/op", Better: "lower"},
	{Name: "runtime.gc_pause_ms", Unit: "ms/op", Better: "lower"},
}

// spanFields are the per-operation figures of every layer span.
var spanFields = []struct{ suffix, unit string }{
	{"calls", "calls/op"}, {"wall_ms", "ms/op"}, {"cpu_ms", "ms/op"}, {"allocs", "allocs/op"},
}

// perLayerDefs expands the spans and counts into BENCHMARK.json's
// per_layer list.
func perLayerDefs() []metricDef {
	var out []metricDef
	for _, s := range layerSpans {
		for _, f := range spanFields {
			out = append(out, metricDef{Name: s + "." + f.suffix, Unit: f.unit, Better: "lower"})
		}
	}
	return append(out, layerCounts...)
}

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

// runSeconds is the measured window of one run.
const runSeconds = 25

// writeManifest renders BENCHMARK.json from the definitions above.
func writeManifest(w io.Writer) error {
	m := manifest{
		Command:    []string{"bash", "servicebench/run.sh"},
		Paths:      []string{"servicebench"},
		RunSeconds: runSeconds,
		Workloads:  workloadDefs,
		EndToEnd:   endToEndDefs,
		PerLayer:   perLayerDefs(),
	}
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}

// endToEndMetrics computes the untraced run's metrics.
func endToEndMetrics(m *measured, setupS float64) map[string]float64 {
	lat := make([]float64, len(m.lr.samples))
	for i, s := range m.lr.samples {
		lat[i] = ms(s.latency())
	}
	return map[string]float64{
		"throughput_rps": m.rate,
		"jobs_per_s":     m.jobRate,
		"latency_p50_ms": percentile(lat, 0.50),
		"latency_p95_ms": percentile(lat, 0.95),
		"cpu_ms_per_op":  ms(m.cpuPerOp),
		"setup_s":        setupS,
		"peak_rss_mb":    float64(peakRSSBytes()) / (1 << 20),
	}
}

// layerMetrics computes the traced run's metrics, per operation.
func layerMetrics(t *tracer, m *measured) map[string]float64 {
	ops := float64(m.ops)
	out := map[string]float64{}
	totals := t.totals()
	for _, s := range layerSpans {
		st := totals[s]
		if st == nil {
			st = &spanTotal{}
		}
		out[s+".calls"] = float64(st.calls) / ops
		out[s+".wall_ms"] = ms(st.wall) / ops
		out[s+".cpu_ms"] = ms(st.cpu) / ops
		out[s+".allocs"] = float64(st.allocs) / ops
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	t.mu.Lock()
	counts := t.counts
	t.mu.Unlock()
	out["service.cache_hit_ratio"] = ratio(m.srv.hits, m.srv.hits+m.srv.misses)
	out["service.response_bytes"] = counts["service.response_bytes"] / ops
	out["dag.nodes"] = counts["dag.nodes"] / ops
	out["core.useful_attempt_ratio"] = ratio(out["core.compile.calls"], out["scheduler.schedule.calls"])
	out["core.memo_hit_ratio"] = ratio(m.srv.memoHits, m.srv.memoHits+m.srv.memoMisses)
	out["router.cycles"] = counts["router.cycles"] / ops
	out["fleet.placements"] = float64(m.fleet.placements) / ops
	out["fleet.migrations"] = float64(m.fleet.migrations) / ops
	out["fleet.stale_ratio"] = ratio(float64(m.fleet.stale), float64(m.fleet.applications))
	out["perf.slo_captures"] = m.srv.sloCaptures
	out["runtime.gc_cycles"] = float64(m.gc.cycles) / ops
	out["runtime.gc_pause_ms"] = m.gc.pauseSec * 1000 / ops
	return out
}

func ms(d time.Duration) float64 { return d.Seconds() * 1000 }

// metricValue is one entry of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// writeReport prints the human summary — every metric by name with its
// unit, plus failed_frac and the latency sample count — then the result
// line.
func writeReport(w io.Writer, workload string, trace bool, rep *report) error {
	defs := endToEndDefs
	if trace {
		defs = perLayerDefs()
	}
	res := result{
		Correct:   rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "workload %s (trace %t)\n", workload, trace)
	for _, d := range defs {
		v, ok := rep.metrics[d.Name]
		if !ok {
			return fmt.Errorf("servicebench: metric %s was not measured", d.Name)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		fmt.Fprintf(&b, "  %-34s %14.6g %s\n", d.Name, v, d.Unit)
	}
	for _, n := range rep.notes {
		fmt.Fprintf(&b, "  %s\n", n)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	b.Write(line)
	b.WriteString("\n")
	_, err = w.Write(b.Bytes())
	return err
}
