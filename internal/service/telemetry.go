package service

import (
	"fmt"
	"math"
	"net/http"
	"runtime/metrics"
	"time"

	"fppc/internal/core"
	"fppc/internal/sim"
	"fppc/internal/telemetry"
)

// TelemetryRecord is the GET /debug/telemetry body: the chip-level
// execution telemetry of the most recent compile executed by the worker
// pool (cache hits do not refresh it).
type TelemetryRecord struct {
	Assay       string              `json:"assay"`
	Target      string              `json:"target"`
	Fingerprint string              `json:"fingerprint"`
	CollectedAt time.Time           `json:"collected_at"`
	Telemetry   *telemetry.Snapshot `json:"telemetry"`
}

// collectTelemetry builds the compile's telemetry record: router
// stall/relocation counts arrive through the collector threaded into
// the router, the schedule supplies the module timeline, and — when the
// compile emitted a pin program — the one simulator replay of the chip
// with its declared faults fills in electrode wear, congestion and
// droplet traces. A verified compile's replay is the oracle's
// cross-check, which already fed tc; any other compile replays here.
// Telemetry is advisory: a replay error leaves the partial snapshot in
// place and never fails the compile (verification is the oracle's job).
func (s *Server) collectTelemetry(j *job, res *core.Result, tc *telemetry.Collector) {
	tc.AttachSchedule(res.Schedule)
	if prog := res.Routing.Program; prog != nil && !j.verify {
		var inj sim.Injector
		if j.faults != nil {
			inj = j.faults
		}
		_, _ = sim.RunInjected(res.Chip, prog, res.Routing.Events, nil, tc, inj)
	}
	s.lastTelemetry.Store(&TelemetryRecord{
		Assay:       res.Assay.Name,
		Target:      j.req.Target,
		Fingerprint: j.fp,
		CollectedAt: time.Now(),
		Telemetry:   tc.Snapshot(),
	})
}

func (s *Server) handleTelemetry(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", fmt.Errorf("GET only"))
		return
	}
	rec := s.lastTelemetry.Load()
	if rec == nil {
		writeError(w, http.StatusNotFound, "no_telemetry",
			fmt.Errorf("no compile has produced telemetry yet"))
		return
	}
	writeJSON(w, http.StatusOK, rec)
}

// runtimeSamples names the runtime/metrics series exported as gauges on
// GET /metrics.
var runtimeSamples = []string{
	"/sched/goroutines:goroutines",
	"/memory/classes/heap/objects:bytes",
	"/gc/pauses:seconds",
}

// sampleRuntime refreshes the runtime gauges (goroutines, heap bytes,
// GC pauses) on the obs registry; called on every metrics scrape.
func (s *Server) sampleRuntime() {
	samples := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		samples[i].Name = name
	}
	metrics.Read(samples)
	for _, sm := range samples {
		switch sm.Name {
		case "/sched/goroutines:goroutines":
			s.gGoroutines.Set(float64(sm.Value.Uint64()))
		case "/memory/classes/heap/objects:bytes":
			s.gHeapBytes.Set(float64(sm.Value.Uint64()))
		case "/gc/pauses:seconds":
			count, total := summarizeHistogram(sm.Value.Float64Histogram())
			s.gGCPauses.Set(float64(count))
			s.gGCPauseSecs.Set(total)
		}
	}
}

// summarizeHistogram reduces a runtime histogram to its event count and
// a bucket-midpoint estimate of the summed values (runtime/metrics
// exposes distributions, not totals).
func summarizeHistogram(h *metrics.Float64Histogram) (count uint64, total float64) {
	if h == nil {
		return 0, 0
	}
	for i, n := range h.Counts {
		if n == 0 {
			continue
		}
		count += n
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		if math.IsInf(lo, -1) {
			lo = 0
		}
		if math.IsInf(hi, 1) {
			hi = lo
		}
		total += float64(n) * (lo + hi) / 2
	}
	return count, total
}
