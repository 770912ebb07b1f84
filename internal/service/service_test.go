package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"fppc/internal/asl"
	"fppc/internal/assays"
	"fppc/internal/core"
)

const dilutionASL = `
assay "dilution"
fluid protein
fluid buffer ports=2

s      = dispense protein 7
b1     = dispense buffer 7
m1     = mix s b1 3
k1, w1 = split m1
r1     = detect k1 30
output r1 product
output w1 waste
`

// post sends a compile request and decodes the response body into out
// (a *CompileResponse on 2xx, *errorResponse otherwise).
func post(t *testing.T, url string, req CompileRequest, out any) int {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/compile", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding response (HTTP %d): %v", resp.StatusCode, err)
		}
	}
	return resp.StatusCode
}

func metricsBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s := New(Config{Workers: 4})
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

func TestCompileASLAllTargets(t *testing.T) {
	_, ts := newTestServer(t)
	for _, target := range []string{"fppc", "da", "enhanced-fppc"} {
		var resp CompileResponse
		code := post(t, ts.URL, CompileRequest{ASL: dilutionASL, Target: target}, &resp)
		if code != http.StatusOK {
			t.Fatalf("%s: HTTP %d", target, code)
		}
		if resp.Assay != "dilution" || resp.Target != target {
			t.Errorf("%s: got assay %q target %q", target, resp.Assay, resp.Target)
		}
		if resp.Fingerprint == "" || resp.Cached || resp.Stats.TotalSeconds <= 0 {
			t.Errorf("%s: implausible response %+v", target, resp)
		}
		if resp.Chip.Electrodes <= 0 || resp.Chip.Pins <= 0 {
			t.Errorf("%s: empty chip info %+v", target, resp.Chip)
		}
	}
}

func TestCompileDAGAllTargets(t *testing.T) {
	_, ts := newTestServer(t)
	raw, err := json.Marshal(assays.PCR(assays.DefaultTiming()))
	if err != nil {
		t.Fatal(err)
	}
	for _, target := range []string{"fppc", "da", "enhanced-fppc"} {
		var resp CompileResponse
		code := post(t, ts.URL, CompileRequest{DAG: raw, Target: target}, &resp)
		if code != http.StatusOK {
			t.Fatalf("%s: HTTP %d", target, code)
		}
		if resp.Stats.Makespan <= 0 {
			t.Errorf("%s: makespan %d", target, resp.Stats.Makespan)
		}
	}
}

// A repeated identical request must come from the cache, visible both
// in the response and in the /metrics cache-hit counter.
func TestRepeatedRequestServedFromCache(t *testing.T) {
	s, ts := newTestServer(t)
	req := CompileRequest{ASL: dilutionASL}
	var first, second CompileResponse
	if code := post(t, ts.URL, req, &first); code != http.StatusOK {
		t.Fatalf("first: HTTP %d", code)
	}
	if code := post(t, ts.URL, req, &second); code != http.StatusOK {
		t.Fatalf("second: HTTP %d", code)
	}
	if first.Cached || !second.Cached {
		t.Errorf("cached flags = %t, %t; want false, true", first.Cached, second.Cached)
	}
	if first.Fingerprint != second.Fingerprint {
		t.Errorf("fingerprints differ: %s vs %s", first.Fingerprint, second.Fingerprint)
	}
	if got := s.cHits.Value(); got != 1 {
		t.Errorf("cache hits = %d, want 1", got)
	}
	body := metricsBody(t, ts.URL)
	if !strings.Contains(body, "fppc_service_cache_hits_total 1") {
		t.Errorf("/metrics missing cache-hit count:\n%s", body)
	}
	if !strings.Contains(body, "fppc_service_compiles_total 1") {
		t.Errorf("/metrics missing compile count:\n%s", body)
	}
}

// Concurrent identical requests must compile exactly once: followers
// either coalesce onto the in-flight call or hit the cache.
func TestConcurrentIdenticalRequestsCompileOnce(t *testing.T) {
	s, ts := newTestServer(t)
	req := CompileRequest{ASL: dilutionASL, Target: "fppc", Grow: true}
	const n = 8
	var wg sync.WaitGroup
	codes := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var resp CompileResponse
			codes[i] = post(t, ts.URL, req, &resp)
		}(i)
	}
	wg.Wait()
	for i, code := range codes {
		if code != http.StatusOK {
			t.Fatalf("request %d: HTTP %d", i, code)
		}
	}
	if got := s.cCompiles.Value(); got != 1 {
		t.Errorf("compiles = %d, want exactly 1 for %d identical requests", got, n)
	}
}

// A request with a deadline too small to finish must return 504 with
// the typed cancellation kind.
func TestTinyDeadlineReturns504(t *testing.T) {
	s, ts := newTestServer(t)
	// Protein Split 7 compiles in ~25 ms even on the fast paths — far
	// beyond the 1 ms deadline — while keeping canonicalization cheap
	// enough that the handler reaches the expired context promptly.
	raw, err := json.Marshal(assays.ProteinSplit(7, assays.DefaultTiming()))
	if err != nil {
		t.Fatal(err)
	}
	var eresp errorResponse
	code := post(t, ts.URL, CompileRequest{DAG: raw, Grow: true, TimeoutMS: 1}, &eresp)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("HTTP %d, want 504 (body: %+v)", code, eresp)
	}
	if eresp.Kind != "canceled" {
		t.Errorf("kind = %q, want \"canceled\"", eresp.Kind)
	}
	if !strings.Contains(eresp.Error, "canceled") {
		t.Errorf("error %q does not name the cancellation", eresp.Error)
	}
	if s.cTimeouts.Value() == 0 {
		t.Error("timeout counter not incremented")
	}
}

// TestSlotWaitDeadlineIsTyped holds every worker slot, so the request's
// deadline expires while it waits for one and no compile starts. The
// 504 must still carry core's typed cancellation, as a compile aborted
// by the same deadline would.
func TestSlotWaitDeadlineIsTyped(t *testing.T) {
	s, ts := newTestServer(t)
	for i := 0; i < cap(s.sem); i++ {
		s.sem <- struct{}{}
	}
	defer func() {
		for i := 0; i < cap(s.sem); i++ {
			<-s.sem
		}
	}()
	var eresp errorResponse
	code := post(t, ts.URL, CompileRequest{ASL: dilutionASL, TimeoutMS: 1}, &eresp)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("HTTP %d, want 504 (body: %+v)", code, eresp)
	}
	if eresp.Kind != "canceled" {
		t.Errorf("kind = %q, want \"canceled\"", eresp.Kind)
	}
	want := (&core.ErrCanceled{Assay: "dilution", Target: core.TargetFPPC, Err: context.DeadlineExceeded}).Error()
	if eresp.Error != want {
		t.Errorf("error = %q, want %q", eresp.Error, want)
	}
	if got := s.cTimeouts.Value(); got != 1 {
		t.Errorf("fppc_service_timeouts_total = %d, want 1", got)
	}
	if got := s.cCompiles.Value(); got != 0 {
		t.Errorf("%d compiles started while every slot was held", got)
	}
}

func TestSequenceEmission(t *testing.T) {
	_, ts := newTestServer(t)
	var resp CompileResponse
	code := post(t, ts.URL, CompileRequest{ASL: dilutionASL, Sequence: true, RotationsPerStep: 1}, &resp)
	if code != http.StatusOK {
		t.Fatalf("HTTP %d", code)
	}
	if resp.Sequence == nil || len(resp.Sequence.Cycles) == 0 || resp.Sequence.PinCount <= 0 {
		t.Fatalf("sequence missing or empty: %+v", resp.Sequence)
	}
	if len(resp.Sequence.Events) == 0 {
		t.Error("sequence has no reservoir events")
	}
	// Any pin-program target can emit a sequence; enhanced-fppc drives
	// every electrode on its own pin.
	var enh CompileResponse
	if code := post(t, ts.URL, CompileRequest{ASL: dilutionASL, Target: "enhanced-fppc", Sequence: true, RotationsPerStep: 1}, &enh); code != http.StatusOK {
		t.Fatalf("enhanced-fppc+sequence: HTTP %d", code)
	}
	if enh.Sequence == nil || enh.Sequence.PinCount != enh.Chip.Electrodes {
		t.Errorf("enhanced-fppc sequence = %+v; want pin_count == electrodes (%d)", enh.Sequence, enh.Chip.Electrodes)
	}
	// Targets without the pin-program capability reject it.
	var eresp errorResponse
	if code := post(t, ts.URL, CompileRequest{ASL: dilutionASL, Target: "da", Sequence: true}, &eresp); code != http.StatusBadRequest {
		t.Errorf("da+sequence: HTTP %d, want 400", code)
	}
}

// GET /targets advertises the registry: every registered target with
// its wire name, default chip and capability flags, ordered by ID.
func TestTargetsEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/targets")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d", resp.StatusCode)
	}
	var tr TargetsResponse
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	if len(tr.Targets) != len(core.Targets()) {
		t.Fatalf("%d targets advertised, registry has %d", len(tr.Targets), len(core.Targets()))
	}
	byName := map[string]TargetInfo{}
	for _, ti := range tr.Targets {
		if ti.Name == "" || ti.Description == "" || ti.Chip == nil || ti.Chip.Electrodes <= 0 {
			t.Errorf("incomplete target info %+v", ti)
		}
		byName[ti.Name] = ti
	}
	enh, ok := byName["enhanced-fppc"]
	if !ok {
		t.Fatal("enhanced-fppc not advertised")
	}
	if !enh.Capabilities.PinProgram || !enh.Capabilities.FixedPortCapacity {
		t.Errorf("enhanced-fppc capabilities = %+v", enh.Capabilities)
	}
	if enh.Chip.Pins != enh.Chip.Electrodes {
		t.Errorf("enhanced-fppc default chip %+v; want one pin per electrode", enh.Chip)
	}
	if da := byName["da"]; da.Capabilities.PinProgram {
		t.Error("da advertises a pin program")
	}
	// Wrong method.
	del, err := http.NewRequest(http.MethodDelete, ts.URL+"/targets", nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := http.DefaultClient.Do(del)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("DELETE /targets: HTTP %d, want 405", dresp.StatusCode)
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t)
	cases := []struct {
		name string
		req  CompileRequest
	}{
		{"neither asl nor dag", CompileRequest{}},
		{"both asl and dag", CompileRequest{ASL: dilutionASL, DAG: json.RawMessage(`{}`)}},
		{"bad target", CompileRequest{ASL: dilutionASL, Target: "qpu"}},
		{"malformed asl", CompileRequest{ASL: "assay \"x\"\nboom"}},
		{"malformed dag", CompileRequest{DAG: json.RawMessage(`{"nodes": [{"id": 3}]}`)}},
	}
	for _, tc := range cases {
		var eresp errorResponse
		if code := post(t, ts.URL, tc.req, &eresp); code != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d, want 400 (%+v)", tc.name, code, eresp)
		}
	}
	// Unknown top-level fields are rejected (catches misspelled options).
	resp, err := http.Post(ts.URL+"/compile", "application/json",
		strings.NewReader(`{"asl": "x", "tarlget": "fppc"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field: HTTP %d, want 400", resp.StatusCode)
	}
	// Wrong method.
	getResp, err := http.Get(ts.URL + "/compile")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /compile: HTTP %d, want 405", getResp.StatusCode)
	}
}

// An assay that does not fit the fixed array without growth is a client
// problem, not a service one: 422, not 5xx.
func TestUncompilableAssayReturns422(t *testing.T) {
	_, ts := newTestServer(t)
	raw, err := json.Marshal(assays.ProteinSplit(7, assays.DefaultTiming()))
	if err != nil {
		t.Fatal(err)
	}
	var eresp errorResponse
	code := post(t, ts.URL, CompileRequest{DAG: raw}, &eresp)
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("HTTP %d, want 422 (%+v)", code, eresp)
	}
	if eresp.Kind != "compile_failed" {
		t.Errorf("kind = %q, want \"compile_failed\"", eresp.Kind)
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Workers != 4 {
		t.Errorf("health = %+v", h)
	}
}

// A renamed, relabeled and renumbered resubmission is the same
// compile: it must hit the response cache (whose key leaves the assay
// name out) and carry its own name in assay and summary. A
// verify-toggled resubmission misses the cache (verify is part of the
// key) and recompiles to the same stats.
func TestRenamedResubmissionHitsCache(t *testing.T) {
	s, ts := newTestServer(t)
	var plain CompileResponse
	if code := post(t, ts.URL, CompileRequest{ASL: dilutionASL}, &plain); code != http.StatusOK {
		t.Fatalf("plain: HTTP %d", code)
	}
	a, err := asl.Parse(dilutionASL)
	if err != nil {
		t.Fatal(err)
	}
	twin, err := a.Relabeled(func(old string) string { return "x-" + old }).
		Renumbered(rand.New(rand.NewSource(3)).Perm(a.Len()))
	if err != nil {
		t.Fatal(err)
	}
	twin.Name = "dilution, resubmitted"
	raw, err := json.Marshal(twin)
	if err != nil {
		t.Fatal(err)
	}
	var renamed CompileResponse
	if code := post(t, ts.URL, CompileRequest{DAG: raw}, &renamed); code != http.StatusOK {
		t.Fatalf("renamed: HTTP %d", code)
	}
	if !renamed.Cached {
		t.Fatal("renamed, relabeled and renumbered resubmission missed the response cache")
	}
	if renamed.Assay != twin.Name {
		t.Errorf("assay = %q, want the request's own name %q", renamed.Assay, twin.Name)
	}
	if want := twin.Name + strings.TrimPrefix(plain.Summary, plain.Assay); renamed.Summary != want {
		t.Errorf("summary = %q, want %q", renamed.Summary, want)
	}
	if plain.Assay != "dilution" || !strings.HasPrefix(plain.Summary, "dilution on ") {
		t.Errorf("first compile: assay %q, summary %q", plain.Assay, plain.Summary)
	}
	if renamed.Stats != plain.Stats || renamed.Chip != plain.Chip || renamed.Fingerprint != plain.Fingerprint {
		t.Errorf("hit diverges from its compile: %+v vs %+v", renamed, plain)
	}

	var verified CompileResponse
	if code := post(t, ts.URL, CompileRequest{ASL: dilutionASL, Verify: true}, &verified); code != http.StatusOK {
		t.Fatalf("verified: HTTP %d", code)
	}
	if verified.Cached {
		t.Fatal("verify-toggled request hit the unverified cache entry")
	}
	if plain.Stats != verified.Stats {
		t.Errorf("stats diverge across verify: %+v vs %+v", plain.Stats, verified.Stats)
	}
	if hits, compiles := s.cHits.Value(), s.cCompiles.Value(); hits != 1 || compiles != 2 {
		t.Errorf("cache hits = %d, compiles = %d; want 1 and 2", hits, compiles)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	var resp CompileResponse
	if code := post(t, ts.URL, CompileRequest{ASL: dilutionASL}, &resp); code != http.StatusOK {
		t.Fatalf("HTTP %d", code)
	}
	body := metricsBody(t, ts.URL)
	for _, want := range []string{
		"# TYPE fppc_service_compile_seconds histogram",
		"fppc_service_compiles_total 1",
		`fppc_service_requests_total{code="200",endpoint="/compile"} 1`,
		"fppc_sched_timesteps", // pipeline metrics flow into the same registry
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// The LRU must evict the oldest entry once capacity is exceeded.
// Server timeouts cap client-requested ones.
func TestMaxTimeoutCapsRequest(t *testing.T) {
	s := New(Config{Workers: 1, MaxTimeout: time.Millisecond})
	raw, err := json.Marshal(assays.ProteinSplit(7, assays.DefaultTiming()))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(CompileRequest{DAG: raw, Grow: true, TimeoutMS: 60000})
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/compile", bytes.NewReader(body)))
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("HTTP %d, want 504: %s", rec.Code, rec.Body)
	}
}
