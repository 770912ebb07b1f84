package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// get fetches url and decodes the JSON body into out, returning the
// status code.
func get(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s (HTTP %d): %v", url, resp.StatusCode, err)
		}
	}
	return resp.StatusCode
}

func TestJournalRecordsRequests(t *testing.T) {
	_, ts := newTestServer(t)
	var miss, hit CompileResponse
	if code := post(t, ts.URL, CompileRequest{ASL: dilutionASL}, &miss); code != http.StatusOK {
		t.Fatalf("miss: HTTP %d", code)
	}
	if code := post(t, ts.URL, CompileRequest{ASL: dilutionASL}, &hit); code != http.StatusOK {
		t.Fatalf("hit: HTTP %d", code)
	}

	var digests []RequestDigest
	if code := get(t, ts.URL+"/debug/requests", &digests); code != http.StatusOK {
		t.Fatalf("/debug/requests: HTTP %d", code)
	}
	if len(digests) != 2 {
		t.Fatalf("got %d digests, want 2", len(digests))
	}
	// Newest first: the cache hit leads.
	if digests[0].Outcome != "hit" || digests[1].Outcome != "miss" {
		t.Errorf("outcomes = %q, %q; want hit, miss", digests[0].Outcome, digests[1].Outcome)
	}
	for i, d := range digests {
		if d.ID == "" || d.Status != http.StatusOK || d.ResponseBytes <= 0 {
			t.Errorf("digest %d implausible: %+v", i, d)
		}
		if d.Assay != "dilution" || d.Fingerprint != miss.Fingerprint || d.Target != "fppc" {
			t.Errorf("digest %d identity: %+v", i, d)
		}
		if d.StageMS["parse"] <= 0 || d.StageMS["canonicalize"] <= 0 {
			t.Errorf("digest %d missing parse/canonicalize timings: %v", i, d.StageMS)
		}
	}
	// Only the miss executed the compile, so only it carries
	// schedule/route durations.
	if digests[1].StageMS["schedule"] <= 0 || digests[1].StageMS["route"] <= 0 {
		t.Errorf("miss lacks schedule/route timings: %v", digests[1].StageMS)
	}
	if _, ok := digests[0].StageMS["schedule"]; ok {
		t.Errorf("hit should not report a schedule stage: %v", digests[0].StageMS)
	}
	if digests[0].ID != hit.RequestID || digests[1].ID != miss.RequestID {
		t.Errorf("journal ids %q/%q do not match response request_ids %q/%q",
			digests[0].ID, digests[1].ID, hit.RequestID, miss.RequestID)
	}
}

func TestJournalDetailCarriesChromeTrace(t *testing.T) {
	_, ts := newTestServer(t)
	var miss CompileResponse
	if code := post(t, ts.URL, CompileRequest{ASL: dilutionASL, Verify: true}, &miss); code != http.StatusOK {
		t.Fatalf("compile: HTTP %d", code)
	}
	var det RequestDetail
	if code := get(t, ts.URL+"/debug/requests/"+miss.RequestID, &det); code != http.StatusOK {
		t.Fatalf("detail: HTTP %d", code)
	}
	if det.ID != miss.RequestID || det.Verify != "ok" {
		t.Errorf("detail identity: %+v", det.RequestDigest)
	}
	if det.StageMS["verify"] <= 0 {
		t.Errorf("verify stage not timed: %v", det.StageMS)
	}
	var events []struct {
		Name  string `json:"name"`
		Phase string `json:"ph"`
	}
	if err := json.Unmarshal(det.Trace, &events); err != nil {
		t.Fatalf("trace is not Chrome trace JSON: %v\n%s", err, det.Trace)
	}
	names := map[string]bool{}
	for _, e := range events {
		names[e.Name] = true
	}
	if !names["schedule"] || !names["route"] {
		t.Errorf("trace lacks pipeline spans: %v", names)
	}
}

// TestCompileInlineTraceOption covers "trace": true. A cache entry keeps
// its compile's spans only when the compiling request asked for a
// trace: a traced hit on such an entry returns that trace, a traced hit
// on an entry compiled without one returns none, and the compiling
// request's journal entry holds the spans either way.
func TestCompileInlineTraceOption(t *testing.T) {
	_, ts := newTestServer(t)
	var traced, plain, tracedHit CompileResponse
	if code := post(t, ts.URL, CompileRequest{ASL: dilutionASL, Trace: true}, &traced); code != http.StatusOK {
		t.Fatalf("compile: HTTP %d", code)
	}
	if len(traced.Trace) == 0 {
		t.Fatal("trace:true returned no trace")
	}
	var events []map[string]any
	if err := json.Unmarshal(traced.Trace, &events); err != nil || len(events) == 0 {
		t.Fatalf("inline trace invalid: %v", err)
	}
	if code := post(t, ts.URL, CompileRequest{ASL: dilutionASL}, &plain); code != http.StatusOK {
		t.Fatalf("compile: HTTP %d", code)
	}
	if len(plain.Trace) != 0 {
		t.Error("trace returned without trace:true")
	}
	if code := post(t, ts.URL, CompileRequest{ASL: dilutionASL, Trace: true}, &tracedHit); code != http.StatusOK {
		t.Fatalf("compile: HTTP %d", code)
	}
	if !tracedHit.Cached || !bytes.Equal(tracedHit.Trace, traced.Trace) {
		t.Errorf("traced hit (cached %t) does not carry the traced compile's trace", tracedHit.Cached)
	}

	var untraced, lateTrace CompileResponse
	if code := post(t, ts.URL, CompileRequest{ASL: dilutionASL, Target: "da"}, &untraced); code != http.StatusOK {
		t.Fatalf("compile: HTTP %d", code)
	}
	if code := post(t, ts.URL, CompileRequest{ASL: dilutionASL, Target: "da", Trace: true}, &lateTrace); code != http.StatusOK {
		t.Fatalf("compile: HTTP %d", code)
	}
	if !lateTrace.Cached || len(lateTrace.Trace) != 0 {
		t.Errorf("traced hit on an entry compiled without trace: cached %t, %d trace bytes; want a hit without trace",
			lateTrace.Cached, len(lateTrace.Trace))
	}
	var det RequestDetail
	if code := get(t, ts.URL+"/debug/requests/"+untraced.RequestID, &det); code != http.StatusOK {
		t.Fatalf("detail: HTTP %d", code)
	}
	if len(det.Trace) == 0 {
		t.Error("the untraced compile's journal entry holds no trace")
	}
}

func TestRequestIDHeaderMatchesBody(t *testing.T) {
	_, ts := newTestServer(t)
	body, _ := json.Marshal(CompileRequest{ASL: dilutionASL})
	resp, err := http.Post(ts.URL+"/compile", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var cr CompileResponse
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		t.Fatal(err)
	}
	hdr := resp.Header.Get("X-Request-Id")
	if hdr == "" || hdr != cr.RequestID {
		t.Errorf("X-Request-Id %q != body request_id %q", hdr, cr.RequestID)
	}
}

func TestJournalLimitAndErrorPaths(t *testing.T) {
	_, ts := newTestServer(t)
	for i := 0; i < 3; i++ {
		if code := post(t, ts.URL, CompileRequest{ASL: dilutionASL}, nil); code != http.StatusOK {
			t.Fatalf("compile %d: HTTP %d", i, code)
		}
	}
	var digests []RequestDigest
	if code := get(t, ts.URL+"/debug/requests?n=1", &digests); code != http.StatusOK || len(digests) != 1 {
		t.Errorf("?n=1: HTTP %d, %d digests", code, len(digests))
	}
	var er errorResponse
	if code := get(t, ts.URL+"/debug/requests?n=bogus", &er); code != http.StatusBadRequest || er.Kind != "bad_request" {
		t.Errorf("?n=bogus: HTTP %d kind %q", code, er.Kind)
	}
	if code := get(t, ts.URL+"/debug/requests/r11111111", &er); code != http.StatusNotFound || er.Kind != "not_found" {
		t.Errorf("unknown id: HTTP %d kind %q", code, er.Kind)
	}
	resp, err := http.Post(ts.URL+"/debug/requests", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /debug/requests: HTTP %d", resp.StatusCode)
	}
}

func TestJournalFailedRequestRecordsErrorClass(t *testing.T) {
	_, ts := newTestServer(t)
	if code := post(t, ts.URL, CompileRequest{ASL: "assay \"broken"}, nil); code != http.StatusBadRequest {
		t.Fatalf("bad ASL: HTTP %d", code)
	}
	var digests []RequestDigest
	if code := get(t, ts.URL+"/debug/requests", &digests); code != http.StatusOK || len(digests) != 1 {
		t.Fatalf("HTTP %d, %d digests", code, len(digests))
	}
	if digests[0].Status != http.StatusBadRequest || digests[0].Error != "bad_request" {
		t.Errorf("failed request digest: %+v", digests[0])
	}
}

func TestJournalDisabled(t *testing.T) {
	// With the journal off but logging on, requests still get ids (from
	// the logger's sequence) so log lines stay correlatable.
	var logBuf syncBuffer
	logger := slog.New(slog.NewJSONHandler(&logBuf, nil))
	s := New(Config{Workers: 2, JournalEntries: -1, Logger: logger})
	ts := newServerFor(t, s)
	var resp CompileResponse
	if code := post(t, ts.URL, CompileRequest{ASL: dilutionASL}, &resp); code != http.StatusOK {
		t.Fatalf("compile: HTTP %d", code)
	}
	if resp.RequestID == "" {
		t.Error("request_id missing with journal disabled but logging enabled")
	}
	// The access log line lands after the response is flushed; poll
	// briefly.
	deadline := time.Now().Add(2 * time.Second)
	for !strings.Contains(logBuf.String(), resp.RequestID) {
		if time.Now().After(deadline) {
			t.Errorf("access log does not carry request id %q:\n%s", resp.RequestID, logBuf.String())
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	// With every observability sink off, no id is issued at all — that
	// path must stay allocation-free.
	sOff := New(Config{Workers: 2, JournalEntries: -1})
	tsOff := newServerFor(t, sOff)
	var respOff CompileResponse
	if code := post(t, tsOff.URL, CompileRequest{ASL: dilutionASL}, &respOff); code != http.StatusOK {
		t.Fatalf("compile: HTTP %d", code)
	}
	if respOff.RequestID != "" {
		t.Errorf("request_id %q issued with all sinks disabled", respOff.RequestID)
	}
	var er errorResponse
	if code := get(t, ts.URL+"/debug/requests", &er); code != http.StatusNotFound || er.Kind != "journal_disabled" {
		t.Errorf("/debug/requests: HTTP %d kind %q", code, er.Kind)
	}
	if code := get(t, ts.URL+"/debug/requests/"+resp.RequestID, &er); code != http.StatusNotFound {
		t.Errorf("/debug/requests/{id}: HTTP %d", code)
	}
}

func TestJournalRingEvictsOldest(t *testing.T) {
	s := New(Config{Workers: 2, JournalEntries: 2})
	ts := newServerFor(t, s)
	heights := []int{15, 18, 21}
	for _, h := range heights {
		if code := post(t, ts.URL, CompileRequest{ASL: dilutionASL, Height: h}, nil); code != http.StatusOK {
			t.Fatalf("height %d: HTTP %d", h, code)
		}
	}
	var digests []RequestDigest
	if code := get(t, ts.URL+"/debug/requests", &digests); code != http.StatusOK {
		t.Fatalf("HTTP %d", code)
	}
	if len(digests) != 2 {
		t.Fatalf("ring of 2 holds %d digests", len(digests))
	}
}

// newServerFor wraps a prebuilt Server in a test listener.
func newServerFor(t *testing.T, s *Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return ts
}

func TestVersionEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	var v struct {
		Module string `json:"module"`
		Go     string `json:"go"`
	}
	if code := get(t, ts.URL+"/version", &v); code != http.StatusOK {
		t.Fatalf("/version: HTTP %d", code)
	}
	if v.Module != "fppc" || v.Go == "" {
		t.Errorf("version body: %+v", v)
	}
	resp, err := http.Post(ts.URL+"/version", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /version: HTTP %d", resp.StatusCode)
	}
}

func TestSLOViolationCounter(t *testing.T) {
	s := New(Config{Workers: 2, SLO: time.Nanosecond})
	ts := newServerFor(t, s)
	if code := post(t, ts.URL, CompileRequest{ASL: dilutionASL}, nil); code != http.StatusOK {
		t.Fatalf("compile: HTTP %d", code)
	}
	body := metricsBody(t, ts.URL)
	if !strings.Contains(body, "fppc_service_slo_violations_total 1") {
		t.Errorf("slo violation not counted:\n%s", grepLines(body, "slo"))
	}
	if !strings.Contains(body, "fppc_service_slo_objective_seconds 1e-09") {
		t.Errorf("slo objective gauge missing:\n%s", grepLines(body, "slo"))
	}
}

func TestSLODisabled(t *testing.T) {
	s := New(Config{Workers: 2, SLO: -1})
	ts := newServerFor(t, s)
	if code := post(t, ts.URL, CompileRequest{ASL: dilutionASL}, nil); code != http.StatusOK {
		t.Fatalf("compile: HTTP %d", code)
	}
	body := metricsBody(t, ts.URL)
	if strings.Contains(body, "fppc_service_slo_objective_seconds") {
		t.Errorf("objective gauge exported with SLO disabled:\n%s", grepLines(body, "slo"))
	}
	if strings.Contains(body, "fppc_service_slo_violations_total 1") {
		t.Errorf("violation counted with SLO disabled:\n%s", grepLines(body, "slo"))
	}
}

// syncBuffer is a mutex-guarded bytes.Buffer safe for concurrent
// writes from the server's log handler.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// grepLines filters body to lines containing the substring, for
// readable failure messages.
func grepLines(body, sub string) string {
	var b strings.Builder
	for _, line := range strings.Split(body, "\n") {
		if strings.Contains(line, sub) {
			b.WriteString(line)
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// TestStageHistogramConformance checks the new stage/SLO series against
// the Prometheus text exposition rules the repo enforces everywhere:
// sorted labels, ascending le buckets ending in +Inf, a _sum/_count
// pair per series, and byte-identical output across rewrites.
func TestStageHistogramConformance(t *testing.T) {
	s, ts := newTestServer(t)
	if code := post(t, ts.URL, CompileRequest{ASL: dilutionASL, Verify: true}, nil); code != http.StatusOK {
		t.Fatalf("compile: HTTP %d", code)
	}
	var first, second bytes.Buffer
	if err := s.Observer().Metrics().WritePrometheus(&first); err != nil {
		t.Fatal(err)
	}
	if err := s.Observer().Metrics().WritePrometheus(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Error("WritePrometheus output is not byte-identical across rewrites")
	}
	body := first.String()

	for _, stage := range []string{"parse", "canonicalize", "schedule", "route", "verify"} {
		var les []float64
		sawInf := false
		count := ""
		for _, line := range strings.Split(body, "\n") {
			if !strings.HasPrefix(line, "fppc_service_stage_seconds") {
				continue
			}
			if !strings.Contains(line, fmt.Sprintf(`stage=%q`, stage)) {
				continue
			}
			switch {
			case strings.HasPrefix(line, "fppc_service_stage_seconds_bucket"):
				labels := line[strings.Index(line, "{")+1 : strings.Index(line, "}")]
				keys := labelKeys(strings.Split(labels, ","))
				// Convention: user labels sorted, le appended last.
				if len(keys) == 0 || keys[len(keys)-1] != "le" {
					t.Errorf("stage %s: le not last: %s", stage, line)
				}
				if !stringsAreSorted(keys[:len(keys)-1]) {
					t.Errorf("stage %s: labels not sorted: %s", stage, line)
				}
				le := extractLabel(labels, "le")
				if le == "+Inf" {
					sawInf = true
				} else {
					v, err := strconv.ParseFloat(le, 64)
					if err != nil {
						t.Fatalf("stage %s: bad le %q", stage, le)
					}
					les = append(les, v)
				}
			case strings.HasPrefix(line, "fppc_service_stage_seconds_count"):
				count = strings.Fields(line)[1]
			}
		}
		if len(les) == 0 || !sawInf {
			t.Errorf("stage %s: buckets missing (%d numeric, +Inf %v)", stage, len(les), sawInf)
			continue
		}
		for i := 1; i < len(les); i++ {
			if les[i] <= les[i-1] {
				t.Errorf("stage %s: le buckets not ascending: %v", stage, les)
			}
		}
		if count == "" || count == "0" {
			t.Errorf("stage %s: count %q, want > 0 after a verified compile", stage, count)
		}
	}
	if !strings.Contains(body, "# TYPE fppc_service_stage_seconds histogram") {
		t.Error("missing TYPE line for stage histogram")
	}
	if !strings.Contains(body, "# HELP fppc_service_stage_seconds") {
		t.Error("missing HELP line for stage histogram")
	}
}

// labelKeys extracts the label names from `k="v"` pairs.
func labelKeys(pairs []string) []string {
	keys := make([]string, 0, len(pairs))
	for _, p := range pairs {
		if i := strings.Index(p, "="); i > 0 {
			keys = append(keys, p[:i])
		}
	}
	return keys
}

// extractLabel pulls the value of one label out of a rendered label
// set.
func extractLabel(labels, key string) string {
	for _, p := range strings.Split(labels, ",") {
		if strings.HasPrefix(p, key+"=") {
			return strings.Trim(p[len(key)+1:], `"`)
		}
	}
	return ""
}

func stringsAreSorted(keys []string) bool {
	for i := 1; i < len(keys); i++ {
		if keys[i] < keys[i-1] {
			return false
		}
	}
	return true
}

// TestConcurrentCompileAndIntrospection hammers POST /compile while
// scraping /metrics and both journal endpoints; run under -race this
// proves the flight recorder and pre-resolved counters are data-race
// free.
func TestConcurrentCompileAndIntrospection(t *testing.T) {
	_, ts := newTestServer(t)
	heights := []int{0, 15, 18, 21}
	targets := []string{"fppc", "enhanced-fppc"}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 5; j++ {
				req := CompileRequest{ASL: dilutionASL, Target: targets[i%len(targets)]}
				if req.Target == "fppc" {
					req.Height = heights[(i+j)%len(heights)]
				}
				var resp CompileResponse
				if code := post(t, ts.URL, req, &resp); code != http.StatusOK {
					t.Errorf("compile: HTTP %d", code)
					return
				}
				if resp.RequestID == "" {
					t.Error("missing request_id")
				}
			}
		}(i)
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				var digests []RequestDigest
				if code := get(t, ts.URL+"/debug/requests", &digests); code != http.StatusOK {
					t.Errorf("/debug/requests: HTTP %d", code)
					return
				}
				for _, d := range digests[:min(len(digests), 2)] {
					var det RequestDetail
					get(t, ts.URL+"/debug/requests/"+d.ID, &det)
				}
				resp, err := http.Get(ts.URL + "/metrics")
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()
}
