package main

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func testOpts(workload string) runOpts {
	return runOpts{workload: workload, seed: 1, window: 300 * time.Millisecond, clients: 2, setups: 1, scale: smallScale}
}

// corrupting damages every third /compile reply: even ones get a wrong
// fingerprint, odd ones an unexpected status.
func corrupting(h http.Handler) http.Handler {
	n := 0
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n++
		if n%3 != 0 {
			h.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		if n%2 == 0 {
			at := bytes.Index(body, []byte(`"fingerprint":"`)) + len(`"fingerprint":"`)
			body = append(append(append([]byte(nil), body[:at]...), '0'), body[at+1:]...)
			w.WriteHeader(rec.Code)
		} else {
			w.WriteHeader(http.StatusInternalServerError)
		}
		w.Write(body)
	})
}

// TestCorruptedRepliesCountAsFailed serves the program stream through a
// handler that corrupts every third reply and checks that exactly those
// replies count as failed operations.
func TestCorruptedRepliesCountAsFailed(t *testing.T) {
	ctx := context.Background()
	o := testOpts("program")
	o.clients = 1 // the corrupting handler counts requests without a lock
	e, err := setup(ctx, o)
	if err != nil {
		t.Fatal(err)
	}
	defer e.hn.close()
	e.hn.setHandler(corrupting(e.srv))
	e.in.stream = e.in.stream[:6] // the window outlasts the stream
	o.window = time.Minute
	m := &measured{lr: &loopResult{}}
	if err := e.runCompile(ctx, o, time.Now(), nil, nil, m); err != nil {
		t.Fatal(err)
	}
	if sent, failed := m.lr.sent, m.lr.failed; sent != 6 || failed != 2 {
		t.Fatalf("2 of 6 replies corrupted; %d sent, %d counted as failed", sent, failed)
	}
}

func TestCheckCompile(t *testing.T) {
	ctx := context.Background()
	e, err := setup(ctx, testOpts("cold"))
	if err != nil {
		t.Fatal(err)
	}
	defer e.hn.close()
	r := e.in.at(0)
	status, body, err := e.hn.post(ctx, r.Path, r.Body)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := checkCompile(r, false, status, body); err != nil {
		t.Fatalf("a correct reply failed its check: %v", err)
	}
	cases := map[string]func(r request) (request, []byte, int){
		"status": func(r request) (request, []byte, int) { return r, body, 500 },
		"fingerprint": func(r request) (request, []byte, int) {
			r.Fingerprint = strings.Repeat("0", 64)
			return r, body, status
		},
		"critical path": func(r request) (request, []byte, int) { r.CritPath = 1 << 20; return r, body, status },
		"cached": func(r request) (request, []byte, int) {
			return r, bytes.Replace(body, []byte(`"cached":false`), []byte(`"cached":true`), 1), status
		},
	}
	for name, mutate := range cases {
		mr, mb, ms := mutate(*r)
		if _, err := checkCompile(&mr, false, ms, mb); err == nil {
			t.Errorf("%s: a corrupted reply passed its check", name)
		}
	}
}

func TestHitForm(t *testing.T) {
	miss := []byte(`{"assay":"a","cached":false,"chip":{},"elapsed_ms":1.5,"request_id":"r1"}` + "\n")
	hit := []byte(`{"assay":"a","cached":true,"chip":{},"elapsed_ms":0.2,"request_id":"r9"}` + "\n")
	a, isHit, err := hitForm(miss)
	if err != nil || isHit {
		t.Fatalf("miss: %v %v", isHit, err)
	}
	b, isHit, err := hitForm(hit)
	if err != nil || !isHit {
		t.Fatalf("hit: %v %v", isHit, err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("hit form differs: %q vs %q", a, b)
	}
	r := &request{Shape: "s", Target: "t"}
	if err := checkHit(r, a, 200, hit); err != nil {
		t.Fatal(err)
	}
	if err := checkHit(r, a, 200, miss); err == nil {
		t.Fatal("an uncached reply passed the hit check")
	}
	if err := checkHit(r, a, 200, bytes.Replace(hit, []byte(`"a"`), []byte(`"b"`), 1)); err == nil {
		t.Fatal("a changed reply passed the hit check")
	}
}
