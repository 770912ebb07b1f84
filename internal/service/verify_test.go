package service

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"fppc/internal/assays"
	"fppc/internal/dag"
)

// TestVerifyOption exercises the verify flag on both targets: the
// response must carry an ok verification block, frame-level when a pin
// program was emitted and schedule-level otherwise.
func TestVerifyOption(t *testing.T) {
	_, ts := newTestServer(t)
	cases := []struct {
		req  CompileRequest
		mode string
	}{
		{CompileRequest{ASL: dilutionASL, Sequence: true, RotationsPerStep: 1, Verify: true}, "frames"},
		{CompileRequest{ASL: dilutionASL, Verify: true}, "schedule"},
		{CompileRequest{ASL: dilutionASL, Target: "da", Verify: true}, "schedule"},
	}
	for _, tc := range cases {
		var resp CompileResponse
		if code := post(t, ts.URL, tc.req, &resp); code != http.StatusOK {
			t.Fatalf("%s/%s: HTTP %d", tc.req.Target, tc.mode, code)
		}
		v := resp.Verification
		if v == nil || !v.Ok || v.Mode != tc.mode {
			t.Errorf("target %q sequence %t: verification = %+v, want ok in mode %q",
				tc.req.Target, tc.req.Sequence, v, tc.mode)
		}
		if tc.mode == "frames" && (v.Cycles == 0 || v.FootprintHash == "") {
			t.Errorf("frame-level verification missing replay detail: %+v", v)
		}
	}
	// Without the flag the block is absent.
	var plain CompileResponse
	if code := post(t, ts.URL, CompileRequest{ASL: dilutionASL}, &plain); code != http.StatusOK {
		t.Fatalf("plain: HTTP %d", code)
	}
	if plain.Verification != nil {
		t.Errorf("unrequested verification block: %+v", plain.Verification)
	}
}

// TestForceVerify checks the server-wide switch behind fppc-serve
// -verify: every response carries a verification block even when the
// request did not ask for one.
func TestForceVerify(t *testing.T) {
	s := New(Config{Workers: 2, ForceVerify: true})
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	var resp CompileResponse
	if code := post(t, ts.URL, CompileRequest{ASL: dilutionASL}, &resp); code != http.StatusOK {
		t.Fatalf("HTTP %d", code)
	}
	if resp.Verification == nil || !resp.Verification.Ok {
		t.Fatalf("forced verification missing: %+v", resp.Verification)
	}
}

// TestCacheHitEqualsColdCompile is the service-level metamorphic check:
// a request sent to a server that already compiled another form of the
// assay must return exactly what a cold compile of that request on a
// fresh server returns, served from the cache when the two share a
// canonical form and compiled afresh when they do not. A renumbered
// copy hits: the certificate of the canonical form does not see the
// numbering. The cone twins G1 and G2 share a fingerprint but not a
// canonical form, so G2 after G1 must miss; a fingerprint-keyed cache
// served G2 with G1's program.
func TestCacheHitEqualsColdCompile(t *testing.T) {
	tm := assays.DefaultTiming()
	pcr := assays.PCR(tm)
	twin, err := pcr.Renumbered(rand.New(rand.NewSource(9)).Perm(pcr.Len()))
	if err != nil {
		t.Fatal(err)
	}
	g1, g2 := assays.ConeTwins(tm)
	for _, tc := range []struct {
		name        string
		warm, probe *dag.Assay
		hit         bool
	}{
		{"renumbered PCR", pcr, twin, true},
		{"cone twins", g1, g2, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			req := func(a *dag.Assay) CompileRequest {
				raw, err := json.Marshal(a)
				if err != nil {
					t.Fatal(err)
				}
				return CompileRequest{DAG: raw, Sequence: true, RotationsPerStep: 1, Verify: true}
			}
			sWarm, tsWarm := newTestServer(t)
			var first, got CompileResponse
			if code := post(t, tsWarm.URL, req(tc.warm), &first); code != http.StatusOK {
				t.Fatalf("warm-up: HTTP %d", code)
			}
			if code := post(t, tsWarm.URL, req(tc.probe), &got); code != http.StatusOK {
				t.Fatalf("probe: HTTP %d", code)
			}
			if got.Cached != tc.hit {
				t.Fatalf("probe cached = %t, want %t", got.Cached, tc.hit)
			}
			wantHits := int64(0)
			if tc.hit {
				wantHits = 1
			}
			if hits := sWarm.cHits.Value(); hits != wantHits {
				t.Errorf("cache hits = %d, want %d", hits, wantHits)
			}

			_, tsCold := newTestServer(t)
			var cold CompileResponse
			if code := post(t, tsCold.URL, req(tc.probe), &cold); code != http.StatusOK {
				t.Fatalf("cold: HTTP %d", code)
			}
			// The two must agree on everything but the per-request fields.
			got.Cached, cold.Cached = false, false
			got.ElapsedMS, cold.ElapsedMS = 0, 0
			got.RequestID, cold.RequestID = "", ""
			if !reflect.DeepEqual(got, cold) {
				t.Errorf("probe differs from its cold compile:\nprobe: %+v\ncold:  %+v", got, cold)
			}
			if tc.warm == g1 && (first.Fingerprint != got.Fingerprint || first.Stats.RouteCycles == got.Stats.RouteCycles) {
				t.Errorf("G1 and G2: fingerprints %s/%s, route cycles %d/%d; want one fingerprint and two cycle counts",
					first.Fingerprint, got.Fingerprint, first.Stats.RouteCycles, got.Stats.RouteCycles)
			}
		})
	}
}
