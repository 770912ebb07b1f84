package main

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fppc"
)

func TestRunTable3Only(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-table", "3", "-heights", "9,15"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "12x9") || !strings.Contains(s, "12x15") {
		t.Errorf("height rows missing:\n%s", s)
	}
	if strings.Contains(s, "Table 1") {
		t.Errorf("table 1 printed for -table 3")
	}
}

func TestRunDispenseOverride(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-table", "3", "-heights", "18", "-dispense", "2"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "overridden to 2 s") {
		t.Errorf("override note missing")
	}
}

func TestRunTable2(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-table", "2"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Multi-Function") {
		t.Errorf("table 2 incomplete")
	}
}

func TestRunJSONOutput(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-table", "3", "-heights", "9", "-json"}, &out); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Table3 []struct {
			H      int
			TotalS map[string]float64
		} `json:"table3"`
	}
	if err := json.Unmarshal([]byte(out.String()), &doc); err != nil {
		t.Fatalf("-json output is not JSON: %v\n%s", err, out.String())
	}
	if len(doc.Table3) != 1 || doc.Table3[0].H != 9 {
		t.Errorf("unexpected table3 rows: %+v", doc.Table3)
	}
	if doc.Table3[0].TotalS["PCR"] <= 0 {
		t.Errorf("PCR total missing from JSON: %+v", doc.Table3[0])
	}
}

// TestRunJSONStdoutIsJSON pins that -json owns stdout: the status
// lines of -verify (and -faults, -telemetry-dir, -trace, -metrics) go
// to stderr, so the whole of stdout parses as one document.
func TestRunJSONStdoutIsJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("-verify checks all 13 benchmarks on every registered target")
	}
	var out strings.Builder
	if err := run([]string{"-json", "-table", "3", "-heights", "9", "-verify"}, &out); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Table3 []struct{ H int } `json:"table3"`
	}
	if err := json.Unmarshal([]byte(out.String()), &doc); err != nil {
		t.Fatalf("-json -verify stdout is not JSON: %v\n%.300s", err, out.String())
	}
	if len(doc.Table3) != 1 || doc.Table3[0].H != 9 {
		t.Errorf("unexpected table3 rows: %+v", doc.Table3)
	}
}

func TestRunRejectsMarkdownWithJSON(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-markdown", "-json"}, &out); err == nil {
		t.Fatal("-markdown -json accepted; one of the two would be ignored")
	}
	if out.Len() != 0 {
		t.Errorf("rejected run wrote to stdout:\n%.200s", out.String())
	}
}

func TestRunTraceAndMetrics(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "t.json")
	metrics := filepath.Join(dir, "m.prom")
	var out strings.Builder
	if err := run([]string{"-table", "3", "-heights", "9", "-trace", trace, "-metrics", metrics}, &out); err != nil {
		t.Fatal(err)
	}
	tj, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(tj), `"name":"compile"`) {
		t.Errorf("trace missing compile spans")
	}
	mp, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(mp), "fppc_router_moves_total") {
		t.Errorf("metrics missing router counters:\n%s", mp)
	}
}

func TestRunTelemetryDir(t *testing.T) {
	dir := t.TempDir()
	var out strings.Builder
	if err := run([]string{"-table", "1", "-telemetry-dir", dir}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "telemetry snapshots written to") {
		t.Errorf("telemetry note missing:\n%.200s", out.String())
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 13 {
		t.Fatalf("wrote %d snapshot files, want 13 (one per Table 1 benchmark)", len(ents))
	}
	// Spot-check one snapshot parses and carries electrode data.
	raw, err := os.ReadFile(filepath.Join(dir, "pcr.json"))
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Cycles         int   `json:"cycles"`
		PinActivations int64 `json:"total_pin_activations"`
	}
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Cycles == 0 || snap.PinActivations == 0 {
		t.Errorf("pcr snapshot empty: %+v", snap)
	}
}

func TestRunBadHeights(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-table", "3", "-heights", "x,y"}, &out); err == nil {
		t.Errorf("bad heights accepted")
	}
}

func TestRunTimeoutAbortsWithTypedError(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-table", "1", "-timeout", "1ns"}, &out)
	if err == nil {
		t.Fatal("expected a cancellation error")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("error %v does not unwrap to context.DeadlineExceeded", err)
	}
	var ce *fppc.CompileCanceledError
	if !errors.As(err, &ce) {
		t.Errorf("error %v is not a *fppc.CompileCanceledError", err)
	}
}

func TestRunChaosCampaign(t *testing.T) {
	var out strings.Builder
	// -table 2 keeps the post-campaign report small; one fault set per
	// benchmark keeps the campaign itself a few seconds.
	if err := run([]string{"-faults", "1", "-fault-runs", "1", "-table", "2"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if strings.Count(s, "chaos: ") != 13 {
		t.Errorf("expected 13 chaos run lines:\n%s", s)
	}
	if !strings.Contains(s, "chaos campaign: 13 runs") {
		t.Errorf("campaign summary missing:\n%s", s)
	}
	if !strings.Contains(s, "0 missed") {
		t.Errorf("campaign summary does not report zero missed:\n%s", s)
	}
}
