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

func TestRunBuiltins(t *testing.T) {
	for _, args := range [][]string{
		{"-assay", "pcr"},
		{"-assay", "invitro2", "-target", "da"},
		{"-assay", "protein1", "-gantt"},
	} {
		var out strings.Builder
		if err := run(args, &out); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		if !strings.Contains(out.String(), "routing:") {
			t.Errorf("%v: missing routing summary", args)
		}
	}
}

func TestRunProgramAndFrames(t *testing.T) {
	dir := t.TempDir()
	prog := filepath.Join(dir, "out.pins")
	frames := filepath.Join(dir, "out.bin")
	var out strings.Builder
	if err := run([]string{"-assay", "invitro1", "-program", prog, "-frames", frames}, &out); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(prog); err != nil || fi.Size() == 0 {
		t.Errorf("pin program missing: %v", err)
	}
	if fi, err := os.Stat(frames); err != nil || fi.Size() == 0 {
		t.Errorf("frame stream missing: %v", err)
	}
	if !strings.Contains(out.String(), "pin load:") {
		t.Errorf("missing pin-load report")
	}
}

func TestRunDOTAndDump(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-assay", "pcr", "-dot"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), "digraph") {
		t.Errorf("dot output wrong: %.40q", out.String())
	}
	dump := filepath.Join(t.TempDir(), "a.json")
	out.Reset()
	if err := run([]string{"-assay", "pcr", "-dump-assay", dump}, &out); err != nil {
		t.Fatal(err)
	}
	// The dumped JSON round-trips through -file.
	out.Reset()
	if err := run([]string{"-file", dump}, &out); err != nil {
		t.Fatalf("reload failed: %v", err)
	}
	if !strings.Contains(out.String(), "PCR") {
		t.Errorf("reloaded assay lost its name")
	}
}

func TestRunASLFile(t *testing.T) {
	src := `
assay "spot"
fluid serum
s = dispense serum 2
d = detect s 4
output d waste
`
	path := filepath.Join(t.TempDir(), "spot.asl")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run([]string{"-file", path}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "spot") {
		t.Errorf("ASL assay not compiled")
	}
}

func TestRunTraceMetricsVerbose(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "trace.json")
	metrics := filepath.Join(dir, "m.prom")
	var out strings.Builder
	if err := run([]string{"-assay", "pcr", "-v", "-trace", trace, "-metrics", metrics}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "stage timings:") {
		t.Errorf("-v stage table missing:\n%s", out.String())
	}
	tj, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{`"ph":"X"`, `"name":"compile"`, `"name":"route_boundary"`} {
		if !strings.Contains(string(tj), frag) {
			t.Errorf("trace missing %s", frag)
		}
	}
	var events []map[string]any
	if err := json.Unmarshal(tj, &events); err != nil {
		t.Fatalf("trace is not a JSON event array: %v", err)
	}
	mp, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{
		"fppc_router_retries_total 0",
		`fppc_router_bus_cycles_total{phase="transport"}`,
		"fppc_sched_moves_total",
	} {
		if !strings.Contains(string(mp), frag) {
			t.Errorf("metrics missing %s", frag)
		}
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{"-assay", "warpdrive"},
		{"-assay", "invitro9"},
		{"-target", "quantum"},
		{"-assay", "pcr", "-target", "da", "-program", "/tmp/x.pins"},
		{"-file", "/nonexistent/file.json"},
		{"-assay", "protein5"}, // needs -grow
	}
	for _, args := range cases {
		var out strings.Builder
		if err := run(args, &out); err == nil {
			t.Errorf("%v: expected error", args)
		}
	}
}

func TestRunTimeoutAbortsWithTypedError(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-assay", "protein5", "-grow", "-timeout", "1ns"}, &out)
	if err == nil {
		t.Fatal("expected a cancellation error")
	}
	var ce *fppc.CompileCanceledError
	if !errors.As(err, &ce) {
		t.Fatalf("error %v is not a *fppc.CompileCanceledError", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("error %v does not unwrap to context.DeadlineExceeded", err)
	}
}
