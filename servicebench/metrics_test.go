package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestManifestMatchesFile keeps the committed BENCHMARK.json equal to
// what the definitions in this package render.
func TestManifestMatchesFile(t *testing.T) {
	var want bytes.Buffer
	if err := writeManifest(&want); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatal("BENCHMARK.json is stale: regenerate it with `go run . -manifest > ../BENCHMARK.json`")
	}
}

// TestEveryMetricEmitted runs each workload briefly, traced and not, and
// checks the result line names every metric of the manifest with its
// unit, and nothing else.
func TestEveryMetricEmitted(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloadDefs {
		for _, trace := range []bool{false, true} {
			o := runOpts{workload: w.Name, seed: 2, window: 200 * time.Millisecond, trace: trace,
				clients: 2, setups: 2, scale: smallScale}
			rep, err := run(context.Background(), o)
			if err != nil {
				t.Fatalf("%s trace=%t: %v", w.Name, trace, err)
			}
			var out bytes.Buffer
			if err := writeReport(&out, w.Name, trace, rep); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%t: last line: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%t: correct=%t attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			defs := endToEndDefs
			if trace {
				defs = perLayerDefs()
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%t: %d metrics, want %d", w.Name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				if v, ok := res.Metrics[d.Name]; !ok || v.Unit != d.Unit {
					t.Errorf("%s trace=%t: metric %s = %+v, want unit %s", w.Name, trace, d.Name, v, d.Unit)
				}
			}
			if !strings.Contains(out.String(), "failed_frac") {
				t.Errorf("%s trace=%t: summary lacks failed_frac", w.Name, trace)
			}
		}
	}
}

func TestFractionalRate(t *testing.T) {
	s := []sample{
		{start: 0, end: time.Second},
		{start: time.Second, end: 2 * time.Second},
		{start: 1500 * time.Millisecond, end: 3500 * time.Millisecond},
	}
	// Two whole requests plus a quarter of the third inside 2 s.
	if got := fractionalRate(s, 2*time.Second); got != 2.25/2 {
		t.Fatalf("rate %v, want %v", got, 2.25/2)
	}
}

func TestWholeBlocks(t *testing.T) {
	at := func(i int, end time.Duration) sample { return sample{i: i, end: end, cpu: 10 * end} }
	// Blocks of 3: block 0 completes at 5 (request 1 arrives last),
	// block 1 at 9; block 2 misses request 8.
	s := []sample{at(0, 1), at(2, 3), at(1, 5), at(4, 6), at(3, 9), at(5, 7), at(6, 10), at(7, 11)}
	got := wholeBlocks(s, 3, 20, 0)
	want := []blockTime{{3, 5, 50}, {3, 4, 40}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("wholeBlocks = %v, want %v", got, want)
	}
	if got := wholeBlocks(s, 3, 8, 0); len(got) != 1 {
		t.Fatalf("window 8: %v, want one block", got)
	}
	if got := wholeBlocks(s, 0, 20, 0); got != nil {
		t.Fatalf("no blocks: %v", got)
	}
	// Block 1 finishes while block 0's slow request is still in flight,
	// so it is timed together with block 2.
	s = []sample{at(0, 10), at(1, 2), at(2, 3), at(3, 4), at(4, 5), at(5, 6), at(6, 12), at(7, 13), at(8, 14)}
	got = wholeBlocks(s, 3, 20, 0)
	want = []blockTime{{3, 10, 100}, {6, 4, 40}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("overlapping blocks: wholeBlocks = %v, want %v", got, want)
	}
}

func TestBlockMedians(t *testing.T) {
	sec := func(f float64) time.Duration { return time.Duration(f * float64(time.Second)) }
	blocks := []blockTime{{3, sec(1), sec(0.3)}, {3, sec(2), sec(0.9)}, {3, sec(3), sec(0.6)}}
	rate, cpu := blockMedians(blocks)
	if rate != 1.5 || (cpu-sec(0.2)).Abs() > time.Microsecond {
		t.Fatalf("blockMedians = %v/s, %v per op; want 1.5/s, 200ms", rate, cpu)
	}
}
