package oracle

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fppc/internal/assays"
	"fppc/internal/core"
	"fppc/internal/ctrl"
)

// table1Golden pins every Table 1 compile on every registered target.
var table1Golden = filepath.Join("testdata", "table1_compiles.golden")

// artifactBytes renders every byte-bearing artifact of a compilation:
// the pin program in its canonical text form plus the binary
// ctrl-frame stream a controller would receive. Targets without a pin
// program (DA) contribute an empty stream — their identity is carried
// by the structural digests in compileLine.
func artifactBytes(t *testing.T, res *core.Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if prog := res.Routing.Program; prog != nil {
		if _, err := prog.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		if err := ctrl.Encode(&buf, prog, res.Chip.PinCount()); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// digest is the SHA-256 of v's JSON form; every field of the schedule
// and routing records is an exported plain value, so the JSON form
// covers all of it.
func digest(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(b))
}

// compileLine renders every externally visible artifact of one
// compilation as a golden line: chip geometry, the schedule and
// routing summaries, and digests of the bound operations, droplet
// moves, droplet lifetimes, routing sub-problems, the reservoir event
// stream and the bytes from artifactBytes.
func compileLine(t *testing.T, res *core.Result) string {
	t.Helper()
	s, r := res.Schedule, res.Routing
	return fmt.Sprintf("chip=%dx%d pins=%d makespan=%d storage=%d peak=%d cycles=%d reloc=%d stalls=%d"+
		" ops=%s moves=%s droplets=%s boundaries=%s events=%s artifacts=%x",
		res.Chip.W, res.Chip.H, res.Chip.PinCount(),
		s.Makespan, s.StorageMoves, s.PeakStored,
		r.TotalCycles, r.BufferReloc, r.StallCycles,
		digest(t, s.Ops), digest(t, s.Moves), digest(t, s.Droplets),
		digest(t, r.Boundaries), digest(t, r.Events),
		sha256.Sum256(artifactBytes(t, res)))
}

// readGolden parses the golden file into key → line body.
func readGolden(t *testing.T) (map[string]string, int) {
	t.Helper()
	f, err := os.Open(table1Golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	defer f.Close()
	want := map[string]string{}
	n := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		key, body, ok := strings.Cut(sc.Text(), ": ")
		if !ok {
			t.Fatalf("%s: malformed line %q", table1Golden, sc.Text())
		}
		want[key] = body
		n++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want, n
}

// TestByteIdentityAcrossCompilePaths is the byte-identity wall: every
// Table 1 benchmark on every registered target must compile to exactly
// the artifacts pinned in testdata/table1_compiles.golden (or to the
// same typed refusal), and every compile must pass the independent
// oracle replay. The golden is what lets the compiler's sequential
// optimizations exist at all: each is a pure acceleration, never an
// alternative compiler. Run with -update after an intentional change;
// under -short only the subset compiled here is checked.
func TestByteIdentityAcrossCompilePaths(t *testing.T) {
	tm := assays.DefaultTiming()
	benchmarks := assays.Table1Benchmarks(tm)
	full := !testing.Short() || *update
	if !full {
		benchmarks = benchmarks[:4]
	}
	var want map[string]string
	wantLines := 0
	if !*update {
		want, wantLines = readGolden(t)
	}
	var got []string
	for _, spec := range core.Targets() {
		for _, a := range benchmarks {
			key := spec.Name + "/" + a.Name
			var line string
			t.Run(key, func(t *testing.T) {
				res, err := core.Compile(a.Clone(), VerifyConfig(spec.ID))
				if err != nil {
					// A refusal (enhanced FPPC's fixed perimeter cannot
					// host some benchmarks) is a legitimate outcome — but
					// it is pinned like any other.
					var uns *core.ErrUnsynthesizable
					if !errors.As(err, &uns) {
						t.Fatalf("compile: %v", err)
					}
					line = "refused: " + err.Error()
				} else {
					if _, err := VerifyCompiled(res, Options{}); err != nil {
						t.Errorf("oracle replay: %v", err)
					}
					line = compileLine(t, res)
				}
				if !*update && line != want[key] {
					t.Errorf("compile diverges from %s:\n got: %s\nwant: %s", table1Golden, line, want[key])
				}
			})
			got = append(got, key+": "+line)
		}
	}
	if *update {
		if t.Failed() {
			t.Fatalf("%s not rewritten: a compile failed", table1Golden)
		}
		if err := os.WriteFile(table1Golden, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if full && wantLines != len(got) {
		t.Errorf("%s holds %d lines, want one per target × Table 1 benchmark (%d)", table1Golden, wantLines, len(got))
	}
}
