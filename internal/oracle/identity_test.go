package oracle

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"fppc/internal/assays"
	"fppc/internal/core"
	"fppc/internal/ctrl"
)

// artifactBytes renders every byte-bearing artifact of a compilation:
// the pin program in its canonical text form plus the binary
// ctrl-frame stream a controller would receive. Targets without a pin
// program (DA) contribute an empty stream — their identity is carried
// by the structural comparison in sameResult.
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

// sameResult compares every externally visible artifact of two
// compilations of the same assay: chip geometry, the full schedule
// (operations, droplet moves, storage relocations), every routing
// sub-problem, the reservoir event stream, and the byte streams from
// artifactBytes.
func sameResult(t *testing.T, label string, want, got *core.Result) {
	t.Helper()
	if want.Chip.W != got.Chip.W || want.Chip.H != got.Chip.H || want.Chip.PinCount() != got.Chip.PinCount() {
		t.Errorf("%s: chip %dx%d/%d pins, want %dx%d/%d",
			label, got.Chip.W, got.Chip.H, got.Chip.PinCount(), want.Chip.W, want.Chip.H, want.Chip.PinCount())
	}
	ws, gs := want.Schedule, got.Schedule
	if gs.Makespan != ws.Makespan || gs.StorageMoves != ws.StorageMoves || gs.PeakStored != ws.PeakStored {
		t.Errorf("%s: schedule summary (makespan %d, storage %d, peak %d), want (%d, %d, %d)",
			label, gs.Makespan, gs.StorageMoves, gs.PeakStored, ws.Makespan, ws.StorageMoves, ws.PeakStored)
	}
	if !reflect.DeepEqual(gs.Ops, ws.Ops) {
		t.Errorf("%s: bound operations diverge", label)
	}
	if !reflect.DeepEqual(gs.Moves, ws.Moves) {
		t.Errorf("%s: droplet moves diverge", label)
	}
	if !reflect.DeepEqual(gs.Droplets, ws.Droplets) {
		t.Errorf("%s: droplet lifetimes diverge", label)
	}
	wr, gr := want.Routing, got.Routing
	if gr.TotalCycles != wr.TotalCycles || gr.BufferReloc != wr.BufferReloc || gr.StallCycles != wr.StallCycles {
		t.Errorf("%s: routing summary (cycles %d, reloc %d, stalls %d), want (%d, %d, %d)",
			label, gr.TotalCycles, gr.BufferReloc, gr.StallCycles, wr.TotalCycles, wr.BufferReloc, wr.StallCycles)
	}
	if !reflect.DeepEqual(gr.Boundaries, wr.Boundaries) {
		t.Errorf("%s: boundary routing results diverge", label)
	}
	if !reflect.DeepEqual(gr.Events, wr.Events) {
		t.Errorf("%s: reservoir event streams diverge", label)
	}
	if !bytes.Equal(artifactBytes(t, got), artifactBytes(t, want)) {
		t.Errorf("%s: pin program / ctrl-frame bytes diverge", label)
	}
}

// TestByteIdentityAcrossCompilePaths is the byte-identity wall: for
// every Table 1 benchmark on every registered target, the parallel
// compile path (Workers=4) must produce artifacts byte-identical to a
// sequential compile, and both paths must pass the independent oracle
// replay. This is the contract that lets the parallel path exist at
// all: it is a pure acceleration, never an alternative compiler.
func TestByteIdentityAcrossCompilePaths(t *testing.T) {
	tm := assays.DefaultTiming()
	benchmarks := assays.Table1Benchmarks(tm)
	if testing.Short() {
		benchmarks = benchmarks[:4]
	}
	for _, spec := range core.Targets() {
		for _, a := range benchmarks {
			t.Run(fmt.Sprintf("%s/%s", spec.Name, a.Name), func(t *testing.T) {
				base := VerifyConfig(spec.ID)
				seq, seqErr := core.Compile(a.Clone(), base)

				par := base
				par.Workers = 4
				parRes, parErr := core.Compile(a.Clone(), par)

				// A refusal (enhanced FPPC's fixed perimeter cannot host
				// some benchmarks) is a legitimate outcome — but only if
				// both paths refuse identically.
				if seqErr != nil {
					var uns *core.ErrUnsynthesizable
					if !errors.As(seqErr, &uns) {
						t.Fatalf("sequential compile: %v", seqErr)
					}
					if parErr == nil || parErr.Error() != seqErr.Error() {
						t.Errorf("parallel path: err %v, want refusal %v", parErr, seqErr)
					}
					return
				}
				if parErr != nil {
					t.Fatalf("parallel compile: %v", parErr)
				}

				sameResult(t, "parallel(workers=4) vs sequential", seq, parRes)

				for label, res := range map[string]*core.Result{
					"sequential": seq, "parallel": parRes,
				} {
					if _, err := VerifyCompiled(res, Options{}); err != nil {
						t.Errorf("oracle replay of the %s path: %v", label, err)
					}
				}
			})
		}
	}
}
