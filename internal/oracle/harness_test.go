package oracle

import (
	"fmt"
	"reflect"
	"testing"

	"fppc/internal/allocfloor"
	"fppc/internal/assays"
	"fppc/internal/core"
	"fppc/internal/grid"
	"fppc/internal/sim"
)

// TestCompareSimBranches drives every branch of the oracle/simulator
// comparison with hand-built reports and traces: agreement, each way
// the two replays can fail differently, and each counted statistic.
func TestCompareSimBranches(t *testing.T) {
	lost := Violation{Kind: DropletLost, Cycle: 7, Droplet: 1, Cell: grid.Cell{X: 3, Y: 4}}
	spurious := Violation{Kind: SpuriousActivation, Cycle: 2, Droplet: -1, Pin: 5}
	drift := &sim.Error{Cycle: 7, Droplet: 1, Cell: grid.Cell{X: 3, Y: 4}, Msg: "no activated electrode nearby: droplet drifts"}
	cases := []struct {
		name   string
		edit   func(rep *Report, tr *sim.Trace)
		simErr error
		want   []string
	}{
		{name: "agreement"},
		{name: "spurious activation only", edit: func(rep *Report, _ *sim.Trace) {
			rep.Violations = []Violation{spurious}
		}},
		{name: "both fail at the same cycle", simErr: drift, edit: func(rep *Report, _ *sim.Trace) {
			rep.Violations = []Violation{spurious, lost}
		}},
		{name: "both fail, sim error untyped", simErr: fmt.Errorf("sim: 1 reservoir events beyond the program's end"),
			edit: func(rep *Report, _ *sim.Trace) {
				rep.Violations = []Violation{{Kind: EventOverrun, Cycle: 40, Droplet: -1}}
			}},
		{name: "sim error, no oracle physics violation", simErr: drift, edit: func(rep *Report, _ *sim.Trace) {
			rep.Violations = []Violation{spurious}
		}, want: []string{"sim failed (" + drift.Error() + ") but the oracle found no physics violation"}},
		{name: "different first-failure cycle", simErr: &sim.Error{Cycle: 9, Droplet: 1, Msg: "droplet tears"},
			edit: func(rep *Report, _ *sim.Trace) {
				rep.Violations = []Violation{lost}
			}, want: []string{"first failure cycle differs: sim 9, oracle 7 (droplet-lost)"}},
		{name: "oracle violation, clean sim", edit: func(rep *Report, _ *sim.Trace) {
			rep.Violations = []Violation{lost}
		}, want: []string{"oracle found droplet-lost at cycle 7 but sim replayed cleanly"}},
		{name: "count mismatches", edit: func(_ *Report, tr *sim.Trace) {
			tr.Cycles, tr.Dispenses, tr.Outputs, tr.Merges, tr.Splits = 41, 5, 2, 3, 1
			tr.Remaining = []sim.Droplet{{ID: 4}}
		}, want: []string{
			"cycles: sim 41, oracle 40", "dispenses: sim 5, oracle 4", "outputs: sim 2, oracle 1",
			"merges: sim 3, oracle 2", "splits: sim 1, oracle 0", "remaining droplets: sim 1, oracle 0",
		}},
		{name: "volume mismatches", edit: func(_ *Report, tr *sim.Trace) {
			tr.VolumeIn, tr.VolumeOut = 4.5, 3.5
		}, want: []string{"volume in: sim 4.5, oracle 4", "volume out: sim 3.5, oracle 4"}},
		{name: "volumes within rounding", edit: func(_ *Report, tr *sim.Trace) {
			tr.VolumeIn, tr.VolumeOut = 4+1e-12, 4-1e-12
		}},
	}
	for _, c := range cases {
		rep := &Report{Cycles: 40, Dispenses: 4, Outputs: 1, Merges: 2, VolumeIn: 4, VolumeOut: 4}
		tr := &sim.Trace{Cycles: 40, Dispenses: 4, Outputs: 1, Merges: 2, VolumeIn: 4, VolumeOut: 4}
		if c.edit != nil {
			c.edit(rep, tr)
		}
		if got := compareSim(rep, tr, c.simErr); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: compareSim = %q, want %q", c.name, got, c.want)
		}
	}
}

// BenchmarkVerify times end-to-end verification of compiled programs:
// the oracle's replay, the assay checks and the simulator cross-check.
func BenchmarkVerify(b *testing.B) {
	tm := assays.DefaultTiming()
	for _, a := range []struct {
		name string
		res  *core.Result
	}{
		{"pcr", compileFPPC(b, assays.PCR(tm))},
		{"protein3", compileFPPC(b, assays.ProteinSplit(3, tm))},
	} {
		b.Run(a.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := VerifyCompiled(a.res, Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestAllocsCeilingVerify is the verification part of the allocation
// ratchet: verifying the compiled Protein Split 3 program must stay
// under the committed ceiling, so a faster replay can lower it.
func TestAllocsCeilingVerify(t *testing.T) {
	res := compileFPPC(t, assays.ProteinSplit(3, assays.DefaultTiming()))
	allocfloor.Check(t, "verify_protein3", testing.AllocsPerRun(3, func() {
		if _, err := VerifyCompiled(res, Options{}); err != nil {
			t.Fatal(err)
		}
	}))
}
