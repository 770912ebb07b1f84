package faults

import (
	"testing"

	"fppc/internal/allocfloor"
	"fppc/internal/arch"
	"fppc/internal/assays"
	"fppc/internal/core"
	"fppc/internal/oracle"
)

// TestAllocsCeilingVerifyKnownFaults is the fleet's part of the
// allocation ratchet: re-verifying PCR compiled around a stuck-open and
// a stuck-closed electrode, with the faults injected into both replays
// (oracle.Options.KnownFaults), must stay under the committed ceiling.
// Each cycle runs Set.Transform and Set.Refused, so a per-cycle
// allocation on the fault path shows here.
func TestAllocsCeilingVerifyKnownFaults(t *testing.T) {
	chip, err := arch.NewFPPC(21)
	if err != nil {
		t.Fatal(err)
	}
	set := mustSet(t,
		Fault{Kind: StuckOpen, Cell: chip.MixModules[0].Hold},
		Fault{Kind: StuckClosed, Cell: chip.SSDModules[1].Hold},
	)
	cfg := oracle.VerifyConfig(core.TargetFPPC)
	cfg.AutoGrow = false
	cfg.Faults = set
	res, err := core.Compile(assays.PCR(assays.DefaultTiming()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	opts := oracle.Options{Faults: set, KnownFaults: true}
	allocfloor.Check(t, "verify_pcr_known_faults", testing.AllocsPerRun(10, func() {
		if _, err := oracle.VerifyCompiled(res, opts); err != nil {
			t.Fatal(err)
		}
	}))
}
