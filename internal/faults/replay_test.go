package faults

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"fppc/internal/assays"
	"fppc/internal/core"
	"fppc/internal/dag"
	"fppc/internal/oracle"
	"fppc/internal/sim"
	"fppc/internal/telemetry"
)

// TestInjectedReplayTelemetryMatchesPlain pins why a compile's chip
// telemetry may come from the oracle's cross-check replay, which runs
// with the declared faults injected: whenever that verification passes,
// the snapshot equals a plain replay's, so the wear, used cells and
// fleet placements derived from it cannot move. The compiles are the
// default-size benchmarks resynthesized at their pristine size for
// seeded random fault sets.
func TestInjectedReplayTelemetryMatchesPlain(t *testing.T) {
	tm := assays.DefaultTiming()
	benches := []*dag.Assay{assays.PCR(tm)}
	for n := 1; n <= 5; n++ {
		benches = append(benches, assays.InVitroN(n, tm))
	}
	for levels := 1; levels <= 3; levels++ {
		benches = append(benches, assays.ProteinSplit(levels, tm))
	}
	sets := 12
	if testing.Short() {
		sets = 3
	}
	tried, verified := 0, 0
	for _, target := range []core.Target{core.TargetFPPC, core.TargetEnhancedFPPC} {
		spec, _ := core.LookupTarget(target)
		for i, a := range benches {
			pristine, err := core.Compile(a.Clone(), oracle.VerifyConfig(target))
			var uns *core.ErrUnsynthesizable
			if errors.As(err, &uns) {
				continue // In-Vitro 3-5 need more ports than enhanced-fppc has
			}
			if err != nil {
				t.Fatalf("%s on %v: pristine compile: %v", a.Name, target, err)
			}
			rng := rand.New(rand.NewSource(int64(i)))
			for k := 0; k < sets; k++ {
				set, err := RandomSet(rng, pristine.Chip, 1+rng.Intn(3), true)
				if err != nil {
					t.Fatal(err)
				}
				cfg := oracle.VerifyConfig(target)
				cfg.AutoGrow = false
				cfg.Faults = set
				spec.ApplyDims(&cfg, core.Dims{W: pristine.Chip.W, H: pristine.Chip.H})
				tried++
				res, err := core.Compile(a.Clone(), cfg)
				if errors.As(err, &uns) {
					continue
				}
				if err != nil {
					t.Fatalf("%s on %v with %q: %v", a.Name, target, set, err)
				}
				injected := telemetry.New()
				if _, err := oracle.VerifyCollected(res, oracle.Options{Faults: set, KnownFaults: true}, injected); err != nil {
					continue // a failed verification publishes no telemetry
				}
				plain := telemetry.New()
				if _, err := sim.RunCollected(res.Chip, res.Routing.Program, res.Routing.Events, nil, plain); err != nil {
					t.Fatalf("%s on %v with %q: verified, yet the plain replay fails: %v", a.Name, target, set, err)
				}
				if !reflect.DeepEqual(injected.Snapshot(), plain.Snapshot()) {
					t.Errorf("%s on %v with %q: the injected replay's telemetry differs from the plain replay's", a.Name, target, set)
				}
				verified++
			}
		}
	}
	if verified < tried/2 {
		t.Errorf("only %d of %d faulted compiles verified; the check covers too few", verified, tried)
	}
	t.Logf("%d of %d faulted compiles verified", verified, tried)
}
