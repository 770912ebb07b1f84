package fleet

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"fppc/internal/obs"
)

// The pinned-seed scenario is the PR's acceptance gate: 5 chips (one
// of each rotation variant, spanning all three architectures), 20
// jobs, injected mid-run degradation — every job must end completed
// (directly or after migration), none lost, and the event log must show
// at least one migration that recompiled via recovery.Plan and was
// oracle-verified on the destination chip. No oracle run fails, and
// the oracle runs at most once per placement or migration while the
// compiler runs once per chip and assay.
func TestScenarioPinnedSeedNoLostJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario compiles the benchmark suite many times")
	}
	ob := obs.NewMetricsOnly()
	res, err := RunScenario(context.Background(), ScenarioConfig{Seed: 1, Obs: ob})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != 20 {
		t.Fatalf("jobs = %d, want 20", len(res.Jobs))
	}
	if len(res.Chips) != 5 {
		t.Fatalf("chips = %d, want 5", len(res.Chips))
	}
	targets := map[string]bool{}
	for _, c := range res.Chips {
		targets[c.Target] = true
	}
	for _, want := range []string{"fppc", "da", "enhanced-fppc"} {
		if !targets[want] {
			t.Errorf("scenario fleet has no %s chip", want)
		}
	}
	if len(res.Lost) != 0 {
		t.Fatalf("lost jobs: %v (failed=%d)", res.Lost, res.Failed)
	}
	for _, j := range res.Jobs {
		if j.State != JobCompleted {
			t.Errorf("job %s ended %q, want completed", j.ID, j.State)
		}
	}
	if res.Migrated < 1 {
		t.Fatalf("migrated = %d, want >= 1 (degraded chip %s, spec %q)",
			res.Migrated, res.DegradedChip, res.DegradedSpec)
	}
	if res.DegradedSpec == "" {
		t.Error("degraded chip has no fault spec after wear injection")
	}

	// The migration events must prove the recovery path: a recovery plan
	// re-executing ops and an oracle verdict on the destination.
	migrations := 0
	for _, e := range res.Events {
		if e.Kind != EventMigrated {
			continue
		}
		migrations++
		if e.From == "" || e.To == "" || e.From == e.To {
			t.Errorf("migration event %d: from=%q to=%q", e.Seq, e.From, e.To)
		}
		if !strings.Contains(e.Detail, "recovery plan") {
			t.Errorf("migration event %d detail lacks recovery plan: %q", e.Seq, e.Detail)
		}
		if !strings.Contains(e.Detail, "oracle verified") {
			t.Errorf("migration event %d detail lacks oracle verdict: %q", e.Seq, e.Detail)
		}
	}
	if migrations != res.Migrated {
		t.Errorf("event log has %d migrations, counters say %d", migrations, res.Migrated)
	}

	// Each migrated job's status reflects the move and re-verification.
	sawMigratedJob := false
	for _, j := range res.Jobs {
		if j.Migrations > 0 {
			sawMigratedJob = true
			if !j.Verified {
				t.Errorf("migrated job %s not verified on destination", j.ID)
			}
		}
	}
	if !sawMigratedJob {
		t.Error("no job carries a migration count despite migration events")
	}

	ok := ob.Counter("fppc_fleet_verifications_total", "result", "ok").Value()
	failed := ob.Counter("fppc_fleet_verifications_total", "result", "failed").Value()
	compiles := ob.Counter("fppc_fleet_compiles_total").Value()
	if failed != 0 {
		t.Errorf("failed verifications = %d, want 0", failed)
	}
	if ok == 0 || ok > int64(res.Placed+res.Migrated) {
		t.Errorf("passed verifications = %d, want 1..%d (placements + migrations)", ok, res.Placed+res.Migrated)
	}
	if ok >= compiles {
		t.Errorf("verified %d of %d compiles, want fewer", ok, compiles)
	}

	// The result serializes (the CLI writes it as the artifact).
	if _, err := json.Marshal(res); err != nil {
		t.Fatalf("result not serializable: %v", err)
	}
}

// The same seed must produce the same timeline, run to run: virtual
// time plus seeded wear leaves no nondeterminism.
func TestScenarioDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full scenario twice")
	}
	cfg := ScenarioConfig{Chips: 4, Jobs: 8, Seed: 7}
	a, err := RunScenario(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunScenario(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ja, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if string(ja) != string(jb) {
		t.Fatalf("scenario not deterministic:\n--- run 1\n%s\n--- run 2\n%s", ja, jb)
	}
}

func TestScenarioSpecsValidation(t *testing.T) {
	if _, err := ScenarioSpecs(1); err == nil {
		t.Error("ScenarioSpecs(1) accepted, want error")
	}
	specs, err := ScenarioSpecs(9)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 9 {
		t.Fatalf("got %d specs", len(specs))
	}
	seen := map[string]bool{}
	faulted, da, enhanced := 0, 0, 0
	for _, s := range specs {
		if seen[s.ID] {
			t.Errorf("duplicate chip id %s", s.ID)
		}
		seen[s.ID] = true
		if s.Faults != "" {
			faulted++
		}
		switch s.Target {
		case "da":
			da++
		case "enhanced-fppc":
			enhanced++
		}
	}
	if faulted == 0 || da == 0 || enhanced == 0 {
		t.Errorf("spec rotation missing variants: faulted=%d da=%d enhanced=%d", faulted, da, enhanced)
	}
}
