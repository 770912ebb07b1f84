package fleet

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the scenario golden files under testdata/")

// TestGoldenScenarios pins every placement, migration and wear decision
// of the canned scenario, byte for byte: each golden file is the JSON
// `fppc-fleet -o` writes for the same configuration. Run with -update
// (make golden) after an intentional change to placement or synthesis;
// the golden-sync CI job regenerates and fails on drift.
func TestGoldenScenarios(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four fleet scenarios")
	}
	for _, cfg := range []ScenarioConfig{
		{Chips: 5, Jobs: 20, Seed: 1},
		{Chips: 4, Jobs: 12, Seed: 1},
		{Jobs: 6, Seed: 3},
		{Chips: 10, Jobs: 40, Seed: 7},
	} {
		chips := cfg.Chips
		if chips == 0 {
			chips = 5
		}
		file := fmt.Sprintf("scenario_%dx%d_seed%d.json", chips, cfg.Jobs, cfg.Seed)
		t.Run(file, func(t *testing.T) {
			res, err := RunScenario(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			data, err := json.MarshalIndent(res, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			got := append(data, '\n')
			path := filepath.Join("testdata", file)
			if *update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run `make golden` to create)", err)
			}
			if string(want) != string(got) {
				t.Errorf("golden mismatch for %s:\n--- want\n%s--- got\n%s", file, want, got)
			}
		})
	}
}
