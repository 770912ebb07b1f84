package sim_test

import (
	"testing"

	"fppc/internal/allocfloor"
	"fppc/internal/sim"
	"fppc/internal/telemetry"
)

// TestAllocsCeilingSimReplay is the simulator part of the allocation
// ratchet: a full physics replay of the compiled PCR program must stay
// under the committed ceilings. The replay loop reuses its active-cell
// set, candidate scratch and droplet generation buffers across cycles,
// so the plain count is dominated by per-droplet events (dispense,
// split, merge) — a regression means a per-cycle allocation returned.
// The telemetry case adds one collector and its snapshot per replay,
// what BenchmarkSimTelemetryOn measures.
func TestAllocsCeilingSimReplay(t *testing.T) {
	res := compileBenchProgram(t)
	allocfloor.Check(t, "sim_replay_pcr", testing.AllocsPerRun(10, func() {
		if _, err := sim.Run(res.Chip, res.Routing.Program, res.Routing.Events); err != nil {
			t.Fatal(err)
		}
	}))
	allocfloor.Check(t, "sim_replay_pcr_telemetry", testing.AllocsPerRun(10, func() {
		tc := telemetry.New()
		if _, err := sim.RunCollected(res.Chip, res.Routing.Program, res.Routing.Events, nil, tc); err != nil {
			t.Fatal(err)
		}
		if tc.Snapshot().PinActivations == 0 {
			t.Fatal("collector recorded nothing")
		}
	}))
}
