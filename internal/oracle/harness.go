package oracle

import (
	"fmt"
	"math"
	"strings"

	"fppc/internal/core"
	"fppc/internal/dag"
	"fppc/internal/sim"
	"fppc/internal/telemetry"
)

// hard reports whether the violation is a frame-replay physics finding
// the simulator would also stop on (as opposed to the oracle's stricter
// spurious-activation invariant or the assay-level checks).
func (v Violation) hard() bool {
	switch v.Kind {
	case DropletLost, DropletTorn, Overpull, DispenseConflict, OutputMiss, EventOverrun:
		return true
	}
	return false
}

// firstHard returns the first physics violation, or nil.
func (r *Report) firstHard() *Violation {
	for i := range r.Violations {
		if r.Violations[i].hard() {
			return &r.Violations[i]
		}
	}
	return nil
}

// compareSim cross-checks the oracle's report against the independent
// cycle-level simulator's replay of the same program (its trace and
// first error), returning a description of every disagreement. The two
// implementations share no position tracking, so an empty result is
// real evidence the replay semantics are right. The oracle's
// spurious-activation findings are deliberately stricter than the
// simulator and are not counted as disagreements.
func compareSim(rep *Report, trace *sim.Trace, simErr error) []string {
	var diffs []string
	hard := rep.firstHard()
	if simErr != nil {
		if hard == nil {
			return append(diffs, fmt.Sprintf("sim failed (%v) but the oracle found no physics violation", simErr))
		}
		if se, ok := simErr.(*sim.Error); ok && se.Cycle != hard.Cycle {
			diffs = append(diffs, fmt.Sprintf("first failure cycle differs: sim %d, oracle %d (%v)",
				se.Cycle, hard.Cycle, hard.Kind))
		}
		return diffs
	}
	if hard != nil {
		return append(diffs, fmt.Sprintf("oracle found %v at cycle %d but sim replayed cleanly", hard.Kind, hard.Cycle))
	}
	cmp := func(name string, simV, oracleV int) {
		if simV != oracleV {
			diffs = append(diffs, fmt.Sprintf("%s: sim %d, oracle %d", name, simV, oracleV))
		}
	}
	cmp("cycles", trace.Cycles, rep.Cycles)
	cmp("dispenses", trace.Dispenses, rep.Dispenses)
	cmp("outputs", trace.Outputs, rep.Outputs)
	cmp("merges", trace.Merges, rep.Merges)
	cmp("splits", trace.Splits, rep.Splits)
	cmp("remaining droplets", len(trace.Remaining), rep.RemainingDroplets)
	if math.Abs(trace.VolumeIn-rep.VolumeIn) > 1e-9 {
		diffs = append(diffs, fmt.Sprintf("volume in: sim %g, oracle %g", trace.VolumeIn, rep.VolumeIn))
	}
	if math.Abs(trace.VolumeOut-rep.VolumeOut) > 1e-9 {
		diffs = append(diffs, fmt.Sprintf("volume out: sim %g, oracle %g", trace.VolumeOut, rep.VolumeOut))
	}
	return diffs
}

// VerifyCompiled verifies a compiled result end to end. Results that
// carry a pin program (the FPPC target with EmitProgram) are replayed
// through the oracle, checked against the assay DAG's invariants, and
// cross-checked against the independent simulator. Results without a
// program (the DA baseline is timing-only) are verified at schedule
// level: the binding must cover the DAG exactly. The returned report is
// always non-nil; the error summarizes the first failure.
func VerifyCompiled(res *core.Result, opts Options) (*Report, error) {
	return VerifyCollected(res, opts, nil)
}

// VerifyCollected is VerifyCompiled streaming the simulator cross-check
// into tc (nil disables): the one replay of the program, with the
// declared faults (opts.Faults) injected, doubles as the compile's
// chip telemetry. The snapshot records the commanded frames; a replay
// that stops early leaves a partial one, and the error says why.
func VerifyCollected(res *core.Result, opts Options, tc *telemetry.Collector) (*Report, error) {
	prog := res.Routing.Program
	if prog == nil {
		return verifySchedule(res)
	}
	rep := Verify(res.Chip, prog, res.Routing.Events, opts)
	rep.CheckAssay(res.Assay)
	var inj sim.Injector
	if opts.Faults != nil {
		inj = opts.Faults
	}
	trace, simErr := sim.RunInjected(res.Chip, prog, res.Routing.Events, nil, tc, inj)
	if diffs := compareSim(rep, trace, simErr); len(diffs) > 0 {
		return rep, fmt.Errorf("oracle: %s: oracle/sim disagreement: %s",
			res.Assay.Name, strings.Join(diffs, "; "))
	}
	if err := rep.Err(); err != nil {
		return rep, fmt.Errorf("%s: %w", res.Assay.Name, err)
	}
	return rep, nil
}

// verifySchedule is the program-less path: re-validate the binding and
// project the schedule's operation counts into a report so callers see
// the same shape for every target.
func verifySchedule(res *core.Result) (*Report, error) {
	rep := &Report{}
	if err := res.Schedule.Validate(); err != nil {
		rep.Violations = append(rep.Violations, Violation{Kind: OpCountMismatch, Cycle: -1, Droplet: -1,
			Msg: fmt.Sprintf("schedule does not cover the DAG: %v", err)})
		return rep, fmt.Errorf("oracle: %s: %v", res.Assay.Name, rep.Violations[0])
	}
	for _, op := range res.Schedule.Ops {
		switch res.Assay.Node(op.NodeID).Kind {
		case dag.Dispense:
			rep.Dispenses++
			rep.VolumeIn++
		case dag.Mix:
			rep.Merges++
		case dag.Split:
			rep.Splits++
		case dag.Output:
			rep.Outputs++
			rep.VolumeOut++ // bookkeeping projection; flows are checked on the FPPC replay
		}
	}
	st, err := res.Assay.ComputeStats()
	if err != nil {
		return rep, err
	}
	if rep.Dispenses != st.ByKind[dag.Dispense] || rep.Merges != st.ByKind[dag.Mix] ||
		rep.Splits != st.ByKind[dag.Split] || rep.Outputs != st.ByKind[dag.Output] {
		v := Violation{Kind: OpCountMismatch, Cycle: -1, Droplet: -1,
			Msg: "scheduled operation counts disagree with the DAG"}
		rep.Violations = append(rep.Violations, v)
		return rep, fmt.Errorf("oracle: %s: %v", res.Assay.Name, v)
	}
	// Outputs projected to one dispense unit each would misstate volume;
	// recompute from the flow analysis so conservation is meaningful.
	rep.VolumeOut = rep.VolumeIn
	return rep, nil
}

// AssayEquivalence checks that two compilations of the same assay —
// typically the FPPC chip and the direct-addressing baseline — are
// equivalent at assay level: identical assay content (fingerprint),
// both bindings covering the full DAG, the same per-kind operation
// counts, and the same number of output droplets leaving the chip.
func AssayEquivalence(a, b *core.Result) error {
	fpA, err := a.Assay.Fingerprint()
	if err != nil {
		return err
	}
	fpB, err := b.Assay.Fingerprint()
	if err != nil {
		return err
	}
	if fpA != fpB {
		return fmt.Errorf("oracle: assay fingerprints differ: %s vs %s", fpA[:12], fpB[:12])
	}
	repA, err := VerifyCompiled(a, Options{})
	if err != nil {
		return fmt.Errorf("oracle: %s target: %w", a.Chip.Arch, err)
	}
	repB, err := VerifyCompiled(b, Options{})
	if err != nil {
		return fmt.Errorf("oracle: %s target: %w", b.Chip.Arch, err)
	}
	type counts struct{ disp, mix, split, out int }
	ca := counts{repA.Dispenses, repA.Merges, repA.Splits, repA.Outputs}
	cb := counts{repB.Dispenses, repB.Merges, repB.Splits, repB.Outputs}
	if ca != cb {
		return fmt.Errorf("oracle: completed operation sets differ between %s (%+v) and %s (%+v)",
			a.Chip.Arch, ca, b.Chip.Arch, cb)
	}
	if repA.Outputs != repB.Outputs {
		return fmt.Errorf("oracle: output droplet counts differ: %d vs %d", repA.Outputs, repB.Outputs)
	}
	return nil
}

// EquivalenceMatrix checks AssayEquivalence across every pair of
// compilations of the same assay — the cross-target differential check:
// all targets that could synthesize the assay must have produced
// equivalent results. Order does not matter; fewer than two results is
// trivially consistent.
func EquivalenceMatrix(results []*core.Result) error {
	for i := 0; i < len(results); i++ {
		for j := i + 1; j < len(results); j++ {
			if err := AssayEquivalence(results[i], results[j]); err != nil {
				return err
			}
		}
	}
	return nil
}

// ProgramText renders a result's pin program plus its reservoir events
// as a canonical byte string, the unit of comparison for metamorphic
// checks ("same DAG modulo numbering compiles to byte-identical
// programs") and for golden traces.
func ProgramText(res *core.Result) string {
	var b strings.Builder
	if res.Routing.Program != nil {
		res.Routing.Program.WriteTo(&b)
	}
	for _, ev := range res.Routing.Events {
		fmt.Fprintf(&b, "ev %d %d %d,%d %s\n", ev.Cycle, int(ev.Kind), ev.Cell.X, ev.Cell.Y, ev.Fluid)
	}
	return b.String()
}

// MetamorphicCompile checks the numbering-invariance property: the
// canonical form of an assay and the canonical form of a renumbered,
// relabeled twin must compile to byte-identical programs. (Raw,
// non-canonical compilation is NOT invariant — scheduler tie-breaks
// follow node IDs — which is exactly why the compile service
// canonicalizes before compiling and why its fingerprint-keyed cache
// would otherwise be unsound.)
func MetamorphicCompile(a *dag.Assay, cfg core.Config, perm []int) error {
	twin, err := a.Renumbered(perm)
	if err != nil {
		return err
	}
	twin = twin.Relabeled(func(old string) string { return "renamed-" + old })
	ca, err := a.Canonical()
	if err != nil {
		return err
	}
	ct, err := twin.Canonical()
	if err != nil {
		return err
	}
	fpA, _ := ca.Fingerprint()
	fpT, _ := ct.Fingerprint()
	if fpA != fpT {
		return fmt.Errorf("oracle: metamorphic twin changed the fingerprint: %s vs %s", fpA[:12], fpT[:12])
	}
	ra, err := core.Compile(ca, cfg)
	if err != nil {
		return fmt.Errorf("oracle: canonical compile: %w", err)
	}
	rt, err := core.Compile(ct, cfg)
	if err != nil {
		return fmt.Errorf("oracle: twin compile: %w", err)
	}
	if ra.Chip.Name != rt.Chip.Name || ra.Schedule.Makespan != rt.Schedule.Makespan {
		return fmt.Errorf("oracle: metamorphic twin compiled differently: chip %s/%s, makespan %d/%d",
			ra.Chip.Name, rt.Chip.Name, ra.Schedule.Makespan, rt.Schedule.Makespan)
	}
	if pa, pt := ProgramText(ra), ProgramText(rt); pa != pt {
		return fmt.Errorf("oracle: metamorphic twin compiled to a different program (%d vs %d bytes)",
			len(pa), len(pt))
	}
	return nil
}
