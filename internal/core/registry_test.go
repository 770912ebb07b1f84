package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"fppc/internal/arch"
	"fppc/internal/assays"
	"fppc/internal/dag"
	"fppc/internal/router"
	"fppc/internal/scheduler"
)

// testSpec builds a minimal valid spec for registry-invariant tests.
func testSpec(id Target, name string) TargetSpec {
	return TargetSpec{
		ID:          id,
		Name:        name,
		DefaultDims: func(Config) Dims { return Dims{W: 1, H: 1} },
		Grow:        func(d Dims) (Dims, bool) { return d, false },
		NewChip:     func(Dims) (*arch.Chip, error) { return nil, nil },
		ApplyDims:   func(*Config, Dims) {},
		Schedule: func(context.Context, *dag.Assay, *arch.Chip, scheduler.Opts) (*scheduler.Schedule, error) {
			return nil, nil
		},
		Route: func(context.Context, *scheduler.Schedule, router.Options) (*router.Result, error) {
			return nil, nil
		},
	}
}

func wantPanic(t *testing.T, substr string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic, want one containing %q", substr)
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, substr) {
			t.Fatalf("panic %v, want one containing %q", r, substr)
		}
	}()
	fn()
}

func TestRegistryDuplicateNamePanics(t *testing.T) {
	r := newTargetRegistry()
	r.register(testSpec(100, "dup"))
	wantPanic(t, `duplicate target name "dup"`, func() {
		r.register(testSpec(101, "dup"))
	})
}

func TestRegistryDuplicateIDPanics(t *testing.T) {
	r := newTargetRegistry()
	r.register(testSpec(100, "one"))
	wantPanic(t, "duplicate target id 100", func() {
		r.register(testSpec(100, "two"))
	})
}

func TestRegistryRejectsBadSpecs(t *testing.T) {
	r := newTargetRegistry()
	wantPanic(t, "invalid target name", func() { r.register(testSpec(100, "")) })
	wantPanic(t, "invalid target name", func() { r.register(testSpec(100, "has space")) })
	broken := testSpec(100, "broken")
	broken.Schedule = nil
	wantPanic(t, "missing hooks", func() { r.register(broken) })
}

// TestRegistryOrderIndependent registers the same specs in opposite
// orders and checks that lookups and the sorted listing agree — the
// registry's view must not depend on init-function sequencing.
func TestRegistryOrderIndependent(t *testing.T) {
	specs := []TargetSpec{testSpec(102, "c"), testSpec(100, "a"), testSpec(101, "b")}
	fwd, rev := newTargetRegistry(), newTargetRegistry()
	for _, s := range specs {
		fwd.register(s)
	}
	for i := len(specs) - 1; i >= 0; i-- {
		rev.register(specs[i])
	}
	f, r := fwd.targets(), rev.targets()
	if len(f) != len(r) {
		t.Fatalf("listing lengths differ: %d vs %d", len(f), len(r))
	}
	for i := range f {
		if f[i].ID != r[i].ID || f[i].Name != r[i].Name {
			t.Errorf("listing[%d] differs: %s(%d) vs %s(%d)", i, f[i].Name, f[i].ID, r[i].Name, r[i].ID)
		}
		if i > 0 && !(f[i-1].ID < f[i].ID) {
			t.Errorf("listing not sorted by ID at %d", i)
		}
	}
	for _, name := range []string{"a", "b", "c"} {
		fs, ok1 := fwd.lookupName(name)
		rs, ok2 := rev.lookupName(name)
		if !ok1 || !ok2 || fs.ID != rs.ID {
			t.Errorf("lookupName(%q) disagrees between registration orders", name)
		}
	}
}

func TestBuiltinTargets(t *testing.T) {
	want := []struct {
		id   Target
		name string
		caps Capabilities
	}{
		{TargetFPPC, "fppc", Capabilities{PinProgram: true, AutoGrow: true}},
		{TargetDA, "da", Capabilities{AutoGrow: true}},
		{TargetEnhancedFPPC, "enhanced-fppc", Capabilities{PinProgram: true, AutoGrow: true, FixedPortCapacity: true}},
	}
	specs := Targets()
	if len(specs) != len(want) {
		t.Fatalf("Targets() lists %d specs, want %d", len(specs), len(want))
	}
	for i, w := range want {
		s := specs[i]
		if s.ID != w.id || s.Name != w.name {
			t.Errorf("Targets()[%d] = %s(%d), want %s(%d)", i, s.Name, s.ID, w.name, w.id)
		}
		if s.Capabilities != w.caps {
			t.Errorf("%s capabilities = %+v, want %+v", w.name, s.Capabilities, w.caps)
		}
		if w.id.String() != w.name {
			t.Errorf("Target(%d).String() = %q, want %q", w.id, w.id.String(), w.name)
		}
	}
}

func TestParseTarget(t *testing.T) {
	if spec, err := ParseTarget(""); err != nil || spec.ID != TargetFPPC {
		t.Errorf(`ParseTarget("") = %v, %v; want the fppc default`, spec, err)
	}
	for _, name := range TargetNames() {
		spec, err := ParseTarget(name)
		if err != nil || spec.Name != name {
			t.Errorf("ParseTarget(%q) = %v, %v", name, spec, err)
		}
	}
	if _, err := ParseTarget("pla"); err == nil || !strings.Contains(err.Error(), "enhanced-fppc") {
		t.Errorf("ParseTarget(unknown) err = %v, want one listing registered names", err)
	}
	if spec, ok := LookupTargetName("da"); !ok || spec.ID != TargetDA {
		t.Errorf("LookupTargetName(da) = %v, %t", spec, ok)
	}
	if _, ok := LookupTargetName("pla"); ok {
		t.Error("LookupTargetName accepted an unknown name")
	}
}

// TestCompileEnhancedPCR drives the third target through the whole flow
// and checks the published 10x16 layout numbers.
func TestCompileEnhancedPCR(t *testing.T) {
	r, err := Compile(assays.PCR(assays.DefaultTiming()), Config{
		Target: TargetEnhancedFPPC,
		Router: router.Options{EmitProgram: true, RotationsPerStep: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Chip.W != 10 || r.Chip.H != 16 {
		t.Errorf("chip = %dx%d, want 10x16", r.Chip.W, r.Chip.H)
	}
	if r.Chip.ElectrodeCount() != 82 || r.Chip.PinCount() != 82 {
		t.Errorf("electrodes/pins = %d/%d, want 82/82 (TCAD 2014)",
			r.Chip.ElectrodeCount(), r.Chip.PinCount())
	}
	if r.Routing.Program == nil || r.Routing.Program.Len() == 0 {
		t.Error("no pin program emitted")
	}
	if r.Chip.InterchangeSSD < 0 {
		t.Error("enhanced chip has no interchange SSD")
	}
	if got := scheduler.ReservedSSD(r.Chip); got != r.Chip.InterchangeSSD {
		t.Errorf("reserved SSD = %d, want the interchange module %d", got, r.Chip.InterchangeSSD)
	}
}

// TestEnhancedFixedPortCapacity: In-Vitro 3 needs 12 input reservoirs
// but the enhanced perimeter holds 10 forever, so compilation must fail
// with the typed unsynthesizable error even under AutoGrow.
func TestEnhancedFixedPortCapacity(t *testing.T) {
	_, err := Compile(assays.InVitroN(3, assays.DefaultTiming()),
		Config{Target: TargetEnhancedFPPC, AutoGrow: true})
	var us *ErrUnsynthesizable
	if !errors.As(err, &us) {
		t.Fatalf("err = %v, want *ErrUnsynthesizable", err)
	}
	if us.Faults != 0 {
		t.Errorf("Faults = %d, want 0 (capacity, not damage)", us.Faults)
	}
	var pc *arch.PortCapacityError
	if !errors.As(err, &pc) || !pc.Input {
		t.Errorf("cause = %v, want an input *arch.PortCapacityError", err)
	}
}
