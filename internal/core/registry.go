package core

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"fppc/internal/arch"
	"fppc/internal/dag"
	"fppc/internal/router"
	"fppc/internal/scheduler"
)

// Dims is a chip array size in cells.
type Dims struct{ W, H int }

// Capabilities are the feature flags a registered target advertises.
// Every layer above core — the service, the fleet, fault campaigns, the
// benchmark harness — asks these instead of switching on target
// constants, so a new target plugs in without touching its consumers.
type Capabilities struct {
	// PinProgram: the router can emit a per-cycle pin activation program,
	// enabling electrode-level simulation, oracle replay, telemetry,
	// fleet wear-aware placement and dynamic fault classification
	// (replaying the program against a degraded chip).
	PinProgram bool
	// AutoGrow: the array can be enlarged when an assay does not fit.
	AutoGrow bool
	// FixedPortCapacity: the reservoir perimeter does not grow with the
	// array, so running out of attach points is a hard unsynthesizable
	// condition rather than a retryable sizing failure.
	FixedPortCapacity bool
}

// ScheduleFunc is a target's scheduling stage. Opts carries the
// observer; implementations run on the caller's goroutine.
type ScheduleFunc func(ctx context.Context, a *dag.Assay, chip *arch.Chip, opts scheduler.Opts) (*scheduler.Schedule, error)

// RouteFunc is a target's routing stage.
type RouteFunc func(ctx context.Context, s *scheduler.Schedule, opts router.Options) (*router.Result, error)

// TargetSpec is one registered architecture plug-in: everything the
// compilation flow, service, fleet and benchmark layers need to drive a
// target without knowing it by constant. Register specs from an init
// function; all fields below Capabilities are required.
type TargetSpec struct {
	ID           Target
	Name         string // stable wire name ("fppc", "da", "enhanced-fppc")
	Description  string
	Capabilities Capabilities

	// DefaultDims resolves the starting array size from the config's
	// target-specific overrides (zero fields mean the target's default).
	DefaultDims func(cfg Config) Dims
	// Grow returns the next array size to try after an
	// insufficient-resources failure, or ok=false when the growth bounds
	// are exhausted. Unused (but still required) when AutoGrow is false.
	Grow func(d Dims) (next Dims, ok bool)
	// NewChip builds the pristine chip at the given size.
	NewChip func(d Dims) (*arch.Chip, error)
	// ApplyDims writes an explicit size back into a config — the inverse
	// of DefaultDims, used when resynthesizing on a fixed physical chip.
	ApplyDims func(cfg *Config, d Dims)

	Schedule ScheduleFunc
	Route    RouteFunc
}

// registry holds target specs keyed by ID and name. The package-level
// instance is populated by init functions; tests build private
// instances to exercise registration invariants.
type registry struct {
	mu     sync.RWMutex
	byID   map[Target]*TargetSpec
	byName map[string]*TargetSpec
}

func newTargetRegistry() *registry {
	return &registry{byID: map[Target]*TargetSpec{}, byName: map[string]*TargetSpec{}}
}

// register validates and adds a spec, panicking on conflicts — target
// registration is a wiring error, not a runtime condition.
func (r *registry) register(spec TargetSpec) {
	if spec.Name == "" || strings.ContainsAny(spec.Name, " \t\n") {
		panic(fmt.Sprintf("core: invalid target name %q", spec.Name))
	}
	if spec.DefaultDims == nil || spec.Grow == nil || spec.NewChip == nil ||
		spec.ApplyDims == nil || spec.Schedule == nil || spec.Route == nil {
		panic(fmt.Sprintf("core: target %q registered with missing hooks", spec.Name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if prev, ok := r.byID[spec.ID]; ok {
		panic(fmt.Sprintf("core: duplicate target id %d (%q vs %q)", int(spec.ID), prev.Name, spec.Name))
	}
	if _, ok := r.byName[spec.Name]; ok {
		panic(fmt.Sprintf("core: duplicate target name %q", spec.Name))
	}
	s := spec
	r.byID[s.ID] = &s
	r.byName[s.Name] = &s
}

func (r *registry) lookup(t Target) (*TargetSpec, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	spec, ok := r.byID[t]
	return spec, ok
}

func (r *registry) lookupName(name string) (*TargetSpec, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	spec, ok := r.byName[name]
	return spec, ok
}

// targets lists every spec ordered by ID, independent of registration
// order.
func (r *registry) targets() []*TargetSpec {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*TargetSpec, 0, len(r.byID))
	for _, spec := range r.byID {
		out = append(out, spec)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func (r *registry) names() []string {
	specs := r.targets()
	out := make([]string, len(specs))
	for i, spec := range specs {
		out[i] = spec.Name
	}
	return out
}

var targetRegistry = newTargetRegistry()

// RegisterTarget adds an architecture plug-in to the global registry.
// It panics on duplicate names or IDs and on specs with missing hooks.
func RegisterTarget(spec TargetSpec) { targetRegistry.register(spec) }

// LookupTarget returns the registered spec for a target constant.
func LookupTarget(t Target) (*TargetSpec, bool) { return targetRegistry.lookup(t) }

// LookupTargetName returns the registered spec for a wire name.
func LookupTargetName(name string) (*TargetSpec, bool) { return targetRegistry.lookupName(name) }

// Targets lists every registered target ordered by ID.
func Targets() []*TargetSpec { return targetRegistry.targets() }

// TargetNames lists every registered target name ordered by ID.
func TargetNames() []string { return targetRegistry.names() }

// ParseTarget resolves a wire name to its spec. The empty string selects
// the default target (FPPC, the paper's subject).
func ParseTarget(name string) (*TargetSpec, error) {
	if name == "" {
		name = TargetFPPC.String()
	}
	if spec, ok := targetRegistry.lookupName(name); ok {
		return spec, nil
	}
	return nil, fmt.Errorf("core: unknown target %q (registered: %s)",
		name, strings.Join(targetRegistry.names(), ", "))
}
