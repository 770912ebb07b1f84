package service

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"fppc/internal/asl"
	"fppc/internal/core"
	"fppc/internal/dag"
	"fppc/internal/faults"
	"fppc/internal/journal"
	"fppc/internal/obs"
	"fppc/internal/oracle"
	"fppc/internal/router"
	"fppc/internal/telemetry"
)

// CompileRequest is the POST /compile body. Exactly one of ASL or DAG
// supplies the assay.
type CompileRequest struct {
	// ASL is the assay in the textual assay description language.
	ASL string `json:"asl,omitempty"`
	// DAG is the assay as the dag package's JSON encoding.
	DAG json.RawMessage `json:"dag,omitempty"`

	// Target selects the architecture by registered name: "fppc" (the
	// default), "da", or "enhanced-fppc". GET /targets lists what the
	// server knows along with each target's capabilities.
	Target string `json:"target,omitempty"`
	// Height fixes the FPPC chip height (0 = the 12x21 default).
	Height int `json:"height,omitempty"`
	// DAWidth/DAHeight fix the DA chip size (0 = the 15x19 default).
	DAWidth  int `json:"da_width,omitempty"`
	DAHeight int `json:"da_height,omitempty"`
	// Grow enlarges the array until the assay fits.
	Grow bool `json:"grow,omitempty"`
	// SingleOutputPort places one reservoir per output fluid instead of
	// two.
	SingleOutputPort bool `json:"single_output_port,omitempty"`
	// DetectorCount limits how many modules carry detectors (0 = all).
	DetectorCount int `json:"detector_count,omitempty"`

	// Sequence additionally returns the compiled per-cycle electrode
	// sequence (targets with the pin-program capability only).
	Sequence bool `json:"sequence,omitempty"`
	// RotationsPerStep sets mixer-loop rotations per time-step in the
	// emitted sequence (0 = the hardware default of 12).
	RotationsPerStep int `json:"rotations_per_step,omitempty"`

	// Faults declares hardware defects on the target chip as a fault
	// spec ("open@x,y;closed@x,y;dead#pin"): the compiler synthesizes
	// around them, skipping faulted module slots and routing cells.
	// Malformed or self-contradictory specs are HTTP 400; a spec the
	// chip cannot absorb (fault on a non-electrode cell, or too much
	// capacity lost) is HTTP 422 kind "unsynthesizable", because that
	// judgement needs the chip itself.
	Faults string `json:"faults,omitempty"`

	// TimeoutMS caps this request's compile time in milliseconds
	// (0 = the server default; the server's -max-timeout always caps it).
	TimeoutMS int `json:"timeout_ms,omitempty"`

	// Verify runs the independent oracle on the compiled result before
	// returning it: frame-level replay plus simulator cross-check when a
	// pin program is emitted (fppc with sequence), schedule-level
	// otherwise. A verification failure is a server-side correctness bug
	// and maps to HTTP 500.
	Verify bool `json:"verify,omitempty"`

	// Trace returns the compile's request-scoped trace inline: the
	// response trace field carries Chrome trace_event JSON (loadable in
	// chrome://tracing or Perfetto). Trace does not affect the cache
	// key, and a cache entry keeps the trace only when the request that
	// compiled it set trace too: a cached or deduplicated result carries
	// that compile's trace, or none. The journal entry of the compiling
	// request (GET /debug/requests/{id}) always holds it.
	Trace bool `json:"trace,omitempty"`
}

// ChipInfo describes the chip the assay compiled onto.
type ChipInfo struct {
	Name       string `json:"name"`
	W          int    `json:"w"`
	H          int    `json:"h"`
	Electrodes int    `json:"electrodes"`
	Pins       int    `json:"pins"`
}

// CompileStats carries the synthesis metrics of the paper's tables.
type CompileStats struct {
	Makespan         int     `json:"makespan_steps"`
	OpSeconds        float64 `json:"op_seconds"`
	RoutingSeconds   float64 `json:"routing_seconds"`
	TotalSeconds     float64 `json:"total_seconds"`
	Moves            int     `json:"droplet_moves"`
	StorageMoves     int     `json:"storage_relocations"`
	PeakStored       int     `json:"peak_stored"`
	RouteCycles      int     `json:"route_cycles"`
	RouteSubproblems int     `json:"route_subproblems"`
}

// SequenceEvent is a reservoir action aligned to a sequence cycle.
type SequenceEvent struct {
	Cycle int    `json:"cycle"`
	Kind  string `json:"kind"` // "dispense" or "output"
	X     int    `json:"x"`
	Y     int    `json:"y"`
	Fluid string `json:"fluid,omitempty"`
}

// Sequence is the compiled per-cycle electrode actuation program.
type Sequence struct {
	PinCount int             `json:"pin_count"`
	Cycles   [][]int         `json:"cycles"` // pins driven high per cycle
	Events   []SequenceEvent `json:"events,omitempty"`
}

// VerificationInfo reports the oracle's account of a verified compile.
type VerificationInfo struct {
	Ok bool `json:"ok"`
	// Mode is "frames" (pin-program replay with simulator cross-check)
	// or "schedule" (binding-level checks; targets without a program).
	Mode          string `json:"mode"`
	Cycles        int    `json:"cycles,omitempty"`
	Dispenses     int    `json:"dispenses"`
	Outputs       int    `json:"outputs"`
	Merges        int    `json:"merges"`
	Splits        int    `json:"splits"`
	FootprintHash string `json:"footprint_hash,omitempty"`
}

// CompileResponse is the POST /compile result.
type CompileResponse struct {
	Assay        string            `json:"assay"`
	Target       string            `json:"target"`
	Fingerprint  string            `json:"fingerprint"`
	Cached       bool              `json:"cached"`
	Chip         ChipInfo          `json:"chip"`
	Stats        CompileStats      `json:"stats"`
	Summary      string            `json:"summary"`
	Sequence     *Sequence         `json:"sequence,omitempty"`
	Verification *VerificationInfo `json:"verification,omitempty"`
	ElapsedMS    float64           `json:"elapsed_ms"`

	// RequestID correlates this reply with the X-Request-Id header, the
	// access log, and the journal entry at /debug/requests/{id} (empty
	// when both the journal and logging are disabled).
	RequestID string `json:"request_id,omitempty"`
	// Trace is the compile's Chrome trace_event JSON, present when the
	// request set "trace": true.
	Trace json.RawMessage `json:"trace,omitempty"`
}

// errorResponse is the body of every non-2xx reply.
type errorResponse struct {
	Error string `json:"error"`
	Kind  string `json:"kind"`
}

// badRequestError marks client errors (malformed JSON, unparseable
// assay, bad parameters) so the handler maps them to HTTP 400.
type badRequestError struct{ err error }

func (e *badRequestError) Error() string { return e.err.Error() }
func (e *badRequestError) Unwrap() error { return e.err }

func badRequest(format string, args ...any) error {
	return &badRequestError{fmt.Errorf(format, args...)}
}

// job is a fully validated compile request: the parsed assay as
// submitted, its identity, the core config, and the cache key binding
// them.
type job struct {
	assay    *dag.Assay
	ident    *dag.Identity
	cfg      core.Config
	req      CompileRequest
	cacheKey string
	verify   bool
	faults   *faults.Set
	// fp is the fingerprint the reply reports: derived from ident by the
	// request that runs the compile, taken from the entry by the others.
	fp string
	// canonD is the request's canonicalize stage: the identity and its
	// certificate, plus the canonical form and the fingerprint when this
	// request runs the compile.
	canonD time.Duration
}

// entry is a cached compile outcome: the response with the per-request
// fields zeroed, plus the request-scoped trace of the compile that
// built it when that request asked for one (served inline for
// "trace": true requests). The cache key leaves out the assay name, so
// resp.Assay stays empty and summary holds the compile summary after
// the name; each request fills both from its own name.
type entry struct {
	resp    CompileResponse
	summary string
	spans   []obs.SpanRecord
}

// parseAssayInput decodes the assay from exactly one of the two wire
// forms (ASL text or dag JSON); errors are client mistakes (HTTP 400).
func parseAssayInput(aslText string, raw json.RawMessage) (*dag.Assay, error) {
	hasASL := strings.TrimSpace(aslText) != ""
	hasDAG := len(raw) > 0 && string(raw) != "null"
	if hasASL == hasDAG {
		return nil, badRequest("exactly one of \"asl\" or \"dag\" must be set")
	}
	if hasASL {
		a, err := asl.Parse(aslText)
		if err != nil {
			return nil, &badRequestError{err}
		}
		return a, nil
	}
	a := &dag.Assay{}
	if err := json.Unmarshal(raw, a); err != nil {
		return nil, badRequest("dag: %v", err)
	}
	if err := a.Validate(); err != nil {
		return nil, &badRequestError{err}
	}
	return a, nil
}

// prepare validates the request into a job, timing the parse stage
// onto the journal entry and its histogram. It keys the cache by the
// assay's certificate but leaves the canonical form to the request that
// runs the compile, so a cache hit never builds one.
func (s *Server) prepare(req CompileRequest, rec *journal.Entry) (*job, error) {
	tParse := time.Now()
	assay, err := parseAssayInput(req.ASL, req.DAG)
	if err != nil {
		return nil, err
	}
	dParse := time.Since(tParse)
	rec.SetStage(journal.StageParse, dParse)
	s.hStage[journal.StageParse].Observe(dParse.Seconds())

	cfg := core.Config{
		FPPCHeight:       req.Height,
		DAWidth:          req.DAWidth,
		DAHeight:         req.DAHeight,
		AutoGrow:         req.Grow,
		SingleOutputPort: req.SingleOutputPort,
		DetectorCount:    req.DetectorCount,
		Obs:              s.ob,
	}
	spec, err := core.ParseTarget(req.Target)
	if err != nil {
		return nil, &badRequestError{err}
	}
	cfg.Target = spec.ID
	// Normalize to the registered wire name so "" and "fppc" share a
	// cache entry and the response echoes the canonical spelling.
	req.Target = spec.Name
	if req.Sequence {
		if !spec.Capabilities.PinProgram {
			return nil, badRequest("sequence emission is not supported by the %s target (no pin program)", spec.Name)
		}
		rot := req.RotationsPerStep
		if rot <= 0 {
			rot = 12
		}
		req.RotationsPerStep = rot
		cfg.Router = router.Options{EmitProgram: true, RotationsPerStep: rot}
	}
	// A malformed or self-contradictory fault spec is the client's
	// mistake (400); whether the chip can absorb a well-formed spec is
	// only known after placement and maps to 422 at compile time.
	var faultSet *faults.Set
	if strings.TrimSpace(req.Faults) != "" {
		set, err := faults.ParseSpec(req.Faults)
		if err != nil {
			return nil, &badRequestError{fmt.Errorf("faults: %w", err)}
		}
		if set.Len() > 0 {
			faultSet = set
			cfg.Faults = set
		}
	}

	tCanon := time.Now()
	ident, err := assay.Identify()
	if err != nil {
		return nil, &badRequestError{err}
	}
	cert := ident.Certificate()
	dCanon := time.Since(tCanon)
	verify := req.Verify || s.cfg.ForceVerify
	// The certificate names the canonical form, which the compile runs
	// on, and leaves out the assay name and labels, which no compiled
	// artifact depends on: a renamed, relabeled or renumbered
	// resubmission is a hit. The fault component uses the set's
	// canonical String (sorted, deduplicated), so "open@5,2; dead#7" and
	// "dead#7;open@5,2" share a cache entry.
	key := fmt.Sprintf("%s|%s|h%d|da%dx%d|grow%t|single%t|det%d|seq%t|rot%d|verify%t|faults:%s",
		cert, req.Target, req.Height, req.DAWidth, req.DAHeight,
		req.Grow, req.SingleOutputPort, req.DetectorCount, req.Sequence, req.RotationsPerStep, verify,
		faultSet.String())
	return &job{assay: assay, ident: ident, cfg: cfg, req: req, cacheKey: key, verify: verify, faults: faultSet, canonD: dCanon}, nil
}

// verificationError marks a compile whose result failed the oracle — a
// server-side correctness bug, mapped to HTTP 500.
type verificationError struct{ err error }

func (e *verificationError) Error() string { return e.err.Error() }
func (e *verificationError) Unwrap() error { return e.err }

// runVerify replays the compiled result through the independent oracle
// and renders the report for the response. Declared faults are injected
// into the replay in known-fault mode: the oracle tolerates refusals the
// compiler already routed around but still fails on any real divergence.
// The oracle's simulator cross-check streams the compile's telemetry
// into tc.
func (j *job) runVerify(res *core.Result, tc *telemetry.Collector) (*VerificationInfo, error) {
	opts := oracle.Options{}
	if j.faults != nil {
		opts.Faults = j.faults
		opts.KnownFaults = true
	}
	rep, err := oracle.VerifyCollected(res, opts, tc)
	if err != nil {
		return nil, &verificationError{err}
	}
	mode := "schedule"
	if res.Routing.Program != nil {
		mode = "frames"
	}
	return &VerificationInfo{
		Ok: true, Mode: mode, Cycles: rep.Cycles,
		Dispenses: rep.Dispenses, Outputs: rep.Outputs,
		Merges: rep.Merges, Splits: rep.Splits,
		FootprintHash: rep.FootprintHash,
	}, nil
}

// buildEntry converts a compile result into the cacheable response.
func (j *job) buildEntry(res *core.Result) *entry {
	resp := CompileResponse{
		Target:      j.req.Target,
		Fingerprint: j.fp,
		Chip: ChipInfo{
			Name: res.Chip.Name, W: res.Chip.W, H: res.Chip.H,
			Electrodes: res.Chip.ElectrodeCount(), Pins: res.Chip.PinCount(),
		},
		Stats: CompileStats{
			Makespan:         res.Schedule.Makespan,
			OpSeconds:        res.OperationSeconds(),
			RoutingSeconds:   res.RoutingSeconds(),
			TotalSeconds:     res.TotalSeconds(),
			Moves:            len(res.Schedule.Moves),
			StorageMoves:     res.Schedule.StorageMoves,
			PeakStored:       res.Schedule.PeakStored,
			RouteCycles:      res.Routing.TotalCycles,
			RouteSubproblems: len(res.Routing.Boundaries),
		},
	}
	if prog := res.Routing.Program; prog != nil && j.req.Sequence {
		seq := &Sequence{PinCount: res.Chip.PinCount(), Cycles: make([][]int, prog.Len())}
		for i := 0; i < prog.Len(); i++ {
			seq.Cycles[i] = append([]int(nil), prog.Cycle(i)...)
		}
		for _, ev := range res.Routing.Events {
			kind := "dispense"
			if ev.Kind == router.EvOutput {
				kind = "output"
			}
			seq.Events = append(seq.Events, SequenceEvent{
				Cycle: ev.Cycle, Kind: kind, X: ev.Cell.X, Y: ev.Cell.Y, Fluid: ev.Fluid,
			})
		}
		resp.Sequence = seq
	}
	return &entry{resp: resp, summary: strings.TrimPrefix(res.Summary(), res.Assay.Name)}
}
