package main

import (
	"bytes"
	"encoding/json"
	"fmt"

	"fppc/internal/asl"
	"fppc/internal/core"
	"fppc/internal/dag"
	"fppc/internal/fleet"
	"fppc/internal/grid"
	"fppc/internal/oracle"
	"fppc/internal/pins"
	"fppc/internal/router"
	"fppc/internal/service"
)

// errorReply is the body of every non-2xx service reply.
type errorReply struct {
	Error string `json:"error"`
	Kind  string `json:"kind"`
}

// checkCompile validates one POST /compile reply against the request's
// expected outcome: status and error kind; then, for a 200, the
// fingerprint of the sent assay, the cached flag, a makespan no shorter
// than the DAG's critical path, and for verified program requests an ok
// verification whose cycle count equals the returned sequence's.
func checkCompile(r *request, wantCached bool, status int, body []byte) (*service.CompileResponse, error) {
	if status != r.WantStatus {
		var e errorReply
		_ = json.Unmarshal(body, &e) // best effort: only enriches the message
		return nil, fmt.Errorf("%s on %s: status %d (%s), want %d", r.Shape, r.Target, status, e.Kind, r.WantStatus)
	}
	if status != 200 {
		var e errorReply
		if err := json.Unmarshal(body, &e); err != nil {
			return nil, fmt.Errorf("%s on %s: error body: %w", r.Shape, r.Target, err)
		}
		if e.Kind != r.WantKind {
			return nil, fmt.Errorf("%s on %s: error kind %q, want %q", r.Shape, r.Target, e.Kind, r.WantKind)
		}
		return nil, nil
	}
	var resp service.CompileResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, fmt.Errorf("%s on %s: response: %w", r.Shape, r.Target, err)
	}
	switch {
	case resp.Fingerprint != r.Fingerprint:
		return nil, fmt.Errorf("%s on %s: fingerprint %.12s, want %.12s", r.Shape, r.Target, resp.Fingerprint, r.Fingerprint)
	case resp.Target != r.Target:
		return nil, fmt.Errorf("%s: target %q, want %q", r.Shape, resp.Target, r.Target)
	case resp.Cached != wantCached:
		return nil, fmt.Errorf("%s on %s: cached=%t, want %t", r.Shape, r.Target, resp.Cached, wantCached)
	case resp.Stats.Makespan < r.CritPath:
		return nil, fmt.Errorf("%s on %s: makespan %d below the critical path %d", r.Shape, r.Target, resp.Stats.Makespan, r.CritPath)
	case r.Sequence && resp.Sequence == nil:
		return nil, fmt.Errorf("%s on %s: no sequence returned", r.Shape, r.Target)
	}
	if r.Verify {
		v := resp.Verification
		switch {
		case v == nil || !v.Ok:
			return nil, fmt.Errorf("%s on %s: verification missing or not ok", r.Shape, r.Target)
		case r.Sequence && len(resp.Sequence.Cycles) != v.Cycles:
			return nil, fmt.Errorf("%s on %s: %d sequence cycles, verification replayed %d", r.Shape, r.Target, len(resp.Sequence.Cycles), v.Cycles)
		}
	}
	return &resp, nil
}

// hitForm reduces a 200 reply to the bytes a cache hit must repeat: the
// "cached" flag and the per-request tail (elapsed_ms, request_id) are
// cut out. It also reports the cached flag.
func hitForm(body []byte) ([]byte, bool, error) {
	cached := []byte(`"cached":true,`)
	at := bytes.Index(body, cached)
	isHit := at >= 0
	if !isHit {
		cached = []byte(`"cached":false,`)
		if at = bytes.Index(body, cached); at < 0 {
			return nil, false, fmt.Errorf("reply has no cached field")
		}
	}
	tail := bytes.LastIndex(body, []byte(`,"elapsed_ms":`))
	if tail < at {
		return nil, false, fmt.Errorf("reply has no elapsed_ms field")
	}
	out := make([]byte, 0, tail-len(cached))
	out = append(out, body[:at]...)
	out = append(out, body[at+len(cached):tail]...)
	return out, isHit, nil
}

// checkHit validates a hit-workload reply against the key's set-up
// reply: same status, cached, and byte-identical apart from the
// per-request fields.
func checkHit(r *request, want []byte, status int, body []byte) error {
	if status != 200 {
		return fmt.Errorf("%s on %s: status %d, want 200", r.Shape, r.Target, status)
	}
	got, isHit, err := hitForm(body)
	if err != nil {
		return fmt.Errorf("%s on %s: %w", r.Shape, r.Target, err)
	}
	if !isHit {
		return fmt.Errorf("%s on %s: cached=false on a repeated key", r.Shape, r.Target)
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("%s on %s: reply differs from the set-up reply", r.Shape, r.Target)
	}
	return nil
}

// checkSubmit validates a POST /fleet/jobs reply: 202 with a pending job
// named after the submitted assay.
func checkSubmit(r *request, status int, body []byte) (fleet.JobStatus, error) {
	var st fleet.JobStatus
	if status != r.WantStatus {
		return st, fmt.Errorf("%s: submit status %d, want %d", r.Shape, status, r.WantStatus)
	}
	if err := json.Unmarshal(body, &st); err != nil {
		return st, fmt.Errorf("%s: submit reply: %w", r.Shape, err)
	}
	if st.ID == "" || st.State != fleet.JobPending || st.Name != r.Shape {
		return st, fmt.Errorf("%s: submit reply id=%q state=%q name=%q", r.Shape, st.ID, st.State, st.Name)
	}
	return st, nil
}

// sentAssay decodes the assay a request body carries, as the service
// does.
func sentAssay(body []byte) (*dag.Assay, service.CompileRequest, error) {
	var req service.CompileRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, req, err
	}
	if req.ASL != "" {
		a, err := asl.Parse(req.ASL)
		return a, req, err
	}
	a := &dag.Assay{}
	if err := json.Unmarshal(req.DAG, a); err != nil {
		return nil, req, err
	}
	return a, req, a.Validate()
}

// reverify replays a returned program with the independent oracle on a
// chip rebuilt from the reply's target and dims, and checks the replay
// against the sent assay (every operation happened, volume conserved).
// For verified replies the oracle's cycle count and footprint hash must
// also equal what the service reported.
func reverify(r *request, body []byte) error {
	var resp service.CompileResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return err
	}
	if resp.Sequence == nil {
		return fmt.Errorf("%s on %s: no sequence to re-verify", r.Shape, r.Target)
	}
	a, _, err := sentAssay(r.Body)
	if err != nil {
		return err
	}
	spec, err := core.ParseTarget(resp.Target)
	if err != nil {
		return err
	}
	chip, err := spec.NewChip(core.Dims{W: resp.Chip.W, H: resp.Chip.H})
	if err != nil {
		return err
	}
	if err := core.PlacePortsForAssay(chip, a); err != nil {
		return err
	}
	prog := &pins.Program{}
	for _, c := range resp.Sequence.Cycles {
		prog.Append(c...)
	}
	events := make([]router.Event, len(resp.Sequence.Events))
	for i, ev := range resp.Sequence.Events {
		kind := router.EvDispense
		if ev.Kind == "output" {
			kind = router.EvOutput
		}
		events[i] = router.Event{Cycle: ev.Cycle, Kind: kind, Cell: grid.Cell{X: ev.X, Y: ev.Y}, Fluid: ev.Fluid}
	}
	rep := oracle.Verify(chip, prog, events, oracle.Options{})
	rep.CheckAssay(a)
	if err := rep.Err(); err != nil {
		return fmt.Errorf("%s on %s: oracle re-verification: %w", r.Shape, r.Target, err)
	}
	if v := resp.Verification; v != nil && (v.Cycles != rep.Cycles || v.FootprintHash != rep.FootprintHash) {
		return fmt.Errorf("%s on %s: re-verification replayed %d cycles (%.12s), the service reported %d (%.12s)",
			r.Shape, r.Target, rep.Cycles, rep.FootprintHash, v.Cycles, v.FootprintHash)
	}
	return nil
}
