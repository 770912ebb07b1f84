package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"fppc/internal/fleet"
)

// FleetJobRequest is the POST /fleet/jobs body. Exactly one of ASL or
// DAG supplies the assay; Target optionally constrains the chip
// architecture ("fppc" or "da", empty = any chip in the fleet).
type FleetJobRequest struct {
	ASL    string          `json:"asl,omitempty"`
	DAG    json.RawMessage `json:"dag,omitempty"`
	Target string          `json:"target,omitempty"`
}

// FleetDegradeRequest is the POST /debug/fleet/degrade body: inject
// seeded synthetic wear into one chip (testing surface — production
// degradation arrives through the accumulated wear of placed programs).
type FleetDegradeRequest struct {
	Chip string `json:"chip"`
	Seed int64  `json:"seed"`
	// Cycles is how many further actuation cycles each chosen electrode
	// absorbs (default: the chip's rated life, guaranteeing wear-out).
	Cycles int64 `json:"cycles,omitempty"`
	// Cells is how many of the most-worn electrodes to advance
	// (default 2).
	Cells int `json:"cells,omitempty"`
}

// FleetDebugResponse is the GET /debug/fleet body: the transition log
// plus cumulative outcome totals — the flight recorder of the control
// plane.
type FleetDebugResponse struct {
	Clock     int64              `json:"clock_steps"`
	Placed    int                `json:"placed"`
	Migrated  int                `json:"migrated"`
	Failed    int                `json:"failed"`
	Completed int                `json:"completed"`
	Chips     []fleet.ChipStatus `json:"chips"`
	Events    []fleet.Event      `json:"events"`
}

// fleetUnavailable writes the 404 shared by every fleet endpoint when
// no fleet is attached to the server.
func (s *Server) fleetUnavailable(w http.ResponseWriter) bool {
	if s.fleet != nil {
		return false
	}
	writeError(w, http.StatusNotFound, "fleet_disabled",
		fmt.Errorf("the chip-fleet control plane is disabled (fppc-serve -fleet 0)"))
	return true
}

// handleFleetJobs serves /fleet/jobs: POST submits an assay to the
// control plane (202 — placement is the reconciler's job), GET lists
// every job in submission order.
func (s *Server) handleFleetJobs(w http.ResponseWriter, r *http.Request) {
	if s.fleetUnavailable(w) {
		return
	}
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, http.StatusOK, s.fleet.Jobs())
	case http.MethodPost:
		var req FleetJobRequest
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			writeError(w, http.StatusBadRequest, "bad_request", err)
			return
		}
		assay, err := parseAssayInput(req.ASL, req.DAG)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad_request", err)
			return
		}
		st, err := s.fleet.Submit(assay, req.Target)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad_request", err)
			return
		}
		writeJSON(w, http.StatusAccepted, st)
	default:
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", fmt.Errorf("GET or POST only"))
	}
}

// handleFleetJobByID serves GET /fleet/jobs/{id}.
func (s *Server) handleFleetJobByID(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", fmt.Errorf("GET only"))
		return
	}
	if s.fleetUnavailable(w) {
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/fleet/jobs/")
	if id == "" || strings.Contains(id, "/") {
		writeError(w, http.StatusBadRequest, "bad_request", fmt.Errorf("want /fleet/jobs/{id}"))
		return
	}
	st, ok := s.fleet.Job(id)
	if !ok {
		writeError(w, http.StatusNotFound, "not_found", fmt.Errorf("no job %q", id))
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleFleetChips serves GET /fleet/chips: every chip's health, fault
// set, wear, and current placements.
func (s *Server) handleFleetChips(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", fmt.Errorf("GET only"))
		return
	}
	if s.fleetUnavailable(w) {
		return
	}
	writeJSON(w, http.StatusOK, s.fleet.Chips())
}

// handleFleetDebug serves GET /debug/fleet: the event log (?n=K limits
// to the K most recent) plus outcome totals and chip state.
func (s *Server) handleFleetDebug(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", fmt.Errorf("GET only"))
		return
	}
	if s.fleetUnavailable(w) {
		return
	}
	limit := 0
	if v := r.URL.Query().Get("n"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, "bad_request", fmt.Errorf("n must be a non-negative integer, got %q", v))
			return
		}
		limit = n
	}
	placed, migrated, failed, completed := s.fleet.Counts()
	writeJSON(w, http.StatusOK, FleetDebugResponse{
		Clock:     s.fleet.Clock(),
		Placed:    placed,
		Migrated:  migrated,
		Failed:    failed,
		Completed: completed,
		Chips:     s.fleet.Chips(),
		Events:    s.fleet.Events(limit),
	})
}

// handleFleetDegrade serves POST /debug/fleet/degrade: seeded wear
// injection for exercising migration (the fleet scenario and the load
// generator drive it; the reconciler reacts exactly as it would to
// the accumulated wear of placed programs).
func (s *Server) handleFleetDegrade(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", fmt.Errorf("POST only"))
		return
	}
	if s.fleetUnavailable(w) {
		return
	}
	var req FleetDegradeRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", err)
		return
	}
	if req.Chip == "" {
		writeError(w, http.StatusBadRequest, "bad_request", fmt.Errorf("chip is required"))
		return
	}
	cycles := req.Cycles
	if cycles <= 0 {
		for _, c := range s.fleet.Chips() {
			if c.ID == req.Chip {
				cycles = c.RatedLife
			}
		}
	}
	cells := req.Cells
	if cells <= 0 {
		cells = 2
	}
	spec, err := s.fleet.AdvanceWear(req.Chip, req.Seed, cycles, cells)
	if err != nil {
		writeError(w, http.StatusNotFound, "not_found", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"chip": req.Chip, "faults": spec})
}
