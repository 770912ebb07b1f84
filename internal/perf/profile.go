// Package perf is the compile service's triggered pprof Capturer:
// bounded CPU and heap profile captures, taken on demand or armed as a
// per-request SLO Watchdog that fires while the offending request is
// still running, stored in a fixed ring and linked to the request's
// journal entry, with the fppc_perf_* metric series accounting for
// captures and drops.
//
// Everything follows the internal/obs discipline: nil receivers are
// cheap no-ops and the disabled path allocates nothing.
package perf

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"

	"fppc/internal/obs"
)

// Trigger names why a profile was captured.
const (
	TriggerManual = "manual" // POST /debug/profile
	TriggerSLO    = "slo"    // armed watchdog fired mid-request
)

// Profile kinds.
const (
	KindCPU  = "cpu"
	KindHeap = "heap"
)

// Profile states.
const (
	StatePending = "pending" // CPU capture still running
	StateReady   = "ready"
	StateFailed  = "failed"
)

// CaptureConfig sizes a Capturer. Zero values select defaults; Cooldown
// uses the service convention of 0 = default, negative = disabled.
type CaptureConfig struct {
	// Entries bounds the profile ring (default 16). Oldest profiles are
	// evicted first.
	Entries int
	// MaxCPU caps client-requested CPU capture windows (default 30s).
	MaxCPU time.Duration
	// SLOCapture is the capture window for watchdog-triggered CPU
	// profiles (default 1s — long enough to catch a breaching compile's
	// tail, short enough to stay bounded).
	SLOCapture time.Duration
	// Cooldown is the minimum spacing between automatic (SLO) captures,
	// so a burst of slow requests does not profile continuously
	// (default 30s; negative disables the cooldown).
	Cooldown time.Duration
	// Obs receives the fppc_perf_* accounting series.
	Obs *obs.Observer
}

// ProfileStatus describes one captured (or in-flight) profile.
type ProfileStatus struct {
	ID         string    `json:"id"`
	Kind       string    `json:"kind"`    // cpu | heap
	Trigger    string    `json:"trigger"` // manual | slo
	RequestID  string    `json:"request_id,omitempty"`
	TakenAt    time.Time `json:"taken_at"`
	State      string    `json:"state"` // pending | ready | failed
	Bytes      int       `json:"bytes,omitempty"`
	DurationMS int64     `json:"duration_ms,omitempty"`
	Error      string    `json:"error,omitempty"`
}

type profileEntry struct {
	status ProfileStatus
	data   []byte
}

// Capturer takes bounded pprof captures and stores them in a fixed
// ring. Only one CPU capture runs at a time (the Go runtime rejects
// concurrent CPU profiles); competing requests are counted as dropped
// rather than queued. A nil Capturer is a no-op that never captures.
type Capturer struct {
	mu      sync.Mutex
	entries []profileEntry // ring, oldest first
	max     int
	seq     int
	busy    bool // a CPU capture is in flight
	lastSLO time.Time

	maxCPU   time.Duration
	sloCPU   time.Duration
	cooldown time.Duration

	now func() time.Time // injectable for tests

	captured  func(kind, trigger string) *obs.Counter
	dropped   func(reason string) *obs.Counter
	lastBytes *obs.Gauge
}

// NewCapturer builds a Capturer from cfg. The returned value is ready
// for concurrent use.
func NewCapturer(cfg CaptureConfig) *Capturer {
	if cfg.Entries <= 0 {
		cfg.Entries = 16
	}
	if cfg.MaxCPU <= 0 {
		cfg.MaxCPU = 30 * time.Second
	}
	if cfg.SLOCapture <= 0 {
		cfg.SLOCapture = time.Second
	}
	switch {
	case cfg.Cooldown == 0:
		cfg.Cooldown = 30 * time.Second
	case cfg.Cooldown < 0:
		cfg.Cooldown = 0
	}
	reg := cfg.Obs.Metrics()
	reg.Help("fppc_perf_profiles_total", "pprof profiles captured, by kind and trigger.")
	reg.Help("fppc_perf_profiles_dropped_total", "profile captures skipped, by reason (busy, cooldown, error).")
	reg.Help("fppc_perf_profile_last_bytes", "size of the most recently completed profile.")
	c := &Capturer{
		max:      cfg.Entries,
		maxCPU:   cfg.MaxCPU,
		sloCPU:   cfg.SLOCapture,
		cooldown: cfg.Cooldown,
		now:      time.Now,
		captured: func(kind, trigger string) *obs.Counter {
			return reg.Counter("fppc_perf_profiles_total", "kind", kind, "trigger", trigger)
		},
		dropped: func(reason string) *obs.Counter {
			return reg.Counter("fppc_perf_profiles_dropped_total", "reason", reason)
		},
		lastBytes: reg.Gauge("fppc_perf_profile_last_bytes"),
	}
	return c
}

// newEntry allocates an ID and appends a pending entry, evicting the
// oldest if the ring is full. Caller holds no locks.
func (c *Capturer) newEntry(kind, trigger, requestID string) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seq++
	id := fmt.Sprintf("p%06x", c.seq)
	if len(c.entries) >= c.max {
		c.entries = c.entries[1:]
	}
	c.entries = append(c.entries, profileEntry{status: ProfileStatus{
		ID:        id,
		Kind:      kind,
		Trigger:   trigger,
		RequestID: requestID,
		TakenAt:   c.now(),
		State:     StatePending,
	}})
	return id
}

// finish resolves a pending entry to ready or failed.
func (c *Capturer) finish(id string, data []byte, took time.Duration, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range c.entries {
		e := &c.entries[i]
		if e.status.ID != id {
			continue
		}
		e.status.DurationMS = took.Milliseconds()
		if err != nil {
			e.status.State = StateFailed
			e.status.Error = err.Error()
			c.dropped("error").Inc()
			return
		}
		e.status.State = StateReady
		e.status.Bytes = len(data)
		e.data = data
		c.captured(e.status.Kind, e.status.Trigger).Inc()
		c.lastBytes.Set(float64(len(data)))
		return
	}
	// Entry evicted while capturing; account for the capture anyway.
	if err == nil {
		c.lastBytes.Set(float64(len(data)))
	}
}

// CaptureHeap takes a heap profile (after a forced GC so the numbers
// reflect live objects) and returns its ID. Heap captures are cheap and
// never contend with CPU captures. Returns "" on a nil Capturer.
func (c *Capturer) CaptureHeap(trigger, requestID string) string {
	if c == nil {
		return ""
	}
	id := c.newEntry(KindHeap, trigger, requestID)
	start := c.now()
	runtime.GC()
	var buf bytes.Buffer
	err := pprof.Lookup("heap").WriteTo(&buf, 0)
	c.finish(id, buf.Bytes(), c.now().Sub(start), err)
	return id
}

// CaptureCPU takes a CPU profile for the given window (clamped to
// MaxCPUSeconds, default 2s when zero) and blocks until done. Returns
// "" without capturing when another CPU capture is already running, or
// on a nil Capturer.
func (c *Capturer) CaptureCPU(trigger, requestID string, window time.Duration) string {
	if c == nil {
		return ""
	}
	if window <= 0 {
		window = 2 * time.Second
	}
	if window > c.maxCPU {
		window = c.maxCPU
	}
	c.mu.Lock()
	if c.busy {
		c.mu.Unlock()
		c.dropped("busy").Inc()
		return ""
	}
	c.busy = true
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		c.busy = false
		c.mu.Unlock()
	}()

	id := c.newEntry(KindCPU, trigger, requestID)
	start := c.now()
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		// Something outside the Capturer (net/http/pprof) holds the
		// runtime's single CPU-profile slot.
		c.finish(id, nil, c.now().Sub(start), err)
		return id
	}
	time.Sleep(window)
	pprof.StopCPUProfile()
	c.finish(id, buf.Bytes(), c.now().Sub(start), nil)
	return id
}

// sloAdmit checks and advances the SLO-capture cooldown window.
func (c *Capturer) sloAdmit() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.busy {
		c.dropped("busy").Inc()
		return false
	}
	if c.cooldown > 0 && !c.lastSLO.IsZero() && c.now().Sub(c.lastSLO) < c.cooldown {
		c.dropped("cooldown").Inc()
		return false
	}
	c.lastSLO = c.now()
	return true
}

// List returns the ring's statuses, newest first. Nil-safe.
func (c *Capturer) List() []ProfileStatus {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]ProfileStatus, 0, len(c.entries))
	for i := len(c.entries) - 1; i >= 0; i-- {
		out = append(out, c.entries[i].status)
	}
	return out
}

// Get returns one profile's status and bytes. Data is non-nil only in
// the ready state. Nil-safe.
func (c *Capturer) Get(id string) (ProfileStatus, []byte, bool) {
	if c == nil {
		return ProfileStatus{}, nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range c.entries {
		if c.entries[i].status.ID == id {
			return c.entries[i].status, c.entries[i].data, true
		}
	}
	return ProfileStatus{}, nil, false
}

// Watchdog is a per-request SLO tripwire. Armed when a compile starts,
// it fires once the request has been in flight longer than the SLO —
// i.e. while the offending work is still running — and captures a short
// CPU profile of it. Finish disarms and returns the profile ID (if one
// was captured) for the caller to stamp onto the journal entry before
// commit.
type Watchdog struct {
	mu    sync.Mutex
	timer *time.Timer
	done  bool
	id    string
	wg    sync.WaitGroup
}

// Watch arms a watchdog for requestID that fires after the given delay.
// Returns nil on a nil Capturer or non-positive delay.
func (c *Capturer) Watch(requestID string, after time.Duration) *Watchdog {
	if c == nil || after <= 0 {
		return nil
	}
	w := &Watchdog{}
	w.wg.Add(1)
	w.timer = time.AfterFunc(after, func() {
		defer w.wg.Done()
		// Check the request is still in flight: a completed request that
		// lost the timer race is not breaching "now" and the profile
		// would capture unrelated work.
		w.mu.Lock()
		fired := !w.done
		w.mu.Unlock()
		if !fired || !c.sloAdmit() {
			return
		}
		id := c.CaptureCPU(TriggerSLO, requestID, c.sloCPU)
		w.mu.Lock()
		w.id = id
		w.mu.Unlock()
	})
	return w
}

// Finish disarms the watchdog and returns the captured profile ID ("" if
// the timer never fired or the capture was dropped). If the timer has
// fired, Finish waits for the capture to complete so the ID is available
// before the journal entry commits. Nil-safe.
func (w *Watchdog) Finish() string {
	if w == nil {
		return ""
	}
	w.mu.Lock()
	w.done = true
	stopped := w.timer.Stop()
	w.mu.Unlock()
	if stopped {
		// Timer never ran; release the waiter.
		w.wg.Done()
	}
	w.wg.Wait()
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.id
}
