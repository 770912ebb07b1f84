package perf

import (
	"testing"
	"time"

	"fppc/internal/obs"
)

func TestCapturerHeap(t *testing.T) {
	c := NewCapturer(CaptureConfig{Obs: obs.New()})
	id := c.CaptureHeap(TriggerManual, "r00000001")
	if id == "" {
		t.Fatal("CaptureHeap returned empty id")
	}
	st, data, ok := c.Get(id)
	if !ok {
		t.Fatalf("Get(%q) not found", id)
	}
	if st.State != StateReady {
		t.Fatalf("state = %q, want ready (err=%q)", st.State, st.Error)
	}
	if len(data) == 0 || st.Bytes != len(data) {
		t.Errorf("profile bytes = %d (status says %d), want > 0 and equal", len(data), st.Bytes)
	}
	if st.Kind != KindHeap || st.Trigger != TriggerManual || st.RequestID != "r00000001" {
		t.Errorf("status = %+v, want heap/manual/r00000001", st)
	}
	if got := c.List(); len(got) != 1 || got[0].ID != id {
		t.Errorf("List = %+v, want the one capture", got)
	}
}

func TestCapturerCPU(t *testing.T) {
	c := NewCapturer(CaptureConfig{Obs: obs.New()})
	id := c.CaptureCPU(TriggerManual, "", 50*time.Millisecond)
	if id == "" {
		t.Fatal("CaptureCPU returned empty id")
	}
	st, data, ok := c.Get(id)
	if !ok || st.State != StateReady {
		t.Fatalf("capture %q state=%q ok=%v err=%q", id, st.State, ok, st.Error)
	}
	if len(data) == 0 {
		t.Error("CPU profile is empty")
	}
}

func TestCapturerRingEviction(t *testing.T) {
	c := NewCapturer(CaptureConfig{Entries: 2, Obs: obs.New()})
	a := c.CaptureHeap(TriggerManual, "")
	b := c.CaptureHeap(TriggerManual, "")
	d := c.CaptureHeap(TriggerManual, "")
	if _, _, ok := c.Get(a); ok {
		t.Errorf("oldest capture %q should have been evicted", a)
	}
	for _, id := range []string{b, d} {
		if _, _, ok := c.Get(id); !ok {
			t.Errorf("capture %q missing from ring", id)
		}
	}
	if got := c.List(); len(got) != 2 || got[0].ID != d || got[1].ID != b {
		t.Errorf("List = %+v, want [%s %s] newest first", got, d, b)
	}
}

func TestWatchdogFiresOnBreach(t *testing.T) {
	c := NewCapturer(CaptureConfig{SLOCapture: 50 * time.Millisecond, Cooldown: -1, Obs: obs.New()})
	w := c.Watch("r00000002", 5*time.Millisecond)
	time.Sleep(30 * time.Millisecond) // the "request" breaches its SLO
	id := w.Finish()
	if id == "" {
		t.Fatal("watchdog fired but Finish returned no profile id")
	}
	st, _, ok := c.Get(id)
	if !ok {
		t.Fatalf("profile %q not in ring", id)
	}
	if st.Trigger != TriggerSLO || st.Kind != KindCPU || st.RequestID != "r00000002" {
		t.Errorf("status = %+v, want cpu/slo/r00000002", st)
	}
	if st.State != StateReady {
		t.Errorf("state = %q, want ready (Finish waits for completion); err=%q", st.State, st.Error)
	}
}

func TestWatchdogFastRequestNoCapture(t *testing.T) {
	c := NewCapturer(CaptureConfig{Cooldown: -1, Obs: obs.New()})
	w := c.Watch("r00000003", time.Hour)
	if id := w.Finish(); id != "" {
		t.Errorf("fast request captured profile %q, want none", id)
	}
	if got := c.List(); len(got) != 0 {
		t.Errorf("ring has %d captures, want 0", len(got))
	}
}

func TestWatchdogCooldown(t *testing.T) {
	c := NewCapturer(CaptureConfig{SLOCapture: 20 * time.Millisecond, Cooldown: time.Hour, Obs: obs.New()})
	w1 := c.Watch("ra", time.Millisecond)
	time.Sleep(10 * time.Millisecond)
	if id := w1.Finish(); id == "" {
		t.Fatal("first breach should capture")
	}
	w2 := c.Watch("rb", time.Millisecond)
	time.Sleep(10 * time.Millisecond)
	if id := w2.Finish(); id != "" {
		t.Errorf("second breach inside cooldown captured %q, want drop", id)
	}
	if n := c.dropped("cooldown").Value(); n != 1 {
		t.Errorf("cooldown drops = %d, want 1", n)
	}
}

// TestDisabledZeroAllocs pins the disabled-profiler contract: a nil
// Capturer and nil Watchdog cost nothing on the hot path, same as the
// nil-journal and nil-observer disciplines.
func TestDisabledZeroAllocs(t *testing.T) {
	var c *Capturer
	var w *Watchdog
	got := testing.AllocsPerRun(200, func() {
		if id := c.CaptureHeap(TriggerManual, "r"); id != "" {
			t.Fatal("nil capturer captured")
		}
		if id := c.CaptureCPU(TriggerManual, "r", time.Second); id != "" {
			t.Fatal("nil capturer captured")
		}
		if wd := c.Watch("r", time.Second); wd != nil {
			t.Fatal("nil capturer armed a watchdog")
		}
		if id := w.Finish(); id != "" {
			t.Fatal("nil watchdog returned a profile")
		}
		c.List()
		c.Get("p000001")
	})
	if got != 0 {
		t.Errorf("disabled capturer allocated %.1f per run, want 0", got)
	}
}
