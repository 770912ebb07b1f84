package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"fppc/internal/arch"
	"fppc/internal/assays"
	"fppc/internal/dag"
	"fppc/internal/grid"
	"fppc/internal/router"
)

// TestConcurrentCompiles is the -race hammer: many goroutines compile a
// small rotation of assays across all three targets, and every result
// must match the sequential reference. Under `go test -race` this
// covers any state the compile paths share.
func TestConcurrentCompiles(t *testing.T) {
	type job struct {
		assay  *dag.Assay
		target Target
		emit   bool
	}
	tm := assays.DefaultTiming()
	jobs := []job{
		{assays.PCR(tm), TargetFPPC, true},
		{assays.InVitroN(2, tm), TargetFPPC, true},
		{assays.InVitroN(3, tm), TargetDA, false},
		{assays.PCR(tm), TargetEnhancedFPPC, true},
	}
	cfgFor := func(j job) Config {
		cfg := Config{Target: j.target, AutoGrow: true}
		if j.emit {
			cfg.Router = router.Options{EmitProgram: true, RotationsPerStep: 1}
		}
		return cfg
	}
	refs := make([]*Result, len(jobs))
	for i, j := range jobs {
		ref, err := Compile(j.assay.Clone(), cfgFor(j))
		if err != nil {
			t.Fatalf("reference compile %d: %v", i, err)
		}
		refs[i] = ref
	}

	const goroutines, iters = 8, 6
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				i := (g + it) % len(jobs)
				res, err := Compile(jobs[i].assay.Clone(), cfgFor(jobs[i]))
				if err != nil {
					errs <- fmt.Errorf("goroutine %d iter %d: %v", g, it, err)
					return
				}
				if res.Schedule.Makespan != refs[i].Schedule.Makespan ||
					res.Routing.TotalCycles != refs[i].Routing.TotalCycles ||
					res.Chip.W != refs[i].Chip.W || res.Chip.H != refs[i].Chip.H {
					errs <- fmt.Errorf("goroutine %d iter %d: result diverges from sequential reference", g, it)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// cancelOnRestrict is a FaultModel whose Restrict hook fires a context
// cancellation — a deterministic way to cancel exactly mid-compile,
// after target lookup but before scheduling starts.
type cancelOnRestrict struct{ cancel context.CancelFunc }

func (c cancelOnRestrict) Len() int                           { return 1 }
func (c cancelOnRestrict) Restrict(*arch.Chip) error          { c.cancel(); return nil }
func (c cancelOnRestrict) Blocked(*arch.Chip, grid.Cell) bool { return false }

// TestCancelMidCompileNoGoroutineLeak proves the cancellation contract
// end to end: a compile aborted in flight surfaces the typed
// *ErrCanceled, and no pipeline goroutine outlives the call.
func TestCancelMidCompileNoGoroutineLeak(t *testing.T) {
	baseline := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		a := assays.PCR(assays.DefaultTiming())
		res, err := CompileContext(ctx, a, Config{
			Target: TargetFPPC,
			Faults: cancelOnRestrict{cancel: cancel},
		})
		cancel()
		if res != nil {
			t.Fatalf("iteration %d: cancelled compile returned a result", i)
		}
		var ce *ErrCanceled
		if !errors.As(err, &ce) {
			t.Fatalf("iteration %d: err = %v (%T), want *ErrCanceled", i, err, err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("iteration %d: errors.Is(err, context.Canceled) = false", i)
		}
	}
	// Goroutine counts are eventually consistent (the runtime reaps
	// exiting goroutines asynchronously); poll briefly before judging.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d running, baseline %d", runtime.NumGoroutine(), baseline)
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}
