package sim

import (
	"testing"
	"time"
)

// TestScheduleDispatchZeroAllocs pins the engine's schedule→dispatch path at
// zero allocations per event in steady state. The free list is warmed by a
// first round; after that, scheduling an event, popping it off the heap, and
// running its callback must not touch the heap allocator at all. This and
// the other AllocsPerRun guards are the hot-path allocation contract
// (DESIGN.md §12).
func TestScheduleDispatchZeroAllocs(t *testing.T) {
	e := NewEngine()
	tick := func() {}
	// Warm the free list and the event heap's backing array.
	for i := 0; i < 64; i++ {
		e.Schedule(time.Duration(i)*time.Microsecond, tick)
	}
	if err := e.Run(); err != nil {
		t.Fatalf("warm-up run: %v", err)
	}

	allocs := testing.AllocsPerRun(200, func() {
		for i := 0; i < 32; i++ {
			e.Schedule(time.Duration(i)*time.Microsecond, tick)
		}
		if err := e.Run(); err != nil {
			t.Fatalf("run: %v", err)
		}
	})
	if allocs != 0 {
		t.Fatalf("schedule→dispatch steady state allocates %v allocs/op, want 0", allocs)
	}
}

// TestRunUntilZeroAllocs covers the bounded run path: the until bound is a
// plain value, not a predicate closure, so repeated RunUntil calls must also
// be allocation-free in steady state.
func TestRunUntilZeroAllocs(t *testing.T) {
	e := NewEngine()
	tick := func() {}
	for i := 0; i < 64; i++ {
		e.Schedule(time.Duration(i)*time.Microsecond, tick)
	}
	if err := e.Run(); err != nil {
		t.Fatalf("warm-up run: %v", err)
	}

	allocs := testing.AllocsPerRun(200, func() {
		for i := 0; i < 16; i++ {
			e.Schedule(time.Duration(i)*time.Microsecond, tick)
		}
		if err := e.RunUntil(e.Now().Add(time.Millisecond)); err != nil {
			t.Fatalf("run until: %v", err)
		}
	})
	if allocs != 0 {
		t.Fatalf("RunUntil steady state allocates %v allocs/op, want 0", allocs)
	}
}

// TestSleepWakeSteadyStateAllocs pins the process Sleep path: a parked
// daemon sleeping in a loop reuses its pre-bound dispatch closure and
// recycled events, so each sleep→dispatch round trip must not allocate.
func TestSleepWakeSteadyStateAllocs(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	e.SpawnDaemon("sleeper", func(p *Proc) {
		for {
			p.Sleep(time.Microsecond)
		}
	})
	// Warm-up: first rounds grow the heap, free list, and runtime stacks.
	if err := e.RunFor(100 * time.Microsecond); err != nil {
		t.Fatalf("warm-up: %v", err)
	}

	allocs := testing.AllocsPerRun(100, func() {
		if err := e.RunFor(10 * time.Microsecond); err != nil {
			t.Fatalf("run: %v", err)
		}
	})
	if allocs != 0 {
		t.Fatalf("sleep→dispatch steady state allocates %v allocs/op, want 0", allocs)
	}
}

// TestWaitStringerSuspendResumeZeroAllocs pins a labelled wait: recording
// a pre-built label with SetWaitStringer and parking on it must not
// allocate, since the label is rendered only when a report reads it.
func TestWaitStringerSuspendResumeZeroAllocs(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	label := &countingLabel{}
	waiter := e.SpawnDaemon("waiter", func(p *Proc) {
		for {
			p.SetWaitStringer("custom", label)
			p.Suspend()
		}
	})
	e.SpawnDaemon("waker", func(p *Proc) {
		for {
			p.Sleep(time.Microsecond)
			waiter.Resume()
		}
	})
	if err := e.RunFor(100 * time.Microsecond); err != nil {
		t.Fatalf("warm-up: %v", err)
	}

	allocs := testing.AllocsPerRun(100, func() {
		if err := e.RunFor(10 * time.Microsecond); err != nil {
			t.Fatalf("run: %v", err)
		}
	})
	if allocs != 0 {
		t.Fatalf("labelled suspend→resume steady state allocates %v allocs/op, want 0", allocs)
	}
	if label.renders != 0 {
		t.Fatalf("label rendered %d times with nothing reading it", label.renders)
	}
}

// TestSpawnFinishSteadyStateAllocs pins the spawn path: with the carrier
// pool warm, a spawn→sleep→finish round trip reuses a pooled coroutine and
// recycled events, so it allocates only the Proc and its pre-bound dispatch
// closure.
func TestSpawnFinishSteadyStateAllocs(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	body := func(p *Proc) { p.Sleep(time.Microsecond) }
	// Warm-up: grow the process table, heap, free list and carrier pool.
	for i := 0; i < 8; i++ {
		e.Spawn("worker", body)
	}
	if err := e.Run(); err != nil {
		t.Fatalf("warm-up: %v", err)
	}

	allocs := testing.AllocsPerRun(100, func() {
		e.Spawn("worker", body)
		if err := e.Run(); err != nil {
			t.Fatalf("run: %v", err)
		}
	})
	if allocs > 2 {
		t.Fatalf("spawn→sleep→finish steady state allocates %v allocs/op, want ≤ 2 (Proc and dispatch closure)", allocs)
	}
}

// TestStaleHandleCannotCancelRecycledEvent locks in the generation fence: a
// handle kept past its event's firing must not cancel the free-listed event
// object's next tenant.
func TestStaleHandleCannotCancelRecycledEvent(t *testing.T) {
	e := NewEngine()
	fired := 0
	h1 := e.Schedule(0, func() { fired++ })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// The event object is now on the free list; schedule again and the
	// engine reuses it.
	h2 := e.Schedule(0, func() { fired++ })
	if h1.Cancel() {
		t.Fatal("stale handle reported a successful Cancel")
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 2 {
		t.Fatalf("fired = %d, want 2 (stale handle must not cancel the recycled event)", fired)
	}
	if h2.Cancel() {
		t.Fatal("handle of an already-fired event reported a successful Cancel")
	}
}

// TestCanceledEventIsRecycled ensures cancellation feeds the free list too:
// cancel, drain, and the next Schedule must reuse the object without
// allocating.
func TestCanceledEventIsRecycled(t *testing.T) {
	e := NewEngine()
	ran := false
	h := e.Schedule(time.Second, func() { ran = true })
	if !h.Cancel() {
		t.Fatal("Cancel on a pending event returned false")
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Fatal("canceled event still ran")
	}
	if h.Cancel() {
		t.Fatal("second Cancel returned true")
	}
	allocs := testing.AllocsPerRun(100, func() {
		hh := e.Schedule(0, func() {})
		hh.Cancel()
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("cancel→recycle path allocates %v allocs/op, want 0", allocs)
	}
}

// TestZeroEventHandleCancelIsNoOp documents the zero value's behavior now
// that EventHandle is a value type.
func TestZeroEventHandleCancelIsNoOp(t *testing.T) {
	var h EventHandle
	if h.Cancel() {
		t.Fatal("zero EventHandle.Cancel() = true, want false")
	}
}
