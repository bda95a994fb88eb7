package sim

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestStaleProcCannotTouchCarrierTenant pins the no-reuse rule for Procs:
// once A finishes, its carrier runs B, and every stale handle on A (Resume,
// Kill, a leftover dispatch event) must hit A's finished guard instead of
// waking, killing or running B.
func TestStaleProcCannotTouchCarrierTenant(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	var carrierA *carrier
	a := e.Spawn("a", func(p *Proc) { carrierA = p.c })
	if err := e.Run(); err != nil {
		t.Fatalf("run a: %v", err)
	}
	if !a.Finished() {
		t.Fatal("a did not finish")
	}

	entered, resumed := 0, false
	b := e.SpawnDaemon("b", func(p *Proc) {
		entered++
		p.Suspend()
		resumed = true
	})
	if b.c != carrierA {
		t.Fatal("b did not reuse a's carrier")
	}
	if err := e.Run(); err != nil {
		t.Fatalf("run b to its suspend: %v", err)
	}

	a.Resume()
	a.Kill()
	e.Schedule(0, a.dispatchFn)
	if err := e.Run(); err != nil {
		t.Fatalf("run stale handles: %v", err)
	}
	if entered != 1 || resumed || b.Finished() || b.killed {
		t.Fatalf("stale a reached b: entered=%d resumed=%v finished=%v killed=%v",
			entered, resumed, b.Finished(), b.killed)
	}

	b.Resume()
	if err := e.Run(); err != nil {
		t.Fatalf("resume b: %v", err)
	}
	if !resumed || !b.Finished() {
		t.Fatalf("b after Resume: resumed=%v finished=%v, want both", resumed, b.Finished())
	}
}

// TestCarrierReusedAfterPanic checks that a recovered process panic returns
// the carrier to the pool intact: the next process on it runs, blocks and
// finishes normally.
func TestCarrierReusedAfterPanic(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	var carrierBad *carrier
	e.Spawn("bad", func(p *Proc) {
		carrierBad = p.c
		panic("boom")
	})
	err := e.Run()
	if err == nil || !strings.Contains(err.Error(), `process "bad" panicked: boom`) {
		t.Fatalf("Run = %v, want the bad process's panic", err)
	}

	steps := 0
	next := e.Spawn("next", func(p *Proc) {
		steps++
		p.Sleep(time.Microsecond)
		steps++
	})
	if next.c != carrierBad {
		t.Fatal("next did not reuse the panicked process's carrier")
	}
	// The engine keeps reporting its first failure, so each Run stops after
	// one event; drive the survivor to completion a step at a time.
	for i := 0; i < 4 && !next.Finished(); i++ {
		if err := e.Run(); err == nil {
			t.Fatal("Run forgot the recorded failure")
		}
	}
	if steps != 2 || !next.Finished() {
		t.Fatalf("next after reuse: steps=%d finished=%v, want 2 and true", steps, next.Finished())
	}
	if pool := e.base().pool; len(pool) != 1 || pool[0] != carrierBad {
		t.Fatalf("pool holds %d carriers, want the reused one back", len(pool))
	}
}

// TestCloseLeavesNoGoroutines builds and closes many engines, each with
// finished processes, a parked daemon and a process Close kills before it
// ever ran, and requires the goroutine count to return to its baseline:
// Close must stop every pooled carrier.
func TestCloseLeavesNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		e := NewEngine()
		for j := 0; j < 3; j++ {
			e.Spawn("worker", func(p *Proc) { p.Sleep(time.Microsecond) })
		}
		e.SpawnDaemon("daemon", func(p *Proc) { p.Suspend() })
		if err := e.Run(); err != nil {
			t.Fatalf("engine %d: %v", i, err)
		}
		ran := false
		e.Spawn("unrun", func(p *Proc) { ran = true })
		e.Close()
		if ran {
			t.Fatalf("engine %d: a process spawned before Close ran", i)
		}
	}
	// A stopped coroutine's goroutine exits during stop; poll briefly in
	// case the runtime accounts for it a moment later.
	got := runtime.NumGoroutine()
	for tries := 0; got > base && tries < 200; tries++ {
		time.Sleep(5 * time.Millisecond)
		got = runtime.NumGoroutine()
	}
	if got > base {
		t.Fatalf("%d goroutines after closing 50 engines, want at most the baseline %d", got, base)
	}
}
