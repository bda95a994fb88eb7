package sim

import (
	"errors"
	"strings"
	"testing"
	"time"
)

// TestDeadlockReportABBA drives the classic AB-BA inversion and checks the
// engine turns it into a structured wait-for graph with the cycle named.
func TestDeadlockReportABBA(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	muA := NewMutex(e).SetLabel("res-A")
	muB := NewMutex(e).SetLabel("res-B")
	e.Spawn("p-ab", func(p *Proc) {
		muA.Lock(p)
		p.Sleep(time.Millisecond)
		muB.Lock(p)
		muB.Unlock(p)
		muA.Unlock(p)
	})
	e.Spawn("p-ba", func(p *Proc) {
		muB.Lock(p)
		p.Sleep(time.Millisecond)
		muA.Lock(p)
		muA.Unlock(p)
		muB.Unlock(p)
	})

	err := e.Run()
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("Run = %v, want ErrDeadlock", err)
	}
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("error %T does not unwrap to *DeadlockError", err)
	}
	if len(de.Waits) != 2 {
		t.Fatalf("Waits = %+v, want 2 entries", de.Waits)
	}
	byName := make(map[string]ProcWait)
	for _, w := range de.Waits {
		byName[w.Name] = w
	}
	ab, ba := byName["p-ab"], byName["p-ba"]
	if ab.Kind != "mutex" || ab.Resource != "res-B" || ab.HolderName != "p-ba" {
		t.Errorf("p-ab wait = %+v, want mutex res-B held by p-ba", ab)
	}
	if ba.Kind != "mutex" || ba.Resource != "res-A" || ba.HolderName != "p-ab" {
		t.Errorf("p-ba wait = %+v, want mutex res-A held by p-ab", ba)
	}
	if len(de.Cycle) != 3 || de.Cycle[0] != de.Cycle[2] {
		t.Errorf("Cycle = %v, want a closed 2-cycle", de.Cycle)
	}
	msg := err.Error()
	for _, want := range []string{"wait-for graph:", `"res-A"`, `"res-B"`, "cycle:"} {
		if !strings.Contains(msg, want) {
			t.Errorf("report missing %q:\n%s", want, msg)
		}
	}
}

// TestDeadlockReportIdleDaemonExcluded checks that a daemon parked on its
// service loop does not pollute the report, while a daemon stuck on a lock
// does appear.
func TestDeadlockReportIdleDaemonExcluded(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	mu := NewMutex(e).SetLabel("held-forever")
	e.SpawnDaemon("idle-daemon", func(p *Proc) {
		p.Suspend() // waiting for work that never comes
	})
	e.SpawnDaemon("stuck-daemon", func(p *Proc) {
		p.Sleep(time.Millisecond)
		mu.Lock(p)
		mu.Unlock(p)
	})
	e.Spawn("holder", func(p *Proc) {
		mu.Lock(p)
		p.Suspend() // never resumed: keeps the lock forever
	})

	err := e.Run()
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("Run = %v, want *DeadlockError", err)
	}
	names := make(map[string]bool)
	for _, w := range de.Waits {
		names[w.Name] = true
	}
	if names["idle-daemon"] {
		t.Errorf("idle daemon appears in report: %+v", de.Waits)
	}
	if !names["stuck-daemon"] || !names["holder"] {
		t.Errorf("report = %+v, want stuck-daemon and holder", de.Waits)
	}
}

// TestInvariantQuiescence: invariants always run when the heap drains, with
// no opt-in needed.
func TestInvariantQuiescence(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	broken := false
	e.Invariant("model-consistent", func() error {
		if broken {
			return errors.New("counter went negative")
		}
		return nil
	})
	e.Spawn("w", func(p *Proc) {
		p.Sleep(time.Millisecond)
		broken = true
	})
	err := e.Run()
	if err == nil || !strings.Contains(err.Error(), `invariant "model-consistent"`) {
		t.Fatalf("Run = %v, want invariant violation", err)
	}
}

// TestInvariantPeriodic: with an interval configured, a violation that is
// transient in virtual time is caught mid-run; without one, the quiescence
// check alone misses it.
func TestInvariantPeriodic(t *testing.T) {
	transientBreak := func(e Engine) *bool {
		broken := new(bool)
		e.Invariant("transient", func() error {
			if *broken {
				return errors.New("window violation")
			}
			return nil
		})
		e.Spawn("w", func(p *Proc) {
			p.Sleep(5 * time.Millisecond)
			*broken = true
			p.Sleep(45 * time.Millisecond)
			*broken = false
		})
		return broken
	}

	e := NewEngine(WithInvariantInterval(time.Millisecond))
	defer e.Close()
	transientBreak(e)
	if err := e.Run(); err == nil || !strings.Contains(err.Error(), `invariant "transient"`) {
		t.Fatalf("periodic Run = %v, want invariant violation", err)
	}

	// Control: the same scenario passes with only the quiescence check,
	// because the violation heals before the heap drains.
	e2 := NewEngine()
	defer e2.Close()
	transientBreak(e2)
	if err := e2.Run(); err != nil {
		t.Fatalf("quiescence-only Run = %v, want nil (violation healed)", err)
	}
}

// TestEngineEquivalenceInvariants pins where periodic invariant sweeps
// interleave with dispatch: on the seeded mixed workload the sweep count is
// fixed, and a run with sweeps is equivalent to one without, because a
// sweep observes the model but never perturbs the schedule.
func TestEngineEquivalenceInvariants(t *testing.T) {
	for _, shuffle := range []bool{false, true} {
		plain := runWorkload(t, buildMixed, 5, shuffle, 0, 0)
		swept := runWorkload(t, buildMixed, 5, shuffle, 0, 2)
		if swept.digest() != plain.digest() {
			t.Fatalf("shuffle %v: sweeps changed the run: digest %#x, want %#x", shuffle, swept.digest(), plain.digest())
		}
		if !shuffle && swept.sweeps != 7 {
			t.Fatalf("mixed workload ran %d invariant sweeps over %d events, want pinned 7", swept.sweeps, swept.events)
		}
		if swept.sweeps == 0 {
			t.Fatalf("shuffle %v: invariant never ran", shuffle)
		}
	}
}

// countingLabel is a wait label that counts how often it is rendered.
type countingLabel struct{ renders int }

func (c *countingLabel) String() string {
	c.renders++
	return "lazy-label"
}

// TestWaitStringerRendersOnlyWhenRead checks that a label recorded with
// SetWaitStringer is rendered only when WaitingOn or the deadlock report
// reads it, never by the waits themselves.
func TestWaitStringerRendersOnlyWhenRead(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	label := &countingLabel{}
	waiter := e.Spawn("waiter", func(p *Proc) {
		// Three waits that are resumed, then one that never is.
		for i := 0; i < 4; i++ {
			p.SetWaitStringer("custom", label)
			p.Suspend()
		}
	})
	e.Spawn("waker", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(time.Microsecond)
			if i == 1 {
				w, ok := waiter.WaitingOn()
				if !ok || w.Kind != "custom" || w.Resource != "lazy-label" {
					t.Errorf("WaitingOn = %+v, %v; want custom lazy-label", w, ok)
				}
			}
			waiter.Resume()
		}
	})
	err := e.Run()
	var de *DeadlockError
	if !errors.As(err, &de) || len(de.Waits) != 1 {
		t.Fatalf("Run = %v, want a deadlock report with one entry", err)
	}
	if w := de.Waits[0]; w.Kind != "custom" || w.Resource != "lazy-label" {
		t.Errorf("report entry = %+v, want custom lazy-label", w)
	}
	if label.renders != 2 {
		t.Errorf("label rendered %d times, want 2 (one WaitingOn, one report)", label.renders)
	}
}
