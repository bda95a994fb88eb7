package sim

import (
	"fmt"
	"time"
)

// Proc is a simulated process: a goroutine that runs cooperatively under the
// engine. A Proc may only call blocking primitives (Sleep, Suspend, channel
// and mutex operations) from its own goroutine while it is the running
// process.
type Proc struct {
	e        *engine
	id       int64
	name     string
	resume   chan struct{}
	parked   chan struct{}
	finished bool
	killed   bool
	// daemon processes (message dispatchers, service loops) are expected to
	// block forever and do not count toward deadlock detection.
	daemon bool
	// waking guards against double-wakeups: a proc that is already
	// scheduled to resume must not be woken again.
	waking bool
	// waitKind/waitRes/waitHolder describe what a blocked process waits
	// for (see WaitInfo); cleared on resume.
	waitKind   string
	waitRes    string
	waitHolder *Proc
	// span is the causal-tracing span this process currently executes
	// under (an opaque span ID owned by internal/trace; zero = none). It
	// is plain data the tracer threads through blocking protocol code —
	// the engine never reads it, so it cannot perturb the schedule.
	span uint64
	// dispatchFn is the single pre-bound dispatch closure for this process,
	// created once at spawn so Sleep/wake/Yield schedule it without
	// allocating a fresh closure per call.
	dispatchFn func()
}

// Spawn starts fn as a new simulated process. The process begins running at
// the current virtual time (as a scheduled event, so the caller continues
// first). The name is used in diagnostics.
func (e *engine) Spawn(name string, fn func(p *Proc)) *Proc {
	return e.spawn(name, false, fn)
}

// SpawnDaemon starts fn as a daemon process: a service loop that is expected
// to remain blocked when the simulation quiesces, and therefore does not
// trigger deadlock detection in Run.
func (e *engine) SpawnDaemon(name string, fn func(p *Proc)) *Proc {
	return e.spawn(name, true, fn)
}

func (e *engine) spawn(name string, daemon bool, fn func(p *Proc)) *Proc {
	e.nextPID++
	p := &Proc{
		e:      e,
		id:     e.nextPID,
		name:   name,
		resume: make(chan struct{}),
		parked: make(chan struct{}),
		daemon: daemon,
	}
	p.dispatchFn = func() { e.dispatch(p) }
	e.procs[p.id] = p
	e.observeStarted(p)
	//popcornvet:allow simtime cooperative procs are implemented as parked goroutines; the engine serialises all hand-offs
	go func() {
		<-p.resume
		defer func() {
			p.finished = true
			r := recover()
			var failure error
			if r != nil {
				if err, ok := r.(error); ok && err == ErrKilled {
					// Engine shutdown: exit quietly.
				} else {
					//popcornvet:allow hotalloc fatal process-panic path; the run is already lost
					failure = fmt.Errorf("sim: process %q panicked: %v", p.name, r)
				}
			}
			delete(e.procs, p.id)
			e.observeFinished(p)
			if failure != nil {
				e.fail(failure)
			}
			p.parked <- struct{}{}
		}()
		if p.killed {
			// Engine closed before the process ever ran.
			return
		}
		fn(p)
	}()
	e.Schedule(0, p.dispatchFn)
	return p
}

// dispatch hands the CPU to p until it parks or finishes.
//
//popcornvet:hotpath
func (e *engine) dispatch(p *Proc) {
	if p.finished {
		return
	}
	prev := e.current
	e.current = p
	p.waking = false
	p.resume <- struct{}{}
	<-p.parked
	e.current = prev
}

// park returns control from the running process to the engine and blocks
// until the process is dispatched again.
func (p *Proc) park() {
	p.parked <- struct{}{}
	<-p.resume
	p.clearWaitInfo()
	if p.killed {
		panic(error(ErrKilled))
	}
}

// wake schedules p to resume at the current virtual time. It is idempotent
// while a wake is pending.
//
//popcornvet:hotpath
func (p *Proc) wake() {
	if p.waking || p.finished {
		return
	}
	p.waking = true
	p.e.observeWoken(p)
	p.e.Schedule(0, p.dispatchFn)
}

// Engine returns the engine this process runs on.
func (p *Proc) Engine() Engine { return p.e }

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// ID returns the engine-unique process id.
func (p *Proc) ID() int64 { return p.id }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.e.now }

// Span returns the causal-tracing span ID this process currently runs
// under (zero when none). The engine itself never consults it.
func (p *Proc) Span() uint64 { return p.span }

// SetSpan records the causal-tracing span ID this process now runs under.
// Only the tracer (internal/trace) should call it; the value is carried,
// never interpreted, by the simulation.
func (p *Proc) SetSpan(id uint64) { p.span = id }

// Sleep blocks the process for d of virtual time. Non-positive durations
// still yield: the process re-enters the run queue behind same-instant
// events.
//
//popcornvet:hotpath
func (p *Proc) Sleep(d time.Duration) {
	if d < 0 {
		d = 0
	}
	p.waking = true
	p.e.Schedule(d, p.dispatchFn)
	p.park()
}

// Yield gives up the CPU until all currently pending same-instant events
// have run.
func (p *Proc) Yield() { p.Sleep(0) }

// Suspend parks the process indefinitely; another process or an engine
// callback resumes it with Resume. Suspend/Resume is the low-level wait
// primitive used to build condition-variable style synchronisation.
// Callers may record what they wait for with SetWaitInfo first; otherwise
// the deadlock report shows a generic "suspend".
func (p *Proc) Suspend() {
	if p.waitKind == "" {
		p.waitKind = "suspend"
	}
	p.park()
}

// Resume wakes a process parked in Suspend. Waking a process that is not
// suspended (or already scheduled to wake) is a no-op.
func (p *Proc) Resume() { p.wake() }

// Finished reports whether the process function has returned.
func (p *Proc) Finished() bool { return p.finished }

// Kill terminates the process: the next time it would run (or immediately,
// if it is the running process) its blocking primitive panics with
// ErrKilled, which unwinds the goroutine through its defers and which the
// spawn wrapper swallows. Killing a finished or already-killed process is a
// no-op. The fault injector uses Kill to model a kernel crash: the dead
// kernel's processes halt wherever they stand, but their defers still
// release engine-level resources (waitgroup counts, tracked registries) so
// the survivors' bookkeeping stays consistent.
func (p *Proc) Kill() {
	if p.finished || p.killed {
		return
	}
	p.killed = true
	if p == p.e.current {
		panic(error(ErrKilled))
	}
	p.wake()
}
