package sim

import (
	"time"
)

// Proc is a simulated process: a function body that runs cooperatively
// under the engine on a coroutine (a pooled carrier, see carrier.go). A Proc
// may only call blocking primitives (Sleep, Suspend, channel and mutex
// operations) from its own body while it is the running process.
//
// A Proc is never reused: each Spawn makes a new one, so a stale reference
// to a finished process (a mutex holder, a pending dispatch, a waiter)
// finds it finished and cannot touch the carrier's next tenant. A body that
// calls runtime.Goexit (t.FailNow in a test) still finishes, but the
// coroutine passes the Goexit on to the goroutine running the engine, and
// its carrier is never pooled again.
type Proc struct {
	e        *engine
	id       int64
	name     string
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
	// c is the carrier running the body; nil once the process finishes.
	c *carrier
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
		daemon: daemon,
	}
	p.dispatchFn = func() { e.dispatch(p) }
	e.procs[p.id] = p
	e.observeStarted(p)
	p.c = e.takeCarrier()
	p.c.p, p.c.fn = p, fn
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
	p.c.next()
	e.current = prev
}

// park returns control from the running process to the engine and blocks
// until the process is dispatched again.
func (p *Proc) park() {
	p.c.yield(struct{}{})
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
// ErrKilled, which unwinds the body through its defers and which the
// carrier swallows. Killing a finished or already-killed process is a
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
