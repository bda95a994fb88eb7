package sim

import (
	"errors"
	"fmt"
	"sort"
	"time"
)

// Time is a point in virtual time, in nanoseconds since engine start.
type Time int64

// Add returns the time d after t.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration between t and u (t - u).
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

// Duration converts t to a duration since the engine epoch.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// String formats t as a duration since the engine epoch (e.g. "1.5ms").
func (t Time) String() string { return time.Duration(t).String() }

// ErrKilled is the panic value used to unwind a process body when the
// engine shuts down. User code never observes it: the process's carrier
// recovers it when the body returns.
var ErrKilled = errors.New("sim: process killed by engine shutdown")

// ErrDeadlock is returned by Run when processes remain blocked but no events
// are pending, so virtual time can never advance again.
var ErrDeadlock = errors.New("sim: deadlock: blocked processes with no pending events")

// ErrEventLimit is returned by Run when the engine stops because it reached
// the limit set with SetEventLimit. Schedule exploration uses it to replay a
// bounded prefix of a run.
var ErrEventLimit = errors.New("sim: event limit reached")

type event struct {
	at  Time
	seq uint64
	// prio breaks ties between same-instant events. By default prio == seq
	// (insertion order); under WithTieShuffle it is a seeded random draw, so
	// different seeds explore different interleavings of logically
	// concurrent events while each seed stays fully deterministic.
	prio uint64
	fn   func()
	// canceled events stay in the heap but are skipped on pop.
	canceled bool
	// gen counts the event object's reincarnations through the engine's
	// free list. An EventHandle captures the generation at Schedule time, so
	// a stale handle kept past its event's firing can never cancel the
	// object's next tenant.
	gen uint64
}

// Engine is a deterministic discrete-event simulation engine: one
// goroutine at a time drains the event heap in (time, prio, seq) order, so
// the same seed and workload always yield the same run. NewEngine returns
// its only implementation.
//
// All Engine methods must be called either from outside Run (to set up the
// simulation) or from within a running process; the engine is not safe for
// concurrent use from arbitrary goroutines.
type Engine interface {
	// Now returns the current virtual time.
	Now() Time
	// Rand returns the engine's deterministic random source.
	Rand() *RNG
	// Seed returns the seed the engine's random source was created with.
	Seed() int64
	// TieShuffle reports whether same-instant events fire in seeded random
	// order (WithTieShuffle) rather than insertion order.
	TieShuffle() bool
	// SetEventLimit makes Run stop with ErrEventLimit after n events have
	// been processed over the engine's lifetime (0 disables the limit).
	SetEventLimit(n uint64)
	// Err returns the first failure (process panic) recorded by the engine.
	Err() error
	// EventsProcessed returns how many events the engine has dispatched.
	EventsProcessed() uint64
	// Schedule arranges for fn to run at time now+d. It returns a handle
	// that can cancel the callback before it fires.
	Schedule(d time.Duration, fn func()) EventHandle
	// Spawn starts fn as a new simulated process.
	Spawn(name string, fn func(p *Proc)) *Proc
	// SpawnDaemon starts fn as a daemon process.
	SpawnDaemon(name string, fn func(p *Proc)) *Proc
	// Run drains the event heap, advancing virtual time, until no events
	// remain or a process panics.
	Run() error
	// RunUntil processes events with timestamps <= t, then advances the
	// clock to t.
	RunUntil(t Time) error
	// RunFor processes events for d of virtual time from the current clock.
	RunFor(d time.Duration) error
	// Close terminates all live processes and their carriers.
	Close()
	// BlockedProcs returns the names of non-daemon processes that are alive
	// but blocked, in PID order.
	BlockedProcs() []string
	// Invariant registers a named model check run at quiescence (and
	// periodically under WithInvariantInterval).
	Invariant(name string, fn func() error)
	// SetProcObserver installs the process lifecycle observer.
	SetProcObserver(o ProcObserver)
	// AfterFunc schedules fn after d and returns a stoppable Timer.
	AfterFunc(d time.Duration, fn func()) *Timer
	// NewTimer returns a Timer that fires on its channel after d.
	NewTimer(d time.Duration) *Timer

	// base seals the interface to this package and hands the primitives
	// (Mutex, Chan, ...) the concrete engine.
	base() *engine
}

// engine is the implementation of Engine.
type engine struct {
	now       Time
	seq       uint64
	heap      eventHeap
	rng       *RNG
	shuffle   bool
	limit     uint64
	observer  ProcObserver
	procs     map[int64]*Proc
	nextPID   int64
	current   *Proc
	failure   error
	closed    bool
	processed uint64

	// free is the engine-owned event free list. Fired and canceled events
	// are recycled through it (LIFO), so steady-state scheduling allocates
	// nothing. A plain slice keeps recycling deterministic — sync.Pool
	// would let wall-clock GC timing decide which objects survive.
	free []*event
	// pool holds idle process carriers (carrier.go), LIFO, for the same
	// reason: steady-state spawning reuses coroutines instead of making
	// new ones.
	pool []*carrier

	// invariants are the registered model checks; invInterval > 0 enables
	// the periodic sweep, nextInvCheck is its high-water mark.
	invariants   []invariant
	invInterval  time.Duration
	nextInvCheck Time
}

// Option configures an Engine.
type Option func(*engine)

// WithSeed sets the seed for the engine's deterministic random source.
func WithSeed(seed int64) Option {
	return func(e *engine) { e.rng = NewRNG(seed) }
}

// WithTieShuffle makes same-instant events fire in a seeded random order
// instead of insertion order. Each seed still yields one fixed schedule, so
// a run is replayable from (seed, workload) alone; popcornmc sweeps seeds to
// explore interleavings the default schedule never exercises.
func WithTieShuffle() Option {
	return func(e *engine) { e.shuffle = true }
}

// NewEngine returns a new engine with virtual time zero.
func NewEngine(opts ...Option) Engine {
	e := &engine{
		rng:   NewRNG(1),
		procs: make(map[int64]*Proc),
	}
	for _, opt := range opts {
		opt(e)
	}
	return e
}

// Now returns the current virtual time.
func (e *engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random source. It must only be
// used from simulation processes or between Run calls.
func (e *engine) Rand() *RNG { return e.rng }

// Seed returns the seed the engine's random source was created with.
func (e *engine) Seed() int64 { return e.rng.Seed() }

// TieShuffle reports whether same-instant events fire in seeded random
// order (WithTieShuffle) rather than insertion order.
func (e *engine) TieShuffle() bool { return e.shuffle }

// SetEventLimit makes Run stop with ErrEventLimit after n events have been
// processed over the engine's lifetime (0 disables the limit). Schedule
// shrinking binary-searches this bound for the shortest failing prefix.
func (e *engine) SetEventLimit(n uint64) { e.limit = n }

// Err returns the first failure (process panic) recorded by the engine.
func (e *engine) Err() error { return e.failure }

// EventsProcessed returns how many events the engine has dispatched — a
// measure of simulation work, useful for harness footers and regression
// tracking.
func (e *engine) EventsProcessed() uint64 { return e.processed }

func (e *engine) base() *engine { return e }

// Schedule arranges for fn to run at time now+d on the engine loop. It
// returns a handle that can cancel the callback before it fires. fn runs in
// engine context: it must not block on simulator primitives, but it may
// spawn processes, wake waiters, and schedule further events.
//
//popcornvet:hotpath
func (e *engine) Schedule(d time.Duration, fn func()) EventHandle {
	if d < 0 {
		d = 0
	}
	ev := e.allocEvent()
	ev.at = e.now.Add(d)
	ev.seq = e.nextSeq()
	ev.fn = fn
	if e.shuffle {
		ev.prio = e.rng.Uint64()
	} else {
		ev.prio = ev.seq
	}
	e.heap.push(ev)
	return EventHandle{ev: ev, gen: ev.gen}
}

// allocEvent takes an event object off the free list, or allocates one on a
// cold miss. The returned event keeps only its gen counter; all scheduling
// fields are set by the caller.
//
//popcornvet:hotpath
func (e *engine) allocEvent() *event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return ev
	}
	//popcornvet:allow hotalloc free-list cold miss; steady state recycles
	return &event{}
}

// recycle returns a fired or canceled event to the free list, bumping its
// generation so outstanding handles go stale.
//
//popcornvet:hotpath
func (e *engine) recycle(ev *event) {
	ev.gen++
	ev.fn = nil
	ev.canceled = false
	//popcornvet:bounded free list: grows only when an event retires, so peak live events cap it
	//popcornvet:allow hotalloc free-list growth is amortized; capacity is retained
	e.free = append(e.free, ev)
}

// EventHandle allows cancelling a scheduled callback. It is a value: copies
// are equivalent, and the zero handle cancels nothing. A handle goes stale
// once its event fires or is canceled; Cancel on a stale handle is a safe
// no-op even after the engine recycles the underlying event object.
type EventHandle struct {
	ev  *event
	gen uint64
}

// Cancel prevents the callback from firing. It reports whether the callback
// had not yet fired (and is now guaranteed not to).
func (h EventHandle) Cancel() bool {
	if h.ev == nil || h.ev.gen != h.gen || h.ev.canceled || h.ev.fn == nil {
		return false
	}
	h.ev.canceled = true
	return true
}

func (e *engine) nextSeq() uint64 {
	e.seq++
	return e.seq
}

// Run drains the event heap, advancing virtual time, until no events remain
// or a process panics. It returns ErrDeadlock if blocked processes remain
// while the heap is empty, and the panic error if a process failed.
func (e *engine) Run() error {
	return e.drive(0, false)
}

// RunUntil processes events with timestamps <= t, then advances the clock to
// t. Events after t remain queued. Unlike Run, processes left blocked at t
// are not a deadlock: more work may be scheduled before the next RunUntil.
func (e *engine) RunUntil(t Time) error {
	err := e.drive(t, true)
	if err != nil && !errors.Is(err, ErrDeadlock) {
		return err
	}
	if e.now < t {
		e.now = t
	}
	return nil
}

// RunFor processes events for d of virtual time from the current clock.
func (e *engine) RunFor(d time.Duration) error { return e.RunUntil(e.now.Add(d)) }

// drive is the dispatch loop. With bounded set, it stops once the next
// event lies beyond until; the bound is a plain value rather than a
// predicate closure so repeated RunUntil calls stay allocation-free. The
// per-event work happens in step, which carries the hot-path root; the loop
// shell itself allocates only on the misuse/fatal paths.
func (e *engine) drive(until Time, bounded bool) error {
	if e.closed {
		return errors.New("sim: engine is closed")
	}
	for e.heap.len() > 0 && (!bounded || e.heap.peek().at <= until) {
		if e.limit > 0 && e.processed >= e.limit {
			return ErrEventLimit
		}
		if err, stop := e.step(); stop {
			return err
		}
	}
	return e.quiesce()
}

// step pops and dispatches exactly one event, in canonical order, then runs
// the periodic invariant sweep if it is due.
//
//popcornvet:hotpath
func (e *engine) step() (error, bool) {
	ev := e.heap.pop()
	if ev.canceled {
		e.recycle(ev)
		return nil, false
	}
	if ev.at < e.now {
		//popcornvet:allow hotalloc fatal-error path; the run is already lost
		return fmt.Errorf("sim: event scheduled in the past (%v < %v)", ev.at, e.now), true
	}
	e.now = ev.at
	e.processed++
	fn := ev.fn
	e.recycle(ev)
	fn()
	if e.failure != nil {
		return e.failure, true
	}
	if e.invInterval > 0 && len(e.invariants) > 0 && e.now >= e.nextInvCheck {
		e.checkInvariants()
		e.nextInvCheck = e.now + Time(e.invInterval)
		if e.failure != nil {
			return e.failure, true
		}
	}
	return nil, false
}

// quiesce runs the end-of-heap checks: the model should be consistent
// whenever no work is in flight, and non-daemon processes still blocked
// with no pending events are a deadlock.
func (e *engine) quiesce() error {
	if e.heap.len() == 0 {
		e.checkInvariants()
		if e.failure != nil {
			return e.failure
		}
		if e.blockedCount() > 0 {
			return e.buildDeadlockError()
		}
	}
	return nil
}

func (e *engine) blockedCount() int {
	n := 0
	for _, p := range e.procs {
		if !p.finished && !p.daemon {
			n++
		}
	}
	return n
}

// procsByID returns the live process table in ascending PID order. Every
// loop whose side effects are order-visible (collecting names, building
// error reports, tearing processes down) iterates through this instead of
// ranging the map directly, so runs stay bit-identical.
func (e *engine) procsByID() []*Proc {
	out := make([]*Proc, 0, len(e.procs))
	for _, p := range e.procs {
		out = append(out, p)
	}
	//popcornvet:allow detorder PIDs are allocated uniquely, so the single key is total
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// BlockedProcs returns the names of non-daemon processes that are alive but
// blocked, in PID order.
func (e *engine) BlockedProcs() []string {
	var names []string
	for _, p := range e.procsByID() {
		if !p.finished && !p.daemon {
			names = append(names, p.name)
		}
	}
	return names
}

// Close terminates all live processes and their carriers, so a closed
// engine leaves no goroutine behind. The engine cannot be used afterwards.
// It is safe to call multiple times.
func (e *engine) Close() {
	if e.closed {
		return
	}
	e.closed = true
	for _, p := range e.procsByID() {
		if p.finished {
			continue
		}
		p.killed = true
		// Resume the body; its blocking primitive panics with ErrKilled,
		// which the carrier swallows before returning to the pool.
		p.c.next()
	}
	for _, c := range e.pool {
		c.stop()
	}
	e.pool = nil
}

// fail records the first failure.
func (e *engine) fail(err error) {
	if e.failure == nil {
		e.failure = err
	}
}
