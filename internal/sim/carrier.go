//go:build go1.23

// iter.Pull arrived in Go 1.23, but the module stays at go 1.22: perfbench
// is a separate module pinned at go 1.22 that builds this package through a
// replace directive, and raising only the root go.mod breaks its build
// ("updates to go.mod needed"). The constraint above raises the language
// version of this one file instead.

package sim

import (
	"fmt"
	"iter"
)

// carrier is a coroutine that runs simulated-process bodies one at a time.
// The engine switches into it with next (dispatch) and the running body
// switches back with yield (park), so a handoff is a direct coroutine
// switch rather than a goroutine wake-up through a channel pair. When a body
// ends, the carrier returns itself to the engine's pool and waits for its
// next tenant; spawn takes carriers from that pool, so steady-state spawning
// makes no new coroutine.
type carrier struct {
	e     *engine
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
	// p and fn are the current tenant and its body; nil while pooled.
	p  *Proc
	fn func(p *Proc)
}

// takeCarrier pops a pooled carrier (LIFO, like the event free list), or
// makes a new one on a cold miss.
func (e *engine) takeCarrier() *carrier {
	if n := len(e.pool); n > 0 {
		c := e.pool[n-1]
		e.pool[n-1] = nil
		e.pool = e.pool[:n-1]
		return c
	}
	c := &carrier{e: e}
	c.next, c.stop = iter.Pull(c.loop)
	return c
}

// loop is the coroutine body: run the tenant, go back to the pool, wait for
// the next tenant. Close stops only pooled carriers, whose yield then
// returns false, which ends the loop and the coroutine. A body that leaves
// through runtime.Goexit unwinds loop too, so its carrier is never pooled.
func (c *carrier) loop(yield func(struct{}) bool) {
	c.yield = yield
	for {
		c.run()
		c.p.c = nil
		c.p, c.fn = nil, nil
		//popcornvet:bounded a carrier is pooled only when its tenant finishes, so peak live procs cap the pool
		c.e.pool = append(c.e.pool, c)
		if !yield(struct{}{}) {
			return
		}
	}
}

// run executes the current tenant's body, then the process bookkeeping:
// mark it finished, drop it from the process table, notify the observer
// and record a panic as the engine's failure. ErrKilled unwinds quietly.
func (c *carrier) run() {
	e, p := c.e, c.p
	defer func() {
		p.finished = true
		r := recover()
		var failure error
		if r != nil {
			if err, ok := r.(error); ok && err == ErrKilled {
				// Engine shutdown: exit quietly.
			} else {
				failure = fmt.Errorf("sim: process %q panicked: %v", p.name, r)
			}
		}
		delete(e.procs, p.id)
		e.observeFinished(p)
		if failure != nil {
			e.fail(failure)
		}
	}()
	if p.killed {
		// Engine closed before the process ever ran.
		return
	}
	c.fn(p)
}
