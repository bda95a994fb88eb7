package sim

import "time"

// LockStats records contention observed on a simulated lock. The replicated
// kernel's whole argument is about lock contention, so every lock counts it.
type LockStats struct {
	// Acquisitions is the total number of successful lock acquisitions.
	Acquisitions uint64
	// Contended counts acquisitions that had to wait.
	Contended uint64
	// TotalWait is the summed virtual time spent waiting for the lock.
	TotalWait time.Duration
	// MaxWait is the longest single wait.
	MaxWait time.Duration
	// TotalHold is the summed virtual time the lock was held.
	TotalHold time.Duration
	// MaxQueue is the deepest waiter queue observed.
	MaxQueue int
}

func (s *LockStats) recordWait(w time.Duration) {
	s.Contended++
	s.TotalWait += w
	if w > s.MaxWait {
		s.MaxWait = w
	}
}

// Mutex is a simulated mutual-exclusion lock with FIFO handoff and
// contention accounting.
type Mutex struct {
	e          *engine
	label      string
	owner      *Proc
	q          []*mutexWaiter
	acquiredAt Time
	stats      LockStats
}

type mutexWaiter struct {
	p       *Proc
	since   Time
	granted bool
}

// NewMutex returns an unlocked mutex on e.
func NewMutex(e Engine) *Mutex { return &Mutex{e: e.base()} }

// SetLabel names the mutex for deadlock reports and returns it (chainable).
func (m *Mutex) SetLabel(s string) *Mutex {
	m.label = s
	return m
}

// Lock acquires the mutex, blocking p in FIFO order behind earlier waiters.
func (m *Mutex) Lock(p *Proc) {
	if m.owner == nil {
		m.owner = p
		m.acquiredAt = m.e.now
		m.stats.Acquisitions++
		m.e.observeAcquire(p, m)
		return
	}
	if m.owner == p {
		panic("sim: recursive Mutex.Lock by owner " + p.name)
	}
	w := &mutexWaiter{p: p, since: m.e.now}
	//popcornvet:bounded one waiter per blocked process
	m.q = append(m.q, w)
	if len(m.q) > m.stats.MaxQueue {
		m.stats.MaxQueue = len(m.q)
	}
	p.SetWaitInfo("mutex", m.label, m.owner)
	p.park()
	if !w.granted {
		panic("sim: mutex waiter woken without grant")
	}
	m.stats.Acquisitions++
	m.stats.recordWait(m.e.now.Sub(w.since))
	m.e.observeAcquire(p, m)
}

// TryLock acquires the mutex if it is free, reporting success.
func (m *Mutex) TryLock(p *Proc) bool {
	if m.owner != nil {
		return false
	}
	m.owner = p
	m.acquiredAt = m.e.now
	m.stats.Acquisitions++
	m.e.observeAcquire(p, m)
	return true
}

// Unlock releases the mutex, handing ownership to the oldest waiter.
func (m *Mutex) Unlock(p *Proc) {
	if m.owner != p {
		panic("sim: Mutex.Unlock by non-owner")
	}
	m.e.observeRelease(p, m)
	m.stats.TotalHold += m.e.now.Sub(m.acquiredAt)
	if len(m.q) == 0 {
		m.owner = nil
		return
	}
	w := m.q[0]
	m.q = m.q[1:]
	w.granted = true
	m.owner = w.p
	m.acquiredAt = m.e.now
	w.p.wake()
	// Remaining waiters now wait on the new owner; keep their recorded
	// holder accurate for deadlock reports.
	for _, rest := range m.q {
		rest.p.waitHolder = m.owner
	}
}

// Owner returns the process currently holding the mutex, or nil.
func (m *Mutex) Owner() *Proc { return m.owner }

// Locked reports whether the mutex is currently held.
func (m *Mutex) Locked() bool { return m.owner != nil }

// Waiters returns the current queue depth.
func (m *Mutex) Waiters() int { return len(m.q) }

// Stats returns a snapshot of the contention counters.
func (m *Mutex) Stats() LockStats { return m.stats }

// RWMutex is a simulated reader-writer lock with writer preference: once a
// writer queues, new readers wait behind it. This mirrors the Linux
// rw_semaphore behaviour that makes mmap_sem a scalability bottleneck.
type RWMutex struct {
	e          *engine
	label      string
	readers    int
	writer     *Proc
	readQ      []*mutexWaiter
	writeQ     []*mutexWaiter
	acquiredAt Time
	stats      LockStats
}

// NewRWMutex returns an unlocked reader-writer lock on e.
func NewRWMutex(e Engine) *RWMutex { return &RWMutex{e: e.base()} }

// SetLabel names the lock for deadlock reports and returns it (chainable).
func (l *RWMutex) SetLabel(s string) *RWMutex {
	l.label = s
	return l
}

// RLock acquires the lock shared. It blocks while a writer holds the lock or
// is queued ahead.
func (l *RWMutex) RLock(p *Proc) {
	if l.writer == nil && len(l.writeQ) == 0 {
		if l.readers == 0 {
			l.acquiredAt = l.e.now
		}
		l.readers++
		l.stats.Acquisitions++
		l.e.observeAcquire(p, l)
		return
	}
	w := &mutexWaiter{p: p, since: l.e.now}
	//popcornvet:bounded one waiter per blocked process
	l.readQ = append(l.readQ, w)
	l.noteQueue()
	p.SetWaitInfo("rwmutex", l.label, l.writer)
	p.park()
	if !w.granted {
		panic("sim: rwmutex reader woken without grant")
	}
	l.stats.Acquisitions++
	l.stats.recordWait(l.e.now.Sub(w.since))
	l.e.observeAcquire(p, l)
}

// RUnlock releases a shared hold.
func (l *RWMutex) RUnlock(p *Proc) {
	if l.readers <= 0 {
		panic("sim: RUnlock with no readers")
	}
	l.e.observeRelease(p, l)
	l.readers--
	if l.readers == 0 {
		l.stats.TotalHold += l.e.now.Sub(l.acquiredAt)
		l.promote()
	}
}

// Lock acquires the lock exclusive.
func (l *RWMutex) Lock(p *Proc) {
	if l.writer == nil && l.readers == 0 {
		l.writer = p
		l.acquiredAt = l.e.now
		l.stats.Acquisitions++
		l.e.observeAcquire(p, l)
		return
	}
	if l.writer == p {
		panic("sim: recursive RWMutex.Lock by owner " + p.name)
	}
	w := &mutexWaiter{p: p, since: l.e.now}
	//popcornvet:bounded one waiter per blocked process
	l.writeQ = append(l.writeQ, w)
	l.noteQueue()
	p.SetWaitInfo("rwmutex", l.label, l.writer)
	p.park()
	if !w.granted {
		panic("sim: rwmutex writer woken without grant")
	}
	l.stats.Acquisitions++
	l.stats.recordWait(l.e.now.Sub(w.since))
	l.e.observeAcquire(p, l)
}

// Unlock releases an exclusive hold.
func (l *RWMutex) Unlock(p *Proc) {
	if l.writer != p {
		panic("sim: RWMutex.Unlock by non-owner")
	}
	l.e.observeRelease(p, l)
	l.stats.TotalHold += l.e.now.Sub(l.acquiredAt)
	l.writer = nil
	l.promote()
}

// promote hands the lock to the next writer, or to all queued readers if no
// writer waits.
func (l *RWMutex) promote() {
	if len(l.writeQ) > 0 {
		w := l.writeQ[0]
		l.writeQ = l.writeQ[1:]
		w.granted = true
		l.writer = w.p
		l.acquiredAt = l.e.now
		w.p.wake()
		for _, rest := range l.writeQ {
			rest.p.waitHolder = l.writer
		}
		for _, rest := range l.readQ {
			rest.p.waitHolder = l.writer
		}
		return
	}
	if len(l.readQ) > 0 {
		l.acquiredAt = l.e.now
		for _, w := range l.readQ {
			w.granted = true
			l.readers++
			w.p.wake()
		}
		l.readQ = nil
	}
}

func (l *RWMutex) noteQueue() {
	depth := len(l.readQ) + len(l.writeQ)
	if depth > l.stats.MaxQueue {
		l.stats.MaxQueue = depth
	}
}

// Stats returns a snapshot of the contention counters.
func (l *RWMutex) Stats() LockStats { return l.stats }

// Waiters returns the current total queue depth (readers + writers).
func (l *RWMutex) Waiters() int { return len(l.readQ) + len(l.writeQ) }
