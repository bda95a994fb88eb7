package sim

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"slices"
	"testing"
	"testing/quick"
	"time"
)

func TestEngineStartsAtZero(t *testing.T) {
	e := NewEngine()
	if got := e.Now(); got != 0 {
		t.Fatalf("Now() = %v, want 0", got)
	}
}

func TestScheduleAdvancesClock(t *testing.T) {
	e := NewEngine()
	var fired []Time
	e.Schedule(10*time.Microsecond, func() { fired = append(fired, e.Now()) })
	e.Schedule(5*time.Microsecond, func() { fired = append(fired, e.Now()) })
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(fired) != 2 {
		t.Fatalf("fired %d events, want 2", len(fired))
	}
	if fired[0] != Time(5*time.Microsecond) || fired[1] != Time(10*time.Microsecond) {
		t.Fatalf("fired at %v, want [5µs 10µs]", fired)
	}
	if e.Now() != Time(10*time.Microsecond) {
		t.Fatalf("final Now() = %v, want 10µs", e.Now())
	}
}

func TestSameInstantEventsFireInInsertionOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(time.Microsecond, func() { order = append(order, i) })
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v, want ascending", order)
		}
	}
}

func TestScheduleCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	h := e.Schedule(time.Millisecond, func() { fired = true })
	if !h.Cancel() {
		t.Fatal("Cancel returned false before firing")
	}
	if h.Cancel() {
		t.Fatal("second Cancel returned true")
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fired {
		t.Fatal("canceled event fired")
	}
}

func TestNegativeDelayClampsToNow(t *testing.T) {
	e := NewEngine()
	var at Time
	e.Schedule(-time.Second, func() { at = e.Now() })
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if at != 0 {
		t.Fatalf("event fired at %v, want 0", at)
	}
}

func TestProcSleep(t *testing.T) {
	e := NewEngine()
	var wake Time
	e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(42 * time.Microsecond)
		wake = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if wake != Time(42*time.Microsecond) {
		t.Fatalf("woke at %v, want 42µs", wake)
	}
}

func TestProcSequentialSleeps(t *testing.T) {
	e := NewEngine()
	var stamps []Time
	e.Spawn("p", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(time.Microsecond)
			stamps = append(stamps, p.Now())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []Time{Time(time.Microsecond), Time(2 * time.Microsecond), Time(3 * time.Microsecond)}
	for i := range want {
		if stamps[i] != want[i] {
			t.Fatalf("stamps = %v, want %v", stamps, want)
		}
	}
}

func TestSuspendResume(t *testing.T) {
	e := NewEngine()
	var order []string
	var sleeper *Proc
	sleeper = e.Spawn("sleeper", func(p *Proc) {
		order = append(order, "suspend")
		p.Suspend()
		order = append(order, "resumed")
	})
	e.Spawn("waker", func(p *Proc) {
		p.Sleep(time.Millisecond)
		order = append(order, "wake")
		sleeper.Resume()
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []string{"suspend", "wake", "resumed"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestRunDetectsDeadlock(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	e.Spawn("stuck", func(p *Proc) { p.Suspend() })
	err := e.Run()
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("Run = %v, want ErrDeadlock", err)
	}
}

func TestRunUntilStopsEarly(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.Schedule(time.Microsecond, func() { fired++ })
	e.Schedule(time.Second, func() { fired++ })
	if err := e.RunUntil(Time(time.Millisecond)); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if e.Now() != Time(time.Millisecond) {
		t.Fatalf("Now() = %v, want 1ms", e.Now())
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
}

func TestRunForAdvancesRelative(t *testing.T) {
	e := NewEngine()
	if err := e.RunFor(time.Second); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	if err := e.RunFor(time.Second); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	if e.Now() != Time(2*time.Second) {
		t.Fatalf("Now() = %v, want 2s", e.Now())
	}
}

func TestProcPanicPropagates(t *testing.T) {
	e := NewEngine()
	e.Spawn("bad", func(p *Proc) { panic("boom") })
	err := e.Run()
	if err == nil {
		t.Fatal("Run returned nil, want panic error")
	}
}

func TestCloseUnwindsBlockedProcs(t *testing.T) {
	e := NewEngine()
	cleaned := false
	e.Spawn("stuck", func(p *Proc) {
		defer func() { cleaned = true }()
		p.Suspend()
	})
	_ = e.Run() // deadlock expected
	e.Close()
	if !cleaned {
		t.Fatal("blocked process defer did not run on Close")
	}
}

func TestCloseBeforeFirstDispatchSkipsBody(t *testing.T) {
	e := NewEngine()
	ran := false
	e.Spawn("never", func(p *Proc) { ran = true })
	e.Close()
	if ran {
		t.Fatal("process body ran despite Close before dispatch")
	}
}

func TestSpawnDuringRun(t *testing.T) {
	e := NewEngine()
	var childAt Time
	e.Spawn("parent", func(p *Proc) {
		p.Sleep(time.Microsecond)
		e.Spawn("child", func(c *Proc) {
			c.Sleep(time.Microsecond)
			childAt = c.Now()
		})
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if childAt != Time(2*time.Microsecond) {
		t.Fatalf("child finished at %v, want 2µs", childAt)
	}
}

// digestCase is one seeded workload and the digest it must reproduce.
type digestCase struct {
	name    string
	build   func(e Engine, seed uint64) *[]uint64
	seed    uint64
	shuffle bool
	want    uint64
}

// checkPinnedDigests runs each case twice and requires identical digests
// equal to the pinned one, so a change to dispatch order, seq assignment
// or tie-shuffle draws fails even when it is self-consistent across runs.
func checkPinnedDigests(t *testing.T, cases []digestCase) {
	t.Helper()
	for _, tc := range cases {
		a := runWorkload(t, tc.build, tc.seed, tc.shuffle, 0, 0)
		b := runWorkload(t, tc.build, tc.seed, tc.shuffle, 0, 0)
		if a.digest() != b.digest() {
			t.Fatalf("%s: reruns differ: digest %#x vs %#x", tc.name, a.digest(), b.digest())
		}
		if a.digest() != tc.want {
			t.Errorf("%s: digest %#x (%d events), want pinned %#x", tc.name, a.digest(), a.events, tc.want)
		}
	}
}

func TestDeterministicSchedulesAcrossRuns(t *testing.T) {
	checkPinnedDigests(t, []digestCase{
		{"random-sleeps", buildRandomSleeps, 7, false, 0x321c402b840a1af5},
	})
}

// TestEngineEquivalenceSeeds pins the mixed workload's replay across seeds,
// with and without tie-shuffle. The digests are the ones the serial and the
// since-deleted parallel engine both produced, so the one remaining engine
// must stay equivalent to that reference schedule.
func TestEngineEquivalenceSeeds(t *testing.T) {
	checkPinnedDigests(t, []digestCase{
		{"mixed-1", buildMixed, 1, false, 0x5db634de5551c8ae},
		{"mixed-1-shuffle", buildMixed, 1, true, 0x98c6c6c4fdf1415a},
		{"mixed-2", buildMixed, 2, false, 0xb058d905e7550f41},
		{"mixed-2-shuffle", buildMixed, 2, true, 0x30aa9e4072cb6f14},
		{"mixed-3", buildMixed, 3, false, 0xd005bf863ba975a9},
		{"mixed-3-shuffle", buildMixed, 3, true, 0x30c352a7401c4fab},
	})
}

// buildRandomSleeps spawns five procs that each sleep a random number of
// microseconds drawn from the engine's source and log their wake time.
func buildRandomSleeps(e Engine, _ uint64) *[]uint64 {
	log := new([]uint64)
	for i := 0; i < 5; i++ {
		e.Spawn("w", func(p *Proc) {
			p.Sleep(time.Duration(e.Rand().Intn(100)) * time.Microsecond)
			*log = append(*log, uint64(p.Now()))
		})
	}
	return log
}

// workloadRun is the outcome of one workload run.
type workloadRun struct {
	log    []uint64
	events uint64
	now    Time
	sweeps uint64 // periodic invariant sweeps, when an interval was set
	err    error
}

// digest folds the run's event count, final clock and complete log into
// one value.
func (r workloadRun) digest() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(r.events)
	put(uint64(r.now))
	put(uint64(len(r.log)))
	for _, v := range r.log {
		put(v)
	}
	return h.Sum64()
}

// splitmix derives the mixed workload's shape from its seed, independently
// of the engine's own random source.
type splitmix struct{ s uint64 }

func (r *splitmix) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// buildMixed wires a small seeded workload onto e that exercises every
// dispatch path: sleeping procs, daemons parked in Suspend and woken with
// Resume from procs and from event callbacks, trees of same-instant
// events, and cancelled events. Every proc step and callback appends to
// the returned log, so the log is the run's observable order.
func buildMixed(e Engine, seed uint64) *[]uint64 {
	log := new([]uint64)
	note := func(v uint64) { *log = append(*log, v) }
	sr := &splitmix{s: seed}
	const n = 4
	sleepers := make([]*Proc, n)
	for k := 0; k < n; k++ {
		sleepers[k] = e.SpawnDaemon(fmt.Sprintf("sleeper-%d", k), func(p *Proc) {
			for {
				p.Suspend()
				note(0x51ee9<<40 | uint64(k)<<32 | uint64(p.Now()))
			}
		})
	}
	for k := 0; k < n; k++ {
		steps := 3 + int(sr.next()%4)
		e.Spawn(fmt.Sprintf("worker-%d", k), func(p *Proc) {
			for i := 0; i < steps; i++ {
				p.Sleep(time.Duration(e.Rand().Uint64() % 3))
				note(uint64(k)<<32 | uint64(i))
				switch i % 3 {
				case 1:
					sleepers[(k+1)%n].Resume()
				case 2:
					tag := uint64(p.Now())<<8 | uint64(k)
					e.Schedule(0, func() { note(tag) })
				}
			}
		})
	}
	var grow func(d int, tag uint64)
	grow = func(d int, tag uint64) {
		e.Schedule(time.Duration(tag%4), func() {
			draw := e.Rand().Uint64()
			note(tag ^ draw)
			if d == 0 {
				return
			}
			grow(d-1, tag*3+1)
			grow(d-1, tag*5+2)
			if draw%4 == 0 {
				h := e.Schedule(1, func() { note(^tag) })
				if draw%8 == 0 {
					h.Cancel()
				}
			}
			if draw%5 == 0 {
				sleepers[draw%n].Resume()
			}
		})
	}
	for k := 0; k < n; k++ {
		grow(3, sr.next())
	}
	return log
}

// runWorkload runs a seeded workload on a fresh engine, stopping after
// limit events when limit > 0, and counting invariant sweeps every interval
// of virtual time when interval > 0.
func runWorkload(t *testing.T, build func(Engine, uint64) *[]uint64, seed uint64, shuffle bool, limit uint64, interval time.Duration) workloadRun {
	t.Helper()
	opts := []Option{WithSeed(int64(seed))}
	if shuffle {
		opts = append(opts, WithTieShuffle())
	}
	if interval > 0 {
		opts = append(opts, WithInvariantInterval(interval))
	}
	e := NewEngine(opts...)
	defer e.Close()
	log := build(e, seed)
	sweeps := uint64(0)
	if interval > 0 {
		e.Invariant("count-sweeps", func() error {
			sweeps++
			return nil
		})
	}
	e.SetEventLimit(limit)
	err := e.Run()
	if err != nil && !errors.Is(err, ErrEventLimit) {
		t.Fatalf("seed %d shuffle %v limit %d: %v", seed, shuffle, limit, err)
	}
	return workloadRun{log: *log, events: e.EventsProcessed(), now: e.Now(), sweeps: sweeps, err: err}
}

// TestEventLimitEveryCutPoint cuts the mixed workload after every possible
// event count, with and without tie-shuffle. Run must stop with
// ErrEventLimit having processed exactly n events, and the log up to the
// cut must be a prefix of the full run's log: popcornmc's shrinker replays
// failing prefixes exactly this way.
func TestEventLimitEveryCutPoint(t *testing.T) {
	for _, shuffle := range []bool{false, true} {
		full := runWorkload(t, buildMixed, 5, shuffle, 0, 0)
		if full.err != nil || full.events < 50 {
			t.Fatalf("shuffle %v: full run: %v after %d events", shuffle, full.err, full.events)
		}
		for n := uint64(1); n < full.events; n++ {
			cut := runWorkload(t, buildMixed, 5, shuffle, n, 0)
			if !errors.Is(cut.err, ErrEventLimit) || cut.events != n {
				t.Fatalf("shuffle %v limit %d: Run = %v after %d events, want ErrEventLimit after %d",
					shuffle, n, cut.err, cut.events, n)
			}
			if len(cut.log) > len(full.log) || !slices.Equal(cut.log, full.log[:len(cut.log)]) {
				t.Fatalf("shuffle %v limit %d: cut log is not a prefix of the full log", shuffle, n)
			}
		}
	}
}

func TestEventHeapPropertyOrdering(t *testing.T) {
	// Property: popping the heap yields events in nondecreasing (time, seq)
	// order regardless of insertion order.
	f := func(delays []uint16) bool {
		var h eventHeap
		for i, d := range delays {
			h.push(&event{at: Time(d), seq: uint64(i)})
		}
		var prev *event
		for h.len() > 0 {
			ev := h.pop()
			if prev != nil {
				if ev.at < prev.at {
					return false
				}
				if ev.at == prev.at && ev.seq < prev.seq {
					return false
				}
			}
			prev = ev
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTimeHelpers(t *testing.T) {
	base := Time(time.Second)
	if got := base.Add(time.Second); got != Time(2*time.Second) {
		t.Fatalf("Add = %v", got)
	}
	if got := base.Sub(Time(time.Millisecond)); got != time.Second-time.Millisecond {
		t.Fatalf("Sub = %v", got)
	}
	if base.String() != "1s" {
		t.Fatalf("String = %q", base.String())
	}
}

func TestEventsProcessedCounts(t *testing.T) {
	e := NewEngine()
	e.Schedule(time.Microsecond, func() {})
	e.Spawn("p", func(p *Proc) { p.Sleep(time.Microsecond) })
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// One scheduled callback + spawn dispatch + sleep wake = at least 3.
	if got := e.EventsProcessed(); got < 3 {
		t.Fatalf("EventsProcessed = %d, want >= 3", got)
	}
}
