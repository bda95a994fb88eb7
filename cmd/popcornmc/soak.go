package main

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/faultinj"
	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/msg"
	"repro/internal/osi"
	"repro/internal/sanitize"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// The soaks (-soak <name>) are the endurance tests of the recovery model
// and its two opt-in planes. Every scenario boots the same 4-kernel
// cluster with the coherence sanitizer and the causal tracer attached,
// layers its plane and fault plan over it, and runs a process whose origin
// is kernel 0: a setup thread maps and fills a few shared pages, then the
// scenario's workers churn them. Each seed must end in a fully settled
// state, checked in this order:
//
//   - the engine quiesced before the event backstop (a wedged futex waiter,
//     a leaked credit or an RPC retried forever would run into it);
//   - the run returned no error: no deadlock, no panicking proc;
//   - the sanitizer and race detector reported nothing, so the directory's
//     single-writer invariant held through every fault;
//   - Join drained the origin's member table, and Close succeeded;
//   - no thread is still live;
//   - the scenario's own checks (see each table entry) passed; their
//     verdict is reported even when a shared check failed first.
//
// A failing seed prints the sanitizer reports, the last 40 spans of its
// causal timeline and the command that replays it.

const (
	soakKernels = 4
	soakShared  = 4 // pages the setup thread fills, page i with fill+i
)

// soakScenario is one soak: only what differs between the soaks.
type soakScenario struct {
	name string
	plan func(seed int64) *faultinj.Plan
	// plane attaches the scenario's opt-in plane, before the fault plan.
	plane func(o *core.OS)
	// procs spawns raw-fabric load before the driver.
	procs func(o *core.OS)
	// mapPages sizes the process's mapping; pages past soakShared are the
	// scenario's own (tally, lock word, private write pages).
	mapPages uint64
	fill     int64
	// fanout spawns the workers once setup is done; the driver joins them.
	fanout func(p *sim.Proc, o *core.OS, pr *core.Process, base mem.Addr, seed int64) error
	// check is the scenario's end-state check on the seed's stats (and,
	// for numbers it does not print, the metrics), run after the shared
	// ones.
	check func(st map[string]uint64, m *stats.Registry) error
	// stats are printed per seed and, when labelled, summed into the
	// summary line.
	stats []soakStat
	// sweep, if set, checks the summed stats once every seed passed.
	sweep func(seeds int, total map[string]uint64) error
}

// soakStat is one number a scenario reads off the run's metrics.
type soakStat struct {
	name  string
	read  func(m *stats.Registry) uint64
	dur   bool   // print as a time.Duration
	total string // summary-line label; "" leaves it out of the summary
}

// counters reads the sum of the named counters.
func counters(names ...string) func(m *stats.Registry) uint64 {
	return func(m *stats.Registry) uint64 {
		var n uint64
		for _, name := range names {
			n += m.Counter(name).Value()
		}
		return n
	}
}

var soakScenarios = []soakScenario{
	{
		// Recoverable compute threads, roaming migrators and futex lockers
		// while kernels cycle crash → heal → crash under a partition and
		// link noise. Restarts never exceed losses (at-most-once
		// recovery), and across the sweep at least one lost thread is
		// restarted as StateRecovered; the pinned workers on the
		// crash-cycled kernels make that deterministic in practice.
		name:     "chaos",
		plan:     soakPlan,
		mapPages: soakShared + 2,
		fanout:   chaosFanout,
		check: func(st map[string]uint64, _ *stats.Registry) error {
			if st["recovered"] > st["lost"] {
				return fmt.Errorf("%d restarts for %d losses: recovery ran more than once per lost thread", st["recovered"], st["lost"])
			}
			return nil
		},
		stats: []soakStat{
			{name: "lost", read: counters("core.threads.lost"), total: "threads lost"},
			{name: "recovered", read: counters("core.threads.recovered"), total: "restarted as recovered"},
			// Printed, not asserted: evacuation is pinned by
			// internal/core TestEvacuationUnderSuspicion.
			{name: "evacuated", read: counters("core.threads.evacuated"), total: "evacuated"},
		},
		sweep: func(seeds int, total map[string]uint64) error {
			if total["recovered"] == 0 {
				return fmt.Errorf("%d seeds ran but no lost thread was ever restarted as recovered; the checkpoint-restart path is dead", seeds)
			}
			return nil
		},
	},
	{
		// The flow-control plane at ~10x the busiest links' drain rate,
		// with a gray link and a crash-heal cycle; see overloadCheck.
		name: "overload",
		plan: overloadPlan,
		plane: func(o *core.OS) {
			o.EnableFlow(msg.FlowConfig{
				CreditsPerLink: ovCredits,
				MaxCreditWait:  500 * time.Microsecond,
				// The slow window inflates Call RTTs by ~160 us; healthy
				// RTTs on this machine are tens of microseconds.
				SlowAfter:    100 * time.Microsecond,
				HealthyBelow: 50 * time.Microsecond,
				ShedSlowBulk: true,
				// Short enough that the half-open probe lands after the
				// heal but well before the run's end.
				BreakerCooldown: time.Millisecond,
			})
		},
		procs:    overloadProcs,
		mapPages: soakShared + 1,
		fanout:   overloadFanout,
		check:    overloadCheck,
		stats: []soakStat{
			{name: "maxdepth", read: counters("msg.queue.maxdepth")},
			{name: "ctrlmax", read: func(m *stats.Registry) uint64 {
				return uint64(m.Histogram("msg.flow.ctrlwait").Max())
			}, dur: true},
			{name: "shed", read: counters("msg.flow.shed", "msg.flow.backpressure"), total: "messages shed"},
		},
	},
	{
		// The origin-replication plane: kernel 0, the origin of every
		// group in the run, dies mid-replication-stream. Kernel 1 must
		// promote itself (at least one promotion per seed), no page may be
		// reclaimed as lost and no exit may complete orphaned.
		name:     "failover",
		plan:     failoverPlan,
		plane:    (*core.OS).EnableFailover,
		mapPages: soakShared + failoverWorkers + 1,
		fill:     100,
		fanout:   failoverFanout,
		check: func(st map[string]uint64, _ *stats.Registry) error {
			switch {
			case st["promotions"] == 0:
				return fmt.Errorf("the origin crash never produced a promotion")
			case st["reclaimed"] != 0:
				return fmt.Errorf("%d pages reclaimed as lost despite a live successor", st["reclaimed"])
			case st["orphaned"] != 0:
				return fmt.Errorf("%d exits completed orphaned despite a promoted origin", st["orphaned"])
			}
			return nil
		},
		stats: []soakStat{
			{name: "promotions", read: counters("msg.failover.promotions"), total: "promotions"},
			{name: "replicated", read: counters("dir.failover.replicated", "tg.failover.replicated"), total: "snapshots replicated"},
			{name: "reclaimed", read: counters("vm.pages.reclaimed")},
			{name: "orphaned", read: counters("tg.exit.orphaned")},
			// Printed, not asserted: the stale-origin fence is pinned by
			// internal/msg TestStaleOriginTrafficFenced.
			{name: "fenced", read: counters("msg.fault.staleorigin"), total: "stale-origin messages fenced"},
		},
	},
}

// soakNames lists the scenarios, for flag help and errors.
func soakNames() string {
	var names []string
	for _, sc := range soakScenarios {
		names = append(names, sc.name)
	}
	return strings.Join(names, ", ")
}

func findSoak(name string) (soakScenario, error) {
	for _, sc := range soakScenarios {
		if sc.name == name {
			return sc, nil
		}
	}
	return soakScenario{}, fmt.Errorf("unknown soak %q (want %s)", name, soakNames())
}

// soakOutcome is one soak seed's verdict.
type soakOutcome struct {
	events     uint64
	stats      map[string]uint64
	violations int
	// reports and spans explain a failing seed: the sanitizer's rendered
	// violations and the causal span collector behind the timeline.
	reports string
	spans   *trace.Collector
	err     error
}

// runSoak sweeps one scenario over seedList(seeds, seed) and fails on the
// first seed whose end state breaks an invariant.
func runSoak(sc soakScenario, seeds, seed int64, verbose bool) error {
	sweep := seedList(seeds, seed)
	var events uint64
	total := map[string]uint64{}
	for _, s := range sweep {
		out := soakOne(sc, s)
		events += out.events
		var line strings.Builder
		for _, st := range sc.stats {
			v := out.stats[st.name]
			total[st.name] += v
			if st.dur {
				fmt.Fprintf(&line, " %s=%v", st.name, time.Duration(v))
			} else {
				fmt.Fprintf(&line, " %s=%d", st.name, v)
			}
		}
		if verbose {
			fmt.Printf("%s seed=%-4d events=%-8d%s violations=%d\n", sc.name, s, out.events, line.String(), out.violations)
		}
		if out.err != nil {
			fmt.Print(out.reports)
			var tl strings.Builder
			if werr := out.spans.WriteTimeline(&tl, 40); werr == nil && tl.Len() > 0 {
				fmt.Printf("last operations before failure (seed %d):\n%s", s, tl.String())
			}
			return fmt.Errorf("%s soak seed %d: %w\nreplay with:\n\n  go run ./cmd/popcornmc -soak %s -seed %d -v", sc.name, s, out.err, sc.name, s)
		}
	}
	if sc.sweep != nil {
		if err := sc.sweep(len(sweep), total); err != nil {
			return fmt.Errorf("%s soak: %w", sc.name, err)
		}
	}
	parts := []string{fmt.Sprintf("%d events", events)}
	for _, st := range sc.stats {
		if st.total != "" {
			parts = append(parts, fmt.Sprintf("%d %s", total[st.name], st.total))
		}
	}
	fmt.Printf("%s: %d seeds clean (%s)\n", sc.name, len(sweep), strings.Join(parts, ", "))
	return nil
}

// soakOne boots the cluster, attaches the scenario's plane and fault plan,
// runs its workload under the seed, and checks the end state.
func soakOne(sc soakScenario, seed int64) soakOutcome {
	var out soakOutcome
	topo := hw.Topology{Cores: 16, NUMANodes: 2}
	machine, err := hw.NewMachine(topo, hw.DefaultCostModel())
	if err != nil {
		out.err = err
		return out
	}
	cc := kernel.DefaultClusterConfig(machine)
	cc.Kernels = soakKernels
	o, err := core.Boot(core.Config{Topology: topo, Cluster: &cc, Seed: seed, TieShuffle: true})
	if err != nil {
		out.err = err
		return out
	}
	defer o.Close()
	ck := o.AttachSanitizer(sanitize.Config{FailFast: true})
	out.spans = o.AttachTracer()
	e := o.Engine()
	// Backstop only: a healthy soak seed quiesces in well under a million
	// events; hitting the limit means something retried forever.
	e.SetEventLimit(5_000_000)
	if sc.plane != nil {
		sc.plane(o)
	}
	o.EnableFaults(sc.plan(seed), msg.FaultConfig{})
	if sc.procs != nil {
		sc.procs(o)
	}

	var joinErr, closeErr error
	e.Spawn(sc.name+"-driver", func(p *sim.Proc) {
		pr, err := o.StartProcessOn(p, 0)
		if err != nil {
			joinErr = err
			return
		}
		var base mem.Addr
		ready := sim.NewWaitGroup()
		ready.Add(1)
		if err := pr.Spawn(p, 0, func(th osi.Thread) {
			a, err := th.Mmap(sc.mapPages*hw.PageSize, mem.ProtRead|mem.ProtWrite)
			if err != nil {
				panic(err)
			}
			for i := 0; i < soakShared; i++ {
				if err := th.Store(a+mem.Addr(i*hw.PageSize), sc.fill+int64(i)); err != nil {
					panic(err)
				}
			}
			base = a
			ready.Done()
		}); err != nil {
			joinErr = err
			return
		}
		ready.Wait(p)
		if err := sc.fanout(p, o, pr, base, seed); err != nil {
			joinErr = err
			return
		}
		// Join tracks the origin's member table: it waits out lost members'
		// reaping and restarted members' full re-execution, not just the
		// first incarnations' procs.
		joinErr = pr.Join(p)
		closeErr = pr.Close(p)
	})

	err = e.Run()
	out.events = e.EventsProcessed()
	out.violations = len(ck.Violations()) + len(ck.Races())
	m := o.Metrics()
	out.stats = make(map[string]uint64, len(sc.stats))
	for _, st := range sc.stats {
		out.stats[st.name] = st.read(m)
	}
	switch {
	case errors.Is(err, sim.ErrEventLimit):
		out.err = fmt.Errorf("event limit hit: the cluster never settled: %w", err)
	case err != nil:
		out.err = err
	case out.violations > 0:
		out.err = fmt.Errorf("%d sanitizer violations", out.violations)
	case joinErr != nil:
		out.err = fmt.Errorf("join: %w", joinErr)
	case closeErr != nil:
		out.err = fmt.Errorf("close: %w", closeErr)
	case o.LiveThreads() != 0:
		out.err = fmt.Errorf("%d threads still live after quiescence", o.LiveThreads())
	}
	// The scenario's verdict is kept even behind a shared failure: a
	// worker that panicked on a dead origin reads best next to "no
	// promotion".
	out.err = errors.Join(out.err, sc.check(out.stats, m))
	if out.err != nil {
		out.reports = ck.Report()
	}
	return out
}

// seedList is the seeds a run covers: the one pinned with -seed, or 1..n.
func seedList(n, pinned int64) []int64 {
	if pinned != 0 {
		return []int64{pinned}
	}
	var seeds []int64
	for s := int64(1); s <= n; s++ {
		seeds = append(seeds, s)
	}
	return seeds
}

// soakPlan builds one chaos seed's fault schedule: two kernels cycled
// through crash → heal (kernel 1 crashes again after rejoining), a short
// partition between the two never-crashed kernels late in the run, and
// mild probabilistic noise on every link. Offsets are staggered per seed so
// the sweep explores different interleavings of detection, reclaim,
// restart and rejoin.
func soakPlan(seed int64) *faultinj.Plan {
	jit := func(i int64) time.Duration {
		return time.Duration((seed*7+i*13)%11) * 50 * time.Microsecond
	}
	plan := &faultinj.Plan{Seed: seed}
	plan.Rules = append(plan.Rules,
		// Migration traffic is exempt from link noise for the same reason as
		// the -faults sweep: crash timing exercises migration failure, and
		// the rollback-vs-crash race is unit-tested.
		faultinj.Rule{From: faultinj.Wildcard, To: faultinj.Wildcard, Type: int(msg.TypeMigrate)},
		faultinj.Rule{
			From: faultinj.Wildcard, To: faultinj.Wildcard, Type: faultinj.Wildcard,
			DropP: 0.05, DupP: 0.04, DelayP: 0.08, DelayMax: 10 * time.Microsecond,
		},
	)
	plan.Crashes = []faultinj.NodeCrash{
		{Node: 1, At: 1*time.Millisecond + jit(0)},
		{Node: 2, At: 2*time.Millisecond + jit(1)},
		{Node: 1, At: 6*time.Millisecond + jit(2)}, // re-crash after the heal below
	}
	plan.Heals = []faultinj.NodeHeal{
		{Node: 1, At: 3500*time.Microsecond + jit(3)},
		{Node: 2, At: 5*time.Millisecond + jit(4)},
		{Node: 1, At: 8*time.Millisecond + jit(5)},
	}
	// Short enough that the detector's partition-close reset prevents a
	// false declaration; long enough to enter the suspicion band. Whether a
	// roamer is on kernel 3 at that moment varies by seed; the soak does not
	// require an evacuation.
	plan.Partitions = []faultinj.Partition{
		{A: 0, B: 3, From: 9 * time.Millisecond, Until: 9*time.Millisecond + 1200*time.Microsecond + jit(6)},
	}
	return plan
}

// chaosFanout spawns the chaos workers over the shared pages, with the
// futex word and a tally on the two pages after them.
func chaosFanout(p *sim.Proc, _ *core.OS, pr *core.Process, base mem.Addr, seed int64) error {
	const (
		lockPage = soakShared     // futex word
		tallyPg  = soakShared + 1 // shared tally
	)
	// Two recoverable workers pinned to the crash-cycled kernels: they are
	// guaranteed to die with their kernel and be restarted from their
	// checkpoint at the origin.
	for i, k := range []int{1, 2} {
		if err := pr.SpawnRecoverable(p, k, func(th osi.Thread) {
			soakWork(th, base, soakShared, tallyPg, seed*100+int64(i), false)
		}); err != nil {
			return err
		}
	}
	// Two recoverable roamers starting on kernel 3: they migrate among
	// kernels 1-3, sometimes landing on a kernel shortly before it dies.
	for i := 0; i < 2; i++ {
		if err := pr.SpawnRecoverable(p, 3, func(th osi.Thread) {
			soakWork(th, base, soakShared, tallyPg, seed*100+10+int64(i), true)
		}); err != nil {
			return err
		}
	}
	// Futex lockers pinned to the origin kernel: the lock word's wait queue
	// is homed there, and a holder must never die with a remote kernel — a
	// dead holder's lock is never released (the robust-futex gap the
	// recovery model documents as out of scope).
	for i := 0; i < 2; i++ {
		if err := pr.Spawn(p, 0, func(th osi.Thread) {
			lock := base + mem.Addr(lockPage*hw.PageSize)
			tally := base + mem.Addr(tallyPg*hw.PageSize)
			for n := 0; n < 40; n++ {
				if err := soakLockAcquire(th, lock); err != nil {
					panic(err)
				}
				if _, err := th.FetchAdd(tally, 1); err != nil {
					panic(err)
				}
				th.Compute(20 * time.Microsecond)
				if err := soakLockRelease(th, lock); err != nil {
					panic(err)
				}
				th.Compute(100 * time.Microsecond)
			}
		}); err != nil {
			return err
		}
	}
	return nil
}

// soakWork is the recoverable workers' body: seeded compute/load/add churn
// against the shared pages, with optional migration among kernels 1-3.
// Restarted incarnations re-run it from the top, so it only accumulates
// (FetchAdd) and tolerates the degradation errors a fault window produces.
func soakWork(th osi.Thread, base mem.Addr, pages, tallyPg int, seed int64, roam bool) {
	r := rand.New(rand.NewSource(seed))
	tally := base + mem.Addr(tallyPg*hw.PageSize)
	for n := 0; n < 100; n++ {
		th.Compute(time.Duration(50+r.Intn(100)) * time.Microsecond)
		switch r.Intn(4) {
		case 0:
			if _, err := th.Load(base + mem.Addr(r.Intn(pages)*hw.PageSize)); err != nil && !isDegradation(err) {
				panic(err)
			}
		case 1:
			if _, err := th.FetchAdd(tally, 1); err != nil && !isDegradation(err) {
				panic(err)
			}
		case 2:
			if roam && r.Intn(3) == 0 {
				// Migration to a dead kernel fails; staying put is the
				// degradation.
				dst := 1 + r.Intn(3)
				if dst != th.KernelID() {
					_ = th.Migrate(dst)
				}
			}
		}
	}
}

// soakLockAcquire / soakLockRelease are the standard futex mutex over one
// shared word, as a soak thread uses it.
func soakLockAcquire(th osi.Thread, word mem.Addr) error {
	for {
		swapped, err := th.CompareAndSwap(word, 0, 1)
		if err != nil {
			return err
		}
		if swapped {
			return nil
		}
		if err := th.FutexWait(word, 1); err != nil && !strings.Contains(err.Error(), "value changed") {
			return err
		}
	}
}

func soakLockRelease(th osi.Thread, word mem.Addr) error {
	if err := th.Store(word, 0); err != nil {
		return err
	}
	_, err := th.FutexWake(word, 1)
	return err
}

// Overload tuning shared by the plan, the load and the checks.
const (
	ovCredits      = 8
	ovBulkSize     = 16384                 // ~4.3 us drain per message remote
	ovSendGap      = 400 * time.Nanosecond // ~10x the per-message drain cost
	ovBulkCount    = 300                   // per generator, ~6 ms of pressure
	ovCtrlDeadline = 300 * time.Microsecond
	ovEnd          = 9 * time.Millisecond
)

// overloadPlan is one seed's adversity: a slow-link window that grays the
// 0<->1 link while the generators hammer it, and a crash → heal cycle on
// kernel 2 that drives the breaker through open, half-open and close.
func overloadPlan(seed int64) *faultinj.Plan {
	jit := func(i int64) time.Duration {
		return time.Duration((seed*5+i*17)%13) * 20 * time.Microsecond
	}
	return &faultinj.Plan{
		Seed: seed,
		SlowLinks: []faultinj.SlowLink{
			// Extra is per delivery, so a Call pays it twice (request +
			// reply): RTTs inflate by ~160 us, far past the detector's
			// SlowAfter, while heartbeats merely arrive late, well inside
			// the failure detector's patience.
			{A: 0, B: 1, From: 1 * time.Millisecond, Until: 4 * time.Millisecond,
				Extra: 80 * time.Microsecond, Jitter: 10 * time.Microsecond},
		},
		Crashes: []faultinj.NodeCrash{{Node: 2, At: 2*time.Millisecond + jit(0)}},
		Heals:   []faultinj.NodeHeal{{Node: 2, At: 4*time.Millisecond + jit(1)}},
	}
}

// overloadProcs spawns the raw transport load, which rides TypeUser, a type
// no kernel service claims.
func overloadProcs(o *core.OS) {
	e, f := o.Engine(), o.Fabric()
	for k := 0; k < soakKernels; k++ {
		f.Endpoint(msg.NodeID(k)).Handle(msg.TypeUser, func(p *sim.Proc, m *msg.Message) *msg.Message {
			if m.Payload == "probe" {
				return &msg.Message{Payload: "ack"}
			}
			return nil
		})
	}

	// Bulk generators: blocking senders on the gray link (0->1) and the
	// clean link (3->0), plus a TrySend generator on the gray link that
	// sheds rather than waits. Offered load is ~10x drain: one attempted
	// message per ovSendGap against a ~4 us per-message drain cost.
	for _, link := range []struct {
		from, to msg.NodeID
		try      bool
	}{{0, 1, false}, {3, 0, false}, {0, 1, true}, {1, 3, false}} {
		e.Spawn("overload-gen", func(p *sim.Proc) {
			ep := f.Endpoint(link.from)
			for i := 0; i < ovBulkCount; i++ {
				m := &msg.Message{Type: msg.TypeUser, To: link.to, Size: ovBulkSize}
				if link.try {
					_ = ep.TrySend(p, m) // refusals are the point
				} else {
					ep.Send(p, m)
				}
				p.Sleep(ovSendGap)
			}
		})
	}

	// Probers: small Calls onto the gray link feed the detector RTT
	// samples, and three concurrent probers hammer the crash-cycled kernel.
	// Three matters: a Call already in flight when the failure detector
	// declares the peer dead completes as a breaker failure, while Calls
	// issued afterwards fast-fail before the breaker sees them — so tripping
	// BreakerFailures consecutive failures needs that many Calls pending at
	// the declaration. The half-open probe after the heal closes the cycle.
	// Errors are the expected degradation, not failures.
	for _, probe := range []struct {
		to  msg.NodeID
		gap time.Duration
	}{{1, 30 * time.Microsecond}, {2, 50 * time.Microsecond}, {2, 50 * time.Microsecond}, {2, 50 * time.Microsecond}} {
		e.Spawn("overload-probe", func(p *sim.Proc) {
			ep := f.Endpoint(0)
			for p.Now().Duration() < ovEnd {
				if _, err := ep.Call(p, &msg.Message{
					Type: msg.TypeUser, To: probe.to, Size: 64, Payload: "probe",
				}); err != nil && !isDegradation(err) {
					panic(err)
				}
				p.Sleep(probe.gap)
			}
		})
	}
}

// overloadFanout runs the chaos soak's kind of coherence churn, scaled
// down, so the sanitizer watches real VM protocol traffic share the fabric
// with the generators. The kernel-2 worker is recoverable: it dies with
// the crash and restarts from its checkpoint.
func overloadFanout(p *sim.Proc, _ *core.OS, pr *core.Process, base mem.Addr, seed int64) error {
	if err := pr.SpawnRecoverable(p, 2, func(th osi.Thread) {
		overloadWork(th, base, soakShared, seed*100)
	}); err != nil {
		return err
	}
	for i, k := range []int{1, 3} {
		if err := pr.Spawn(p, k, func(th osi.Thread) {
			overloadWork(th, base, soakShared, seed*100+1+int64(i))
		}); err != nil {
			return err
		}
	}
	return nil
}

// overloadCheck holds the flow plane to its contract under 10x load:
//
//   - the bulk backlog is bounded by construction: msg.queue.maxdepth never
//     exceeds CreditsPerLink × inbound links, whatever the offered load;
//   - the crash-cycled kernel's probe traffic drives at least one full
//     breaker cycle (open → half-open → close);
//   - the healed kernel rejoined, and no control message (heartbeat,
//     rejoin, invalidation, reply) waited behind bulk past the deadline;
//   - load was demonstrably shed (TrySend refusals or slow-link sheds),
//     not silently queued.
func overloadCheck(st map[string]uint64, m *stats.Registry) error {
	depthBound := uint64(ovCredits * (soakKernels - 1))
	opened := m.Counter("msg.flow.breaker_open").Value()
	halfOpened := m.Counter("msg.flow.breaker_halfopen").Value()
	closed := m.Counter("msg.flow.breaker_close").Value()
	ctrlMax := time.Duration(st["ctrlmax"])
	switch {
	case st["maxdepth"] > depthBound:
		return fmt.Errorf("bulk queue depth reached %d, want <= %d (credits x inbound links): flow control failed to bound the backlog", st["maxdepth"], depthBound)
	case min(opened, halfOpened, closed) == 0:
		return fmt.Errorf("no full breaker cycle (open=%d half-open=%d close=%d): the crash-heal sequence never exercised recovery", opened, halfOpened, closed)
	case m.Counter("msg.fault.rejoined").Value() == 0:
		return fmt.Errorf("the healed kernel never rejoined")
	case ctrlMax > ovCtrlDeadline:
		return fmt.Errorf("a control message waited %v behind bulk, want <= %v: the control lane starved", ctrlMax, ovCtrlDeadline)
	case st["shed"] == 0:
		return fmt.Errorf("nothing was shed at 10x offered load: backpressure never engaged")
	}
	return nil
}

// overloadWork is the coherence churn one worker runs: seeded loads,
// fetch-adds and prefetches against the shared pages. Every error a fault
// or overload window can produce is tolerated; anything else is a bug.
func overloadWork(th osi.Thread, base mem.Addr, pages int, seed int64) {
	r := sim.NewRNG(seed)
	tally := base + mem.Addr(pages*hw.PageSize)
	for n := 0; n < 60; n++ {
		th.Compute(time.Duration(30+r.Int63n(60)) * time.Microsecond)
		switch r.Int63n(3) {
		case 0:
			if _, err := th.Load(base + mem.Addr(r.Int63n(int64(pages))*hw.PageSize)); err != nil && !isDegradation(err) {
				panic(err)
			}
		case 1:
			if _, err := th.FetchAdd(tally, 1); err != nil && !isDegradation(err) {
				panic(err)
			}
		case 2:
			// Advisory prefetch (core-specific surface, not in osi.Thread):
			// sheds toward a slow origin, never errors under backpressure.
			if pf, ok := th.(interface {
				Prefetch(mem.Addr, int) (int, error)
			}); ok {
				if _, err := pf.Prefetch(base, pages); err != nil && !isDegradation(err) {
					panic(err)
				}
			}
		}
	}
}

// failoverWorkers each own a private write page after the shared ones.
const failoverWorkers = 6

// failoverPlan builds one seed's fault schedule: kernel 0 (the origin of
// every group in the run) dies relative to its own directory-commit count,
// so the crash lands mid-replication-stream at a seed-staggered point; a
// late heal brings the stale origin back as a plain replica. Mild link
// noise (delay/duplication only — no drops, so the run isolates crash
// handling from loss handling) keeps retransmissions exercised.
func failoverPlan(seed int64) *faultinj.Plan {
	plan := &faultinj.Plan{Seed: seed}
	plan.Rules = append(plan.Rules,
		faultinj.Rule{From: faultinj.Wildcard, To: faultinj.Wildcard, Type: int(msg.TypeMigrate)},
		faultinj.Rule{
			From: faultinj.Wildcard, To: faultinj.Wildcard, Type: faultinj.Wildcard,
			DupP: 0.05, DelayP: 0.10, DelayMax: 15 * time.Microsecond,
		},
	)
	plan.OriginCrashes = []faultinj.CrashOrigin{
		// The origin's commit stream counts its own local faults plus every
		// remote worker's directory transactions, so commit ~20+ lands well
		// after the workload is spread across the survivors but long before
		// it drains.
		{Node: 0, Nth: 20 + int(seed%13), After: time.Duration(seed%5) * 30 * time.Microsecond},
	}
	plan.Heals = []faultinj.NodeHeal{
		// Late enough that detection, promotion and the handover announcement
		// have long settled: the rejoin is a stale origin re-entering as a
		// plain replica.
		{Node: 0, At: 12 * time.Millisecond},
	}
	return plan
}

// failoverFanout spreads the workers over the surviving kernels, then
// waits for the promotion. Setup ran on the doomed origin before the crash
// could arm: its few commits seed the replication stream the successor
// promotes from.
func failoverFanout(p *sim.Proc, o *core.OS, pr *core.Process, base mem.Addr, seed int64) error {
	// Each worker stays on its kernel and churns the directory: reads of
	// the shared pages, writes to its own page, and atomic adds on one tally
	// word. No futexes (a lock word homed at the dead origin is the
	// documented out-of-scope gap) and no layout calls after setup: the load
	// is pure directory traffic, the thing the replication stream must
	// preserve. Fault RPCs that hit the dying origin retry inside the VM
	// layer until the promoted origin answers, so the workers see no errors
	// at all.
	tally := base + mem.Addr((soakShared+failoverWorkers)*hw.PageSize)
	for i := 0; i < failoverWorkers; i++ {
		if err := pr.Spawn(p, 1+i%3, func(th osi.Thread) {
			r := rand.New(rand.NewSource(seed*100 + int64(i)))
			own := base + mem.Addr((soakShared+i)*hw.PageSize)
			for n := 0; n < 80; n++ {
				th.Compute(time.Duration(40+r.Intn(80)) * time.Microsecond)
				switch r.Intn(3) {
				case 0:
					if _, err := th.Load(base + mem.Addr(r.Intn(soakShared)*hw.PageSize)); err != nil {
						panic(err)
					}
				case 1:
					if err := th.Store(own, int64(n)); err != nil {
						panic(err)
					}
				default:
					if _, err := th.FetchAdd(tally, 1); err != nil {
						panic(err)
					}
				}
			}
		}); err != nil {
			return err
		}
	}

	// Wait for the promotion before joining: a Join parked inside the dead
	// origin's service would wait on a condition nobody signals (the
	// documented pre-crash-Join limitation), whereas one issued after the
	// handover routes to the promoted holder.
	for o.Fabric().OriginHolder(0) == 0 {
		p.Sleep(250 * time.Microsecond)
	}
	return nil
}
