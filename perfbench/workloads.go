package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime/metrics"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/msg"
	"repro/internal/multikernel"
	"repro/internal/osi"
	"repro/internal/sim"
	"repro/internal/smp"
	"repro/internal/stats"
	"repro/internal/threadgroup"
	"repro/internal/workload"
)

// counterNames are the modeled counters read from OS.Metrics() after each
// cycle's workload. They are deterministic, so a change that only makes
// the simulator faster must leave every one exactly equal.
var counterNames = [...]string{
	"msg.sent", "msg.rpc", "msg.delivered",
	"futex.remote", "futex.eagain",
	"vm.fault.local", "vm.fault.remote", "vm.page.transfer", "vm.inval.sent",
	"tg.spawn.local", "tg.spawn.remote",
}

type counters [len(counterNames)]uint64

// modeled is everything a cycle produces in virtual time: the workload's
// Result (ops and virtual elapsed time) and the modeled counters. It is
// comparable, so two runs of one input can be checked with ==.
type modeled struct {
	Ops      uint64
	Virt     time.Duration
	Counters counters
}

func (m *modeled) add(o modeled) {
	m.Ops += o.Ops
	m.Virt += o.Virt
	for i := range m.Counters {
		m.Counters[i] += o.Counters[i]
	}
}

func (m modeled) String() string {
	s := fmt.Sprintf("ops=%d virt=%dns", m.Ops, m.Virt.Nanoseconds())
	for i, n := range counterNames {
		s += fmt.Sprintf(" %s=%d", n, m.Counters[i])
	}
	return s
}

// passOut is what one pass of a workload measured. The caller adds the
// pass's wall time and heap statistics.
type passOut struct {
	cycleMS   []float64     // host CPU ms of each cycle (suite: each experiment)
	runCPU    time.Duration // host CPU time inside workload.* / Experiment.Run calls
	events    uint64
	attempted int
	failed    int
	modeled   modeled // pass total; zero on suite

	// Filled only on traced passes.
	spawns, wakes, acquires uint64
	boots                   int
	bootAllocKB             []float64
}

// benchWorkload is one of the benchmark's workloads: a fixed unit of work
// (a pass) that the run repeats until its time is up.
type benchWorkload interface {
	// pass runs the unit once. tr is nil on untraced passes; cycle is the
	// id of the pass's first cycle, for span grouping.
	pass(tr *tracer, cycle int) passOut
	// cyclesPerPass is how many cycle ids one pass uses.
	cyclesPerPass() int
}

// testbed is the paper's machine class, the one the experiments use.
var testbed = hw.Topology{Cores: 64, NUMANodes: 2}

// machine is what the benchmark needs from every booted OS flavour.
type machine interface {
	Engine() sim.Engine
	Metrics() *stats.Registry
	Close()
}

// bootFlavour boots one OS flavour on the testbed with the sizes the
// registry experiments use, on the default engine.
func bootFlavour(flavour string) (machine, error) {
	switch flavour {
	case "popcorn":
		cc := kernel.ClusterConfig{Kernels: 8, FramesPerKernel: 1 << 16, Msg: msg.DefaultConfig(), TG: threadgroup.Config{DummyPool: 2}}
		return core.Boot(core.Config{Topology: testbed, Cluster: &cc})
	case "smp":
		return smp.Boot(smp.Config{Topology: testbed, FramesPerNode: 1 << 18})
	case "multikernel":
		return multikernel.Boot(multikernel.Config{Topology: testbed, Kernels: 8, FramesPerKernel: 1 << 16})
	}
	return nil, fmt.Errorf("unknown OS flavour %q", flavour)
}

// cycleSpec is the input of one boot -> workload -> close cycle.
type cycleSpec struct {
	flavour string
	futex   bool                    // FutexChain (futex-shared) instead of FaultSweep
	chain   workload.FutexChainSpec // when futex
	sweep   workload.FaultSweepSpec // otherwise
}

// workloadName names the workload call, as its span does.
func (c cycleSpec) workloadName() string {
	switch {
	case c.futex:
		return "workload.futexchain"
	case c.flavour == "multikernel":
		return "workload.mkfaultsweep"
	}
	return "workload.faultsweep"
}

// wantOps is the op count the workload must report for this input.
func (c cycleSpec) wantOps() uint64 {
	if c.futex {
		return uint64(c.chain.Threads * c.chain.Iters)
	}
	return uint64(c.sweep.Threads * c.sweep.Pages)
}

// cycleOut is one cycle's measurement.
type cycleOut struct {
	modeled
	cpu, runCPU time.Duration
	events      uint64
	obs         procCounter
	bootAlloc   uint64
}

// runCycle boots, runs and closes one machine, timing each public call.
func runCycle(spec cycleSpec, tr *tracer, cycle int) (cycleOut, error) {
	var out cycleOut
	root := tr.begin("cycle", -1, cycle)
	defer tr.end(root)
	alloc := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	var alloc0 uint64
	if tr != nil {
		metrics.Read(alloc)
		alloc0 = alloc[0].Value.Uint64()
	}
	start := cpuTime()
	b := tr.begin("kernel.boot", root, cycle)
	m, err := bootFlavour(spec.flavour)
	tr.end(b)
	if err != nil {
		return out, fmt.Errorf("boot %s: %w", spec.flavour, err)
	}
	e := m.Engine()
	if tr != nil {
		metrics.Read(alloc)
		out.bootAlloc = alloc[0].Value.Uint64() - alloc0
		e.SetProcObserver(&out.obs)
	}
	ev0 := e.EventsProcessed()
	w := tr.begin(spec.workloadName(), root, cycle)
	runStart := cpuTime()
	var res workload.Result
	switch {
	case spec.futex:
		res, err = workload.FutexChain(m.(*core.OS), spec.chain)
	case spec.flavour == "multikernel":
		res, err = workload.MKFaultSweep(m.(*multikernel.OS), spec.sweep)
	default:
		res, err = workload.FaultSweep(m.(osi.OS), spec.sweep)
	}
	out.runCPU = cpuTime() - runStart
	tr.end(w)
	out.events = e.EventsProcessed() - ev0
	if err == nil {
		out.Ops, out.Virt = res.Ops, res.Elapsed
		out.Counters = readCounters(m.Metrics())
	}
	c := tr.begin("sim.close", root, cycle)
	m.Close()
	tr.end(c)
	out.cpu = cpuTime() - start
	if tr != nil {
		c := &tr.recs[root].counts
		copy(c[:], []uint64{out.events, out.obs.spawns, out.obs.wakes, out.obs.acquires, out.bootAlloc})
		copy(c[len(countNames):], out.Counters[:])
	}
	if err != nil {
		return out, fmt.Errorf("%s on %s: %w", spec.workloadName(), spec.flavour, err)
	}
	return out, nil
}

// readCounters reads the modeled counters without creating missing ones.
func readCounters(r *stats.Registry) counters {
	var c counters
	for _, name := range r.Names() {
		for i, n := range counterNames {
			if n == name {
				c[i] = r.Counter(name).Value()
			}
		}
	}
	return c
}

// cycles is a workload made of boot -> workload -> close cycles: a pass
// runs every spec once, in order. Every pass repeats the same inputs, so
// each cycle must reproduce its first pass's modeled output exactly; with
// a golden set, each pass's total must also equal it.
type cycles struct {
	specs  []cycleSpec
	golden *modeled
	first  map[int]modeled // per cycle index, from its first good run
	errOut io.Writer
}

func (w *cycles) cyclesPerPass() int { return len(w.specs) }

func (w *cycles) pass(tr *tracer, cycle int) passOut {
	var p passOut
	passFailed := false
	for i, spec := range w.specs {
		p.attempted++
		out, err := runCycle(spec, tr, cycle+i)
		p.cycleMS = append(p.cycleMS, ms(out.cpu))
		p.runCPU += out.runCPU
		p.events += out.events
		p.modeled.add(out.modeled)
		p.spawns += out.obs.spawns
		p.wakes += out.obs.wakes
		p.acquires += out.obs.acquires
		if tr != nil {
			p.boots++
			p.bootAllocKB = append(p.bootAllocKB, float64(out.bootAlloc)/1024)
		}
		switch {
		case err != nil:
			fmt.Fprintf(w.errOut, "cycle %d: %v\n", i, err)
		case out.Ops != spec.wantOps():
			fmt.Fprintf(w.errOut, "cycle %d (%s on %s): ops=%d, want threads x work = %d\n", i, spec.workloadName(), spec.flavour, out.Ops, spec.wantOps())
		default:
			first, seen := w.first[i]
			if !seen {
				w.first[i] = out.modeled
				continue
			}
			if out.modeled == first {
				continue
			}
			fmt.Fprintf(w.errOut, "cycle %d (%s on %s) is not reproducible:\n  got  %v\n  want %v\n", i, spec.workloadName(), spec.flavour, out.modeled, first)
		}
		p.failed++
		passFailed = true
	}
	if w.golden != nil && !passFailed && p.modeled != *w.golden {
		fmt.Fprintf(w.errOut, "pass output differs from the pinned golden value:\n  got  %v\n  want %v\n", p.modeled, *w.golden)
		p.failed = p.attempted
	}
	return p
}

// futexSharedSpec is F5b's top point: 64 threads of one process contending
// one futex-backed lock from all 8 kernels.
var futexSharedSpec = cycleSpec{
	flavour: "popcorn",
	futex:   true,
	chain:   workload.FutexChainSpec{Threads: 64, Iters: 16, CS: 2 * time.Microsecond, Shared: true},
}

// churnCyclesPerPass is the size of boot-churn's pass. It is a multiple of
// the three flavours, so every pass boots each flavour equally often.
const churnCyclesPerPass = 192

// churnSpecs draws boot-churn's cycles from seed: every flavour equally
// often, in seeded order, each with a small seeded first-touch sweep.
func churnSpecs(seed int64) []cycleSpec {
	rng := rand.New(rand.NewSource(seed))
	flavours := [...]string{"popcorn", "smp", "multikernel"}
	specs := make([]cycleSpec, churnCyclesPerPass)
	for i, j := range rng.Perm(churnCyclesPerPass) {
		specs[i] = cycleSpec{
			flavour: flavours[j%len(flavours)],
			sweep:   workload.FaultSweepSpec{Threads: 1 + rng.Intn(8), Pages: 8 + rng.Intn(25)},
		}
	}
	return specs
}

// suite runs every deterministic registry experiment at full scale and
// compares each one's data with the checked-in snapshot byte for byte.
type suite struct {
	exps   []bench.Experiment
	golden map[string][]byte // compacted data by experiment ID
	events uint64
	errOut io.Writer
}

// loadSuiteGolden reads the experiments' data from a benchtable snapshot.
func loadSuiteGolden(path string) (map[string][]byte, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("suite golden: %w", err)
	}
	var snap struct {
		Experiments []struct {
			ID   string          `json:"id"`
			Data json.RawMessage `json:"data"`
		} `json:"experiments"`
	}
	if err := json.Unmarshal(raw, &snap); err != nil {
		return nil, fmt.Errorf("suite golden %s: %w", path, err)
	}
	golden := make(map[string][]byte, len(snap.Experiments))
	for _, e := range snap.Experiments {
		var b bytes.Buffer
		if err := json.Compact(&b, e.Data); err != nil {
			return nil, fmt.Errorf("suite golden %s: %s: %w", path, e.ID, err)
		}
		golden[e.ID] = b.Bytes()
	}
	return golden, nil
}

func newSuite(goldenPath string, errOut io.Writer) (*suite, error) {
	golden, err := loadSuiteGolden(goldenPath)
	if err != nil {
		return nil, err
	}
	s := &suite{golden: golden, events: suiteEvents, errOut: errOut}
	for _, id := range suiteIDs {
		e, ok := bench.Find(id)
		if !ok {
			return nil, fmt.Errorf("experiment %s is not in the registry", id)
		}
		if _, ok := golden[id]; !ok {
			return nil, fmt.Errorf("suite golden %s has no %s", goldenPath, id)
		}
		s.exps = append(s.exps, e)
	}
	return s, nil
}

func (s *suite) cyclesPerPass() int { return len(s.exps) }

func (s *suite) pass(tr *tracer, cycle int) passOut {
	p := passOut{events: s.events}
	for i, e := range s.exps {
		p.attempted++
		sp := tr.begin("bench."+e.ID, -1, cycle+i)
		start := cpuTime()
		out, err := e.Run(bench.Full)
		d := cpuTime() - start
		tr.end(sp)
		p.cycleMS = append(p.cycleMS, ms(d))
		p.runCPU += d
		if err != nil {
			fmt.Fprintf(s.errOut, "%s: %v\n", e.ID, err)
			p.failed++
			continue
		}
		var data any = out
		if _, ok := out.(json.Marshaler); !ok {
			data = out.String()
		}
		got, err := json.Marshal(data)
		if err != nil || !bytes.Equal(got, s.golden[e.ID]) {
			fmt.Fprintf(s.errOut, "%s: data differs from the golden snapshot (marshal error: %v)\n  got  %s\n  want %s\n", e.ID, err, got, s.golden[e.ID])
			p.failed++
		}
	}
	return p
}
