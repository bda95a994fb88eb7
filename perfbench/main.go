// Command perfbench is the repository's benchmark: it measures the host
// cost of producing the simulator's deterministic results, end to end and
// per layer, and checks every modeled output it produces.
//
// Usage (from the repository root, through run.sh, which builds it):
//
//	perfbench -workload suite|futex-shared|boot-churn [-seed N] [-seconds S] [-trace 0|1]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With -trace 0 the metrics are
// the end-to-end ones; with -trace 1 they are the per-layer ones, and the
// run's spans are written under .bench_build/perfbench/. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

const (
	// defaultSeed is the seed the pinned golden values were recorded with.
	defaultSeed = 1
	// suiteGoldenPath is the checked-in snapshot the suite's data must match.
	suiteGoldenPath = "BENCH_10.json"
	// setupReps is how many times set-up is repeated; setup_s is their
	// median, which a burst of host noise during one repetition cannot move.
	setupReps = 15
	// minPasses is the fewest passes a timed phase runs, so every cycle is
	// checked against a second run of the same input.
	minPasses = 2
)

// options is one benchmark invocation.
type options struct {
	workload    string
	seed        int64
	seconds     float64
	trace       bool
	suiteGolden string
	traceDir    string
	// golden holds each cycle workload's pinned pass output for defaultSeed.
	golden map[string]modeled
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run parses args and runs the benchmark. It returns 0 when every output
// checked out, 1 when a check failed or the run could not start, and 2 on
// a usage or environment error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := options{suiteGolden: suiteGoldenPath, traceDir: filepath.Join(".bench_build", "perfbench"), golden: pinned}
	fs.StringVar(&o.workload, "workload", "", "suite, futex-shared or boot-churn")
	fs.Int64Var(&o.seed, "seed", defaultSeed, "input seed; drives boot-churn's cycle mix")
	fs.Float64Var(&o.seconds, "seconds", 10, "host seconds to measure for")
	traceFlag := fs.Int("trace", 0, "1 runs untraced then traced passes and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if v, set := os.LookupEnv("POPCORN_ENGINE"); set {
		fmt.Fprintf(stderr, "perfbench: refusing to run with POPCORN_ENGINE=%q set; the benchmark measures the default engine\n", v)
		return 2
	}
	switch o.workload {
	case "suite", "futex-shared", "boot-churn":
	default:
		fmt.Fprintf(stderr, "perfbench: -workload must be suite, futex-shared or boot-churn, not %q\n", o.workload)
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintf(stderr, "perfbench: -trace must be 0 or 1\n")
		return 2
	}
	o.trace = *traceFlag == 1
	return measure(o, stdout, stderr)
}

// setup builds the workload's inputs and does one untimed warm-up boot of
// every OS flavour the workload uses.
func setup(o options, errOut io.Writer) (benchWorkload, error) {
	var w benchWorkload
	flavours := []string{"popcorn"}
	switch o.workload {
	case "suite":
		s, err := newSuite(o.suiteGolden, errOut)
		if err != nil {
			return nil, err
		}
		w = s
	case "futex-shared":
		// The input does not depend on the seed, so the golden value
		// holds on every seed.
		g := o.golden[o.workload]
		w = &cycles{specs: []cycleSpec{futexSharedSpec}, golden: &g, first: map[int]modeled{}, errOut: errOut}
	case "boot-churn":
		c := &cycles{specs: churnSpecs(o.seed), first: map[int]modeled{}, errOut: errOut}
		if o.seed == defaultSeed {
			g := o.golden[o.workload]
			c.golden = &g
		}
		w = c
		flavours = []string{"popcorn", "smp", "multikernel"}
	}
	for _, f := range flavours {
		m, err := bootFlavour(f)
		if err != nil {
			return nil, fmt.Errorf("warm-up boot: %w", err)
		}
		m.Close()
	}
	return w, nil
}

// phase is one timed phase: passes repeated until its budget is spent.
type phase struct {
	passWall    []float64 // s
	passCPU     []float64 // s
	cycleMS     []float64
	nsPerEvent  []float64
	allocMB     []float64
	mallocsPE   []float64 // heap allocations per event
	gcCycles    []float64
	gcPauseMS   []float64
	attempted   int
	failed      int
	last        passOut
	bootAllocKB []float64
}

// timed runs passes of w until starting another would overrun budget
// seconds, and at least minPasses of them. next is the next cycle id.
func timed(w benchWorkload, tr *tracer, budget float64, next *int) phase {
	var ph phase
	start := time.Now()
	for len(ph.passWall) < minPasses || time.Since(start).Seconds()+ph.passWall[len(ph.passWall)-1] <= budget {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t, c := time.Now(), cpuTime()
		p := w.pass(tr, *next)
		wall, cpu := time.Since(t), cpuTime()-c
		runtime.ReadMemStats(&m1)
		*next += w.cyclesPerPass()
		ph.passWall = append(ph.passWall, wall.Seconds())
		ph.passCPU = append(ph.passCPU, cpu.Seconds())
		ph.cycleMS = append(ph.cycleMS, p.cycleMS...)
		ph.allocMB = append(ph.allocMB, float64(m1.TotalAlloc-m0.TotalAlloc)/1e6)
		ph.gcCycles = append(ph.gcCycles, float64(m1.NumGC-m0.NumGC))
		ph.gcPauseMS = append(ph.gcPauseMS, float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6)
		if p.events > 0 {
			ph.nsPerEvent = append(ph.nsPerEvent, float64(p.runCPU.Nanoseconds())/float64(p.events))
			ph.mallocsPE = append(ph.mallocsPE, float64(m1.Mallocs-m0.Mallocs)/float64(p.events))
		}
		ph.bootAllocKB = append(ph.bootAllocKB, p.bootAllocKB...)
		ph.attempted += p.attempted
		ph.failed += p.failed
		ph.last = p
	}
	return ph
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func measure(o options, stdout, stderr io.Writer) int {
	var w benchWorkload
	var setups []float64
	for i := 0; i < setupReps; i++ {
		// Collect the previous repetition's garbage outside the measured
		// window, so each repetition starts from the same heap.
		runtime.GC()
		t := cpuTime()
		nw, err := setup(o, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: set-up: %v\n", err)
			return 1
		}
		setups = append(setups, (cpuTime() - t).Seconds())
		w = nw
	}
	fmt.Fprintf(stdout, "perfbench: workload=%s seed=%d trace=%t go=%s GOMAXPROCS=%d nproc=%d engine=default(serial)\n",
		o.workload, o.seed, o.trace, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU())

	next := 0
	res := result{Metrics: map[string]metric{}}
	put := func(name string, v float64, unit string) { res.Metrics[name] = metric{v, unit} }
	var attempted, failed int
	if !o.trace {
		ph := timed(w, nil, o.seconds, &next)
		attempted, failed = ph.attempted, ph.failed
		pct := tailRung(w.cyclesPerPass() * minPasses)
		endToEndMetrics(put, ph, setups, pct)
		fmt.Fprintf(stdout, "passes=%d cycles=%d cycle_tail_ms is p%g of %d cycles; wall clock per pass %.4g s (median, not gated)\n",
			len(ph.passWall), len(ph.cycleMS), pct, len(ph.cycleMS), median(ph.passWall))
	} else {
		plain := timed(w, nil, o.seconds/2, &next)
		tr := newTracer()
		traced := timed(w, tr, o.seconds/2, &next)
		attempted, failed = plain.attempted+traced.attempted, plain.failed+traced.failed
		layerMetrics(put, plain, traced, tr)
		spans := tr.spans()
		path, err := writeTrace(o, spans)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: trace: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "passes=%d untraced + %d traced; spans and per-layer self times in %s\n", len(plain.passWall), len(traced.passWall), path)
		printSelfTimes(stdout, spans)
	}
	res.Attempted, res.Failed, res.Correct = attempted, failed, failed == 0
	fmt.Fprintf(stdout, "failed_frac=%g (%d of %d cycles or experiments)\n", float64(failed)/float64(attempted), failed, attempted)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "%-28s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if failed > 0 {
		return 1
	}
	return 0
}

// endToEndMetrics reports the end-to-end metrics of an untraced phase;
// cycle_tail_ms is its cycles' tailPct-th percentile.
func endToEndMetrics(put func(string, float64, string), ph phase, setups []float64, tailPct float64) {
	put("cpu_s", median(ph.passCPU), "s")
	put("setup_s", median(setups), "s")
	put("ns_per_event", median(ph.nsPerEvent), "ns")
	put("cycle_p50_ms", median(ph.cycleMS), "ms")
	put("cycle_tail_ms", percentile(ph.cycleMS, tailPct), "ms")
	put("alloc_mb", median(ph.allocMB), "MB")
}

// layerMetrics reports the per-layer metrics. Times and engine counts come
// from the traced phase; heap and GC figures from the untraced one, which
// the tracer's own bookkeeping does not disturb.
func layerMetrics(put func(string, float64, string), plain, traced phase, tr *tracer) {
	p := traced.last
	events := float64(p.events)
	perEvent := func(n uint64) float64 {
		if events == 0 {
			return 0
		}
		return float64(n) / events
	}
	var runMS []float64
	for _, name := range tr.names {
		if strings.HasPrefix(name, "workload.") {
			runMS = append(runMS, tr.durations(name)...)
		}
	}
	put("sim.run_ms", median(runMS), "ms")
	put("sim.close_ms", median(tr.durations("sim.close")), "ms")
	put("sim.events", events, "count")
	put("sim.spawns", float64(p.spawns), "count")
	put("sim.wakes", float64(p.wakes), "count")
	put("sim.lock_acquires", float64(p.acquires), "count")
	put("sim.spawns_per_event", perEvent(p.spawns), "ratio")
	put("kernel.boots", float64(p.boots), "count")
	put("kernel.boot_ms", median(tr.durations("kernel.boot")), "ms")
	put("kernel.boot_alloc_kb", median(traced.bootAllocKB), "KB")
	for i, n := range counterNames {
		put(n, float64(p.modeled.Counters[i]), "count")
	}
	put("msg.per_event", perEvent(p.modeled.Counters[0]), "ratio") // msg.sent per event
	put("workload.ops", float64(p.modeled.Ops), "count")
	put("workload.virt_us", float64(p.modeled.Virt.Nanoseconds())/1e3, "us")
	for _, id := range suiteIDs {
		put("bench."+id+".gen_ms", median(tr.durations("bench."+id)), "ms")
	}
	put("runtime.allocs_per_event", median(plain.mallocsPE), "count")
	put("runtime.gc_cycles", median(plain.gcCycles), "count")
	put("runtime.gc_pause_ms", median(plain.gcPauseMS), "ms")
	put("runtime.peak_rss_mb", peakRSSMB(), "MB")
	put("trace.overhead_frac", median(traced.passCPU)/median(plain.passCPU)-1, "frac")
}

// peakRSSMB is the process's peak resident set size (Linux reports KB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// selfByName returns a traced run's self times in ms, by span name and
// by layer.
func selfByName(spans []span) (byName, byLayer map[string]float64) {
	byName, byLayer = map[string]float64{}, map[string]float64{}
	for name, d := range selfTimes(spans) {
		byName[name] = ms(d)
		byLayer[layerOf(name)] += ms(d)
	}
	return byName, byLayer
}

func printSelfTimes(out io.Writer, spans []span) {
	_, byLayer := selfByName(spans)
	layers := make([]string, 0, len(byLayer))
	for l := range byLayer {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	for _, l := range layers {
		fmt.Fprintf(out, "self time %-12s %12.3f ms\n", l, byLayer[l])
	}
}

// writeTrace writes the traced phase's spans and self times as JSON.
func writeTrace(o options, spans []span) (string, error) {
	byName, byLayer := selfByName(spans)
	doc := struct {
		Workload    string             `json:"workload"`
		Seed        int64              `json:"seed"`
		GoVersion   string             `json:"go"`
		GOMAXPROCS  int                `json:"gomaxprocs"`
		NumCPU      int                `json:"nproc"`
		SelfMS      map[string]float64 `json:"self_ms"`
		LayerSelfMS map[string]float64 `json:"layer_self_ms"`
		Spans       []span             `json:"spans"`
	}{o.workload, o.seed, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), byName, byLayer, spans}
	if err := os.MkdirAll(o.traceDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(o.traceDir, fmt.Sprintf("trace-%s-seed%d.json", o.workload, o.seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := json.NewEncoder(f).Encode(doc); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
