package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/sim"
)

// median returns the median of xs (0 for none). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailLadder is the percentile ladder cycle_tail_ms climbs.
var tailLadder = []float64{50, 75, 90, 95, 99, 99.9, 99.99}

// minBeyond is how many samples must lie above the reported tail
// percentile for it to mean anything.
const minBeyond = 10

// tailRung returns the highest ladder percentile that leaves at least
// minBeyond of n samples above it, or the median when none does. The run
// passes the number of cycles it is sure to measure, not the number it
// did, so the percentile stays the same from run to run even though faster
// runs fit in more passes.
func tailRung(n int) float64 {
	pct := tailLadder[0]
	for _, p := range tailLadder {
		if n-rank(p, n) >= minBeyond {
			pct = p
		}
	}
	return pct
}

// rank is the 1-based nearest-rank position of percentile p among n
// samples. The epsilon keeps products such as 99.9*10000/100 from rounding
// up a whole rank.
func rank(p float64, n int) int { return max(1, int(math.Ceil(p*float64(n)/100-1e-9))) }

// percentile returns the nearest-rank p-th percentile of xs (0 for none).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(p, len(s))-1]
}

// span is one timed call into a layer, recorded by the benchmark around
// a public entry point. Times are offsets from the run's start.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // -1 for a root span
	Cycle  int           `json:"cycle"`  // one id per cycle or experiment run
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	// Counts are the work counters measured across a cycle span.
	Counts map[string]uint64 `json:"counts,omitempty"`
}

// countNames names the first counts a cycle span records: the engine's
// and the boot's. The modeled counters (counterNames) follow.
var countNames = [...]string{"sim.events", "sim.spawns", "sim.wakes", "sim.lock_acquires", "kernel.boot_alloc_bytes"}

type spanCounts [len(countNames) + len(counterNames)]uint64

// record is a span as the tracer holds it until the run ends. It holds no
// pointers, so the garbage collector never scans the records; holding
// spans with string names and count maps made traced boot-churn passes a
// third slower.
type record struct {
	parent, cycle int32
	name          uint16 // index into tracer.names
	start, end    time.Duration
	counts        spanCounts // on cycle spans
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced passes pay one nil check per call.
type tracer struct {
	origin time.Time
	names  []string
	ids    map[string]uint16
	recs   []record
}

func newTracer() *tracer { return &tracer{origin: time.Now(), ids: map[string]uint16{}} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, cycle int) int {
	if t == nil {
		return -1
	}
	id, ok := t.ids[name]
	if !ok {
		id = uint16(len(t.names))
		t.ids[name] = id
		t.names = append(t.names, name)
	}
	t.recs = append(t.recs, record{parent: int32(parent), cycle: int32(cycle), name: id, start: time.Since(t.origin)})
	return len(t.recs) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.recs[id].end = time.Since(t.origin)
}

// spans returns every recorded span.
func (t *tracer) spans() []span {
	out := make([]span, len(t.recs))
	for i, r := range t.recs {
		out[i] = span{ID: i, Parent: int(r.parent), Cycle: int(r.cycle), Name: t.names[r.name], Start: r.start, End: r.end}
		if r.counts != (spanCounts{}) {
			out[i].Counts = make(map[string]uint64, len(r.counts))
			for j, n := range countNames {
				out[i].Counts[n] = r.counts[j]
			}
			for j, n := range counterNames {
				out[i].Counts[n] = r.counts[len(countNames)+j]
			}
		}
	}
	return out
}

// durations returns the duration of every span named name, in ms.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, r := range t.recs {
		if t.names[r.name] == name {
			out = append(out, ms(r.end-r.start))
		}
	}
	return out
}

// selfTimes returns each span name's total self time: its duration minus
// the part of its interval that its direct children cover.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[string]time.Duration)
	for _, s := range spans {
		self[s.Name] += (s.End - s.Start) - covered(s, children[s.ID])
	}
	return self
}

// covered returns how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ lo, hi time.Duration }
	var ivs []iv
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, reach time.Duration
	for _, v := range ivs {
		if v.lo < reach {
			v.lo = reach
		}
		if v.hi > v.lo {
			total += v.hi - v.lo
			reach = v.hi
		}
	}
	return total
}

// layerOf maps a span name to its layer: the part before the first dot
// ("kernel.boot" -> "kernel"); undotted names are the benchmark's own.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return "perfbench"
}

// procCounter is the sim.ProcObserver the traced run attaches: it counts
// the engine's process spawns, cross-process wakes and lock acquisitions.
type procCounter struct{ spawns, wakes, acquires uint64 }

func (c *procCounter) ProcStarted(_, _ *sim.Proc) { c.spawns++ }
func (c *procCounter) ProcWoken(_, _ *sim.Proc)   { c.wakes++ }
func (c *procCounter) ProcFinished(*sim.Proc)     {}
func (c *procCounter) SyncAcquire(*sim.Proc, any) { c.acquires++ }
func (c *procCounter) SyncRelease(*sim.Proc, any) {}

// cpuTime is the CPU time the process has used so far: user plus system,
// all threads, garbage collection included. A kernel that accounts steal
// time leaves out the time a virtual CPU sat preempted by its hypervisor,
// so on a shared host this swings far less than the wall clock does.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // cannot fail for RUSAGE_SELF
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
