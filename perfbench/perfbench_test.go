package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
)

func TestTailRung(t *testing.T) {
	for _, c := range []struct {
		n      int
		pct    float64
		reason string
	}{
		{2, 50, "too few samples for any rung: falls back to the median"},
		{19, 50, "p50 leaves 9 beyond: still the fallback"},
		{20, 50, "p50 leaves exactly 10 beyond"},
		{39, 50, "p75 would leave 9 beyond"},
		{40, 75, "p75 leaves 10 beyond"},
		{46, 75, "suite's two guaranteed passes"},
		{100, 90, "p95 would leave 5 beyond"},
		{384, 95, "boot-churn's two guaranteed passes"},
		{1000, 99, "p99.9 would leave 1 beyond"},
		{10000, 99.9, "p99.9 leaves 10 beyond"},
	} {
		if pct := tailRung(c.n); pct != c.pct {
			t.Errorf("n=%d: got p%g, want p%g (%s)", c.n, pct, c.pct, c.reason)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(len(xs) - i) // descending: percentile must sort
	}
	for p, want := range map[float64]float64{50: 500, 90: 900, 99: 990, 99.9: 999, 100: 1000} {
		if got := percentile(xs, p); got != want {
			t.Errorf("p%g = %g, want %g", p, got, want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("no samples: got %g, want 0", got)
	}
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 0, Parent: -1, Name: "cycle", Start: 0, End: 100 * ms},
		{ID: 1, Parent: 0, Name: "kernel.boot", Start: 10 * ms, End: 40 * ms},
		{ID: 2, Parent: 0, Name: "workload.x", Start: 30 * ms, End: 60 * ms}, // overlaps boot
		{ID: 3, Parent: 1, Name: "mem.init", Start: 15 * ms, End: 20 * ms},
		{ID: 4, Parent: -1, Name: "cycle", Start: 200 * ms, End: 210 * ms},
		{ID: 5, Parent: 4, Name: "sim.close", Start: 205 * ms, End: 220 * ms}, // runs past its parent
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"cycle":       (100 - 50 + 10 - 5) * ms,
		"kernel.boot": 25 * ms,
		"workload.x":  30 * ms,
		"mem.init":    5 * ms,
		"sim.close":   15 * ms,
	}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for name, d := range want {
		if got[name] != d {
			t.Errorf("self(%s) = %v, want %v", name, got[name], d)
		}
	}
	for name, layer := range map[string]string{"kernel.boot": "kernel", "bench.F5b": "bench", "cycle": "perfbench"} {
		if l := layerOf(name); l != layer {
			t.Errorf("layerOf(%q) = %q, want %q", name, l, layer)
		}
	}
}

// lastLine decodes the benchmark's result line.
func lastLine(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, out)
	}
	return r
}

func TestGoldenCheck(t *testing.T) {
	perturbed := pinned["boot-churn"]
	perturbed.Counters[5]++ // vm.fault.local
	for _, c := range []struct {
		name   string
		golden modeled
		exit   int
	}{
		{"pinned", pinned["boot-churn"], 0},
		{"perturbed", perturbed, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			o := options{workload: "boot-churn", seed: defaultSeed, golden: map[string]modeled{"boot-churn": c.golden}}
			var stdout, stderr bytes.Buffer
			code := measure(o, &stdout, &stderr)
			r := lastLine(t, stdout.String())
			if code != c.exit {
				t.Errorf("exit code %d, want %d\n%s", code, c.exit, stderr.String())
			}
			if frac := float64(r.Failed) / float64(r.Attempted); (frac > 0) != (c.exit != 0) || r.Correct != (c.exit == 0) {
				t.Errorf("failed %d of %d, correct=%t; want failures only with a perturbed golden", r.Failed, r.Attempted, r.Correct)
			}
		})
	}
}

func TestSuiteGoldenCheck(t *testing.T) {
	golden, err := loadSuiteGolden("../" + suiteGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range suiteIDs {
		if _, ok := golden[id]; !ok {
			t.Errorf("golden snapshot lacks %s", id)
		}
	}
	exp, ok := bench.Find("T4")
	if !ok {
		t.Fatal("no T4")
	}
	s := &suite{exps: []bench.Experiment{exp}, golden: golden, errOut: io.Discard}
	if p := s.pass(nil, 0); p.failed != 0 {
		t.Fatalf("T4 differs from its golden data")
	}
	s.golden = map[string][]byte{"T4": bytes.Replace(golden["T4"], []byte(`"T4`), []byte(`"T4x`), 1)}
	if p := s.pass(nil, 0); p.failed != 1 {
		t.Fatalf("a perturbed T4 golden was not reported")
	}
}

func TestRefusesEngineOverride(t *testing.T) {
	t.Setenv("POPCORN_ENGINE", "parallel")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-workload", "boot-churn"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
	if stdout.Len() != 0 {
		t.Fatalf("printed a result: %s", stdout.String())
	}
}

// TestMetricNames keeps the names and units the benchmark prints in step
// with BENCHMARK.json.
func TestMetricNames(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, want []struct{ Name, Unit string }, emit func(put func(string, float64, string))) {
		got := map[string]string{}
		emit(func(n string, _ float64, u string) { got[n] = u })
		if len(got) != len(want) {
			t.Errorf("%s: prints %d metrics, BENCHMARK.json lists %d", kind, len(got), len(want))
		}
		for _, m := range want {
			if got[m.Name] != m.Unit {
				t.Errorf("%s: %s printed with unit %q, BENCHMARK.json says %q", kind, m.Name, got[m.Name], m.Unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, func(put func(string, float64, string)) { endToEndMetrics(put, phase{}, nil, 50) })
	check("per_layer", spec.PerLayer, func(put func(string, float64, string)) { layerMetrics(put, phase{}, phase{}, newTracer()) })
}
