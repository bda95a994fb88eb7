package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// goldenPath is a benchtable snapshot of every experiment at Quick scale.
// After a deliberate change to a modeled result, regenerate it with
//
//	go run ./cmd/benchtable -scale quick -json internal/bench/testdata/quick.json
//
// and name the changed experiment and the reason in CHANGES.md.
const goldenPath = "testdata/quick.json"

// loadGolden returns each experiment's compacted JSON data from the golden
// snapshot.
func loadGolden(t *testing.T) map[string][]byte {
	t.Helper()
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Experiments []struct {
			ID   string          `json:"id"`
			Data json.RawMessage `json:"data"`
		} `json:"experiments"`
	}
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("%s: %v", goldenPath, err)
	}
	golden := make(map[string][]byte, len(snap.Experiments))
	for _, e := range snap.Experiments {
		var b bytes.Buffer
		if err := json.Compact(&b, e.Data); err != nil {
			t.Fatalf("%s: %s: %v", goldenPath, e.ID, err)
		}
		golden[e.ID] = b.Bytes()
	}
	return golden
}

// TestAllExperimentsRunAtQuickScale runs every registered experiment and
// compares its modeled data, as benchtable -json writes it, byte for byte
// with the golden snapshot. This is the integration test for the whole
// stack: every experiment boots full machines and runs real workloads, and
// a change to any modeled number fails here, naming the experiment.
func TestAllExperimentsRunAtQuickScale(t *testing.T) {
	golden := loadGolden(t)
	if len(golden) != len(Experiments()) {
		t.Errorf("%s holds %d experiments, the registry %d", goldenPath, len(golden), len(Experiments()))
	}
	for _, exp := range Experiments() {
		exp := exp
		t.Run(exp.ID, func(t *testing.T) {
			out, err := exp.Run(Quick)
			if err != nil {
				t.Fatalf("%s (%s): %v", exp.ID, exp.Title, err)
			}
			if !strings.Contains(out.String(), "\n") {
				t.Fatalf("%s output is not a table/series:\n%s", exp.ID, out)
			}
			var data any = out.String()
			if m, ok := out.(json.Marshaler); ok {
				data = m
			}
			got, err := json.Marshal(data)
			if err != nil {
				t.Fatalf("%s: %v", exp.ID, err)
			}
			want, ok := golden[exp.ID]
			if !ok {
				t.Fatalf("%s has no %s", goldenPath, exp.ID)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s modeled data differs from %s\n got: %s\nwant: %s", exp.ID, goldenPath, got, want)
			}
		})
	}
}

func TestFindExperiment(t *testing.T) {
	if _, ok := Find("F4"); !ok {
		t.Fatal("F4 not found")
	}
	if _, ok := Find("nope"); ok {
		t.Fatal("bogus experiment found")
	}
	if len(Experiments()) < 15 {
		t.Fatalf("registry has %d experiments", len(Experiments()))
	}
}

// TestHeadlineShapes verifies the qualitative claims the reproduction
// targets: the replicated kernel scales past SMP on contention-heavy
// sweeps, while staying competitive uncontended.
func TestHeadlineShapes(t *testing.T) {
	series, err := F4MmapStorm(Quick)
	if err != nil {
		t.Fatalf("F4: %v", err)
	}
	pop, _ := series.Line("popcorn")
	smp, _ := series.Line("smp")
	if pop == nil || smp == nil {
		t.Fatalf("F4 missing lines:\n%s", series)
	}
	last := len(pop) - 1
	if pop[last] <= smp[last] {
		t.Errorf("F4 at max threads: popcorn %.1f <= smp %.1f cycles/ms\n%s", pop[last], smp[last], series)
	}
	if pop[0] > 2.5*smp[0] || smp[0] > 2.5*pop[0] {
		t.Errorf("F4 single-thread results diverge more than 2.5x: %.1f vs %.1f", pop[0], smp[0])
	}
}

// TestNewFindingsShapes pins the D5 and F9 results: ownership migration
// must beat write forwarding on repeated remote writes, and the KV store's
// popcorn line must rise steeply with request locality while SMP stays
// roughly flat.
func TestNewFindingsShapes(t *testing.T) {
	d5, err := AblationPageOwnership(Quick)
	if err != nil {
		t.Fatalf("D5: %v", err)
	}
	if d5.Rows() != 2 {
		t.Fatalf("D5 rows = %d", d5.Rows())
	}
	f9, err := F9KVStore(Quick)
	if err != nil {
		t.Fatalf("F9: %v", err)
	}
	pop, ok := f9.Line("popcorn")
	if !ok {
		t.Fatalf("F9 missing popcorn line:\n%s", f9)
	}
	smp, _ := f9.Line("smp")
	last := len(pop) - 1
	if pop[last] < 3*pop[0] {
		t.Errorf("F9 popcorn locality gradient too flat: %.0f -> %.0f req/ms\n%s", pop[0], pop[last], f9)
	}
	if smp[last] > 2*smp[0] || smp[0] > 2*smp[last] {
		t.Errorf("F9 smp line not flat: %.0f -> %.0f req/ms", smp[0], smp[last])
	}
}
