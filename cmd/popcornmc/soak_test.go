package main

import (
	"maps"
	"strings"
	"testing"

	"repro/internal/faultinj"
)

// TestSoakScenarios runs every soak at seeds 1-3 through the code the CLI
// uses, reruns one seed to pin determinism, and proves each scenario's own
// gate is live: with what it guards taken away, the check must fail and
// name the broken invariant.
func TestSoakScenarios(t *testing.T) {
	for _, sc := range soakScenarios {
		t.Run(sc.name, func(t *testing.T) {
			if err := runSoak(sc, 3, 0, false); err != nil {
				t.Fatal(err)
			}
			a, b := soakOne(sc, 2), soakOne(sc, 2)
			if a.err != nil || b.err != nil {
				t.Fatalf("seed 2: %v / %v", a.err, b.err)
			}
			if a.events != b.events || !maps.Equal(a.stats, b.stats) {
				t.Fatalf("seed 2 not deterministic: events %d vs %d, stats %v vs %v", a.events, b.events, a.stats, b.stats)
			}
		})
	}

	mustFind := func(name string) soakScenario {
		sc, err := findSoak(name)
		if err != nil {
			t.Fatal(err)
		}
		return sc
	}
	t.Run("overload/flow-off", func(t *testing.T) {
		sc := mustFind("overload")
		sc.plane = nil
		err := soakOne(sc, 1).err
		wantErr(t, err, "queue depth", "breaker cycle", "shed")
	})
	t.Run("failover/failover-off", func(t *testing.T) {
		sc := mustFind("failover")
		sc.plane = nil
		err := soakOne(sc, 1).err
		wantErr(t, err, "promotion", "reclaimed", "orphaned")
	})
	t.Run("chaos/no-crashes", func(t *testing.T) {
		sc := mustFind("chaos")
		sc.plan = func(seed int64) *faultinj.Plan {
			plan := soakPlan(seed)
			plan.Crashes, plan.Heals = nil, nil
			return plan
		}
		wantErr(t, runSoak(sc, 3, 0, false), "no lost thread was ever restarted")
	})
}

// wantErr requires err to name one of the invariants.
func wantErr(t *testing.T, err error, invariants ...string) {
	t.Helper()
	if err == nil {
		t.Fatalf("gate passed with what it guards removed; want an error naming one of %q", invariants)
	}
	for _, inv := range invariants {
		if strings.Contains(err.Error(), inv) {
			t.Log(err)
			return
		}
	}
	t.Fatalf("error %q names none of %q", err, invariants)
}
