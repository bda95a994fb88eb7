package main

import (
	"fmt"
	"testing"
)

// workloadSweep runs the fault-free sweeps `make popcornmc` runs —
// contention, migration and futex at seeds 1–32, sanitizer attached — and
// describes every seed that failed. injectNode >= 0 plants the
// skip-revoke bug on that kernel, as -inject skip-revoke=K does.
func workloadSweep(injectNode int) []string {
	var failed []string
	for _, wl := range []string{"contention", "migration", "futex"} {
		for seed := int64(1); seed <= 32; seed++ {
			out := runOne(runCfg{wl: wl, seed: seed, injectNode: injectNode, traceN: 512})
			if out.failed() {
				failed = append(failed, fmt.Sprintf("%s seed %d: violations=%d races=%d err=%v",
					wl, seed, len(out.violations), len(out.races), out.err))
			}
		}
	}
	return failed
}

// TestWorkloadSweepsClean requires every seed of the fault-free sweeps to
// pass the coherence sanitizer and the race detector.
func TestWorkloadSweepsClean(t *testing.T) {
	for _, f := range workloadSweep(-1) {
		t.Error(f)
	}
}

// TestWorkloadSweepsCatchSkippedRevoke is the control for the clean sweep:
// with kernel 0's invalidations skipped, the same sweep must report a
// violation, or a clean verdict above would prove nothing.
func TestWorkloadSweepsCatchSkippedRevoke(t *testing.T) {
	if len(workloadSweep(0)) == 0 {
		t.Fatal("skip-revoke=0 sweep reported no violation")
	}
}
