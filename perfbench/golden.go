package main

// suiteIDs are the registry experiments the suite runs: every one except
// T5, in registry order.
var suiteIDs = []string{"D1", "D2", "D3", "D4", "D5", "F1", "F2", "F3", "F4", "F4b", "F5", "F5b", "F6", "F7", "F8", "F9", "R1", "R2", "R3", "T1", "T2", "T3", "T4"}

// suiteEvents is how many engine events one suite pass dispatches. The
// experiments boot their engines inside bench.Experiment.Run, out of the
// benchmark's reach, so this count was taken once with a build whose serial
// engine also added every dispatch to a global counter; two runs agreed.
// It is the denominator of the suite's ns_per_event and
// runtime.allocs_per_event.
const suiteEvents = 2791040

// pinned is each cycle workload's pass output for defaultSeed: the summed
// workload.Result and modeled counters of one pass.
var pinned = map[string]modeled{
	// msg.sent, msg.rpc, msg.delivered, futex.remote, futex.eagain,
	// vm.fault.local, vm.fault.remote, vm.page.transfer, vm.inval.sent,
	// tg.spawn.local, tg.spawn.remote
	"futex-shared": {Ops: 1024, Virt: 748488097, Counters: counters{181416, 90652, 181416, 28067, 27648, 6028, 28802, 29459, 33650, 66, 56}},
	"boot-churn":   {Ops: 18242, Virt: 11527180, Counters: counters{0, 0, 0, 0, 0, 5835, 0, 0, 0, 612, 0}},
}
