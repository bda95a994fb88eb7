// Package sim implements a deterministic discrete-event simulator with
// cooperative, coroutine-backed processes.
//
// The engine advances a virtual clock by draining a time-ordered event heap.
// Exactly one simulated process runs at any instant: a process executes real
// Go code until it performs a blocking simulator operation (Sleep, channel
// send/receive, mutex lock, ...), at which point control returns to the
// engine, which dispatches the next event. Each process body runs on a
// pooled iter.Pull coroutine (carrier.go), so a handoff is a coroutine
// switch, not a goroutine wake-up. Ties in the event heap are broken by
// insertion sequence, so a given seed and program order always produce an
// identical schedule and identical virtual-time measurements.
//
// The package is the hardware/time substrate for the replicated-kernel OS
// reproduction: kernels, message rings, schedulers, and workloads are all
// simulated processes whose costs are expressed as virtual-time delays.
package sim
