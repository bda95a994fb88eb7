# Repo verification pipeline. CI calls these targets step by step (plus
# bench-compare and the lint artifacts); `make verify` runs the same gates
# locally. The individual targets exist so a failing stage can be re-run
# alone.

GO ?= go

.PHONY: verify build vet govet popcornvet vet-json allowlist bench-compare popcornmc soak test perfbench-test bench trace-demo

verify: build vet test perfbench-test popcornmc soak trace-demo

build:
	$(GO) build ./...

# vet is the full static gate: stock go vet plus the repo's own analyzers.
vet: govet popcornvet

govet:
	$(GO) vet ./...

# The repo's own determinism, protocol and share-nothing linter; see
# DESIGN.md §6 (core analyzers) and §11 (kernel-locality contract).
popcornvet:
	$(GO) run ./cmd/popcornvet ./...

# Machine-readable findings for CI artifact upload; written (and printed)
# even when the gate fails so the artifact always reflects the run.
vet-json:
	$(GO) run ./cmd/popcornvet -json ./... > popcornvet.json; status=$$?; cat popcornvet.json; exit $$status

# Inventory of every justified //popcornvet:allow waiver, uploaded next to
# the findings artifact so the accepted-exception population is reviewable.
allowlist:
	$(GO) run ./cmd/popcornvet -allowlist . > popcornvet-allowlist.json

# Perf regression gate: regenerate a fresh full-scale snapshot and compare
# per-experiment gen_ns against the last checked-in snapshot (>10% and
# >10ms worse fails). Override BENCH_BASE when re-anchoring.
BENCH_BASE ?= BENCH_9.json
bench-compare:
	$(GO) run ./cmd/benchtable -scale full -json /tmp/bench_current.json > /dev/null
	$(GO) run ./cmd/benchtable -compare $(BENCH_BASE) /tmp/bench_current.json

# Schedule exploration with the coherence sanitizer attached; see DESIGN.md §7.
# The -faults sweeps layer the fault plan (drop/dup/delay everywhere, kernel
# crash mid-migration) over the schedules; see DESIGN.md §8.
popcornmc:
	$(GO) run ./cmd/popcornmc -workload contention -seeds 32
	$(GO) run ./cmd/popcornmc -workload migration -seeds 32
	$(GO) run ./cmd/popcornmc -workload migration -seeds 16 -faults
	$(GO) run ./cmd/popcornmc -workload futex -seeds 16 -faults

# The three soaks, 16 seeds each (DESIGN.md §9, §13, §14). chaos crashes,
# heals and re-crashes kernels under message noise and asserts restarts
# never exceed losses and some lost thread restarts from its checkpoint.
# overload runs 10x offered load, a gray link and a crash-heal over the
# flow-control plane and asserts the backlog stays credit-bounded, a full
# breaker cycle, a rejoin, bounded control-lane wait and shed load.
# failover kills the origin kernel mid-replication-stream with the failover
# plane attached and asserts a promotion, zero reclaimed pages and zero
# orphaned exits. A failing seed prints its replay command.
soak:
	$(GO) run ./cmd/popcornmc -soak chaos -seeds 16
	$(GO) run ./cmd/popcornmc -soak overload -seeds 16
	$(GO) run ./cmd/popcornmc -soak failover -seeds 16

test:
	$(GO) test -race ./...

# The benchmark harness is its own Go module (perfbench/go.mod) built
# against internal/sim, core and multikernel, so the root `go test ./...`
# never compiles or tests it; this target does. See perfbench/README.md.
perfbench-test:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Tracing determinism demo: run T2 twice with the causal tracer attached and
# assert the exported span trees (Chrome trace_event JSON) are byte-identical
# — same seed, same spans, same bytes; see DESIGN.md §10.
trace-demo:
	rm -rf /tmp/popcorn-trace-a /tmp/popcorn-trace-b
	$(GO) run ./cmd/benchtable -exp T2 -scale quick -trace -traceout /tmp/popcorn-trace-a > /dev/null
	$(GO) run ./cmd/benchtable -exp T2 -scale quick -trace -traceout /tmp/popcorn-trace-b > /dev/null
	cmp /tmp/popcorn-trace-a/T2.trace.json /tmp/popcorn-trace-b/T2.trace.json
	@echo "trace-demo: span trees byte-identical across runs"

bench:
	$(GO) test -bench=. -benchmem -run '^$$' .
