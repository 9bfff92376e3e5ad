# Convenience wrappers around dune.

.PHONY: all test check bench ci clean fuzz lint lint-exceptions \
  domain-smoke serve-smoke bench-lint stats-golden bench-check \
  bench-baseline bench-speed bench-speed-report bench-serve \
  bench-serve-report trace-golden cond-smoke metrics-check \
  metrics-baseline metrics-smoke perfbench-smoke

all:
	dune build

test:
	dune runtest

# Build + tests + `lslpc analyze` (with the legality validator) over every
# example kernel.  The commit gate.
check:
	dune build @check

# What CI runs (see .github/workflows/ci.yml): build, test suites, then
# the analyze/legality gate over the example kernels.
ci:
	dune build
	dune runtest
	dune build @check
	$(MAKE) lint
	$(MAKE) domain-smoke
	$(MAKE) serve-smoke
	$(MAKE) fuzz
	$(MAKE) cond-smoke
	$(MAKE) stats-golden
	$(MAKE) trace-golden
	$(MAKE) bench-check
	$(MAKE) metrics-check
	$(MAKE) metrics-smoke
	$(MAKE) perfbench-smoke

# The pinned-seed differential fuzz run CI's fuzz-smoke job executes:
# 500 random programs through the pipeline, checked against the scalar
# oracle, with and without injected faults.
fuzz:
	dune exec bin/lslpc.exe -- fuzz --cases 500 --seed 42

# Branching gate: the masked-IR fuzz arm — 500 pinned-seed programs of
# guarded stores, selects and masked loads through the pipeline against
# the scalar oracle — plus every cond.* catalog kernel through analyze
# with the legality validator.
cond-smoke:
	dune exec bin/lslpc.exe -- fuzz --cases 500 --seed 42 --config cond
	dune exec bin/lslpc.exe -- analyze --kernel cond.abs
	dune exec bin/lslpc.exe -- analyze --kernel cond.clamp
	dune exec bin/lslpc.exe -- analyze --kernel cond.saxpy-guard
	dune exec bin/lslpc.exe -- analyze --kernel cond.max-mask

# Telemetry gate: the golden counter tables (test/cram/stats.t).
stats-golden:
	dune build @test/cram/runtest

# The project's own static-analysis pass (lib/lint): R1 global mutable
# state, R2 ambient Random, R3 raising primitives, R4 wall-clock reads.
# Fails on any unwaived finding and on stale entries in lint.waivers.
lint:
	dune exec bin/lint.exe -- --check-waivers lib bin

# Historical alias: the exception-discipline gate is now lslp-lint rule
# R3 (which also sees invalid_arg and bare raises of predefined
# exceptions, with per-site waivers in lint.waivers).
lint-exceptions:
	dune exec bin/lint.exe -- --rule R3 lib bin

# Domain-safety proof behind the planned parallel compile service: the
# whole catalog compiled on 8 concurrent domains must reproduce the
# sequential IR, remarks and counters (modulo id alpha-renaming).
domain-smoke:
	dune exec bin/lslpc.exe -- domains --jobs 8

# Fault-survival gate for the batch compile service: the catalog twice
# through a 4-domain pool with one injected worker crash (job 3, round 1)
# and one cache poisoning (job 30 = kernel 2, round 2).  The batch must
# complete, every undamaged job must match, and the run must record
# EXACTLY two degradations — the crashed job's typed failure and the
# poisoned entry's verified eviction (exit 1 on any other count).  The
# sharded fuzz then proves 4-domain fuzzing is case-by-case identical to
# sequential, and the waiver audit covers the new lib/service code.
serve-smoke:
	dune exec bin/lslpc.exe -- batch --jobs 4 --repeat 2 \
	  --inject worker-raise@3 --inject cache-poison@30 \
	  --expect-degradations 2 --stats
	dune exec bin/lslpc.exe -- batch --jobs 4 --deadline-steps 50000 \
	  --inject worker-hang@5 --expect-degradations 1
	dune exec bin/lslpc.exe -- batch --jobs 8 \
	  --inject queue-full@7 --expect-degradations 1
	dune exec bin/lslpc.exe -- fuzz --cases 120 --seed 42 --jobs 4
	dune exec bin/lint.exe -- --check-waivers lib bin

# Refresh the committed lint bench entry (files scanned, findings by
# rule, wall time).
bench-lint:
	dune exec bin/lint.exe -- --check-waivers \
	  --bench-out bench_results/BENCH_lint.json lib bin

# Tracing gate: the golden decision logs (test/cram/trace.t) plus the
# exporter self-check — every catalog kernel traced in all three formats,
# each Chrome stream re-parsed through the project's own JSON reader.
trace-golden:
	dune build @test/cram/runtest
	dune exec bin/lslpc.exe -- trace --all

# Tolerance-free counter regression gate: compare today's deterministic
# pipeline counters (score evals, graph nodes, regions, emitted instrs)
# against the committed snapshot.  After an intended change, regenerate
# with `make bench-baseline` and commit the diff.
bench-check:
	dune exec bench/baseline.exe -- --check
	dune exec bench/baseline.exe -- --selftest

bench-baseline:
	dune exec bench/baseline.exe -- --write

# Compile-throughput harness: the whole catalog compiled 1000x per config
# (one-shot wall clock + a bechamel estimate), appended as a dated run to
# bench_results/BENCH_speed.json so the trajectory across PRs is kept.
# Report-only in CI: timings are machine-dependent, so the gate for perf
# work is the counter baseline (bench-check), not this file.
bench-speed:
	dune exec bench/speed.exe -- --reps 1000

bench-speed-report:
	dune exec bench/speed.exe -- --reps 300 --no-write

# Batch-service throughput: catalog x 1000 as one batch through the pool
# (sequential floor, N domains, cache cold vs warm with every hit
# legality-re-verified), appended to bench_results/BENCH_serve.json.
# The warm-vs-cold speedup is gated at 5x — that ratio measures work
# skipped safely, which unlike wall-clock survives noisy runners.
bench-serve:
	dune exec bench/serve.exe -- --reps 1000 --min-warm-speedup 5

bench-serve-report:
	dune exec bench/serve.exe -- --reps 100 --no-write --min-warm-speedup 5

# Tolerance-free exposition gate for the observability layer: two
# identical 1-domain batches must dump byte-identical Prometheus metrics
# and flight-recorder JSONL, and the metrics dump must match the
# committed baseline exactly (every value is jobs/ticks/steps, never
# wall-clock, so no tolerances are needed).  After an intended metrics
# change, regenerate with `make metrics-baseline` and commit the diff.
metrics-check:
	dune exec bin/lslpc.exe -- batch --jobs 1 --repeat 2 \
	  --metrics-out _build/metrics_a.prom --flight-out _build/flight_a.jsonl
	dune exec bin/lslpc.exe -- batch --jobs 1 --repeat 2 \
	  --metrics-out _build/metrics_b.prom --flight-out _build/flight_b.jsonl
	cmp _build/metrics_a.prom _build/metrics_b.prom
	cmp _build/flight_a.jsonl _build/flight_b.jsonl
	cmp _build/metrics_a.prom bench_results/METRICS_baseline.prom

metrics-baseline:
	dune exec bin/lslpc.exe -- batch --jobs 1 --repeat 2 \
	  --metrics-out bench_results/METRICS_baseline.prom

# Observability smoke: a faulted multi-domain batch must emit a
# Prometheus dump that lslpc's own parser accepts and whose degradation
# counters (failed + shed + evicted) reconcile with the batch gate's
# count; the JSON exposition must reconcile to the same number.
metrics-smoke:
	dune exec bin/lslpc.exe -- batch --jobs 4 \
	  --inject worker-raise@3 --inject queue-full@7 \
	  --expect-degradations 2 --metrics-out _build/metrics_smoke.prom
	dune exec bin/lslpc.exe -- metrics-verify _build/metrics_smoke.prom \
	  --expect-degradations 2
	dune exec bin/lslpc.exe -- batch --jobs 4 \
	  --inject worker-raise@3 --inject queue-full@7 \
	  --expect-degradations 2 --metrics-out _build/metrics_smoke.json \
	  --metrics-format json
	dune exec bin/lslpc.exe -- metrics-verify _build/metrics_smoke.json \
	  --metrics-format json --expect-degradations 2

# Benchmark smoke: every perfbench workload for 2 s.  Each run ends by
# replaying its jobs through the layer calls and requiring the service's
# IR to be byte-equal to the replay's reference render (Normalize.ids over
# Printer.pp_func), so this fails on any drift between the two printers.
# Fails on a non-zero exit or a last line without "correct":true.
perfbench-smoke:
	@for w in cold-project wide-lookahead rebuild-warm; do \
	  out=$$(bash perfbench/run.sh --workload $$w --seed 1 --seconds 2 \
	    --trace 0) || { echo "perfbench-smoke: $$w failed" >&2; exit 1; }; \
	  case "$$(printf '%s\n' "$$out" | tail -n 1)" in \
	    *'"correct":true'*) echo "perfbench-smoke: $$w correct" ;; \
	    *) echo "perfbench-smoke: $$w not correct" >&2; exit 1 ;; \
	  esac; \
	done

bench:
	dune exec bench/main.exe

clean:
	dune clean
