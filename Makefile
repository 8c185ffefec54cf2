.PHONY: all build test ci lint lint-json lint-sarif bench bench-quick bench-paper bench-galerkin bench-metrics bench-batch bench-transient bench-st bench-service bench-scale examples clean help

all: build

help:
	@echo "OPERA targets:"
	@echo "  build          dune build @all"
	@echo "  test           dune runtest"
	@echo "  lint           opera-lint typedtree analysis over lib/ and tools/ (R1-R8; exit 1 on unwaived findings)"
	@echo "  lint-json      lint + machine-readable LINT_report.json (v2: per-rule, race, cache, timings)"
	@echo "  lint-sarif     lint + SARIF 2.1.0 report in LINT_report.sarif"
	@echo "  ci             format check, lint, strict-warning build (--profile ci), tests in the ci and default profiles, benchmark rule tests"
	@echo "  bench*         benchmark drivers (bench, bench-quick, bench-paper, bench-galerkin, bench-metrics, bench-batch, bench-transient, bench-st, bench-service, bench-scale)"
	@echo "  examples       run every example binary"
	@echo "  clean          dune clean"
	@echo ""
	@echo "Waiving a lint finding: put '(* opera-lint: <key> *)' on the offending line"
	@echo "(or the line above; race waivers may also sit on the closure head line);"
	@echo "keys: exact, race, banned, unsafe, mli, order, alloc, resource.  Exact float"
	@echo "compares may also carry an [@opera.exact] attribute.  Lint results are"
	@echo "cached per file under _build/lint-cache.  See DESIGN.md,"
	@echo "'Static analysis & invariants'."

build:
	dune build @all

test:
	dune runtest

# Static analysis: the opera-lint rule catalogue (exact float compares,
# per-closure capture analysis, banned constructs, unsafe indexing,
# .mli coverage, determinism, hot-path allocation discipline, resource
# safety) over lib/ and tools/, typechecked through compiler-libs
# against the dune build plan.  Per-file results are cached under
# _build/lint-cache keyed by source + rule-config digest, so warm runs
# re-analyze only edited files.  `dune build @lint` is the hermetic
# (uncached) equivalent.
lint:
	dune build tools/lint/opera_lint.exe
	dune exec tools/lint/opera_lint.exe -- --cache-dir _build/lint-cache lib tools

lint-json:
	dune build tools/lint/opera_lint.exe
	dune exec tools/lint/opera_lint.exe -- --cache-dir _build/lint-cache --json LINT_report.json lib tools

lint-sarif:
	dune build tools/lint/opera_lint.exe
	dune exec tools/lint/opera_lint.exe -- --cache-dir _build/lint-cache --sarif LINT_report.sarif lib tools

# Everything a reviewer runs: the format check (when ocamlformat is
# available), the lint gate, then a strict-warning build and the test
# suite under the ci profile (warnings-as-errors for lib/; the dev
# profile stays lenient), the test suite again under the default
# profile — the one users and the benchmark build, whose -opaque
# compiles keep cross-module calls out of line, so the allocation tests
# see boxing there that the ci profile's inlining hides — and the unit
# tests pinning the benchmark's measurement rules (-B: no bytecode
# caches written under benchmark/).
ci:
	@if command -v ocamlformat >/dev/null 2>&1; then \
		dune build @fmt || exit 1; \
	else \
		echo "ocamlformat not installed; skipping format check"; \
	fi
	$(MAKE) lint-json
	dune exec bench/validate_metrics.exe -- LINT_report.json
	dune build @all --profile ci
	dune runtest --profile ci
	dune runtest
	python3 -B -m unittest discover -s benchmark/tests
	dune exec bench/transient_bench.exe -- --quick --out transient_smoke.json > /dev/null
	dune exec bench/st_bench.exe -- --quick --out st_smoke.json > /dev/null
	dune exec bench/batch_bench.exe -- --quick --out batch_smoke.json > /dev/null
	dune exec bench/service_bench.exe -- --quick --out service_smoke.json > /dev/null
	dune exec bench/scale_bench.exe -- --quick --out scale_smoke.json > /dev/null
	dune exec bench/validate_metrics.exe -- transient_smoke.json st_smoke.json batch_smoke.json service_smoke.json scale_smoke.json
	rm -f transient_smoke.json st_smoke.json batch_smoke.json service_smoke.json scale_smoke.json
	rm -rf _bench_batch_cache _bench_batch_cold2 _bench_batch_cold4 _bench_batch_resume _bench_batch_shard _bench_service_cache _bench_scale_cache

test-verbose:
	dune runtest --force --no-buffer

bench:
	dune exec bench/main.exe

bench-quick:
	dune exec bench/main.exe -- --quick

bench-paper:
	dune exec bench/main.exe -- table1 --paper-mc

bench-galerkin:
	dune exec bench/main.exe -- galerkin-op --quick

# Produce a --metrics-out registry dump and the galerkin bench JSON,
# then check both against the schema with the bundled validator.
# Batch-engine throughput + crash safety: one mixed batch, cold vs warm
# store, 1/2/4 jobs in flight (cold at 2 and 4 on fresh stores too, so
# factors build on several domains), then a kill-and-resume replay and a
# 2-shard partition over a shared store; the run aborts if a warm run
# factors anything, a cold run factors more or less than at one domain,
# any stream drifts from the cold one, the resumed
# stream isn't bitwise-identical, or the shards overlap or miss a job.
# The JSON (including journal replay/write counts) is schema-checked.
bench-batch:
	dune build bench/batch_bench.exe bench/validate_metrics.exe
	dune exec bench/batch_bench.exe -- --quick
	dune exec bench/validate_metrics.exe -- BENCH_batch.json

# Transient hot-path perf trajectory: {direct, pcg} x {sequential,
# level-scheduled} x {cold, warm-start} over grid sizes and chaos
# orders, plus the pool's per-dispatch overhead.  The bench itself
# asserts bitwise waveform identity of the pooled path and the
# warm-start iteration savings, and the JSON is schema-checked.
bench-transient:
	dune build bench/transient_bench.exe bench/validate_metrics.exe
	dune exec bench/transient_bench.exe
	dune exec bench/validate_metrics.exe -- BENCH_transient.json

# Stochastic-testing backend head-to-head: st vs matrix-free PCG vs
# assembled-direct transients over chaos orders 2-5 on the flagship
# grid.  The bench asserts the moment-drift bounds and the crossover
# order (st must beat matrix-free pcg from order 3 on), and the JSON is
# schema-checked, moment bounds included.
bench-st:
	dune build bench/st_bench.exe bench/validate_metrics.exe
	dune exec bench/st_bench.exe
	dune exec bench/validate_metrics.exe -- BENCH_st.json

# Analysis-service throughput: an in-process `opera serve` daemon on a
# Unix-domain socket, one flagship batch submitted cold, warm and from
# concurrent clients.  The bench asserts the service contract (every
# response byte-identical to the cold stream, zero factorizations after
# the cold run, warm jobs/s >= 5x cold, nothing rejected) and the JSON
# is schema-checked, replay counts and latency percentiles included.
bench-service:
	dune build bench/service_bench.exe bench/validate_metrics.exe
	dune exec bench/service_bench.exe
	dune exec bench/validate_metrics.exe -- BENCH_service.json
	rm -rf _bench_service_cache

# Million-node scaling: streaming MNA assembly (no triplet lists) at
# 1e4/1e5/1e6 nodes, AMG- vs IC(0)-preconditioned CG on the mean
# conductance block, and a warm mapped replay of the AMG setup artifact.
# The bench asserts the scaling contracts (scratch <= 320 B/node, AMG
# iterations within 2x across the sweep, AMG beating IC(0) on solve
# wall-clock at 1e5, zero full decodes on the warm replay) and the JSON
# is schema-checked.
bench-scale:
	dune build bench/scale_bench.exe bench/validate_metrics.exe
	dune exec bench/scale_bench.exe
	dune exec bench/validate_metrics.exe -- BENCH_scale.json
	rm -rf _bench_scale_cache

bench-metrics:
	dune build bin/opera_cli.exe bench/main.exe bench/validate_metrics.exe
	dune exec bin/opera_cli.exe -- analyze --nodes 400 --steps 4 --solver pcg \
		--metrics-out metrics_smoke.json > /dev/null
	dune exec bench/main.exe -- galerkin-op --quick > /dev/null
	dune exec bench/validate_metrics.exe -- metrics_smoke.json BENCH_galerkin.json
	rm -f metrics_smoke.json

examples:
	dune exec examples/quickstart.exe
	dune exec examples/irdrop_variation.exe
	dune exec examples/leakage_special_case.exe
	dune exec examples/netlist_flow.exe
	dune exec examples/distribution_plot.exe
	dune exec examples/spatial_variation.exe
	dune exec examples/yield_signoff.exe
	dune exec examples/decap_insertion.exe
	dune exec examples/batch_sweep.exe

clean:
	dune clean
