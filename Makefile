.PHONY: all build test ci lint lint-json lint-sarif bench bench-quick bench-paper bench-scale examples clean help

all: build

help:
	@echo "OPERA targets:"
	@echo "  build          dune build @all"
	@echo "  test           dune runtest"
	@echo "  lint           opera-lint typedtree analysis over lib/ and tools/ (R1-R8; exit 1 on unwaived findings)"
	@echo "  lint-json      lint + machine-readable LINT_report.json (v2: per-rule, race, cache, timings)"
	@echo "  lint-sarif     lint + SARIF 2.1.0 report in LINT_report.sarif"
	@echo "  ci             format check, lint, strict-warning build (--profile ci), tests in the ci and default profiles, benchmark rule tests, scale smoke run"
	@echo "  bench*         paper tables and figures (bench, bench-quick, bench-paper) and the million-node scaling bench (bench-scale)"
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
# available), the lint gate (its LINT_report.json schema is a lint
# test), then a strict-warning build and the test suite under the ci
# profile (warnings-as-errors for lib/; the dev profile stays lenient),
# the test suite again under the default profile — the one users and
# the benchmark build, whose -opaque compiles keep cross-module calls
# out of line, so the allocation tests see boxing there that the ci
# profile's inlining hides — the unit tests pinning the benchmark's
# measurement rules (-B: no bytecode caches written under benchmark/),
# and a small scale_bench run, which dies on any of its scaling bounds.
ci:
	@if command -v ocamlformat >/dev/null 2>&1; then \
		dune build @fmt || exit 1; \
	else \
		echo "ocamlformat not installed; skipping format check"; \
	fi
	$(MAKE) lint-json
	dune build @all --profile ci
	dune runtest --profile ci
	dune runtest
	python3 -B -m unittest discover -s benchmark/tests
	dune exec bench/scale_bench.exe -- --quick --out scale_smoke.json > /dev/null
	rm -f scale_smoke.json
	rm -rf _bench_scale_cache

test-verbose:
	dune runtest --force --no-buffer

bench:
	dune exec bench/main.exe

bench-quick:
	dune exec bench/main.exe -- --quick

bench-paper:
	dune exec bench/main.exe -- table1 --paper-mc

# Million-node scaling: streaming MNA assembly (no triplet lists) at
# 1e4/1e5/1e6 nodes, AMG- vs IC(0)-preconditioned CG on the mean
# conductance block, and a warm mapped replay of the AMG setup artifact.
# The bench asserts the scaling contracts (scratch <= 320 B/node, AMG
# iterations within 2x across the sweep, AMG beating IC(0) on solve
# wall-clock at 1e5, zero full decodes on the warm replay) and dies on
# any breach.
bench-scale:
	dune exec bench/scale_bench.exe -- --reps 3
	rm -rf _bench_scale_cache

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
