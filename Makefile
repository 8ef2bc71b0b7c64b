# Development and CI entry points. The opam dependency list lives here —
# and only here — so the CI jobs can't drift apart (the tsan job once
# missed bechamel because each job spelled its own `opam install` line).

OPAM_DEPS = dune alcotest qcheck qcheck-alcotest cmdliner bechamel
OCAMLFORMAT = ocamlformat.0.26.2

.PHONY: deps deps-fmt build test bench-smoke bench-gate lint fmt

deps:
	opam install --yes $(OPAM_DEPS)

# The formatting job additionally pins ocamlformat (kept out of `deps` so
# the build/test caches don't churn when the formatter version moves).
deps-fmt: deps
	opam install --yes $(OCAMLFORMAT)

build:
	dune build @all

test:
	dune runtest

# Smoke-mode bench with machine-readable metrics, then the regression
# gate against the committed baseline (see tools/bench_gate). The
# sections are the ones CI's gate step runs: the baseline holds
# fig-scale keys, so a run without fig-scale fails as "missing".
bench-smoke:
	CLOUDIA_BENCH_JSON=bench-metrics.json dune exec bench/main.exe -- --smoke fig-delta fig-scale micro

bench-gate: bench-smoke
	dune exec tools/bench_gate/bench_gate.exe -- bench/baseline.json bench-metrics.json

# The static gate: the AST analyzer (passes A001-A007 over lib/ bin/
# bench/). CI's analyze job runs the same command.
lint:
	dune exec tools/analyzer/analyzer_main.exe

fmt:
	dune build @fmt
