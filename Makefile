# Conventional entry points; everything is plain dune underneath.

.PHONY: all build test bench bench-check examples doc clean data ci check p4-diff unused-vals

# Maximum shard count the parallel replay bench measures (powers of two
# up to this value); see EXPERIMENTS.md.
NEWTON_BENCH_JOBS ?= 4

all: build

build:
	dune build @all

test:
	dune runtest

# Regenerate every paper table/figure (plus ablations & derived benches)
bench:
	NEWTON_BENCH_JOBS=$(NEWTON_BENCH_JOBS) dune exec bench/main.exe

# Perf-regression gate: run the parallel replay bench, then diff
# out/bench_parallel.json against the committed baseline
# (bench/baselines/parallel.json) with bench/compare.exe.  Fails when
# the jobs=4 speedup drops more than 20% below the baseline
# (docs/PARALLELISM.md, "Reading the CI perf gate").
bench-check:
	NEWTON_BENCH_JOBS=$(NEWTON_BENCH_JOBS) dune exec bench/main.exe -- parallel
	dune exec bench/compare.exe

# Also write gnuplot-ready .dat files under out/
data:
	NEWTON_BENCH_DATA=out NEWTON_BENCH_JOBS=$(NEWTON_BENCH_JOBS) dune exec bench/main.exe

examples:
	dune exec examples/quickstart.exe
	dune exec examples/ddos_drilldown.exe
	dune exec examples/network_wide.exe
	dune exec examples/multi_tenant.exe
	dune exec examples/operator_workflow.exe

doc:
	dune build @doc

# Static analysis over the catalog and a representative DSL intent;
# --strict turns any warning into a failure (docs/ANALYSIS.md).
check:
	dune exec bin/newton_cli.exe -- check --all --strict \
	  --query 'filter(proto == udp) | map(dip) | reduce(dip, count) | filter(count > 100) | map(dip)'

# Differential ground truth: replay the pinned mixed corpus through the
# simulator engine and the interpreted P4 pipeline; every catalog query
# must produce identical report multisets (docs/P4GEN.md).
p4-diff:
	dune exec bin/newton_cli.exe -- p4 diff --all --coverage-corpus

# Name-level scan of lib/**/*.mli: how many exported values no program
# code (lib, bin, bench, perfbench, examples) names outside their own
# module, how many optional labels no program code passes, and how many
# of each no test names either.  Reports only;
# `python3 scripts/unused_vals.py --list` names them.
unused-vals:
	@python3 scripts/unused_vals.py

# Exactly what .github/workflows/ci.yml runs: artifact-hygiene guard,
# .mli interface guard, unused-export and unpassed-label guards, build,
# tests, static analysis, example smoke-runs.
ci:
	@test -z "$$(git ls-files _build)" || \
	  { echo "error: _build artifacts are tracked in git"; exit 1; }
	@missing=0; for f in $$(git ls-files 'lib/*/*.ml'); do \
	  if [ ! -f "$${f}i" ]; then \
	    echo "error: $$f has no $${f}i — every lib module needs an interface"; \
	    missing=1; \
	  fi; \
	done; exit $$missing
	@scan=$$(python3 scripts/unused_vals.py); echo "$$scan"; \
	  case "$$scan" in *"unused and untested: 0") ;; \
	  *) echo "error: an exported val is named by no program code and no test"; exit 1 ;; esac
	@scan=$$(python3 scripts/unused_vals.py); \
	  case "$$scan" in *"passed by no program and no test: 0"*) ;; \
	  *) echo "error: an optional label is passed by no program code and no test"; exit 1 ;; esac
	$(MAKE) build
	$(MAKE) test
	$(MAKE) check
	$(MAKE) examples

clean:
	dune clean
