SMOKE_JSON := /tmp/lrpc_trace_smoke.json
PIPELINE_JSON := /tmp/lrpc_pipeline_smoke.json
FAULT_JSON := /tmp/lrpc_fault_smoke.json
HOST_JSON := /tmp/lrpc_bench_host_smoke.json
BUILD_RULES := /tmp/lrpc_build_rules.txt

# Seeded chaos-soak trace digest (the soak's remote binding is classic
# Netrpc). Pinned so any change to the published fault-injection
# behaviour is a conscious re-pin, not silent drift. Re-derived in this
# tree by the per-binding retry-jitter streams (Plan.make splits a
# jitter root per binding id instead of sharing one stream).
CHAOS_DIGEST := 5eeba0661c190ff27d10f0b0154ef27c
# md5 of the `t4 t5` rendering: the classic-path LRPC numbers the
# paper tables publish, which new transports must not perturb.
T45_DIGEST := 8da7f56177c9c5c4908222de5c262ccd

.PHONY: check build build-flags test smoke pipeline-smoke fault-smoke \
  fault-stress json-smoke t45-pin golden-full bench-pipeline bench-host \
  bench-host-full clean

check: build-flags build test smoke pipeline-smoke fault-smoke json-smoke \
  t45-pin bench-host

build:
	dune build

test:
	dune runtest

# The default build optimizes without dropping a check: dune-workspace
# selects the release profile, which compiles without -opaque and so
# inlines across modules, and restores the dev profile's warnings (as
# errors) and strictness flags. Read one library module's compile
# command and fail if it carries -opaque, -unsafe or -noassert, or lacks
# dev's warning spec, its strictness flags or -g.
DEV_WARNINGS := @1..3@5..28@30..39@43@46..47@49..57@61..62-40

build-flags:
	@dune rules _build/default/lib/sim/.lrpc_sim.objs/native/lrpc_sim__Engine.cmx \
	  | sed 's/^ *//' > $(BUILD_RULES)
	@if grep -Exq -- '-opaque|-unsafe|-noassert' $(BUILD_RULES); then \
	  echo "FAIL: the default build compiles with -opaque, -unsafe or -noassert"; \
	  exit 1; fi
	@for f in '$(DEV_WARNINGS)' -strict-sequence -strict-formats -g; do \
	  grep -Fxq -- "$$f" $(BUILD_RULES) || \
	  { echo "FAIL: the default build's compile command lacks $$f"; exit 1; }; \
	done
	@echo "build flags OK"

# End-to-end: the tracer must exit cleanly and write its Chrome trace.
# The trace's shape (well-formed, a non-empty traceEvents array) is
# checked by test_obs "chrome json", under `dune runtest`.
smoke: build
	dune exec bin/lrpc_trace.exe -- --calls 2 --chrome $(SMOKE_JSON) > /dev/null
	@echo "smoke OK"

# End-to-end: the pipelining bench's CLI must run and write its JSON.
# Its rows (processors 1-4, one serial rate, pipelining ahead from two
# processors, the smoke rates pinned exactly) are checked on the typed
# result by test_experiments "pipeline bounds", under `dune runtest`.
pipeline-smoke: build
	dune exec bench/pipeline.exe -- --smoke --out $(PIPELINE_JSON) > /dev/null
	@echo "pipeline smoke OK"

# End-to-end: the chaos soak CLI must hold every invariant under a
# fixed seed (it exits non-zero otherwise), replay bit-identically
# (--replay runs it twice and compares trace digests), write the pinned
# CHAOS_DIGEST and reject bad arguments with exit code 2. The report
# itself (every invariant by name, the call count, the digest) is
# checked on its value by test_fault "invariants", under `dune runtest`.
fault-smoke: build
	dune exec bin/lrpc_chaos.exe -- --replay --out $(FAULT_JSON) > /dev/null
	@grep -q '"digest":"$(CHAOS_DIGEST)"' $(FAULT_JSON) || \
	  { echo "FAIL: chaos digest drifted from $(CHAOS_DIGEST)"; exit 1; }
	@dune exec bin/lrpc_chaos.exe -- --seed not-a-number > /dev/null 2>&1; \
	  test $$? -eq 2 || { echo "FAIL: bad --seed must exit 2"; exit 1; }
	@dune exec bin/lrpc_chaos.exe -- --no-such-flag > /dev/null 2>&1; \
	  test $$? -eq 2 || { echo "FAIL: unknown flag must exit 2"; exit 1; }
	@dune exec bin/lrpc_chaos.exe -- --calls 0 > /dev/null 2>&1; \
	  test $$? -eq 2 || { echo "FAIL: --calls 0 must exit 2"; exit 1; }
	@dune exec bin/lrpc_chaos.exe -- --clients=-3 > /dev/null 2>&1; \
	  test $$? -eq 2 || { echo "FAIL: --clients=-3 must exit 2"; exit 1; }
	@echo "fault smoke OK"

# End-to-end: every `--json` rendering's CLI must run and exit 0. What
# they print is checked on the values under `dune runtest`: each
# artifact's experiment name and the f2s point keys by test_experiments
# "suite json", and the bounds by "fig2 scale", "openloop", "locality"
# and "transport".
json-smoke: build
	dune exec bin/lrpc_experiments.exe -- f2s openloop numa transport --quick \
	  --json > /dev/null
	dune exec bin/lrpc_experiments.exe -- openloop --quick --shedding --json \
	  > /dev/null
	@echo "json smoke OK"

# The Table 4/5 pin at the CLI: the classic-path LRPC numbers must not
# move when another path changes. Tier-1 pins the same bytes in
# test_experiments "t4 t5 digest".
t45-pin: build
	@dune exec bin/lrpc_experiments.exe -- t4 t5 --quick | md5sum | \
	  grep -q '^$(T45_DIGEST) ' || \
	  { echo "FAIL: t4 t5 rendering drifted from $(T45_DIGEST)"; exit 1; }
	@echo "t45 pin OK"

# The full-horizon renderings against their manifest, test/golden_full.txt:
# every artifact's text rendering without --quick, every JSON rendering
# and openloop's --shedding one (test/golden.ml --full). A moved output
# fails with a diff naming each entry that moved; `dune promote`
# rewrites the manifest. Not part of `check` (the full horizons take a
# while); tier-1 pins the --quick renderings (test/golden.txt).
golden-full:
	dune build @test/golden-full
	@echo "golden-full OK"

# The chaos soak at its stress tier: ~10x the smoke call count, same
# invariants and replay check. Not part of `check` (takes a while).
fault-stress: build
	dune exec bin/lrpc_chaos.exe -- --calls 50000 --replay

# Regenerate the committed BENCH_pipeline.json (full call count).
bench-pipeline: build
	dune exec bench/pipeline.exe

# Host-clock benchmark smoke: the suite must be byte-identical serial
# vs parallel, and every tracked number finite and positive (host.exe
# exits non-zero otherwise).
bench-host: build
	dune exec bench/host.exe -- --quick --out $(HOST_JSON) > /dev/null
	@echo "bench-host OK"

# Regenerate the committed BENCH_host.json (full sample sizes).
bench-host-full: build
	dune exec bench/host.exe

clean:
	dune clean
