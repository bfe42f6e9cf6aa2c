SMOKE_JSON := /tmp/lrpc_trace_smoke.json
PIPELINE_JSON := /tmp/lrpc_pipeline_smoke.json
FAULT_JSON := /tmp/lrpc_fault_smoke.json
HOST_JSON := /tmp/lrpc_bench_host_smoke.json
SCALE_JSON := /tmp/lrpc_fig2_scale_smoke.json
OPENLOOP_JSON := /tmp/lrpc_openloop_smoke.json
OVERLOAD_JSON := /tmp/lrpc_overload_smoke.json
NUMA_JSON := /tmp/lrpc_numa_smoke.json
NUMA_CHAOS_JSON := /tmp/lrpc_numa_chaos_smoke.json
TRANSPORT_JSON := /tmp/lrpc_transport_smoke.json
TRANSPORT_CHAOS_JSON := /tmp/lrpc_transport_chaos_smoke.json
TRANSPORT_T45_TXT := /tmp/lrpc_transport_t45_smoke.txt

# Seeded chaos-soak trace digest (the soak's remote binding is classic
# Netrpc). Pinned so any change to the published fault-injection
# behaviour is a conscious re-pin, not silent drift. Re-derived in this
# tree by the per-binding retry-jitter streams (Plan.make splits a
# jitter root per binding id instead of sharing one stream).
CHAOS_DIGEST := 5eeba0661c190ff27d10f0b0154ef27c
# md5 of the `t4 t5` rendering: the classic-path LRPC numbers the
# paper tables publish, which new transports must not perturb.
T45_DIGEST := 8da7f56177c9c5c4908222de5c262ccd

.PHONY: check build test smoke pipeline-smoke fault-smoke fault-stress \
  fig2-scale-smoke openloop-smoke overload-smoke numa-smoke transport-smoke \
  bench-pipeline bench-host bench-host-full clean

check: build test smoke pipeline-smoke fault-smoke fig2-scale-smoke \
  openloop-smoke overload-smoke numa-smoke transport-smoke bench-host

build:
	dune build

test:
	dune runtest

# End-to-end: the tracer must exit cleanly and emit valid Chrome JSON.
smoke: build
	dune exec bin/lrpc_trace.exe -- --calls 2 --chrome $(SMOKE_JSON) > /dev/null
	@if command -v jq > /dev/null; then \
	  jq -e '.traceEvents | length > 0' $(SMOKE_JSON) > /dev/null; \
	else \
	  python3 -c "import json; d = json.load(open('$(SMOKE_JSON)')); assert d['traceEvents']"; \
	fi
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
# (--replay runs it twice and compares trace digests) and reject bad
# arguments with exit code 2. The report itself (every invariant by
# name, the call count, the pinned CHAOS_DIGEST) is checked by
# test_fault "soak", under `dune runtest`.
fault-smoke: build
	dune exec bin/lrpc_chaos.exe -- --replay --out $(FAULT_JSON) > /dev/null
	@dune exec bin/lrpc_chaos.exe -- --seed not-a-number > /dev/null 2>&1; \
	  test $$? -eq 2 || { echo "FAIL: bad --seed must exit 2"; exit 1; }
	@dune exec bin/lrpc_chaos.exe -- --no-such-flag > /dev/null 2>&1; \
	  test $$? -eq 2 || { echo "FAIL: unknown flag must exit 2"; exit 1; }
	@dune exec bin/lrpc_chaos.exe -- --calls 0 > /dev/null 2>&1; \
	  test $$? -eq 2 || { echo "FAIL: --calls 0 must exit 2"; exit 1; }
	@dune exec bin/lrpc_chaos.exe -- --clients=-3 > /dev/null 2>&1; \
	  test $$? -eq 2 || { echo "FAIL: --clients=-3 must exit 2"; exit 1; }
	@echo "fault smoke OK"

# End-to-end: the multiprocessor scaling study's CLI must emit its JSON
# with every point key. Its bounds (the 1/2/4/8 ladder, LRPC scaling
# strictly, SRC RPC below its ~4000 calls/s global-lock ceiling, one
# steal per other processor at the top rung) are checked on the typed
# result by test_experiments "fig2 scale", under `dune runtest`.
fig2-scale-smoke: build
	dune exec bin/lrpc_experiments.exe -- f2s --quick --json > $(SCALE_JSON)
	@python3 -c "import json; d = json.load(open('$(SCALE_JSON)')); \
	  ps = d['points']; \
	  assert d['experiment'] == 'fig2_scale'; \
	  keys = {'cpus', 'lrpc_cps', 'lrpc_speedup', 'src_cps', 'src_speedup', \
	          'unbal_cps', 'unbal_steals', 'steals', 'steals_tagged', \
	          'shard_contended', 'lrpc_spin_us', 'src_steals', 'src_spin_us', \
	          'src_lock_contended'}; \
	  assert ps and all(keys <= set(p) for p in ps), 'missing point keys'"
	@echo "fig2-scale smoke OK"

# End-to-end: the open-loop load study's CLI must emit parseable JSON.
# Its bounds (all three systems, a strictly increasing offered load,
# ordered quantiles and a saturation knee per system) are checked on
# the typed result by test_experiments "openloop", under `dune runtest`.
openloop-smoke: build
	dune exec bin/lrpc_experiments.exe -- openloop --quick --json > $(OPENLOOP_JSON)
	@python3 -c "import json; d = json.load(open('$(OPENLOOP_JSON)')); \
	  assert d['experiment'] == 'openloop'"
	@echo "openloop smoke OK"

# End-to-end: the overload-control ablation's CLI must emit parseable
# JSON. Its bounds (one capacity anchor, shed-on goodput and p99 past
# the knee, the shed-off collapse, monotone sheds, none with the policy
# off) are checked by test_experiments "shedding bounds".
overload-smoke: build
	dune exec bin/lrpc_experiments.exe -- openloop --quick --shedding --json \
	  > $(OVERLOAD_JSON)
	@python3 -c "import json; d = json.load(open('$(OVERLOAD_JSON)')); \
	  assert d['experiment'] == 'openloop_shed'"
	@echo "overload smoke OK"

# End-to-end: the locality study's CLI must emit parseable JSON. Its
# bounds (the 4/8 ladder, no near/far steals without a topology, near +
# far = steals on every clustered series, near >= far steals for the
# distance-aware thief at the top rung, positive finite recoveries) are
# checked on the typed result by test_experiments "numa bounds", under
# `dune runtest`. The other half of the contract: a run with NO
# topology installed must still produce the seed chaos digest
# byte-for-byte — the locality path has to be invisible when it is off.
numa-smoke: build
	dune exec bin/lrpc_experiments.exe -- numa --quick --json > $(NUMA_JSON)
	@python3 -c "import json; d = json.load(open('$(NUMA_JSON)')); \
	  assert d['experiment'] == 'numa'"
	dune exec bin/lrpc_chaos.exe -- --out $(NUMA_CHAOS_JSON) > /dev/null
	@python3 -c "import json; d = json.load(open('$(NUMA_CHAOS_JSON)')); \
	  assert d['digest'] == '$(CHAOS_DIGEST)', \
	    'flat-topology digest drifted: %s' % d['digest']"
	@echo "numa smoke OK"

# End-to-end: the three-way transport study's CLI must emit parseable
# JSON. Its bounds (eRPC beats classic at 64 B, 1% packet loss degrades
# eRPC goodput gracefully, the ablations point the right way) are
# checked on the typed result by test_experiments "transport", under
# `dune runtest`. The other half of the contract: the seeded chaos
# digest and the Table 4/5 renderings must match their pins
# byte-for-byte — the packet-granular path has to be invisible until
# selected.
transport-smoke: build
	dune exec bin/lrpc_experiments.exe -- transport --quick --json > $(TRANSPORT_JSON)
	@python3 -c "import json; d = json.load(open('$(TRANSPORT_JSON)')); \
	  assert d['experiment'] == 'transport'"
	dune exec bin/lrpc_chaos.exe -- --out $(TRANSPORT_CHAOS_JSON) > /dev/null
	@python3 -c "import json; d = json.load(open('$(TRANSPORT_CHAOS_JSON)')); \
	  assert d['digest'] == '$(CHAOS_DIGEST)', \
	    'classic-default chaos digest drifted: %s' % d['digest']"
	dune exec bin/lrpc_experiments.exe -- t4 t5 --quick > $(TRANSPORT_T45_TXT)
	@python3 -c "import hashlib; \
	  h = hashlib.md5(open('$(TRANSPORT_T45_TXT)', 'rb').read()).hexdigest(); \
	  assert h == '$(T45_DIGEST)', 'Table 4/5 rendering drifted: %s' % h"
	@echo "transport smoke OK"

# The chaos soak at its stress tier: ~10x the smoke call count, same
# invariants and replay check. Not part of `check` (takes a while).
fault-stress: build
	dune exec bin/lrpc_chaos.exe -- --calls 50000 --replay

# Regenerate the committed BENCH_pipeline.json (full call count).
bench-pipeline: build
	dune exec bench/pipeline.exe

# Host-clock benchmark smoke: every tracked number must be present and
# numeric, and the suite must be byte-identical serial vs parallel
# (host.exe itself fails otherwise).
bench-host: build
	dune exec bench/host.exe -- --quick --out $(HOST_JSON) > /dev/null
	@python3 -c "import json, numbers; d = json.load(open('$(HOST_JSON)')); \
	  keys = ['engine_events_per_sec', 'fig1_synthesis_calls_per_sec', \
	          'fig2_wallclock_sec', 'fig2_scale_wallclock_sec', \
	          'openloop_sweep_wallclock_sec', \
	          'transport_sweep_wallclock_sec', 'erpc_vs_classic_speedup', \
	          'chaos_calls_per_sec', 'suite_serial_sec', 'suite_jobs_sec', \
	          'suite_speedup', 'suite_efficiency', 'jobs', 'host_cores', \
	          'fig2_numa_wallclock_sec', 'numa_cluster_size', \
	          'numa_cross_mult', 'numa_max_cpus', \
	          'numa_aware_recovery', 'numa_blind_recovery']; \
	  missing = [k for k in keys if k not in d]; \
	  assert not missing, 'missing keys: %s' % missing; \
	  bad = [k for k in keys if not isinstance(d[k], numbers.Number)]; \
	  assert not bad, 'non-numeric keys: %s' % bad; \
	  assert d['bench'] == 'host' and d['mode'] == 'quick'; \
	  assert d['ocaml_version'], 'ocaml_version missing/empty'; \
	  assert all(d[k] > 0 for k in keys)"
	@echo "bench-host OK"

# Regenerate the committed BENCH_host.json (full sample sizes).
bench-host-full: build
	dune exec bench/host.exe

clean:
	dune clean
