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

# End-to-end: the pipelining bench must run and emit one well-formed
# result row per processor count (1-4), each with a positive speedup.
pipeline-smoke: build
	dune exec bench/pipeline.exe -- --smoke --out $(PIPELINE_JSON) > /dev/null
	@python3 -c "import json; d = json.load(open('$(PIPELINE_JSON)')); \
	  rs = d['results']; \
	  assert d['bench'] == 'pipeline' and len(rs) == 4; \
	  assert [r['processors'] for r in rs] == [1, 2, 3, 4]; \
	  assert all(r['serial_calls_per_ms'] > 0 and r['pipelined_calls_per_ms'] > 0 \
	             and r['speedup'] > 0 for r in rs)"
	@echo "pipeline smoke OK"

# End-to-end: the chaos soak must hold every invariant under a fixed
# seed, replay bit-identically (--replay runs it twice and compares
# trace digests), and emit the invariant summary in the shape CI and
# the docs rely on.
fault-smoke: build
	dune exec bin/lrpc_chaos.exe -- --replay --out $(FAULT_JSON) > /dev/null
	@python3 -c "import json; d = json.load(open('$(FAULT_JSON)')); \
	  inv = d['invariants']; out = d['outcomes']; \
	  assert d['calls'] >= 5000; \
	  assert set(inv) == {'all_resolved', 'failure_accounting', 'pool_balanced', \
	                      'linkages_zero', 'in_flight_zero', 'no_stuck_threads', \
	                      'no_thread_failures'}; \
	  assert all(inv.values()); \
	  assert sum(out.values()) == d['calls']; \
	  assert d['digest']"
	@dune exec bin/lrpc_chaos.exe -- --seed not-a-number > /dev/null 2>&1; \
	  test $$? -eq 2 || { echo "FAIL: bad --seed must exit 2"; exit 1; }
	@dune exec bin/lrpc_chaos.exe -- --no-such-flag > /dev/null 2>&1; \
	  test $$? -eq 2 || { echo "FAIL: unknown flag must exit 2"; exit 1; }
	@dune exec bin/lrpc_chaos.exe -- --calls 0 > /dev/null 2>&1; \
	  test $$? -eq 2 || { echo "FAIL: --calls 0 must exit 2"; exit 1; }
	@dune exec bin/lrpc_chaos.exe -- --clients=-3 > /dev/null 2>&1; \
	  test $$? -eq 2 || { echo "FAIL: --clients=-3 must exit 2"; exit 1; }
	@echo "fault smoke OK"

# End-to-end: the multiprocessor scaling study's JSON rendering must
# have the expected shape on the quick 8-CPU ladder, LRPC throughput
# must grow monotonically with processors, and SRC RPC must stay below
# its ~4000 calls/s global-lock ceiling.
fig2-scale-smoke: build
	dune exec bin/lrpc_experiments.exe -- f2s --quick --json > $(SCALE_JSON)
	@python3 -c "import json; d = json.load(open('$(SCALE_JSON)')); \
	  ps = d['points']; \
	  assert d['experiment'] == 'fig2_scale'; \
	  assert [p['cpus'] for p in ps] == [1, 2, 4, 8]; \
	  keys = {'cpus', 'lrpc_cps', 'lrpc_speedup', 'src_cps', 'src_speedup', \
	          'unbal_cps', 'unbal_steals', 'steals', 'steals_tagged', \
	          'shard_contended', 'lrpc_spin_us', 'src_steals', 'src_spin_us', \
	          'src_lock_contended'}; \
	  assert all(keys <= set(p) for p in ps), 'missing point keys'; \
	  ls = [p['lrpc_cps'] for p in ps]; \
	  assert all(a < b for a, b in zip(ls, ls[1:])), 'LRPC must scale'; \
	  assert all(p['src_cps'] < 4100 for p in ps), 'SRC past its lock ceiling'; \
	  assert ps[-1]['unbal_steals'] == ps[-1]['cpus'] - 1"
	@echo "fig2-scale smoke OK"

# End-to-end: the open-loop load study's JSON must cover all three
# systems with a monotone offered-load sweep, ordered quantiles at
# every point, and a detected saturation knee per system (the quick
# sweep deliberately runs past capacity).
openloop-smoke: build
	dune exec bin/lrpc_experiments.exe -- openloop --quick --json > $(OPENLOOP_JSON)
	@python3 -c "import json; d = json.load(open('$(OPENLOOP_JSON)')); \
	  systems = d['systems']; \
	  assert d['experiment'] == 'openloop'; \
	  assert {'lrpc', 'src_rpc', 'netrpc'} <= {s['system'] for s in systems}; \
	  loads = {s['system']: [p['offered_cps'] for p in s['points']] for s in systems}; \
	  assert all(all(a < b for a, b in zip(l, l[1:])) for l in loads.values()), \
	    'offered load not strictly increasing: %s' % loads; \
	  assert all(p['p50_us'] <= p['p99_us'] <= p['p999_us'] \
	             for s in systems for p in s['points']), 'quantiles unordered'; \
	  assert all(p['measured'] <= p['completed'] <= p['issued'] \
	             for s in systems for p in s['points']); \
	  knees = {s['system']: s['knee_cps'] for s in systems}; \
	  assert all(k is not None and k > 0 for k in knees.values()), \
	    'missing saturation knee: %s' % knees"
	@echo "openloop smoke OK"

# End-to-end: the overload-control ablation must degrade gracefully.
# With shedding on, goodput at and past the knee stays within ~10-15%
# of the shared capacity anchor and the admitted calls' p99 stays
# bounded (the 5 ms deadline budget plus queueing), while the shed-off
# baseline's p99 collapses by an order of magnitude; the shed count
# grows with offered load and is exactly zero with the policy off.
overload-smoke: build
	dune exec bin/lrpc_experiments.exe -- openloop --quick --shedding --json \
	  > $(OVERLOAD_JSON)
	@python3 -c "import json; d = json.load(open('$(OVERLOAD_JSON)')); \
	  assert d['experiment'] == 'openloop_shed'; \
	  s = {c['system']: c for c in d['systems']}; \
	  assert set(s) == {'lrpc_shed_off', 'lrpc_shed_on'}; \
	  off, on = s['lrpc_shed_off'], s['lrpc_shed_on']; \
	  cap = on['capacity_cps']; \
	  assert cap == off['capacity_cps'], 'arms must share the capacity anchor'; \
	  assert len(on['points']) == len(off['points']) >= 3; \
	  past_knee = [p for p in on['points'] if p['offered_cps'] > cap]; \
	  assert past_knee, 'sweep must run past capacity'; \
	  assert all(p['achieved_cps'] >= 0.85 * cap for p in past_knee), \
	    'shed-on goodput collapsed: %s' % [p['achieved_cps'] for p in past_knee]; \
	  assert all(p['p99_us'] <= 30000 for p in past_knee), \
	    'shed-on p99 unbounded: %s' % [p['p99_us'] for p in past_knee]; \
	  assert off['points'][-1]['p99_us'] >= 3 * on['points'][-1]['p99_us'], \
	    'shed-off baseline did not collapse'; \
	  sheds = [p['shed'] for p in on['points']]; \
	  assert all(a <= b for a, b in zip(sheds, sheds[1:])) and sheds[-1] > 0, \
	    'shed count must grow with offered load: %s' % sheds; \
	  assert all(p['shed'] == 0 for p in off['points'])"
	@echo "overload smoke OK"

# End-to-end: the locality study's JSON must cover all four placements
# at every ladder rung, the distance-ordered victim rings must actually
# bias thieves toward their own cluster (near >= far steals on the
# adversarial-far placement at the top rung), and — the other half of
# the contract — a run with NO topology installed must still produce
# the seed chaos digest byte-for-byte: the locality path has to be
# invisible when it is off.
numa-smoke: build
	dune exec bin/lrpc_experiments.exe -- numa --quick --json > $(NUMA_JSON)
	@python3 -c "import json; d = json.load(open('$(NUMA_JSON)')); \
	  ps = d['points']; \
	  assert d['experiment'] == 'numa'; \
	  assert [p['cpus'] for p in ps] == [4, 8]; \
	  skeys = {'cps', 'steals', 'steals_near', 'steals_far'}; \
	  series = ['flat', 'clu', 'far_aware', 'far_blind']; \
	  assert all(skeys <= set(p[s]) for p in ps for s in series), \
	    'missing series keys'; \
	  assert all('aware_recovery' in p and 'blind_recovery' in p for p in ps); \
	  top = ps[-1]; \
	  assert top['far_aware']['steals_near'] >= top['far_aware']['steals_far'], \
	    'aware thief must prefer near victims: %s' % top['far_aware']"
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
