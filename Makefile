# Convenience targets; everything is plain dune underneath.

.PHONY: all build test bench micro examples doc clean check trace-smoke fault-smoke workload-smoke sweep-smoke small-n-smoke stabilize-smoke chord-smoke social-smoke bench-engine trace-bench-smoke perfbench-smoke surface-check smoke

all: build

build:
	dune build @all

test:
	dune runtest

bench:
	dune exec bench/main.exe -- all

micro:
	dune exec bench/main.exe -- micro

examples:
	dune exec examples/quickstart.exe
	dune exec examples/sampling_anatomy.exe
	dune exec examples/churn_survival.exe
	dune exec examples/dos_defense.exe
	dune exec examples/anonymizer_demo.exe
	dune exec examples/dht_pubsub_demo.exe

doc:
	dune build @doc

# Run a small traced experiment and validate the JSONL trace it produces
# (see docs/observability.md for the schema).
trace-smoke:
	dune build bench/main.exe bin/trace_check.exe
	cd /tmp && dune exec --root $(CURDIR) bench/main.exe -- \
	  --trace /tmp/overlay_trace.jsonl e1 > /dev/null
	dune exec bin/trace_check.exe -- /tmp/overlay_trace.jsonl

# Run a traced churn scenario and a traced message-level group
# simulation under the fault model (see docs/fault_model.md) and validate
# both traces.  FAULT_DROP is the per-message drop rate; at 0 the drop
# leg is off and only the duplicate, delay and crash legs fire.  A Chord
# run under a full plan then validates leg-level fault events that carry
# src/dst endpoints, and a recover transition.  Then
# check the inert plan end to end: churn, groupsim and a workload run each
# write the same trace with --faults drop=0 as without --faults, and the
# workload (the loop's last run) the same report; groupsim's report gains
# a `faults:` line, so only its trace is compared.
FAULT_DROP ?= 0.1
INERT_RUNS = "churn -n 256 --epochs 3 --retry 3" "groupsim -n 256" \
  "workload -n 256 --rounds 30 --clients 32 --attack group-kill --frac 0.2 --retry 3"
fault-smoke:
	dune build bin/overlay_sim.exe bin/trace_check.exe
	dune exec bin/overlay_sim.exe -- churn -n 256 --epochs 3 \
	  --faults drop=$(FAULT_DROP),dup=0.01,delay=2,crash=2 --retry 3 \
	  --trace /tmp/overlay_fault_trace.jsonl > /dev/null
	dune exec bin/trace_check.exe -- /tmp/overlay_fault_trace.jsonl
	dune exec bin/overlay_sim.exe -- groupsim -n 256 \
	  --faults drop=$(FAULT_DROP),dup=0.01,delay=2,crash=2 \
	  --trace /tmp/overlay_fault_groupsim.jsonl > /dev/null
	dune exec bin/trace_check.exe -- /tmp/overlay_fault_groupsim.jsonl
	dune exec bin/overlay_sim.exe -- chord -n 256 --rounds 16 --seed 5 \
	  --faults drop=0.02,dup=0.01,delay=2,crash=2,recover=4,seed=5 \
	  --trace /tmp/overlay_fault_chord.jsonl > /dev/null
	dune exec bin/trace_check.exe -- /tmp/overlay_fault_chord.jsonl
	grep -q '"kind":"recover"' /tmp/overlay_fault_chord.jsonl
	grep -q '"ev":"fault","kind":"delay","round":[0-9]*,"src"' /tmp/overlay_fault_chord.jsonl
	for run in $(INERT_RUNS); do \
	  dune exec bin/overlay_sim.exe -- $$run \
	    --trace /tmp/overlay_inert_free.jsonl > /tmp/overlay_inert_free.out && \
	  dune exec bin/overlay_sim.exe -- $$run --faults drop=0 \
	    --trace /tmp/overlay_inert.jsonl > /tmp/overlay_inert.out && \
	  cmp /tmp/overlay_inert_free.jsonl /tmp/overlay_inert.jsonl || exit 1; \
	done; \
	cmp /tmp/overlay_inert_free.out /tmp/overlay_inert.out

# Run a traced workload (group-kill DoS + message drops + retries) and
# validate its trace; then validate the request plane's other hooks: the closed
# loop with churn, the Chord backend, and random blocking (see
# docs/workloads.md).  Last,
# overflow one pub-sub topic with 1.2 M open-loop publishes: the run must
# exit 0 with the publishes past the topic's capacity counted as failed.
# WORKLOAD_DROP is the per-attempt message drop rate; at 0 the fault plan
# is inert and the run is byte-identical to a fault-free one.
WORKLOAD_DROP ?= 0.05
WORKLOAD_HOOKS = -n 256 --rounds 24 --clients 16 --seed 11 --attack group-kill --frac 0.2 --retry 2
workload-smoke:
	dune build bin/overlay_sim.exe bin/trace_check.exe
	dune exec bin/overlay_sim.exe -- workload -n 256 --rounds 30 --clients 32 \
	  --attack group-kill --frac 0.2 --faults drop=$(WORKLOAD_DROP) --retry 3 \
	  --trace /tmp/overlay_workload_trace.jsonl > /dev/null
	dune exec bin/trace_check.exe -- /tmp/overlay_workload_trace.jsonl
	dune exec bin/overlay_sim.exe -- workload $(WORKLOAD_HOOKS) \
	  --arrivals closed:2 --churn 0.2 --churn-epoch 8 --faults drop=0.05,seed=3 \
	  --trace /tmp/overlay_workload_closed.jsonl > /dev/null
	dune exec bin/trace_check.exe -- /tmp/overlay_workload_closed.jsonl
	dune exec bin/overlay_sim.exe -- workload $(WORKLOAD_HOOKS) \
	  --backend chord --churn 0.1 --faults drop=0.02,seed=5 \
	  --trace /tmp/overlay_workload_chord.jsonl > /dev/null
	dune exec bin/trace_check.exe -- /tmp/overlay_workload_chord.jsonl
	dune exec bin/overlay_sim.exe -- workload -n 1024 --rounds 40 --clients 64 \
	  --attack random --frac 0.2 --seed 3 \
	  --trace /tmp/overlay_workload_random.jsonl > /dev/null
	dune exec bin/trace_check.exe -- /tmp/overlay_workload_random.jsonl
	dune exec bin/overlay_sim.exe -- workload -n 65536 --rounds 24 --clients 256 \
	  --period 8 --attack group-kill --frac 0.2 \
	  --trace /tmp/overlay_workload_reshuffle.jsonl > /dev/null
	dune exec bin/trace_check.exe -- /tmp/overlay_workload_reshuffle.jsonl
	dune exec bin/overlay_sim.exe -- workload -n 64 --keys 1 --mix publish=1 \
	  --clients 4096 --rounds 300 --arrivals open:1 --static \
	  > /tmp/overlay_workload_topic_full.txt
	awk '$$1 == "publish" && $$10 > 0 { full = 1 } END { exit !full }' \
	  /tmp/overlay_workload_topic_full.txt

# For every registered run kind (the list comes from the binary's own
# runner diagnostic), run a small sweep grid twice through its checkpoint
# (once fresh, once resumed from a truncated file at another domain
# count) and check both artifacts are byte-identical and the progress
# trace validates (see docs/sweeps.md).  The grid sets only shared keys,
# since a sweep refuses a key its kind does not read (rounds, say, for
# sample).
SWEEP_GRID ?= n=64;axis:seed=1|2
SWEEP_BIN = _build/default/bin/overlay_sim.exe
# The registered run kinds, space-separated, read from the binary's
# `unknown sweep runner' diagnostic.
SWEEP_KINDS = $(SWEEP_BIN) sweep --spec 'run=?' 2>&1 \
  | sed -n 's/^unknown sweep runner.*(\(.*\))$$/\1/p' | tr '|' ' '
sweep-smoke:
	dune build bin/overlay_sim.exe bin/trace_check.exe
	set -e; \
	kinds=$$($(SWEEP_KINDS)); \
	test -n "$$kinds"; \
	for k in $$kinds; do \
	  spec="sweep=smoke;run=$$k;$(SWEEP_GRID)"; \
	  rm -f /tmp/overlay_sweep.jsonl /tmp/overlay_sweep_cut.jsonl; \
	  $(SWEEP_BIN) sweep --spec "$$spec" \
	    --checkpoint /tmp/overlay_sweep.jsonl --domains 1 \
	    --trace /tmp/overlay_sweep_trace.jsonl > /dev/null; \
	  head -n 1 /tmp/overlay_sweep.jsonl > /tmp/overlay_sweep_cut.jsonl; \
	  printf '{"torn' >> /tmp/overlay_sweep_cut.jsonl; \
	  $(SWEEP_BIN) sweep --spec "$$spec" \
	    --checkpoint /tmp/overlay_sweep_cut.jsonl --domains 4 > /dev/null; \
	  cmp /tmp/overlay_sweep.jsonl /tmp/overlay_sweep_cut.jsonl; \
	  _build/default/bin/trace_check.exe --require progress \
	    /tmp/overlay_sweep_trace.jsonl > /dev/null; \
	  echo "sweep-smoke: run=$$k resumes byte-identical"; \
	done

# Run every registered run kind (the list comes from the binary, as in
# sweep-smoke) at small network sizes.  Each run must either succeed
# (exit 0) or reject its input with a typed diagnostic (exit 2).  An
# OCaml stdlib Invalid_argument (a bounds error, or a bare stdlib
# function name such as `Array.make') also leaves through the CLI's
# exit-2 wrapper, so a stderr naming one fails the target as well.
STDLIB_INVALID_ARG = index out of bounds|Invalid_argument|^(Array|Bytes|String|List|Random|Buffer|Hashtbl)[.][A-Za-z0-9_]+( / [A-Za-z.]+)?$$
small-n-smoke:
	dune build bin/overlay_sim.exe
	set -e; \
	err=$$(mktemp); trap 'rm -f "$$err"' EXIT; \
	kinds=$$($(SWEEP_KINDS)); \
	test -n "$$kinds"; \
	for k in $$kinds; do \
	  for n in 3 8 16 40 64; do \
	    rc=0; \
	    $(SWEEP_BIN) $$k -n $$n > /dev/null 2> "$$err" || rc=$$?; \
	    if [ $$rc -ne 0 ] && [ $$rc -ne 2 ]; then \
	      echo "small-n-smoke: $$k -n $$n exited $$rc"; \
	      cat "$$err"; exit 1; \
	    fi; \
	    if grep -qE '$(STDLIB_INVALID_ARG)' "$$err"; then \
	      echo "small-n-smoke: $$k -n $$n hit a stdlib Invalid_argument"; \
	      cat "$$err"; exit 1; \
	    fi; \
	  done; \
	  echo "small-n-smoke: $$k exits 0 or 2 at n = 3 8 16 40 64"; \
	done

# The experiments' BENCH_eNN.json files at the repository root are
# committed baselines.  A smoke target reruns its experiments in
# BENCH_SMOKE_DIR and requires each fresh file to equal the committed one
# once the "wall_s" field, the only machine-dependent one, is removed
# from both.  A baseline changes only when a fresh file is copied over it
# on purpose.
BENCH_SMOKE_DIR = _build/bench-smoke
STRIP_WALL = sed 's/"wall_s":[0-9.]*,\{0,1\}//'
BENCH_SMOKE = set -e; mkdir -p $(BENCH_SMOKE_DIR); cd $(BENCH_SMOKE_DIR); \
  $(CURDIR)/_build/default/bench/main.exe $(1) > /dev/null; \
  for e in $(1); do \
    $(STRIP_WALL) BENCH_$$e.json > BENCH_$$e.fresh; \
    $(STRIP_WALL) $(CURDIR)/BENCH_$$e.json | diff - BENCH_$$e.fresh \
      || { echo "BENCH_$$e.json differs from the committed baseline"; \
           exit 1; }; \
  done

# Run a small corrupted-topology repair twice with the same seed, check
# the traces are byte-identical and the converged note was emitted, then
# rerun the self-stabilization experiments e17 and e18 against their
# committed baselines (see BENCH_SMOKE above, and docs/fault_model.md for
# the corruption spec grammar).
STABILIZE_SPEC ?= class=split,severity=0.5
stabilize-smoke:
	dune build bin/overlay_sim.exe bin/trace_check.exe bench/main.exe
	dune exec bin/overlay_sim.exe -- stabilize -n 128 \
	  --corruption '$(STABILIZE_SPEC)' \
	  --trace /tmp/overlay_stab_a.jsonl > /dev/null
	dune exec bin/overlay_sim.exe -- stabilize -n 128 \
	  --corruption '$(STABILIZE_SPEC)' \
	  --trace /tmp/overlay_stab_b.jsonl > /dev/null
	cmp /tmp/overlay_stab_a.jsonl /tmp/overlay_stab_b.jsonl
	dune exec bin/trace_check.exe -- --require converged \
	  /tmp/overlay_stab_a.jsonl
	dune exec bin/trace_check.exe -- --require 'repair/*' \
	  /tmp/overlay_stab_a.jsonl
	$(call BENCH_SMOKE,e17 e18)

# Run the Chord backend twice with the same seed under churn, faults and
# the stale-view successor-list attack, check the traces are
# byte-identical and the staggered maintenance spans were emitted; do the
# same (identity and trace validation) for the attack under drawn
# lateness, then rerun the head-to-head comparison experiment e19 against
# its committed baseline (see BENCH_SMOKE above, and docs/chord.md).
CHORD_SPEC ?= --n 256 --rounds 32 --attack succ-kill --frac 0.2 --churn 0.1 --faults drop=0.02,seed=5 --retry 3
CHORD_STALE_SPEC = --n 256 --rounds 40 --seed 7 --attack succ-kill --frac 0.2 --churn 0.1 --staleness 0..6
chord-smoke:
	dune build bin/overlay_sim.exe bin/trace_check.exe bench/main.exe
	dune exec bin/overlay_sim.exe -- chord $(CHORD_SPEC) \
	  --trace /tmp/overlay_chord_a.jsonl > /dev/null
	dune exec bin/overlay_sim.exe -- chord $(CHORD_SPEC) \
	  --trace /tmp/overlay_chord_b.jsonl > /dev/null
	cmp /tmp/overlay_chord_a.jsonl /tmp/overlay_chord_b.jsonl
	dune exec bin/trace_check.exe -- --require chord/maintain \
	  /tmp/overlay_chord_a.jsonl
	dune exec bin/overlay_sim.exe -- chord $(CHORD_STALE_SPEC) \
	  --trace /tmp/overlay_chord_stale_a.jsonl > /dev/null
	dune exec bin/overlay_sim.exe -- chord $(CHORD_STALE_SPEC) \
	  --trace /tmp/overlay_chord_stale_b.jsonl > /dev/null
	cmp /tmp/overlay_chord_stale_a.jsonl /tmp/overlay_chord_stale_b.jsonl
	dune exec bin/trace_check.exe -- /tmp/overlay_chord_stale_a.jsonl
	$(call BENCH_SMOKE,e19)

# Run the Reddit-style social application — sessions, hot-key group-kill
# and faults all active — check the social/* span family was emitted, then
# rerun the per-class SLO experiment e20 against its committed baseline
# (see BENCH_SMOKE above, and docs/workloads.md).
SOCIAL_SPEC ?= --n 256 --users 32 --rounds 32 --session 0.85:8 --attack group-kill --frac 0.2 --faults drop=0.02,seed=5
social-smoke:
	dune build bin/overlay_sim.exe bin/trace_check.exe bench/main.exe
	dune exec bin/overlay_sim.exe -- social $(SOCIAL_SPEC) \
	  --trace /tmp/overlay_social_a.jsonl > /dev/null
	dune exec bin/trace_check.exe -- --require 'social/*' \
	  /tmp/overlay_social_a.jsonl
	$(call BENCH_SMOKE,e20)

# Engine micro-benchmark: the engine's scaling curve, one point per n up
# to 10^6.  Runs in _build/bench-engine, so the fresh BENCH_engine.json is
# written there, then gates it against the committed one at the
# repository root: the fresh n=65536 msgs/sec must stay within 80% of
# that baseline (bin/bench_gate), so an engine-core regression fails CI
# instead of silently shipping a slower curve.  The committed baseline
# changes only when the fresh file is copied over it on purpose.
BENCH_ENGINE_DIR = _build/bench-engine
bench-engine:
	dune build bench/main.exe bin/bench_gate.exe
	mkdir -p $(BENCH_ENGINE_DIR)
	cd $(BENCH_ENGINE_DIR) && $(CURDIR)/_build/default/bench/main.exe engine
	_build/default/bin/bench_gate.exe BENCH_engine.json \
	  $(BENCH_ENGINE_DIR)/BENCH_engine.json --n 65536 --min-ratio 0.8

# Binary trace sink end to end: run the same seeded workload through the
# JSONL and binary sinks, check the binary file decodes and its JSONL
# export is byte-identical to the text sink, then run the trace
# micro-benchmark in _build/bench-trace, so its BENCH_trace.json lands
# there and not in the source tree (it fails under 5x compression).
BENCH_TRACE_DIR = _build/bench-trace
trace-bench-smoke:
	dune build bin/overlay_sim.exe bin/trace_check.exe bench/main.exe
	dune exec bin/overlay_sim.exe -- workload -n 256 --rounds 30 --clients 32 \
	  --seed 11 --trace /tmp/overlay_tb.jsonl > /dev/null
	dune exec bin/overlay_sim.exe -- workload -n 256 --rounds 30 --clients 32 \
	  --seed 11 --trace /tmp/overlay_tb.bin > /dev/null
	dune exec bin/trace_check.exe -- --require request \
	  --export-jsonl /tmp/overlay_tb_export.jsonl /tmp/overlay_tb.bin
	cmp /tmp/overlay_tb_export.jsonl /tmp/overlay_tb.jsonl
	mkdir -p $(BENCH_TRACE_DIR)
	cd $(BENCH_TRACE_DIR) && $(CURDIR)/_build/default/bench/main.exe trace

# End-to-end benchmark harness at smoke size (~2 s): every workload at
# n = 256, untraced and traced, with each run's outputs checked.  Catches
# a harness build break or a determinism failure (see
# perfbench/README.md).
perfbench-smoke:
	python3 perfbench/run.py --smoke

# Check that every value lib/ exports has a caller outside test/ or an
# allowlist entry with a reason; a stale entry (one that gained a caller
# or no longer exists) fails too (see tools/surface_check.py).
surface-check:
	python3 tools/surface_check.py

# All the fast health checks in one target: traced-run validation, the
# fault model under churn, the workload driver under attack, sweep
# checkpoint/resume identity, every run kind at small n,
# corrupted-topology repair, the Chord
# backend head-to-head, the social application's per-class SLOs, and the
# engine and trace-sink micro-benchmarks, the end-to-end benchmark
# harness at smoke size, and the library surface check.
smoke: trace-smoke fault-smoke workload-smoke sweep-smoke small-n-smoke stabilize-smoke chord-smoke social-smoke bench-engine trace-bench-smoke perfbench-smoke surface-check

# The full release gate: build everything, run every test, regenerate
# every experiment table.
check: build test bench

clean:
	dune clean
