# Workspace targets (`just`-style; plain make so it runs everywhere).

CARGO ?= cargo

.PHONY: build test audit audit-baseline fmt-check clippy bench bench-fleet bench-hotpath bench-upcall bench-detect bench-policy bench-backends bench-fault bench-check bench-compare bench-summary perfbench perfbench-trace perfbench-smoke trace-forensics example-fleet clean

build:
	$(CARGO) build --release

# Tier-1 verification (ROADMAP.md).
test:
	$(CARGO) build --release && $(CARGO) test -q

# Workspace invariant linter: determinism / hot-path allocation /
# panic-surface ratchet / cost accounting / workspace-lints opt-in.
# Exit 1 on any new violation or a stale audit_baseline.json entry.
audit:
	$(CARGO) run --release -p pi_audit -- --check

# Tighten the ratchet after a burn-down (counts may only decrease).
audit-baseline:
	$(CARGO) run --release -p pi_audit -- --write-baseline

fmt-check:
	$(CARGO) fmt --check

clippy:
	$(CARGO) clippy --workspace --all-targets -- -D warnings

# Dependency-free microbenchmarks of the attack's mechanisms.
bench:
	$(CARGO) bench -p pi_bench

# Fleet scaling sweep (hosts x workers); writes BENCH_fleet.json and
# results/fleet_scaling.csv. Needs >= 4 cores to show the 2x+ worker
# scaling target.
bench-fleet:
	$(CARGO) run --release -p pi_bench --bin fleet_scaling

# Per-packet pipeline throughput (single worker): pps, avg subtable
# probes, EMC hit rate; writes BENCH_hotpath.json. See README
# "Performance" for the before/after methodology.
bench-hotpath:
	$(CARGO) run --release -p pi_bench --bin hotpath

# Handler-saturation sweep: victim pps / upcall drop rate / install
# latency under inline vs bounded vs fair-share slow paths; writes
# BENCH_upcall.json. See README "Slow-path pipeline".
bench-upcall:
	$(CARGO) run --release -p pi_bench --bin upcall_saturation

# Closed-loop defense sweep: time-to-detect, victim recovery and
# benign false positives under none / static / adaptive defenses;
# writes BENCH_detect.json. See README "Online detection & adaptive
# defense".
bench-detect:
	$(CARGO) run --release -p pi_bench --bin detection_roc

# Control-plane churn sweep: benign updates vs the zero-packet
# policy-flap flush storm vs the scoped-invalidation ablation; writes
# BENCH_policy.json. See README "Control-plane churn".
bench-policy:
	$(CARGO) run --release -p pi_bench --bin policy_churn

# Cross-backend immunity matrix: {backend x attack x defense} cells
# with retained-capacity ratios over all four dataplane backends;
# writes BENCH_backends.json. See README "Dataplane backends".
bench-backends:
	$(CARGO) run --release -p pi_bench --bin backend_matrix

# Crash-recovery matrix: {crash} x {policy_flap, upcall_flood} x
# {fire-and-forget, retry+reconcile} — wrong verdicts, recovery time
# and retry cost; writes BENCH_fault.json. See README "Fault injection
# & recovery".
bench-fault:
	$(CARGO) run --release -p pi_bench --bin fault_matrix

# Static regression gate over the checked-in BENCH_*.json headline
# cells (no benches are re-run), including the tracing-overhead gate
# on the hotpath trace_off/trace_on rows.
bench-check:
	$(CARGO) run --release -p pi_bench --bin bench_check

# Fresh-vs-committed artefact diff with per-cell tolerances: re-runs
# the deterministic policy-churn bench into a scratch dir and compares
# every cell against the committed artefact. Exit 1 on regression.
bench-compare:
	mkdir -p /tmp/pi_fresh
	PI_BENCH_POLICY_OUT=/tmp/pi_fresh/BENCH_policy.json \
		$(CARGO) run --release -p pi_bench --bin policy_churn
	$(CARGO) run --release -p pi_bench --bin bench_check -- --against /tmp/pi_fresh

# Markdown results index (results/summary.md): the normalized hot-path
# throughput trajectory plus every artefact's headline cell.
bench-summary:
	$(CARGO) run --release -p pi_bench --bin bench_summary

# The repository benchmark (BENCHMARK.json), one workload per call:
#   make perfbench W=tss_collapse SEED=1        end-to-end metrics
#   make perfbench-trace W=tss_collapse SEED=1  per-layer metrics
# W is colocation_dense | tss_collapse | policy_flap | sparse_idle;
# SECS sets --seconds (default: the benchmark's 30 s of runs).
W ?= tss_collapse
SEED ?= 1
SECS ?= 30
PERFBENCH = $(CARGO) run --release --quiet --offline --manifest-path perfbench/Cargo.toml --

perfbench:
	$(PERFBENCH) --workload $(W) --seed $(SEED) --seconds $(SECS) --trace 0

perfbench-trace:
	$(PERFBENCH) --workload $(W) --seed $(SEED) --seconds $(SECS) --trace 1

# Three untraced runs of W (digest and paper-band checks); fails unless
# every run passed.
perfbench-smoke:
	$(PERFBENCH) --workload $(W) --seed $(SEED) --seconds 0 --trace 0 | tee /dev/stderr \
		| tail -n 1 | grep -q '"correct": true'

# Traced policy-flap forensics: proves the causal chain (policy update
# -> cache flush -> attributed rebuild storm -> PolicyChurn detection)
# and writes results/trace_policy_flap.{json,prom}.
trace-forensics:
	$(CARGO) run --release -p pi_bench --bin trace_forensics

example-fleet:
	$(CARGO) run --release --example fleet_blast_radius

clean:
	$(CARGO) clean
