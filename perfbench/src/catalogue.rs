//! The benchmark's workloads and metrics, with the layer each metric
//! belongs to and what it should move. `BENCHMARK.json` at the
//! repository root is rendered from this table
//! (`perfbench --print-benchmark-json`) and a test keeps the two equal.

use crate::workloads::Workload;

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// End-to-end metrics: worsening share of the parent's median that
    /// rejects a change. Per-layer metrics have none.
    pub bound: Option<f64>,
    /// The module whose public function the metric is measured at.
    pub layer: &'static str,
    /// The end-to-end metric and workload a per-layer metric should
    /// move (empty for end-to-end metrics).
    pub moves: &'static str,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
        layer: "end_to_end",
        moves: "",
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    layer: &'static str,
    moves: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
        layer,
        moves,
    }
}

use Better::{Higher, Lower};

/// Why each workload is in the benchmark.
pub fn why(w: Workload) -> &'static str {
    match w {
        Workload::ColocationDense => {
            "8-host fleet_colocation, 512 masks: the per-packet fast path (traffic, EMC) does the work; a 2-worker run must report identically"
        }
        Workload::TssCollapse => {
            "fig3_scenario with 8192 Calico masks: the TSS subtable walk dominates host time; the only workload past the cache cliff"
        }
        Workload::PolicyFlap => {
            "policy_churn_scenario flapping every 20 ms: control-plane flushes and slow-path rebuilds race the packet path"
        }
        Workload::SparseIdle => {
            "512-host fleet_sparse, 4 active: idle-tick skipping, the wake heap and per-host build cost do the work"
        }
    }
}

/// End-to-end metrics, reported for every workload with tracing off.
/// The host times are scaled to the speed gauge's nominal machine
/// ([`crate::gauge`]), so a shared host's drift in speed between runs
/// minutes apart cancels out; the times as measured are printed beside
/// them. `wall_s_per_sim_s` is the lower quartile over runs of the
/// scaled times and `host_pps` the packet rate at it (run times are
/// bimodal on a shared host, see `untraced` in `main.rs`); `setup_s`
/// is the median scaled build time and `peak_rss_mb` the median peak.
/// `failed_run_share` is printed too but is not listed here: it is 0 on
/// a correct tree, and the JSON result carries it as `failed` over
/// `attempted`.
pub const END_TO_END: [Metric; 4] = [
    e2e("wall_s_per_sim_s", "s/s", Lower, 0.25),
    e2e("host_pps", "1/s", Higher, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.1),
];

/// Per-layer metrics, from the traced run.
pub const PER_LAYER: [Metric; 27] = [
    layer(
        "traffic.ns_per_pkt",
        "ns",
        Lower,
        "pi_traffic",
        "host_pps on colocation_dense",
    ),
    layer(
        "emc.hit_ratio",
        "ratio",
        Higher,
        "pi_datapath::emc",
        "host_pps on colocation_dense; little on policy_flap",
    ),
    layer(
        "emc.ns_per_lookup",
        "ns",
        Lower,
        "pi_datapath::emc",
        "host_pps on colocation_dense; little on policy_flap",
    ),
    layer(
        "tss.probes_per_pkt",
        "count",
        Lower,
        "pi_classifier",
        "wall_s_per_sim_s on tss_collapse; nothing on colocation_dense",
    ),
    layer(
        "tss.subtables",
        "count",
        Lower,
        "pi_classifier",
        "wall_s_per_sim_s on tss_collapse; nothing on colocation_dense",
    ),
    layer(
        "tss.ns_per_probe",
        "ns",
        Lower,
        "pi_classifier",
        "wall_s_per_sim_s on tss_collapse; nothing on colocation_dense",
    ),
    layer(
        "tss.lookup_ns_p99",
        "ns",
        Lower,
        "pi_classifier",
        "wall_s_per_sim_s on tss_collapse; nothing on colocation_dense",
    ),
    layer(
        "slowpath.upcalls_per_kpkt",
        "count",
        Lower,
        "pi_datapath::slowpath",
        "wall_s_per_sim_s on policy_flap",
    ),
    layer(
        "slowpath.ns_per_upcall",
        "ns",
        Lower,
        "pi_datapath::slowpath",
        "wall_s_per_sim_s on policy_flap",
    ),
    layer(
        "control.updates",
        "count",
        Lower,
        "pi_backend",
        "wall_s_per_sim_s on policy_flap; nothing elsewhere",
    ),
    layer(
        "control.flushed_per_update",
        "count",
        Lower,
        "pi_backend",
        "wall_s_per_sim_s on policy_flap; nothing elsewhere",
    ),
    layer(
        "control.ns_per_update",
        "ns",
        Lower,
        "pi_backend",
        "wall_s_per_sim_s on policy_flap; nothing elsewhere",
    ),
    layer(
        "control.cycle_share",
        "ratio",
        Lower,
        "pi_backend",
        "wall_s_per_sim_s on policy_flap; nothing elsewhere",
    ),
    layer(
        "datapath.ns_per_pkt",
        "ns",
        Lower,
        "pi_backend",
        "host_pps on colocation_dense, tss_collapse and policy_flap",
    ),
    layer(
        "datapath.batch_us_p99",
        "us",
        Lower,
        "pi_backend",
        "host_pps on colocation_dense, tss_collapse and policy_flap",
    ),
    layer(
        "datapath.model_cycles_per_pkt",
        "cycles",
        Lower,
        "pi_backend",
        "host_pps on colocation_dense, tss_collapse and policy_flap",
    ),
    layer(
        "datapath.ns_per_model_cycle",
        "ns/cycle",
        Lower,
        "pi_backend",
        "host_pps on colocation_dense, tss_collapse and policy_flap",
    ),
    layer(
        "sim.ticks_stepped",
        "count",
        Lower,
        "pi_sim",
        "wall_s_per_sim_s on tss_collapse and policy_flap",
    ),
    layer(
        "sim.unattributed_share",
        "ratio",
        Lower,
        "pi_sim",
        "wall_s_per_sim_s on tss_collapse and policy_flap",
    ),
    layer(
        "fleet.flushes_per_tick",
        "count",
        Lower,
        "pi_fleet",
        "wall_s_per_sim_s on colocation_dense",
    ),
    layer(
        "fleet.null_message_ratio",
        "ratio",
        Lower,
        "pi_fleet",
        "wall_s_per_sim_s on colocation_dense",
    ),
    layer(
        "fleet.flush_items_per_flush",
        "count",
        Higher,
        "pi_fleet",
        "wall_s_per_sim_s on colocation_dense",
    ),
    layer(
        "fleet.wake_stale_ratio",
        "ratio",
        Lower,
        "pi_fleet",
        "wall_s_per_sim_s on sparse_idle",
    ),
    layer(
        "fleet.ticks_skipped_ratio",
        "ratio",
        Higher,
        "pi_fleet",
        "wall_s_per_sim_s on sparse_idle",
    ),
    layer(
        "fleet.unattributed_share",
        "ratio",
        Lower,
        "pi_fleet",
        "wall_s_per_sim_s on colocation_dense and sparse_idle",
    ),
    layer(
        "fleet.worker2_speedup",
        "ratio",
        Higher,
        "pi_fleet",
        "no end-to-end metric (measured runs use 1 worker); 2-worker scaling on colocation_dense",
    ),
    layer(
        "trace.overhead_ratio",
        "ratio",
        Lower,
        "perfbench",
        "none; it bounds the traced numbers",
    ),
];

/// Seconds one benchmark run measures.
pub const RUN_SECONDS: u64 = 30;

/// `BENCHMARK.json`, rendered.
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \"--manifest-path\", \"perfbench/Cargo.toml\", \"--\"],\n");
    s.push_str("  \"paths\": [\"perfbench\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    s.push_str("  \"workloads\": [\n");
    let rows: Vec<String> = Workload::ALL
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                w.name(),
                why(*w)
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound.expect("end-to-end metrics are bounded")
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.as_str()
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ]\n}\n");
    s
}

/// The per-layer table with layers and predictions, as printed by
/// `--list-metrics`.
pub fn layer_table() -> String {
    let mut s = String::new();
    for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let bound = m.bound.map_or(String::new(), |b| format!(" bound {b}"));
        let moves = if m.moves.is_empty() {
            String::new()
        } else {
            format!(" moves: {}", m.moves)
        };
        s.push_str(&format!(
            "{:<30} {:<9} {:<7} layer {}{bound}{moves}\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.layer
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.bytes().next().is_some_and(|b| b.is_ascii_alphanumeric())
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
    }

    #[test]
    fn metric_names_match_the_allowed_pattern_and_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|m| m.name)
            .chain(Workload::ALL.iter().map(|w| w.name()))
            .collect();
        for n in &names {
            assert!(valid_name(n), "bad name {n}");
        }
        names.sort_unstable();
        let len = names.len();
        names.dedup();
        assert_eq!(names.len(), len, "duplicate names");
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(m.unit.len() <= 16 && !m.unit.is_empty());
            assert!(m
                .unit
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b)));
            assert!(m.bound.is_none_or(|b| b > 0.0 && b <= 0.25));
        }
        for w in Workload::ALL {
            assert!(why(w).len() <= 200 && !why(w).contains('"'));
        }
    }

    #[test]
    fn setup_s_has_the_largest_bound() {
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn benchmark_json_at_the_root_is_rendered_from_this_table() {
        let committed = include_str!("../../BENCHMARK.json");
        assert_eq!(committed, benchmark_json());
    }
}
