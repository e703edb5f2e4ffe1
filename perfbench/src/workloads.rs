//! The four benchmark workloads, built through the public scenario
//! builders and run with tracing off.
//!
//! A run returns a [`RunRecord`]: host timings, the exact simulated
//! counts the per-layer metrics are derived from, a digest of every
//! worker-count-invariant report field, and the paper-outcome band
//! verdict.

use std::time::Instant;

use pi_attack::AttackSpec;
use pi_cms::PolicyDialect;
use pi_core::SimTime;
use pi_datapath::{DpConfig, SwitchStats};
use pi_fleet::{ColocationParams, FleetReport, SparseParams};
use pi_metrics::TimeSeries;
use pi_sim::{Fig3Params, PolicyChurnParams, SimReport};

use crate::digest::Digest;
use crate::spans::Recorder;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `fleet_colocation`: 8 hosts under 512-mask injection.
    ColocationDense,
    /// `fig3_scenario`: the 8192-mask Calico collapse.
    TssCollapse,
    /// `policy_churn_scenario`: the zero-packet policy flap.
    PolicyFlap,
    /// `fleet_sparse`: 512 hosts, 4 of them active.
    SparseIdle,
}

/// Run length: the benchmark size, or a tiny one for smoke tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes the published metrics are measured at.
    Full,
    /// A fraction-of-a-second variant of every workload, for the smoke
    /// test.
    #[cfg_attr(not(test), allow(dead_code))]
    Tiny,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::ColocationDense,
        Workload::TssCollapse,
        Workload::PolicyFlap,
        Workload::SparseIdle,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColocationDense => "colocation_dense",
            Workload::TssCollapse => "tss_collapse",
            Workload::PolicyFlap => "policy_flap",
            Workload::SparseIdle => "sparse_idle",
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload runs on the multi-host fleet engine.
    pub fn is_fleet(self) -> bool {
        matches!(self, Workload::ColocationDense | Workload::SparseIdle)
    }

    /// A second worker count the workload also runs at: its reports
    /// must equal the 1-worker reports bit for bit, and its host time
    /// gives `fleet.worker2_speedup`. The measured runs use one worker:
    /// on a shared 2-core machine a 2-worker run's wall time swings by
    /// a quarter from run to run with cross-core scheduling.
    pub fn check_workers(self) -> Option<usize> {
        match self {
            Workload::ColocationDense => Some(2),
            _ => None,
        }
    }

    /// Simulated duration at `size`.
    pub fn duration(self, size: Size) -> SimTime {
        let secs = match (self, size) {
            (Workload::ColocationDense, Size::Full) => 2,
            (Workload::TssCollapse, Size::Full) => 8,
            (Workload::PolicyFlap, Size::Full) => 10,
            (Workload::SparseIdle, Size::Full) => 10,
            (_, Size::Tiny) => 1,
        };
        SimTime::from_secs(secs)
    }

    /// When the attack (covert stream or flap train) starts.
    pub fn attack_start(self, size: Size) -> SimTime {
        match (self, size) {
            (Workload::ColocationDense, _) => SimTime::from_secs(1),
            (_, Size::Full) => SimTime::from_secs(2),
            (_, Size::Tiny) => SimTime::from_millis(300),
        }
    }

    /// Datapath configuration: the default, carrying the seed.
    pub fn dp(self, seed: u64) -> DpConfig {
        DpConfig {
            seed,
            ..DpConfig::default()
        }
    }

    /// `fleet_colocation` parameters.
    pub fn colocation(self, seed: u64, size: Size, workers: usize) -> ColocationParams {
        let hosts = if size == Size::Full { 8 } else { 2 };
        ColocationParams {
            hosts,
            victims: hosts,
            attackers: hosts / 2,
            spec: AttackSpec::masks_512(PolicyDialect::Kubernetes),
            attack_start: self.attack_start(size),
            stagger: SimTime::ZERO,
            duration: self.duration(size),
            seed,
            workers,
            ..ColocationParams::default()
        }
    }

    /// `fig3_scenario` parameters.
    pub fn fig3(self, seed: u64, size: Size) -> Fig3Params {
        Fig3Params {
            duration: self.duration(size),
            attack_start: self.attack_start(size),
            spec: if size == Size::Full {
                AttackSpec::masks_8192()
            } else {
                AttackSpec::masks_512(PolicyDialect::Kubernetes)
            },
            seed,
            ..Fig3Params::default()
        }
    }

    /// `policy_churn_scenario` parameters (no seed field: the seed goes
    /// into the datapath configuration).
    pub fn policy_churn(self, seed: u64, size: Size) -> PolicyChurnParams {
        PolicyChurnParams {
            duration: self.duration(size),
            attack_start: self.attack_start(size),
            flap: true,
            flap_period: SimTime::from_millis(20),
            clients: if size == Size::Full { 512 } else { 32 },
            dp: self.dp(seed),
            ..PolicyChurnParams::default()
        }
    }

    /// `fleet_sparse` parameters (no seed field: the seed goes into the
    /// datapath configuration).
    pub fn sparse(self, seed: u64, size: Size) -> SparseParams {
        SparseParams {
            hosts: if size == Size::Full { 512 } else { 16 },
            hot_hosts: 4,
            attack_start: self.attack_start(size),
            duration: self.duration(size),
            dp: self.dp(seed),
            workers: 1,
            ..SparseParams::default()
        }
    }
}

/// Exact simulated counts of one run, summed over hosts.
#[derive(Debug, Clone, Default)]
pub struct Counts {
    /// Summed switch counters.
    pub switch: SwitchStats,
    /// Packets the traffic sources generated.
    pub generated: u64,
    /// Host ticks executed.
    pub ticks_stepped: u64,
    /// Host ticks skipped as provably idle.
    pub ticks_skipped: u64,
    /// Largest final mask count over hosts.
    pub max_masks: usize,
    /// Worker threads the engine used.
    pub workers: usize,
    /// Fleet flush exchanges (0 on the two-node engine).
    pub flushes: u64,
    /// Flushes that carried no deliveries.
    pub null_messages: u64,
    /// Deliveries carried by flushes.
    pub flush_items: u64,
    /// Wake-heap pushes.
    pub wake_pushes: u64,
    /// Wake-heap entries discarded as stale.
    pub wake_stale_pops: u64,
    /// Victim throughput retained under attack (after ÷ before).
    pub retained: f64,
}

/// Everything one benchmark run measured.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// Host seconds of each scenario build of the run.
    pub setup_s: Vec<f64>,
    /// Host seconds of `run()`.
    pub run_s: f64,
    /// Simulated seconds.
    pub sim_s: f64,
    /// Digest of the worker-count-invariant report fields.
    pub digest: u64,
    /// Exact counts.
    pub counts: Counts,
    /// `Err` names the paper-outcome band the run missed.
    pub band: Result<(), String>,
}

/// How many times a run builds its scenario before running it: at
/// least `min` and at most `max` times, stopping once `budget_s` seconds
/// of set-up have been measured.
#[derive(Debug, Clone, Copy)]
pub struct Builds {
    /// Fewest builds.
    pub min: usize,
    /// Most builds.
    pub max: usize,
    /// Set-up seconds after which no further build starts.
    pub budget_s: f64,
}

impl Builds {
    /// Build once.
    pub const ONCE: Builds = Builds {
        min: 1,
        max: 1,
        budget_s: 0.0,
    };
}

/// Builds the scenario as `builds` says (timing each build, keeping the
/// last) and runs it once. With `rec`, each build and the run are spans.
pub fn run(
    w: Workload,
    seed: u64,
    size: Size,
    workers: usize,
    builds: Builds,
    mut rec: Option<&mut Recorder>,
) -> RunRecord {
    let mut setup_s: Vec<f64> = Vec::with_capacity(builds.max);
    let more = |setup_s: &[f64]| {
        setup_s.len() < builds.min.max(1)
            || (setup_s.len() < builds.max && setup_s.iter().sum::<f64>() < builds.budget_s)
    };
    macro_rules! build_then_run {
        ($build:expr) => {{
            let mut built = None;
            while more(&setup_s) {
                // Drop the previous build first so it does not add to
                // the peak resident set.
                drop(built.take());
                if let Some(r) = rec.as_deref_mut() {
                    r.enter("scenario.build");
                }
                let t = Instant::now();
                built = Some($build);
                setup_s.push(t.elapsed().as_secs_f64());
                if let Some(r) = rec.as_deref_mut() {
                    r.exit(1);
                }
            }
            let (sim, handles) = built.expect("at least one build");
            if let Some(r) = rec.as_deref_mut() {
                r.enter("scenario.run");
            }
            let t = Instant::now();
            let report = sim.run();
            let run_s = t.elapsed().as_secs_f64();
            if let Some(r) = rec.as_deref_mut() {
                r.exit(1);
            }
            (report, handles, run_s)
        }};
    }
    let attack_start = w.attack_start(size);
    let sim_s = w.duration(size).as_secs_f64();
    let (digest, counts, run_s) = match w {
        Workload::ColocationDense => {
            let p = w.colocation(seed, size, workers);
            let (r, h, run_s) = build_then_run!(pi_fleet::fleet_colocation(&p));
            let mut c = fleet_counts(&r);
            c.retained = retained(&r.throughput_bps, &h.victim_sources, attack_start);
            (fleet_digest(&r), c, run_s)
        }
        Workload::SparseIdle => {
            let p = w.sparse(seed, size);
            let (r, h, run_s) = build_then_run!(pi_fleet::fleet_sparse(&p));
            let mut c = fleet_counts(&r);
            c.retained = retained(&r.throughput_bps, &h.victim_sources, attack_start);
            (fleet_digest(&r), c, run_s)
        }
        Workload::TssCollapse => {
            let p = w.fig3(seed, size);
            let (r, h, run_s) = build_then_run!(pi_sim::fig3_scenario(&p));
            let mut c = sim_counts(&r);
            c.retained = retained(&r.throughput_bps, &[h.victim_source], attack_start);
            (sim_digest(&r), c, run_s)
        }
        Workload::PolicyFlap => {
            let p = w.policy_churn(seed, size);
            let (r, h, run_s) = build_then_run!(pi_sim::policy_churn_scenario(&p));
            let mut c = sim_counts(&r);
            c.retained = retained(&r.throughput_bps, &[h.victim_source], attack_start);
            (sim_digest(&r), c, run_s)
        }
    };
    let band = if size == Size::Full {
        paper_band(w, &counts)
    } else {
        Ok(())
    };
    RunRecord {
        setup_s,
        run_s,
        sim_s,
        digest,
        counts,
        band,
    }
}

/// The paper-outcome band each full-size workload must land in.
pub fn paper_band(w: Workload, c: &Counts) -> Result<(), String> {
    let ok = match w {
        Workload::TssCollapse => c.retained < 0.1 && c.max_masks >= 4096,
        Workload::PolicyFlap => c.retained < 0.5,
        Workload::SparseIdle => c.ticks_skipped > 0,
        Workload::ColocationDense => c.switch.packets > 0,
    };
    if ok {
        Ok(())
    } else {
        Err(format!(
            "{}: retained {:.4}, masks {}, skipped ticks {}, packets {}",
            w.name(),
            c.retained,
            c.max_masks,
            c.ticks_skipped,
            c.switch.packets
        ))
    }
}

/// Victim throughput in the last quarter of the run over its level
/// before the attack, summed over `sources`.
fn retained(series: &[TimeSeries], sources: &[usize], attack_start: SimTime) -> f64 {
    let end = sources
        .iter()
        .filter_map(|&s| series[s].last())
        .map(|(t, _)| t)
        .max()
        .unwrap_or(SimTime::ZERO);
    let tail_from = SimTime::from_nanos(end.as_nanos() - end.as_nanos() / 4);
    let mut before = 0.0;
    let mut after = 0.0;
    for &s in sources {
        before += series[s].mean_between(SimTime::ZERO, attack_start);
        after += series[s].mean_between(tail_from, end + SimTime::from_nanos(1));
    }
    if before > 0.0 {
        after / before
    } else {
        0.0
    }
}

fn total_switch(stats: &[SwitchStats]) -> SwitchStats {
    let mut t = SwitchStats::default();
    for s in stats {
        t.packets += s.packets;
        t.microflow_hits += s.microflow_hits;
        t.megaflow_hits += s.megaflow_hits;
        t.upcalls += s.upcalls;
        t.policy_drops += s.policy_drops;
        t.cycles += s.cycles;
        t.subtable_probes += s.subtable_probes;
        t.policy_updates += s.policy_updates;
        t.cache_flushes += s.cache_flushes;
        t.flushed_megaflows += s.flushed_megaflows;
        t.control_cycles += s.control_cycles;
    }
    t
}

fn max_masks(masks: &[TimeSeries]) -> usize {
    masks
        .iter()
        .filter_map(|m| m.last())
        .map(|(_, v)| v as usize)
        .max()
        .unwrap_or(0)
}

fn sim_counts(r: &SimReport) -> Counts {
    Counts {
        switch: total_switch(&r.switch_stats),
        generated: r.source_totals.iter().map(|s| s.generated).sum(),
        ticks_stepped: r.engine.shard_ticks_stepped,
        ticks_skipped: r.engine.shard_ticks_skipped,
        max_masks: max_masks(&r.masks),
        workers: 1,
        ..Counts::default()
    }
}

fn fleet_counts(r: &FleetReport) -> Counts {
    let mut c = Counts {
        switch: r.total_switch_stats(),
        generated: r.source_totals.iter().map(|s| s.generated).sum(),
        ticks_stepped: r.engine.shard_ticks_stepped,
        ticks_skipped: r.engine.shard_ticks_skipped,
        max_masks: max_masks(&r.masks),
        workers: r.workers,
        ..Counts::default()
    };
    for p in &r.profiles {
        c.flushes += p.flushes;
        c.null_messages += p.null_messages;
        c.flush_items += p.flush_items;
        c.wake_pushes += p.wake_pushes;
        c.wake_stale_pops += p.wake_stale_pops;
    }
    c
}

/// Digest of a two-node report: every field but the (disabled) trace.
fn sim_digest(r: &SimReport) -> u64 {
    let mut d = Digest::new();
    d.add(&r.throughput_bps);
    d.add(&r.offered_bps);
    d.add(&r.masks);
    d.add(&r.megaflows);
    d.add(&r.cpu_util);
    d.add(&r.handler_cps);
    d.add(&r.control_cps);
    d.add(&r.switch_stats);
    d.add(&r.upcall_stats);
    d.add(&r.source_totals);
    d.add(&r.attribution);
    d.add(&r.engine);
    d.finish()
}

/// Digest of a fleet report: every worker-count-invariant field (the
/// per-worker `profiles` and the worker count itself are left out).
fn fleet_digest(r: &FleetReport) -> u64 {
    let mut d = Digest::new();
    d.add(&r.hosts);
    d.add(&r.throughput_bps);
    d.add(&r.offered_bps);
    d.add(&r.masks);
    d.add(&r.megaflows);
    d.add(&r.cpu_util);
    d.add(&r.handler_cps);
    d.add(&r.control_cps);
    d.add(&r.policy_updates);
    d.add(&r.switch_stats);
    d.add(&r.upcall_stats);
    d.add(&r.source_totals);
    d.add(&r.attribution);
    d.add(&r.engine);
    d.finish()
}
