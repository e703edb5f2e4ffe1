//! `perfbench` — the repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the benchmark runs the workload's scenario in fresh
//! child processes, tracing off, until `--seconds` have passed, checks
//! every run's report, and prints the end-to-end metrics. Each run sits
//! between two readings of the speed gauge ([`gauge`]), and its host
//! times are scaled by them before quartiles and medians are taken. With
//! `--trace 1` it makes one traced run in-process, then alternates
//! untraced child runs with the layer replays ([`replay`]) for three
//! rounds, and prints the per-layer metrics; its spans are written to
//! `perfbench/out/`. The last line of standard output is always one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//!
//! `--list-metrics` prints every metric with its layer and what it
//! should move; `--print-benchmark-json` renders `BENCHMARK.json`.

mod catalogue;
mod checks;
mod digest;
mod gauge;
mod machine;
mod replay;
mod spans;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use checks::Checked;
use gauge::Gauge;
use machine::Machine;
use workloads::{Builds, Counts, RunRecord, Size, Workload};

/// Fewest measured runs per invocation (medians need several).
const MIN_RUNS: usize = 3;
/// Most measured runs per invocation.
const MAX_RUNS: usize = 64;
/// Share of `--seconds` a traced invocation spends on untraced runs.
const TRACE_UNTRACED_SHARE: f64 = 0.4;
/// Rounds of untraced runs and layer replays in a traced invocation.
const TRACE_ROUNDS: usize = 3;

#[derive(Debug, Clone)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    child: bool,
    workers: Option<usize>,
}

fn usage() -> &'static str {
    "usage: perfbench --workload <colocation_dense|tss_collapse|policy_flap|sparse_idle> \
     --seed <n> --seconds <s> --trace <0|1>\n       perfbench --list-metrics | --print-benchmark-json"
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut child = false;
    let mut workers = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| e.to_string())?),
            "--seconds" => {
                let s = value()?.parse::<f64>().map_err(|e| e.to_string())?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--child" => child = true,
            "--workers" => workers = Some(value()?.parse::<usize>().map_err(|e| e.to_string())?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(catalogue::RUN_SECONDS as f64),
        trace,
        child,
        workers,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("--list-metrics") => {
            print!("{}", catalogue::layer_table());
            return ExitCode::SUCCESS;
        }
        Some("--print-benchmark-json") => {
            print!("{}", catalogue::benchmark_json());
            return ExitCode::SUCCESS;
        }
        _ => {}
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if args.child {
        child(&args);
        return ExitCode::SUCCESS;
    }
    let root = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let machine = Machine::stamp(&root);
    println!(
        "perfbench: workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("{}", machine.line());
    let result = if args.trace {
        traced(&args, &machine)
    } else {
        untraced(&args)
    };
    println!("{result}");
    ExitCode::SUCCESS
}

// ---------------------------------------------------------------------
// Child runs: one scenario per process, so each has its own peak RSS.

/// Set-up repetitions of a child run: until 0.05 s of set-up has been
/// measured, at most 16 times. Kept short so that most of `--seconds`
/// goes to runs.
const CHILD_BUILDS: Builds = Builds {
    min: 1,
    max: 16,
    budget_s: 0.05,
};

/// Builds the scenario per [`CHILD_BUILDS`], runs it once, and prints
/// one `RUN` line.
fn child(args: &Args) {
    let workers = args.workers.unwrap_or(1);
    let r = workloads::run(
        args.workload,
        args.seed,
        Size::Full,
        workers,
        CHILD_BUILDS,
        None,
    );
    let setups: Vec<String> = r.setup_s.iter().map(|s| s.to_string()).collect();
    println!(
        "RUN digest={:016x} run_s={} sim_s={} packets={} rss_kb={} setup_s={} band={}",
        r.digest,
        r.run_s,
        r.sim_s,
        r.counts.switch.packets,
        peak_rss_kb(),
        setups.join(","),
        match &r.band {
            Ok(()) => "ok".to_string(),
            Err(e) => e.clone(),
        }
    );
}

/// Peak resident set of this process, kB (`VmHWM`), 0 if unknown.
fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// One completed child run.
#[derive(Debug, Clone)]
struct ChildRun {
    digest: u64,
    run_s: f64,
    sim_s: f64,
    packets: u64,
    rss_kb: u64,
    setup_s: Vec<f64>,
    band: Result<(), String>,
    /// The speed gauge's time around this run (geometric mean of its
    /// readings right before and right after), seconds.
    gauge_s: f64,
}

impl ChildRun {
    /// Factor that scales this run's host times to the gauge's nominal
    /// machine speed.
    fn scale(&self) -> f64 {
        gauge::NOMINAL_S / self.gauge_s
    }

    fn checked(&self) -> Checked {
        Checked {
            digest: self.digest,
            band: self.band.clone(),
        }
    }
}

fn parse_run_line(line: &str) -> Option<ChildRun> {
    let line = line.strip_prefix("RUN ")?;
    let (fields, band) = line.split_once(" band=")?;
    let mut run = ChildRun {
        digest: 0,
        run_s: 0.0,
        sim_s: 0.0,
        packets: 0,
        rss_kb: 0,
        setup_s: Vec::new(),
        band: if band == "ok" {
            Ok(())
        } else {
            Err(band.to_string())
        },
        gauge_s: gauge::NOMINAL_S,
    };
    for kv in fields.split_whitespace() {
        let (k, v) = kv.split_once('=')?;
        match k {
            "digest" => run.digest = u64::from_str_radix(v, 16).ok()?,
            "run_s" => run.run_s = v.parse().ok()?,
            "sim_s" => run.sim_s = v.parse().ok()?,
            "packets" => run.packets = v.parse().ok()?,
            "rss_kb" => run.rss_kb = v.parse().ok()?,
            "setup_s" => {
                run.setup_s = v
                    .split(',')
                    .map(str::parse)
                    .collect::<Result<_, _>>()
                    .ok()?
            }
            _ => return None,
        }
    }
    (run.run_s > 0.0 && !run.setup_s.is_empty()).then_some(run)
}

/// Runs one child and waits for it; `None` if it failed.
fn spawn_child(args: &Args, workers: usize) -> Option<ChildRun> {
    let exe = std::env::current_exe().ok()?;
    let out = Command::new(exe)
        .args([
            "--child",
            "--workload",
            args.workload.name(),
            "--seed",
            &args.seed.to_string(),
            "--workers",
            &workers.to_string(),
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .find_map(parse_run_line)
}

/// Children with `workers` workers while another one still fits in
/// `budget` (at least `min` of them), each between two readings of the
/// speed gauge when there is one.
fn measured_runs(
    args: &Args,
    gauge: Option<&Gauge>,
    workers: usize,
    budget: Duration,
    min: usize,
) -> Vec<Option<ChildRun>> {
    let t0 = Instant::now();
    let mut runs = Vec::new();
    let mut took: Vec<f64> = Vec::new();
    let read = || gauge.map_or(gauge::NOMINAL_S, Gauge::time);
    let mut before = read();
    while runs.len() < min
        || (t0.elapsed().as_secs_f64() + stats::median(&took) < budget.as_secs_f64()
            && runs.len() < MAX_RUNS)
    {
        let t = Instant::now();
        let run = spawn_child(args, workers);
        let after = read();
        runs.push(run.map(|r| ChildRun {
            gauge_s: (before * after).sqrt(),
            ..r
        }));
        before = after;
        took.push(t.elapsed().as_secs_f64());
    }
    runs
}

// ---------------------------------------------------------------------
// Results.

/// A metric value as printed in the JSON line.
struct Value {
    name: &'static str,
    unit: &'static str,
    value: f64,
}

fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

fn json_line(correct: bool, verdict: &checks::Verdict, values: &[Value]) -> String {
    let metrics: Vec<String> = values
        .iter()
        .map(|v| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                v.name,
                finite(v.value),
                v.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        verdict.attempted.max(1),
        verdict.failed,
        metrics.join(", ")
    )
}

/// Values for every metric of `table`, in table order.
fn in_order(table: &[catalogue::Metric], mut get: impl FnMut(&str) -> f64) -> Vec<Value> {
    table
        .iter()
        .map(|m| Value {
            name: m.name,
            unit: m.unit,
            value: get(m.name),
        })
        .collect()
}

fn report_verdict(verdict: &checks::Verdict) {
    println!(
        "failed_run_share = {} ({} of {} runs failed a check)",
        verdict.failed_share(),
        verdict.failed,
        verdict.attempted
    );
    for r in &verdict.reasons {
        println!("  check failed: {r}");
    }
}

// ---------------------------------------------------------------------
// Untraced: the end-to-end metrics.

fn untraced(args: &Args) -> String {
    let w = args.workload;
    let t0 = Instant::now();
    // Worker-count determinism: the multi-worker run's report must equal
    // the 1-worker runs'.
    let reference = w.check_workers().map(|n| spawn_child(args, n));
    let gauge = Gauge::new();
    let budget = Duration::from_secs_f64(args.seconds).saturating_sub(t0.elapsed());
    let runs = measured_runs(args, Some(&gauge), 1, budget, MIN_RUNS);
    let checked: Vec<Option<Checked>> = runs
        .iter()
        .map(|r| r.as_ref().map(ChildRun::checked))
        .collect();
    let mut verdict = checks::check(
        &checked,
        reference
            .as_ref()
            .and_then(|r| r.as_ref().map(|r| r.digest)),
    );
    if let Some(reference) = &reference {
        verdict.attempted += 1;
        if reference.is_none() {
            verdict.failed += 1;
            verdict
                .reasons
                .push("multi-worker reference run did not complete".into());
        }
    }
    let ok: Vec<&ChildRun> = runs.iter().flatten().collect();
    for (i, r) in ok.iter().enumerate() {
        println!(
            "run {i}: run_s={:.4} gauge_s={:.6} sim_s={} packets={} setup_s(median of {})={:.6} peak_rss_mb={:.1} digest={:016x}",
            r.run_s,
            r.gauge_s,
            r.sim_s,
            r.packets,
            r.setup_s.len(),
            stats::median(&r.setup_s),
            r.rss_kb as f64 / 1024.0,
            r.digest
        );
    }
    if let Some(Some(r)) = &reference {
        println!(
            "reference ({} workers): run_s={:.4} digest={:016x}",
            w.check_workers().unwrap_or(1),
            r.run_s,
            r.digest
        );
    }
    // Host times as measured, and scaled to the gauge's nominal speed;
    // the scaled ones are the metrics.
    let raw_wall: Vec<f64> = ok.iter().map(|r| r.run_s / r.sim_s).collect();
    let wall: Vec<f64> = ok.iter().map(|r| r.run_s / r.sim_s * r.scale()).collect();
    let pps: Vec<f64> = ok
        .iter()
        .map(|r| r.packets as f64 / (r.run_s * r.scale()))
        .collect();
    let setup: Vec<f64> = ok
        .iter()
        .flat_map(|r| r.setup_s.iter().map(|s| s * r.scale()))
        .collect();
    let rss: Vec<f64> = ok.iter().map(|r| r.rss_kb as f64 / 1024.0).collect();
    let gauge_s: Vec<f64> = ok.iter().map(|r| r.gauge_s).collect();
    println!(
        "speed gauge: {} (nominal {} s)",
        stats::describe(&gauge_s, "s"),
        gauge::NOMINAL_S
    );
    println!(
        "wall_s_per_sim_s as measured: {}",
        stats::describe(&raw_wall, "s/s")
    );
    println!("wall_s_per_sim_s scaled: {}", stats::describe(&wall, "s/s"));
    println!("host_pps scaled: {}", stats::describe(&pps, "1/s"));
    println!("setup_s scaled: {}", stats::describe(&setup, "s"));
    println!("peak_rss_mb: {}", stats::describe(&rss, "MB"));
    report_verdict(&verdict);
    // Run times on a shared host fall into two modes, with and without a
    // neighbour busy on the same core, each lasting seconds to minutes;
    // the median flips between them as their mix changes, while the
    // lower quartile stays in the faster mode as long as a quarter of
    // the runs get it.
    let q1_wall = stats::quartiles(&wall).map_or(stats::median(&wall), |(q1, _)| q1);
    let packets_per_sim_s = ok.first().map_or(0.0, |r| r.packets as f64 / r.sim_s);
    println!(
        "wall_s_per_sim_s scaled, lower quartile: {q1_wall:.6} s/s; host_pps at it: {:.1} 1/s",
        ratio(packets_per_sim_s, q1_wall)
    );
    let values = in_order(&catalogue::END_TO_END, |name| match name {
        "wall_s_per_sim_s" => q1_wall,
        "host_pps" => ratio(packets_per_sim_s, q1_wall),
        "setup_s" => stats::median(&setup),
        "peak_rss_mb" => stats::median(&rss),
        other => unreachable!("no end-to-end metric {other}"),
    });
    for v in &values {
        println!("{} = {} {}", v.name, v.value, v.unit);
    }
    json_line(verdict.failed == 0 && !ok.is_empty(), &verdict, &values)
}

// ---------------------------------------------------------------------
// Traced: the per-layer metrics.

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn traced(args: &Args, machine: &Machine) -> String {
    let w = args.workload;
    // The traced run uses the workload's largest worker count, so the
    // fleet exchange shows; untraced runs at that count give the wall
    // time it is compared with, and 1-worker runs the speedup. Untraced
    // runs and layer replays alternate over [`TRACE_ROUNDS`] rounds, so
    // the wall time and the layer prices are sampled over the same
    // stretch of time on a machine whose speed drifts.
    let workers = w.check_workers().unwrap_or(1);
    let mut slice = Duration::from_secs_f64(args.seconds * TRACE_UNTRACED_SHARE);
    slice /= TRACE_ROUNDS as u32 * if workers > 1 { 2 } else { 1 };
    let run_id = args.seed.wrapping_mul(8) + w as u64;
    let mut rec = spans::Recorder::new(run_id, 1 << 16);
    rec.enter("run");
    let traced: RunRecord = workloads::run(
        w,
        args.seed,
        Size::Full,
        workers,
        Builds::ONCE,
        Some(&mut rec),
    );
    let mut runs = Vec::new();
    let mut solo = Vec::new();
    let mut rounds = Vec::new();
    let mut runtime_updates = 0;
    // These runs' host times are compared with the traced run's and the
    // layer replays' taken in the same stretch of time, not with runs
    // minutes apart, so they are used as measured, without the gauge.
    for _ in 0..TRACE_ROUNDS {
        runs.extend(measured_runs(args, None, workers, slice, 1));
        if workers > 1 {
            solo.extend(measured_runs(args, None, 1, slice, 1));
        }
        let model = replay::HostModel::of(w, args.seed, Size::Full);
        runtime_updates = model.runtime_updates();
        rec.enter("replay");
        rounds.push(replay::replay(model, &mut rec));
        rec.exit(0);
    }
    rec.exit(0);
    let lt = replay::LayerTimes::median(&rounds);
    let ok: Vec<&ChildRun> = runs.iter().flatten().collect();
    let run_s = |runs: &[Option<ChildRun>]| {
        stats::median(&runs.iter().flatten().map(|r| r.run_s).collect::<Vec<_>>())
    };
    let untraced_run_s = run_s(&runs);
    let speedup = if workers > 1 {
        ratio(run_s(&solo), untraced_run_s)
    } else {
        0.0
    };

    let mut checked: Vec<Option<Checked>> = runs
        .iter()
        .chain(&solo)
        .map(|r| r.as_ref().map(ChildRun::checked))
        .collect();
    checked.push(Some(Checked {
        digest: traced.digest,
        band: traced.band.clone(),
    }));
    let verdict = checks::check(&checked, None);

    let c: &Counts = &traced.counts;
    let s = &c.switch;
    let packets = s.packets as f64;
    let sim_ticks = traced.sim_s * 1e3;
    let workers = c.workers.max(1) as f64;

    // Untraced worker time, less each layer's measured price times its
    // exact op count from the report. EMC, TSS and slow path are the
    // datapath's layers; what process_batch spends around them (parse,
    // hashing, installs) stays unattributed with the engine's own time.
    let worker_ns = untraced_run_s * 1e9 * workers;
    let parts = [
        ("traffic", c.generated as f64 * lt.traffic_ns_per_pkt),
        ("emc", packets * lt.emc_ns_per_lookup),
        ("tss", s.subtable_probes as f64 * lt.tss_ns_per_probe),
        ("slowpath", s.upcalls as f64 * lt.slowpath_ns_per_upcall),
        ("control", runtime_updates as f64 * lt.control_ns_per_update),
    ];
    let attributed: f64 = parts.iter().map(|(_, ns)| ns).sum();
    let unattributed = ratio(worker_ns - attributed, worker_ns);

    println!(
        "untraced runs: {} (run_s {}), traced run_s={:.4}",
        ok.len(),
        stats::describe(&ok.iter().map(|r| r.run_s).collect::<Vec<_>>(), "s"),
        traced.run_s
    );
    println!(
        "replay: {} packets, {} tss lookups, {} upcalls, {} updates over {} subtables; emc hit ratio in replay {:.4}",
        lt.ops[0], lt.ops[1], lt.ops[2], lt.ops[3], lt.tss_subtables, lt.emc_replay_hit_ratio
    );
    let cost = pi_datapath::CostModel::default();
    println!(
        "modelled vs measured (CostModel cycles/op | measured ns/op | ns per modelled cycle):"
    );
    let side = |layer: &str, what: &str, cycles: f64, ns: f64| {
        println!(
            "  {layer:<9} {what:<34} {cycles:>10.1} cyc | {ns:>12.2} ns | {:.4} ns/cyc",
            ratio(ns, cycles)
        );
    };
    side(
        "emc",
        "lookup (probe, insert on miss)",
        lt.emc_model_cycles,
        lt.emc_ns_per_lookup,
    );
    side(
        "tss",
        &format!(
            "probe at {} subtables (per_subtable={})",
            lt.tss_subtables, cost.per_subtable
        ),
        lt.tss_model_cycles_per_probe,
        lt.tss_ns_per_probe,
    );
    side(
        "slowpath",
        "upcall (fixed + rules + install)",
        lt.slowpath_model_cycles,
        lt.slowpath_ns_per_upcall,
    );
    side(
        "control",
        "policy update (fixed + flush)",
        lt.control_model_cycles,
        lt.control_ns_per_update,
    );
    side(
        "datapath",
        "packet through process_batch",
        lt.datapath_model_cycles_per_pkt,
        lt.datapath_ns_per_pkt,
    );
    let shares: Vec<String> = parts
        .iter()
        .map(|(name, ns)| format!("{name} {:.4}", ratio(*ns, worker_ns)))
        .collect();
    println!(
        "attribution of {:.4} untraced worker-seconds: {} unattributed {:.4}",
        worker_ns / 1e9,
        shares.join(" "),
        unattributed
    );

    let fleet = w.is_fleet();
    let values = in_order(&catalogue::PER_LAYER, |name| match name {
        "traffic.ns_per_pkt" => lt.traffic_ns_per_pkt,
        "emc.hit_ratio" => ratio(s.microflow_hits as f64, packets),
        "emc.ns_per_lookup" => lt.emc_ns_per_lookup,
        "tss.probes_per_pkt" => ratio(s.subtable_probes as f64, packets),
        "tss.subtables" => c.max_masks as f64,
        "tss.ns_per_probe" => lt.tss_ns_per_probe,
        "tss.lookup_ns_p99" => lt.tss_lookup_ns_p99,
        "slowpath.upcalls_per_kpkt" => ratio(s.upcalls as f64 * 1e3, packets),
        "slowpath.ns_per_upcall" => lt.slowpath_ns_per_upcall,
        "control.updates" => s.policy_updates as f64,
        "control.flushed_per_update" => ratio(s.flushed_megaflows as f64, s.policy_updates as f64),
        "control.ns_per_update" => lt.control_ns_per_update,
        "control.cycle_share" => ratio(s.control_cycles as f64, s.cycles as f64),
        "datapath.ns_per_pkt" => lt.datapath_ns_per_pkt,
        "datapath.batch_us_p99" => lt.datapath_batch_us_p99,
        "datapath.model_cycles_per_pkt" => ratio((s.cycles - s.control_cycles) as f64, packets),
        "datapath.ns_per_model_cycle" => lt.datapath_ns_per_model_cycle,
        "sim.ticks_stepped" => c.ticks_stepped as f64,
        "sim.unattributed_share" => {
            if fleet {
                0.0
            } else {
                unattributed
            }
        }
        "fleet.flushes_per_tick" => ratio(c.flushes as f64, sim_ticks),
        "fleet.null_message_ratio" => ratio(c.null_messages as f64, c.flushes as f64),
        "fleet.flush_items_per_flush" => ratio(c.flush_items as f64, c.flushes as f64),
        "fleet.wake_stale_ratio" => ratio(c.wake_stale_pops as f64, c.wake_pushes as f64),
        "fleet.ticks_skipped_ratio" => ratio(
            c.ticks_skipped as f64,
            (c.ticks_stepped + c.ticks_skipped) as f64,
        ),
        "fleet.unattributed_share" => {
            if fleet {
                unattributed
            } else {
                0.0
            }
        }
        "fleet.worker2_speedup" => speedup,
        "trace.overhead_ratio" => ratio(traced.run_s, untraced_run_s),
        other => unreachable!("no per-layer metric {other}"),
    });
    for v in &values {
        println!("{} = {} {}", v.name, finite(v.value), v.unit);
    }
    if !fleet {
        println!(
            "  (fleet.* are 0: the two-node engine runs this workload, with no flush exchange)"
        );
    } else {
        println!("  (sim.unattributed_share is 0: the fleet engine runs this workload; see fleet.unattributed_share)");
    }
    report_verdict(&verdict);

    let path = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out")).join(format!(
        "spans-{}-seed{}.jsonl",
        w.name(),
        args.seed
    ));
    let meta = format!(
        "\"workload\":\"{}\",\"seed\":{},{}",
        w.name(),
        args.seed,
        machine.json_members()
    );
    match rec.write_jsonl(&path, &meta) {
        Ok(()) => println!("spans: {} written to {}", rec.spans().len(), path.display()),
        Err(e) => println!("spans: not written ({e})"),
    }
    json_line(verdict.failed == 0 && !ok.is_empty(), &verdict, &values)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_lines_round_trip() {
        let line = "RUN digest=00000000000000ff run_s=1.5 sim_s=8 packets=10 rss_kb=2048 setup_s=0.1,0.2 band=tss_collapse: retained 0.5";
        let r = parse_run_line(line).unwrap();
        assert_eq!(r.digest, 255);
        assert_eq!(r.setup_s, vec![0.1, 0.2]);
        assert_eq!(r.band, Err("tss_collapse: retained 0.5".to_string()));
        assert!(parse_run_line("RUN digest=zz band=ok").is_none());
    }

    #[test]
    fn arguments_parse_and_reject() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv(
            "--workload policy_flap --seed 3 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::PolicyFlap, 3, 10.0, true)
        );
        assert!(parse_args(&argv("--workload nope --seed 1")).is_err());
        assert!(parse_args(&argv("--workload tss_collapse --seed 1 --trace 2")).is_err());
        assert!(parse_args(&argv("--seed 1")).is_err());
    }

    /// Every workload at a tiny size: runs complete, reports repeat
    /// exactly for the same seed and worker count, and the layer replay
    /// produces a price for every layer.
    #[test]
    fn tiny_smoke_run_of_every_workload() {
        for w in Workload::ALL {
            let twice = Builds {
                min: 2,
                max: 2,
                budget_s: 0.0,
            };
            let a = workloads::run(w, 11, Size::Tiny, 1, Builds::ONCE, None);
            let b = workloads::run(w, 11, Size::Tiny, 1, twice, None);
            let two = workloads::run(w, 11, Size::Tiny, 2, Builds::ONCE, None);
            assert_eq!(a.digest, b.digest, "{}", w.name());
            assert_eq!(
                a.digest,
                two.digest,
                "{} worker-count determinism",
                w.name()
            );
            assert!(a.counts.switch.packets > 0, "{}", w.name());
            assert_eq!(b.setup_s.len(), 2);
            let mut rec = spans::Recorder::new(1, 1024);
            let lt = replay::replay(replay::HostModel::of(w, 11, Size::Tiny), &mut rec);
            assert!(lt.traffic_ns_per_pkt > 0.0, "{}", w.name());
            assert!(lt.datapath_ns_per_pkt > 0.0, "{}", w.name());
            assert!(lt.emc_ns_per_lookup > 0.0, "{}", w.name());
            assert!(lt.control_ns_per_update > 0.0, "{}", w.name());
            assert!(lt.slowpath_ns_per_upcall > 0.0, "{}", w.name());
        }
    }
}
