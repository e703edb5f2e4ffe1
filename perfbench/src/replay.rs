//! Layer replays: each layer's public function fed the workload's own
//! key stream, against state warmed to the workload's steady state,
//! with spans around every call the benchmark makes.
//!
//! A replay models one representative host of the workload: its pods,
//! their ACLs, the traffic sources that reach it (rebuilt from the same
//! `pi_traffic`/`pi_attack` generators and seed the scenario uses) and
//! its control-plane program. It then walks a window of simulated time
//! tick by tick:
//!
//! * `traffic.generate` — [`TrafficSource::generate`] per tick;
//! * `control.apply_install_acl` / `control.apply_remove_acl` — the
//!   scheduled updates due that tick, through [`DataplaneBackend`];
//! * `datapath.process_batch` — the tick's keys in bursts of
//!   [`VSwitch::BATCH_SIZE`] through [`DataplaneBackend::process_batch`].
//!
//! The window's keys are then replayed into single layers:
//! `emc.lookup` ([`MicroflowCache`]), `tss.lookup` (a clone of the
//! switch's warmed [`MegaflowCache`]) and `slowpath.process_upcall`
//! ([`SlowPath`], on the keys that upcalled).

use std::collections::HashMap;
use std::time::Instant;

use pi_attack::{AttackSchedule, AttackSpec, CovertSequence, MaliciousAcl};
use pi_backend::DataplaneBackend;
use pi_classifier::{Action, FlowTable};
use pi_cms::{
    Cidr, ControlPlaneProgram, IngressRule, NetworkPolicy, PolicyCompiler, PolicyUpdate, Protocol,
};
use pi_core::{FlowKey, SimTime};
use pi_datapath::{CostModel, DpConfig, MegaflowCache, MicroflowCache, SlowPath, VSwitch};
use pi_traffic::{FanSource, GenPacket, IperfSource, PoissonFlowSource, TrafficSource};

use crate::spans::Recorder;
use crate::stats;
use crate::workloads::{Size, Workload};

const TICK: SimTime = SimTime::from_millis(1);
/// Ticks per window chunk: per-layer prices are medians over chunks (and
/// over [`PASSES`] passes for the single-layer replays), so a burst of
/// interference from other tenants of a shared machine moves a few
/// samples rather than the price.
const CHUNK_TICKS: u64 = 50;
/// Passes of each single-layer replay.
const PASSES: usize = 5;

fn ip(a: [u8; 4]) -> u32 {
    u32::from_be_bytes(a)
}

fn compile_spec(spec: &AttackSpec) -> FlowTable {
    match spec.build_policy() {
        MaliciousAcl::K8s(p) => PolicyCompiler.compile_k8s(&p),
        MaliciousAcl::OpenStack(p) => PolicyCompiler.compile_security_group(&p),
        MaliciousAcl::Calico(p) => PolicyCompiler.compile_calico(&p),
    }
}

/// The victims' own policy in the iperf scenarios: cluster traffic
/// (10/8) may reach the iperf port.
fn iperf_policy() -> FlowTable {
    PolicyCompiler.compile_k8s(&NetworkPolicy {
        name: "victim-iperf".into(),
        ingress: vec![IngressRule {
            from: vec![Cidr::new(ip([10, 0, 0, 0]), 8).expect("valid /8")],
            ports: vec![(Protocol::Tcp, Some(5201))],
        }],
    })
}

/// One representative host of a workload.
pub struct HostModel {
    dp: DpConfig,
    cost: CostModel,
    pods: Vec<u32>,
    acls: Vec<(u32, FlowTable)>,
    sources: Vec<Box<dyn TrafficSource>>,
    control: ControlPlaneProgram,
    /// Keys processed before the window to reach steady state.
    warm: Vec<FlowKey>,
    window: (SimTime, SimTime),
}

const VICTIM: u32 = 0x0a01_000a; // 10.1.0.10
const ATTACKER: u32 = 0x0a01_0042; // 10.1.0.66
const BACKGROUND: u32 = 0x0a01_0014; // 10.1.0.20

impl HostModel {
    /// The representative host of `w` at `size` with workload seed `seed`.
    pub fn of(w: Workload, seed: u64, size: Size) -> HostModel {
        let dp = w.dp(seed);
        let full = size == Size::Full;
        let client = ip([10, 0, 0, 10]);
        let iperf_key = FlowKey::tcp(client.to_be_bytes(), VICTIM.to_be_bytes(), 40_000, 5201);
        let at = |secs: f64| SimTime::from_nanos((secs * 1e9) as u64);
        match w {
            // The server node of Fig. 1: victim iperf, covert stream
            // and background chatter all land here.
            Workload::TssCollapse => {
                let p = w.fig3(seed, size);
                let seq = CovertSequence::new(p.spec.build_target(ATTACKER));
                HostModel {
                    warm: seq.populate_packets().collect(),
                    sources: vec![
                        Box::new(IperfSource::new(iperf_key, 1500, p.victim_rate_bps)),
                        Box::new(AttackSchedule::new(
                            seq,
                            p.attack_bandwidth_bps,
                            p.attack_start,
                        )),
                        Box::new(PoissonFlowSource::new(
                            (0..16u8).map(|i| (ip([10, 0, 1, i]), BACKGROUND)).collect(),
                            20.0,
                            30.0,
                            200.0,
                            200,
                            p.seed,
                        )),
                    ],
                    acls: vec![(VICTIM, iperf_policy()), (ATTACKER, compile_spec(&p.spec))],
                    pods: vec![VICTIM, ATTACKER, BACKGROUND],
                    control: ControlPlaneProgram::new(),
                    window: if full {
                        (at(6.0), at(6.4))
                    } else {
                        (at(0.5), at(0.6))
                    },
                    dp,
                    cost: CostModel::default(),
                }
            }
            // The single node of the policy-churn scenario, rebuilt
            // with the same victim whitelist, fan and control programs.
            Workload::PolicyFlap => {
                let p = w.policy_churn(seed, size);
                let client_ip = |i: usize| [10, 2, (i >> 8) as u8, (i & 0xff) as u8];
                let victim_acl = PolicyCompiler.compile_k8s(&NetworkPolicy {
                    name: "victim-peers".into(),
                    ingress: vec![IngressRule {
                        from: (0..p.clients).map(|i| Cidr::host(client_ip(i))).collect(),
                        ports: vec![(Protocol::Tcp, Some(5201))],
                    }],
                });
                let keys: Vec<FlowKey> = (0..p.clients)
                    .map(|i| {
                        FlowKey::tcp(
                            client_ip(i),
                            VICTIM.to_be_bytes(),
                            40_000 + (i % 16_000) as u16,
                            5201,
                        )
                    })
                    .collect();
                let attacker_acl = PolicyCompiler.compile_k8s(&NetworkPolicy {
                    name: "attacker-web".into(),
                    ingress: vec![IngressRule {
                        from: vec![Cidr::new(ip([10, 0, 0, 0]), 8).expect("valid /8")],
                        ports: vec![(Protocol::Tcp, Some(8080))],
                    }],
                });
                let mut control = AttackSchedule::policy_flap(
                    ATTACKER,
                    &attacker_acl,
                    p.attack_start,
                    p.duration,
                    p.flap_period,
                );
                let bg_acl = PolicyCompiler.compile_k8s(&NetworkPolicy {
                    name: "background".into(),
                    ingress: vec![IngressRule {
                        from: vec![Cidr::new(ip([10, 0, 0, 0]), 8).expect("valid /8")],
                        ports: vec![(Protocol::Tcp, None)],
                    }],
                });
                let mut benign =
                    ControlPlaneProgram::new().with_propagation_delay(p.benign_propagation_delay);
                let mut t = p.benign_update_period;
                let mut install = true;
                while t < p.duration {
                    if install {
                        benign.install_acl(t, BACKGROUND, bg_acl.clone());
                    } else {
                        benign.remove_acl(t, BACKGROUND);
                    }
                    install = !install;
                    t += p.benign_update_period;
                }
                control.merge(benign);
                HostModel {
                    warm: keys.clone(),
                    sources: vec![Box::new(FanSource::new(
                        keys,
                        p.victim_frame_bytes,
                        p.victim_pps,
                    ))],
                    acls: vec![(VICTIM, victim_acl), (ATTACKER, attacker_acl)],
                    pods: vec![VICTIM, ATTACKER, BACKGROUND],
                    control,
                    window: if full {
                        (at(5.0), at(5.8))
                    } else {
                        (at(0.5), at(0.6))
                    },
                    dp,
                    cost: CostModel::default(),
                }
            }
            // A fleet host carrying one victim pod, one injected
            // attacker pod and a background pod.
            Workload::ColocationDense | Workload::SparseIdle => {
                let (rate, attack_bps, spec, start, background, window) =
                    if w == Workload::ColocationDense {
                        let p = w.colocation(seed, size, 1);
                        let window = if full { (1.2, 2.0) } else { (0.5, 0.6) };
                        let bg = PoissonFlowSource::new(
                            (0..8u8)
                                .map(|i| (ip([10, 0, 200, i]), BACKGROUND))
                                .collect(),
                            10.0,
                            20.0,
                            200.0,
                            200,
                            p.seed,
                        );
                        let bg: Box<dyn TrafficSource> = Box::new(bg);
                        (
                            p.victim_rate_bps,
                            p.attack_bandwidth_bps,
                            p.spec,
                            p.attack_start,
                            Some(bg),
                            window,
                        )
                    } else {
                        let p = w.sparse(seed, size);
                        let window = if full { (6.0, 8.0) } else { (0.5, 0.6) };
                        (
                            p.victim_rate_bps,
                            p.attack_bandwidth_bps,
                            p.spec,
                            p.attack_start,
                            None,
                            window,
                        )
                    };
                let seq = CovertSequence::new(spec.build_target(ATTACKER));
                let mut sources: Vec<Box<dyn TrafficSource>> = vec![
                    Box::new(IperfSource::new(iperf_key, 1500, rate)),
                    Box::new(
                        AttackSchedule::fan_out(
                            &spec,
                            &[ATTACKER],
                            attack_bps,
                            start,
                            SimTime::ZERO,
                        )
                        .remove(0),
                    ),
                ];
                sources.extend(background);
                HostModel {
                    warm: seq.populate_packets().collect(),
                    sources,
                    acls: vec![(VICTIM, iperf_policy()), (ATTACKER, compile_spec(&spec))],
                    pods: vec![VICTIM, ATTACKER, BACKGROUND],
                    control: ControlPlaneProgram::new(),
                    window: (at(window.0), at(window.1)),
                    dp,
                    cost: CostModel::default(),
                }
            }
        }
    }

    /// Policy updates the workload's control plane applies while it
    /// runs (build-time installs excluded).
    pub fn runtime_updates(&self) -> u64 {
        self.control.len() as u64
    }
}

/// One window packet as the datapath resolved it.
#[derive(Debug, Clone, Copy)]
struct Resolved {
    key: FlowKey,
    verdict: Action,
    emc_hit: bool,
    upcall: bool,
    /// Control updates applied before this packet (the EMC generation).
    epoch: u64,
}

/// What the replays measured, per layer.
#[derive(Debug, Clone, Default)]
pub struct LayerTimes {
    /// ns per generated packet.
    pub traffic_ns_per_pkt: f64,
    /// ns per EMC lookup (insert on miss included).
    pub emc_ns_per_lookup: f64,
    /// EMC hit ratio of the replayed stream.
    pub emc_replay_hit_ratio: f64,
    /// Modelled cycles per EMC lookup (probe, plus insert on a miss).
    pub emc_model_cycles: f64,
    /// ns per subtable probed.
    pub tss_ns_per_probe: f64,
    /// p99 of individually timed lookups, ns (clock cost subtracted).
    pub tss_lookup_ns_p99: f64,
    /// Subtables in the replayed megaflow cache.
    pub tss_subtables: usize,
    /// Modelled cycles per probe on the replayed stream.
    pub tss_model_cycles_per_probe: f64,
    /// ns per slow-path upcall.
    pub slowpath_ns_per_upcall: f64,
    /// Modelled cycles per upcall on the replayed keys.
    pub slowpath_model_cycles: f64,
    /// ns per control-plane update.
    pub control_ns_per_update: f64,
    /// Modelled cycles per replayed update.
    pub control_model_cycles: f64,
    /// ns per packet through `process_batch`.
    pub datapath_ns_per_pkt: f64,
    /// p99 of `process_batch` span durations, µs.
    pub datapath_batch_us_p99: f64,
    /// Modelled cycles per replayed packet.
    pub datapath_model_cycles_per_pkt: f64,
    /// Measured ns per modelled cycle of the replayed packets.
    pub datapath_ns_per_model_cycle: f64,
    /// Packets, TSS lookups, upcalls and updates replayed.
    pub ops: [u64; 4],
}

impl LayerTimes {
    /// Field-wise median of several replays of one workload (the counts
    /// are the same in each and are taken from the first).
    pub fn median(all: &[LayerTimes]) -> LayerTimes {
        let mut out = all.first().cloned().unwrap_or_default();
        macro_rules! median_of {
            ($($field:ident),*) => {
                $(out.$field = stats::median(&all.iter().map(|l| l.$field).collect::<Vec<_>>());)*
            };
        }
        median_of!(
            traffic_ns_per_pkt,
            emc_ns_per_lookup,
            emc_replay_hit_ratio,
            emc_model_cycles,
            tss_ns_per_probe,
            tss_lookup_ns_p99,
            tss_model_cycles_per_probe,
            slowpath_ns_per_upcall,
            slowpath_model_cycles,
            control_ns_per_update,
            control_model_cycles,
            datapath_ns_per_pkt,
            datapath_batch_us_p99,
            datapath_model_cycles_per_pkt,
            datapath_ns_per_model_cycle
        );
        out
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Cost of one `Instant` pair, ns (median of many), subtracted from
/// individually timed lookups.
fn clock_pair_ns() -> f64 {
    let samples: Vec<f64> = (0..2_000)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(());
            t.elapsed().as_nanos() as f64
        })
        .collect();
    stats::median(&samples)
}

/// Runs every layer replay of `model` inside `rec`.
pub fn replay(model: HostModel, rec: &mut Recorder) -> LayerTimes {
    let HostModel {
        dp,
        cost,
        pods,
        acls,
        mut sources,
        control,
        warm,
        window,
    } = model;
    let mut sw = VSwitch::with_cost_model(dp.clone(), cost);
    for (i, &pod) in pods.iter().enumerate() {
        sw.attach_pod(pod, i as u32 + 1);
    }
    for (pod, table) in &acls {
        sw.install_acl(*pod, table.clone());
    }
    let (from, to) = window;
    let mut plane = control.compile();
    let mut gen: Vec<GenPacket> = Vec::new();
    let mut upcall_keys: Vec<FlowKey> = Vec::new();

    // Warm-up: the steady-state cache contents, then the sources
    // advanced to the window start (their packets before it dropped).
    rec.enter("replay.warm");
    let be: &mut dyn DataplaneBackend = &mut sw;
    for chunk in warm.chunks(VSwitch::BATCH_SIZE) {
        be.process_batch(chunk, from, &mut |i, out| {
            if out.path.is_upcall() {
                upcall_keys.push(chunk[i]);
            }
            true
        });
    }
    let mut t = SimTime::ZERO;
    while t < from {
        for s in sources.iter_mut() {
            s.generate(t, t + TICK, &mut gen);
        }
        gen.clear();
        t += TICK;
    }
    plane.due(from);
    rec.exit(warm.len() as u64);

    // The window, tick by tick.
    let mut resolved: Vec<Resolved> = Vec::new();
    let mut keys: Vec<FlowKey> = Vec::new();
    let mut model_cycles = 0u64;
    let mut epoch = 0u64;
    let mut control_cycles = 0u64;
    let mut updates = 0u64;
    // Per chunk: [traffic ns, generated, datapath ns, packets, modelled
    // cycles].
    let mut chunks: Vec<[f64; 5]> = Vec::new();
    rec.enter("replay.window");
    let mut t = from;
    let mut tick = 0u64;
    while t < to {
        if tick.is_multiple_of(CHUNK_TICKS) {
            chunks.push([0.0; 5]);
        }
        tick += 1;
        rec.enter("traffic.generate");
        for s in sources.iter_mut() {
            s.generate(t, t + TICK, &mut gen);
        }
        let gen_ns = rec.exit(gen.len() as u64);
        let mut tick_acc = [gen_ns as f64, gen.len() as f64, 0.0, 0.0, 0.0];
        for u in plane.due(t) {
            let be: &mut dyn DataplaneBackend = &mut sw;
            let out = match &u.update {
                PolicyUpdate::InstallAcl { ip, table } => {
                    rec.enter("control.apply_install_acl");
                    let out = be.apply_install_acl(*ip, table.clone());
                    rec.exit(1);
                    out
                }
                PolicyUpdate::RemoveAcl { ip } => {
                    rec.enter("control.apply_remove_acl");
                    let out = be.apply_remove_acl(*ip);
                    rec.exit(1);
                    out
                }
                PolicyUpdate::AttachPod { ip, vport } => be.apply_attach_pod(*ip, *vport),
            };
            control_cycles += out.cycles;
            updates += 1;
            epoch += 1;
        }
        keys.clear();
        keys.extend(gen.drain(..).map(|p| p.key));
        for chunk in keys.chunks(VSwitch::BATCH_SIZE) {
            let be: &mut dyn DataplaneBackend = &mut sw;
            rec.enter("datapath.process_batch");
            let before = model_cycles;
            be.process_batch(chunk, t, &mut |i, out| {
                model_cycles += out.cycles;
                resolved.push(Resolved {
                    key: chunk[i],
                    verdict: out.verdict,
                    emc_hit: out.path.is_microflow(),
                    upcall: out.path.is_upcall(),
                    epoch,
                });
                true
            });
            tick_acc[2] += rec.exit(chunk.len() as u64) as f64;
            tick_acc[3] += chunk.len() as f64;
            tick_acc[4] += (model_cycles - before) as f64;
        }
        let chunk_acc = chunks.last_mut().expect("a chunk is open");
        for (c, v) in chunk_acc.iter_mut().zip(tick_acc) {
            *c += v;
        }
        sw.revalidate(t);
        t += TICK;
    }
    rec.exit(resolved.len() as u64);

    let mut lt = LayerTimes::default();
    let per_chunk = |ns: usize, ops: usize| {
        let v: Vec<f64> = chunks
            .iter()
            .filter(|c| c[ops] > 0.0)
            .map(|c| c[ns] / c[ops])
            .collect();
        stats::median(&v)
    };
    lt.traffic_ns_per_pkt = per_chunk(0, 1);
    lt.datapath_ns_per_pkt = per_chunk(2, 3);
    let (_, packets) = rec.total("datapath.process_batch");
    let batches: Vec<f64> = rec
        .durations("datapath.process_batch")
        .into_iter()
        .map(|ns| ns / 1e3)
        .collect();
    lt.datapath_batch_us_p99 = stats::percentile(&batches, 99.0);
    lt.datapath_model_cycles_per_pkt = ratio(model_cycles as f64, packets as f64);
    lt.datapath_ns_per_model_cycle = per_chunk(2, 4);

    emc_replay(&dp, &cost, &resolved, from, rec, &mut lt);
    let lookups = tss_replay(sw.megaflows(), &cost, &resolved, from, rec, &mut lt);
    upcall_keys.extend(resolved.iter().filter(|r| r.upcall).map(|r| r.key));
    slowpath_replay(&dp, &cost, &acls, &upcall_keys, rec, &mut lt);

    // The workload's own updates were timed inside the window; a
    // workload without runtime churn re-applies its build-time ACLs.
    if updates == 0 {
        rec.enter("replay.control");
        let be: &mut dyn DataplaneBackend = &mut sw;
        for _ in 0..8 {
            for (pod, table) in &acls {
                rec.enter("control.apply_remove_acl");
                let out = be.apply_remove_acl(*pod);
                rec.exit(1);
                control_cycles += out.cycles;
                rec.enter("control.apply_install_acl");
                let out = be.apply_install_acl(*pod, table.clone());
                rec.exit(1);
                control_cycles += out.cycles;
                updates += 2;
            }
        }
        rec.exit(updates);
    }
    let mut update_ns = rec.durations("control.apply_install_acl");
    update_ns.extend(rec.durations("control.apply_remove_acl"));
    lt.control_ns_per_update = stats::median(&update_ns);
    lt.control_model_cycles = ratio(control_cycles as f64, updates as f64);

    lt.ops = [packets, lookups, upcall_keys.len() as u64, updates];
    lt
}

/// Median over [`PASSES`] passes of `pass`, which returns one pass's
/// (ns, ops); 0 when no pass had work.
fn median_of_passes(mut pass: impl FnMut() -> (u64, u64)) -> f64 {
    let per_op: Vec<f64> = (0..PASSES)
        .map(|_| pass())
        .filter(|&(_, ops)| ops > 0)
        .map(|(ns, ops)| ns as f64 / ops as f64)
        .collect();
    stats::median(&per_op)
}

/// EMC replay: lookup (insert on miss) of every window key into a cold
/// cache, with the generation bumped at each control update as the
/// switch does.
fn emc_replay(
    dp: &DpConfig,
    cost: &CostModel,
    resolved: &[Resolved],
    now: SimTime,
    rec: &mut Recorder,
    lt: &mut LayerTimes,
) {
    let mut hits = 0u64;
    lt.emc_ns_per_lookup = median_of_passes(|| {
        let mut emc = MicroflowCache::new(dp.emc_entries, dp.emc_ways, dp.emc_insert_prob, dp.seed);
        hits = 0;
        let mut ns = 0;
        for chunk in resolved.chunks(256) {
            rec.enter("emc.lookup");
            for r in chunk {
                if emc.lookup(&r.key, r.epoch, now).is_some() {
                    hits += 1;
                } else {
                    emc.insert(&r.key, r.verdict, r.epoch, now);
                }
            }
            ns += rec.exit(chunk.len() as u64);
        }
        (ns, resolved.len() as u64)
    });
    let lookups = resolved.len() as u64;
    lt.emc_replay_hit_ratio = ratio(hits as f64, lookups as f64);
    lt.emc_model_cycles = ratio(
        (lookups * cost.emc_probe + (lookups - hits) * cost.emc_insert) as f64,
        lookups as f64,
    );
}

/// TSS replay on a clone of the switch's warmed megaflow cache: the
/// window's EMC misses looked up in bursts (for ns per probe), then
/// one at a time (for the latency tail). Returns the lookup count.
fn tss_replay(
    warmed: &MegaflowCache,
    cost: &CostModel,
    resolved: &[Resolved],
    now: SimTime,
    rec: &mut Recorder,
    lt: &mut LayerTimes,
) -> u64 {
    let mut mfc = warmed.clone();
    lt.tss_subtables = mfc.mask_count();
    let keys: Vec<FlowKey> = resolved
        .iter()
        .filter(|r| !r.emc_hit)
        .map(|r| r.key)
        .collect();
    let mut probes = 0u64;
    let mut stage_checks = 0u64;
    lt.tss_ns_per_probe = median_of_passes(|| {
        (probes, stage_checks) = (0, 0);
        let mut ns = 0;
        for chunk in keys.chunks(32) {
            rec.enter("tss.lookup");
            let mut p = 0u64;
            for k in chunk {
                let out = mfc.lookup(k, now);
                p += out.probes as u64;
                stage_checks += out.stage_checks as u64;
            }
            ns += rec.exit(p);
            probes += p;
        }
        (ns, probes)
    });
    lt.tss_model_cycles_per_probe = ratio(
        (probes * cost.per_subtable + stage_checks * cost.per_stage_hash) as f64,
        probes as f64,
    );
    let clock = clock_pair_ns();
    rec.enter("tss.lookup_timed");
    let mut lat = Vec::with_capacity(keys.len());
    for k in &keys {
        let t = Instant::now();
        std::hint::black_box(mfc.lookup(k, now));
        lat.push((t.elapsed().as_nanos() as f64 - clock).max(0.0));
    }
    rec.exit(keys.len() as u64);
    lt.tss_lookup_ns_p99 = stats::percentile(&lat, 99.0);
    keys.len() as u64
}

/// Slow-path replay: every upcalled key through its destination pod's
/// [`SlowPath`] (the ACL'd pods deny by default, the others allow).
fn slowpath_replay(
    dp: &DpConfig,
    cost: &CostModel,
    acls: &[(u32, FlowTable)],
    keys: &[FlowKey],
    rec: &mut Recorder,
    lt: &mut LayerTimes,
) {
    let paths: HashMap<u32, SlowPath> = acls
        .iter()
        .map(|(pod, table)| {
            (
                *pod,
                SlowPath::new(table.clone(), &dp.trie_fields, Action::Deny),
            )
        })
        .collect();
    let permissive = SlowPath::permissive(Action::Allow);
    let mut rules = 0u64;
    lt.slowpath_ns_per_upcall = median_of_passes(|| {
        rules = 0;
        let mut ns = 0;
        for chunk in keys.chunks(32) {
            rec.enter("slowpath.process_upcall");
            for k in chunk {
                let sp = paths.get(&k.ip_dst).unwrap_or(&permissive);
                rules += std::hint::black_box(sp.process_upcall(k)).rules_examined as u64;
            }
            ns += rec.exit(chunk.len() as u64);
        }
        (ns, keys.len() as u64)
    });
    let upcalls = keys.len() as u64;
    lt.slowpath_model_cycles = ratio(
        (upcalls * (cost.upcall_fixed + cost.mfc_install) + rules * cost.per_rule) as f64,
        upcalls as f64,
    );
}
