//! Randomised property test: Tuple Space Search agrees with the linear
//! reference classifier (DESIGN.md invariant 2).
//!
//! Two regimes are pinned:
//! * **Non-overlapping entries** (the megaflow invariant): first-match
//!   TSS lookup must equal linear classification.
//! * **Arbitrary overlapping rules**: priority-aware TSS
//!   (`lookup_best_by`) must equal linear classification under OVS
//!   precedence.
//!
//! Cases are drawn from the deterministic in-house [`SplitMix64`]
//! generator (no external dependencies) — each case index is its own
//! reproducible seed.

use pi_classifier::{
    Action, FlowTable, LinearClassifier, StagedIndex, SubtableOrder, TupleSpaceSearch,
};
use pi_core::{Field, FlowKey, FlowMask, MaskedKey, SplitMix64, Stage, ALL_FIELDS};
use std::collections::HashMap;

const CASES: u64 = 256;

/// A restricted rule universe that makes accidental matches likely
/// enough to be interesting: ip_src prefixes over four /8 roots plus
/// optional exact tp_dst from a small port set.
fn rand_masked_key(rng: &mut SplitMix64) -> MaskedKey {
    let root = rng.gen_range(4) as u32;
    let len = rng.gen_range(33) as u8;
    let port_sel = rng.gen_range(3) as usize;
    let host = rng.next_u32();
    let ip = ((10 + root) << 24) | (host & 0x00ff_ffff);
    let mut mask = FlowMask::default();
    if len > 0 {
        mask = mask.with_prefix(Field::IpSrc, len);
    }
    let mut key = FlowKey::tcp(std::net::Ipv4Addr::from(ip), [192, 168, 0, 1], 0, 0);
    if port_sel > 0 {
        mask = mask.with_exact(Field::TpDst);
        key.tp_dst = [80u16, 443][port_sel - 1];
    }
    MaskedKey::new(key, mask)
}

fn rand_packet(rng: &mut SplitMix64) -> FlowKey {
    let root = rng.gen_range(6) as u32;
    let host = rng.next_u32();
    let port = [80u16, 443, 8080][rng.gen_range(3) as usize];
    let ip = ((9 + root) << 24) | (host & 0x00ff_ffff);
    FlowKey::tcp(std::net::Ipv4Addr::from(ip), [192, 168, 0, 1], 1234, port)
}

fn rand_vec<T>(
    rng: &mut SplitMix64,
    lo: u64,
    hi: u64,
    mut gen: impl FnMut(&mut SplitMix64) -> T,
) -> Vec<T> {
    let n = lo + rng.gen_range(hi - lo);
    (0..n).map(|_| gen(rng)).collect()
}

/// Non-overlapping regime: build disjoint exact-ish entries, compare
/// first-match TSS against a table of the same rules.
#[test]
fn tss_equals_linear_on_non_overlapping() {
    pi_core::for_cases(CASES, 0x11, |rng| {
        let seeds = rand_vec(rng, 1, 40, rand_masked_key);
        let packets = rand_vec(rng, 1, 40, rand_packet);
        // Keep only mutually non-overlapping masked keys (greedy filter).
        let mut chosen: Vec<MaskedKey> = Vec::new();
        for mk in seeds {
            if chosen.iter().all(|c| !c.overlaps(&mk)) {
                chosen.push(mk);
            }
        }
        let mut tss = TupleSpaceSearch::default();
        let mut table = FlowTable::new();
        for (i, mk) in chosen.iter().enumerate() {
            tss.insert(*mk, i);
            table.insert(
                *mk,
                0,
                if i % 2 == 0 {
                    Action::Allow
                } else {
                    Action::Deny
                },
            );
        }
        let linear = LinearClassifier::new(&table);
        for pkt in &packets {
            let tss_hit = tss.peek(pkt).value.copied();
            let lin_hit = linear.classify(pkt).map(|r| r.id.0 as usize);
            // Rule ids equal insertion sequence = our payload indices.
            assert_eq!(tss_hit, lin_hit, "packet {}", pkt);
        }
    });
}

/// Overlapping regime: same rules in both engines; priority-aware
/// TSS must reproduce linear's precedence choice exactly.
#[test]
fn priority_tss_equals_linear_on_overlapping() {
    pi_core::for_cases(CASES, 0x12, |rng| {
        let entries = rand_vec(rng, 1, 40, |rng| {
            (rand_masked_key(rng), rng.gen_range(4) as u32)
        });
        let packets = rand_vec(rng, 1, 40, rand_packet);
        let mut tss: TupleSpaceSearch<(u32, u64)> = TupleSpaceSearch::default();
        let mut table = FlowTable::new();
        for (mk, prio) in &entries {
            let id = table.insert(*mk, *prio, Action::Allow);
            // TSS with identical (mask,key) collides; keep the winner the
            // same way OVS would: higher (priority, earlier id) stays.
            match tss.get_mut(mk) {
                Some(existing) => {
                    let candidate = (*prio, u64::MAX - id.0);
                    if candidate > *existing {
                        *existing = candidate;
                    }
                }
                None => {
                    tss.insert(*mk, (*prio, u64::MAX - id.0));
                }
            }
        }
        let linear = LinearClassifier::new(&table);
        for pkt in &packets {
            let tss_best = tss.lookup_best_by(pkt, |v| *v).value.copied();
            let lin_best = linear
                .classify(pkt)
                .map(|r| (r.priority, u64::MAX - r.id.0));
            assert_eq!(tss_best, lin_best, "packet {}", pkt);
        }
    });
}

/// Mask-count law for the classifier: the number of subtables equals
/// the number of distinct masks inserted.
#[test]
fn subtable_count_equals_distinct_masks() {
    pi_core::for_cases(CASES, 0x13, |rng| {
        let entries = rand_vec(rng, 1, 60, rand_masked_key);
        let mut tss = TupleSpaceSearch::default();
        let mut distinct: Vec<FlowMask> = Vec::new();
        for mk in &entries {
            tss.insert(*mk, ());
            if !distinct.contains(mk.mask()) {
                distinct.push(*mk.mask());
            }
        }
        assert_eq!(tss.subtable_count(), distinct.len());
    });
}

/// One subtable of the reference model, in probe order.
struct RefSubtable {
    mask: FlowMask,
    /// Full (non-staged) probe cost: active stage count of the mask (≥ 1).
    cost: usize,
    hits: u64,
    table: HashMap<FlowKey, u64>,
}

impl RefSubtable {
    /// Stage units a staged probe of `packet` spends here, and whether
    /// it passed every stage. Stage `i` checks the entries under the
    /// mask's fields of stages `0..=i`, straight from the entry set.
    fn staged_probe(&self, packet: &FlowKey) -> (bool, usize) {
        let mut cum = FlowMask::WILDCARD;
        let mut checked = 0;
        for stage in Stage::ALL {
            let mut grew = false;
            for f in ALL_FIELDS.into_iter().filter(|f| f.stage() == stage) {
                let bits = self.mask.field(f);
                if bits != 0 {
                    cum = cum.with(f, bits);
                    grew = true;
                }
            }
            if !grew {
                continue;
            }
            checked += 1;
            let want = cum.apply(packet);
            if !self.table.keys().any(|k| cum.apply(k) == want) {
                return (false, checked);
            }
        }
        (true, checked.max(1))
    }
}

/// A straight-line reference model of `TupleSpaceSearch` built on std
/// `HashMap` subtables: one subtable per distinct mask in probe order,
/// walked sequentially, with the same stats accounting, a stable
/// hit-count re-sort and a staged probe that scans the entry set. It
/// also tracks the engine's storage order (what `iter` visits): new
/// masks are appended and emptied ones swap-removed from back to front.
/// The real engine's flat subtables, one-pass masked hashing, probe
/// array and hash filters must be observationally indistinguishable
/// from this — values, probe counts, stage units, counters and orders.
struct ReferenceTss {
    subtables: Vec<RefSubtable>,
    storage: Vec<FlowMask>,
    resort_every: Option<u64>,
    lookups_since_resort: u64,
    staged: bool,
    lookups: u64,
    subtables_probed: u64,
    stage_checks: u64,
    hits: u64,
}

impl ReferenceTss {
    fn new(resort_every: Option<u64>) -> Self {
        ReferenceTss {
            subtables: Vec::new(),
            storage: Vec::new(),
            resort_every,
            lookups_since_resort: 0,
            staged: false,
            lookups: 0,
            subtables_probed: 0,
            stage_checks: 0,
            hits: 0,
        }
    }

    fn insert(&mut self, mk: &MaskedKey, v: u64) -> Option<u64> {
        let pos = self.subtables.iter().position(|s| s.mask == *mk.mask());
        let idx = match pos {
            Some(i) => i,
            None => {
                self.subtables.push(RefSubtable {
                    mask: *mk.mask(),
                    cost: StagedIndex::new(mk.mask()).stage_count().max(1),
                    hits: 0,
                    table: HashMap::new(),
                });
                self.storage.push(*mk.mask());
                self.subtables.len() - 1
            }
        };
        self.subtables[idx].table.insert(*mk.key(), v)
    }

    fn remove(&mut self, mk: &MaskedKey) -> Option<u64> {
        let idx = self.subtables.iter().position(|s| s.mask == *mk.mask())?;
        let removed = self.subtables[idx].table.remove(mk.key());
        if removed.is_some() {
            self.drop_empty();
        }
        removed
    }

    fn retain(&mut self, mut keep: impl FnMut(&MaskedKey, u64) -> bool) {
        for s in &mut self.subtables {
            let mask = s.mask;
            s.table.retain(|k, v| keep(&MaskedKey::new(*k, mask), *v));
        }
        self.drop_empty();
    }

    /// Drops empty subtables: probe order keeps the survivors' relative
    /// order; storage order swap-removes from back to front.
    fn drop_empty(&mut self) {
        let empty: Vec<FlowMask> = self
            .subtables
            .iter()
            .filter(|s| s.table.is_empty())
            .map(|s| s.mask)
            .collect();
        self.subtables.retain(|s| !s.table.is_empty());
        for i in (0..self.storage.len()).rev() {
            if empty.contains(&self.storage[i]) {
                self.storage.swap_remove(i);
            }
        }
    }

    /// The sequential walk without side effects: `(value, probes,
    /// stage units, index of the hit subtable)`.
    fn walk(&self, packet: &FlowKey) -> (Option<u64>, usize, usize, Option<usize>) {
        let mut stage_checks = 0;
        for (i, s) in self.subtables.iter().enumerate() {
            if self.staged {
                let (may, stages) = s.staged_probe(packet);
                stage_checks += stages;
                if !may {
                    continue;
                }
            } else {
                stage_checks += s.cost;
            }
            if let Some(v) = s.table.get(&s.mask.apply(packet)) {
                return (Some(*v), i + 1, stage_checks, Some(i));
            }
        }
        (None, self.subtables.len(), stage_checks, None)
    }

    /// The walk with stats, hit counters and the periodic stable re-sort.
    fn lookup(&mut self, packet: &FlowKey) -> (Option<u64>, usize, usize) {
        if let Some(every) = self.resort_every {
            if self.lookups_since_resort >= every {
                self.lookups_since_resort = 0;
                self.subtables.sort_by_key(|s| std::cmp::Reverse(s.hits));
            }
        }
        self.lookups += 1;
        self.lookups_since_resort += 1;
        let (value, probes, stage_checks, hit) = self.walk(packet);
        if let Some(i) = hit {
            self.hits += 1;
            self.subtables[i].hits += 1;
        }
        self.subtables_probed += probes as u64;
        self.stage_checks += stage_checks as u64;
        (value, probes, stage_checks)
    }

    fn len(&self) -> usize {
        self.subtables.iter().map(|s| s.table.len()).sum()
    }
}

/// Differential test: a randomized interleaving of inserts, remove-heavy
/// churn, lookups, peeks, `retain` sweeps with a random predicate and
/// staged-lookup toggles drives the flat-subtable engine and the
/// HashMap reference in lock-step, under insertion order or a frequent
/// hit-count re-sort. Half the cases seed one mask with more than 64
/// entries, so its hash filter has every bit set while churn empties
/// it. Every observable — returned values, probe and stage counts,
/// subtable count, entry count, masks in probe order, storage order,
/// and the accumulated [`pi_classifier::TssStats`] — must match exactly.
#[test]
fn flat_subtables_match_hashmap_reference_model() {
    pi_core::for_cases(CASES, 0x15, |rng| {
        let resort_every = rng.gen_bool(0.5).then(|| 1 + rng.gen_range(8));
        let order = match resort_every {
            Some(resort_every) => SubtableOrder::HitCountDescending { resort_every },
            None => SubtableOrder::Insertion,
        };
        let mut tss: TupleSpaceSearch<u64> = TupleSpaceSearch::new(order);
        let mut reference = ReferenceTss::new(resort_every);
        // Draw keys from a small pool so removes and re-inserts of the
        // same masked key actually happen.
        let mut pool = rand_vec(rng, 8, 24, rand_masked_key);
        if rng.gen_bool(0.5) {
            // 80 hosts of one /24 under a single /32 mask.
            let mask = FlowMask::default().with_prefix(Field::IpSrc, 32);
            let net = 0x0b00_0000 | (rng.gen_range(256) as u32) << 8;
            let dense: Vec<MaskedKey> = (0..80u32)
                .map(|h| {
                    let ip = std::net::Ipv4Addr::from(net | h);
                    MaskedKey::new(FlowKey::tcp(ip, [192, 168, 0, 1], 0, 0), mask)
                })
                .collect();
            for (n, mk) in dense.iter().enumerate() {
                assert_eq!(tss.insert(*mk, n as u64), reference.insert(mk, n as u64));
            }
            pool.extend(dense);
        }
        for op in 0..400u64 {
            match rng.gen_range(20) {
                0..=4 => {
                    let mk = *rng.choose(&pool).unwrap();
                    assert_eq!(tss.insert(mk, op), reference.insert(&mk, op));
                }
                5..=11 => {
                    let mk = rng.choose(&pool).unwrap();
                    assert_eq!(tss.remove(mk), reference.remove(mk));
                }
                12 => {
                    let (modulus, salt) = (2 + rng.gen_range(4), rng.next_u64());
                    let keep = |mk: &MaskedKey, v: u64| {
                        !(v ^ salt ^ u64::from(mk.key().ip_src)).is_multiple_of(modulus)
                    };
                    tss.retain(|mk, v| keep(mk, *v));
                    reference.retain(keep);
                }
                13 => {
                    let on = !tss.staged_lookup();
                    tss.set_staged_lookup(on);
                    reference.staged = on;
                }
                _ => {
                    let pkt = if rng.gen_bool(0.5) {
                        // Probe a witness of a pool entry: likely hit.
                        rng.choose(&pool).unwrap().witness()
                    } else {
                        rand_packet(rng)
                    };
                    let (ref_v, ref_probes, ref_stages, _) = reference.walk(&pkt);
                    let peek = tss.peek(&pkt);
                    assert_eq!(peek.value.copied(), ref_v, "peek value for {pkt}");
                    assert_eq!(peek.probes, ref_probes, "peek probes for {pkt}");
                    assert_eq!(peek.stage_checks, ref_stages, "peek stages for {pkt}");
                    let out = tss.lookup(&pkt);
                    let (ref_v, ref_probes, ref_stages) = reference.lookup(&pkt);
                    assert_eq!(out.value.copied(), ref_v, "value for {pkt}");
                    assert_eq!(out.probes, ref_probes, "probes for {pkt}");
                    assert_eq!(out.stage_checks, ref_stages, "stages for {pkt}");
                }
            }
            assert_eq!(tss.len(), reference.len());
            assert_eq!(tss.subtable_count(), reference.subtables.len());
            assert_eq!(
                tss.masks(),
                reference
                    .subtables
                    .iter()
                    .map(|s| s.mask)
                    .collect::<Vec<_>>(),
                "probe order must match the reference"
            );
            let mut storage: Vec<FlowMask> = tss.iter().map(|(mk, _)| *mk.mask()).collect();
            storage.dedup();
            assert_eq!(storage, reference.storage, "storage order");
            let s = tss.stats();
            assert_eq!(s.lookups, reference.lookups);
            assert_eq!(s.subtables_probed, reference.subtables_probed);
            assert_eq!(s.stage_checks, reference.stage_checks);
            assert_eq!(s.hits, reference.hits);
        }
        // Entry sets agree exactly at the end.
        let mut ours: Vec<(FlowKey, u64)> = tss.iter().map(|(mk, v)| (*mk.key(), *v)).collect();
        let mut theirs: Vec<(FlowKey, u64)> = reference
            .subtables
            .iter()
            .flat_map(|s| s.table.iter().map(|(k, v)| (*k, *v)))
            .collect();
        let key_of = |e: &(FlowKey, u64)| (e.0.ip_src, e.0.tp_dst, e.1);
        ours.sort_by_key(key_of);
        theirs.sort_by_key(key_of);
        assert_eq!(ours, theirs);
    });
}

/// Removal restores the exact pre-insertion observable state.
#[test]
fn insert_remove_is_identity() {
    pi_core::for_cases(CASES, 0x14, |rng| {
        let base = rand_vec(rng, 0, 20, rand_masked_key);
        let extra = rand_masked_key(rng);
        let probes = rand_vec(rng, 1, 20, rand_packet);
        let mut tss = TupleSpaceSearch::default();
        for (i, mk) in base.iter().enumerate() {
            tss.insert(*mk, i as u64);
        }
        let before: Vec<Option<u64>> = probes.iter().map(|p| tss.peek(p).value.copied()).collect();
        let had = tss.get(&extra).copied();
        tss.insert(extra, 999_999);
        match had {
            Some(v) => {
                tss.insert(extra, v);
            }
            None => {
                tss.remove(&extra);
            }
        }
        let after: Vec<Option<u64>> = probes.iter().map(|p| tss.peek(p).value.copied()).collect();
        assert_eq!(before, after);
    });
}
