//! Tuple Space Search — the classifier under attack.
//!
//! TSS keeps one hash table ("subtable") per distinct wildcard mask.
//! Lookup masks the packet key with each subtable's mask in turn and
//! probes that subtable's hash; with non-overlapping entries (the
//! megaflow invariant) the first hit is the answer. Hash lookup is O(1),
//! but the subtable walk is **linear in the number of distinct masks** —
//! the algorithmic deficiency the paper exploits (§2: "the TSS algorithm
//! still has to iterate through all hashes assigned to different masks,
//! rendering TSS a costly linear search when there are lots of masks").
//!
//! The implementation is generic over the entry payload `V` so the same
//! engine serves as the megaflow cache store (`V = MegaflowEntry`) and as
//! a general classifier in tests.
//!
//! **Hot-path design** (the streamed walk): the walk reads one
//! contiguous array of `Probe`s kept in probe order. Each element holds
//! everything a probe that misses needs — the subtable's [`MaskWords`],
//! its full-probe stage cost and a 64-bit *hash filter* with one bit per
//! live entry hash (`1 << (hash >> 58)`) — plus the index of the cold
//! `Subtable` (its [`FlatTable`] of entries, hit counter and optional
//! staged index). A lookup extracts the packet's [`KeyWords`] **once**,
//! derives its hash under each probe's mask with one AND-and-mix per
//! field ([`KeyWords::masked_hash`]) and tests the filter bit; only when
//! the bit is set does it read the subtable's slots. A walk past
//! thousands of attack masks therefore streams one array instead of
//! following a pointer into every subtable and then into its slot array.
//! The filter only skips reads: `insert` sets bits, and `remove` and
//! `retain` recompute them, so a bit can be stale (costing one slot read)
//! but never missing. Probe counts, stage units and statistics are those
//! of the plain sequential walk. No masked `FlowKey` is materialised and
//! nothing allocates per packet. Callers that already hold the packet's
//! words (the datapath's batch path) use the `*_with` lookup variants to
//! skip re-extraction.

use std::collections::HashMap;
use std::ops::ControlFlow;

use pi_core::{FlowKey, FlowMask, KeyWords, MaskWords, MaskedKey};

use crate::flat::FlatTable;
use crate::staged::StagedIndex;

/// How the subtable list is ordered for the sequential walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubtableOrder {
    /// Masks are probed in the order they first appeared (OVS default
    /// behaviour absent the priority sorter). This is the configuration
    /// the paper attacks.
    Insertion,
    /// Subtables are periodically re-sorted by descending hit count, the
    /// countermeasure OVS ships as "subtable priority sorting". Victims
    /// with hot flows float toward the front of the walk.
    HitCountDescending {
        /// Re-sort after this many lookups.
        resort_every: u64,
    },
}

/// One flat hash table of same-mask entries: the part of a subtable the
/// walk reads only on a filter hit.
#[derive(Debug, Clone)]
struct Subtable<V> {
    mask: FlowMask,
    entries: FlatTable<V>,
    /// Hits since creation (drives `HitCountDescending`).
    hits: u64,
    /// Staged membership index; present exactly when the table's staged
    /// lookup is on.
    staged: Option<StagedIndex>,
    /// Position of this subtable's [`Probe`] in the probe array.
    probe: usize,
}

/// One subtable's element of the probe-order walk array.
#[derive(Debug, Clone)]
struct Probe {
    /// The mask's word representation, so a probe is one masked-hash
    /// fold over the packet's words.
    mask_words: MaskWords,
    /// Index of the subtable in storage order.
    slot: usize,
    /// Hash work of one full (non-staged) probe, in stage units: the
    /// number of protocol stages with mask bits (≥ 1). A staged probe
    /// that aborts at stage `k` costs `k` of these units.
    full_probe_cost: usize,
    /// One bit per live entry hash ([`filter_bit`]). A clear bit proves
    /// no entry has a hash with those top bits.
    filter: u64,
}

/// A canonical entry key's hash: the masked key is pre-masked, so its
/// full hash equals its masked hash under its subtable's mask — the
/// invariant that lets raw packets probe with [`KeyWords::masked_hash`].
#[inline]
fn entry_hash(key: &FlowKey) -> u64 {
    KeyWords::of(key).full_hash()
}

/// The hash filter bit of an entry hash: its top six bits select one of
/// 64 (the low bits index the flat table, so the two are independent).
#[inline(always)]
fn filter_bit(hash: u64) -> u64 {
    1 << (hash >> 58)
}

/// The exact filter of a subtable's live entries.
fn filter_of<V>(entries: &FlatTable<V>) -> u64 {
    entries.hashes().fold(0, |f, h| f | filter_bit(h))
}

/// Counters accumulated across lookups.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TssStats {
    /// Total lookups performed (hit or miss).
    pub lookups: u64,
    /// Total subtables probed across all lookups.
    pub subtables_probed: u64,
    /// Total stage checks performed (≥ probes when staged lookup is on;
    /// equals probes otherwise).
    pub stage_checks: u64,
    /// Lookups that found an entry.
    pub hits: u64,
}

impl TssStats {
    /// Mean subtables probed per lookup.
    pub fn avg_probes(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.subtables_probed as f64 / self.lookups as f64
        }
    }
}

/// The outcome of a single lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LookupOutcome<T> {
    /// The first matching entry's payload, if any.
    pub value: Option<T>,
    /// How many subtables were visited (each visit costs a hash of the
    /// packet key under that subtable's mask).
    pub probes: usize,
    /// Stage checks performed (= probes without staged lookup).
    pub stage_checks: usize,
}

/// A Tuple Space Search classifier / cache store.
#[derive(Debug, Clone)]
pub struct TupleSpaceSearch<V> {
    /// Subtables in storage order (what `iter`/`retain` visit).
    subtables: Vec<Subtable<V>>,
    /// The walk array, in probe order.
    probes: Vec<Probe>,
    /// mask → index into `subtables`.
    index: HashMap<FlowMask, usize>,
    entry_count: usize,
    ordering: SubtableOrder,
    staged_enabled: bool,
    stats: TssStats,
    lookups_since_resort: u64,
}

impl<V> Default for TupleSpaceSearch<V> {
    fn default() -> Self {
        Self::new(SubtableOrder::Insertion)
    }
}

impl<V> TupleSpaceSearch<V> {
    /// An empty classifier with the given subtable ordering strategy.
    pub fn new(ordering: SubtableOrder) -> Self {
        TupleSpaceSearch {
            subtables: Vec::new(),
            probes: Vec::new(),
            index: HashMap::new(),
            entry_count: 0,
            ordering,
            staged_enabled: false,
            stats: TssStats::default(),
            lookups_since_resort: 0,
        }
    }

    /// Enables staged lookup, like [`TupleSpaceSearch::set_staged_lookup`]
    /// with `true` (existing subtables are retrofitted).
    pub fn with_staged_lookup(mut self) -> Self {
        self.set_staged_lookup(true);
        self
    }

    /// Whether staged lookup is currently enabled.
    pub fn staged_lookup(&self) -> bool {
        self.staged_enabled
    }

    /// Toggles staged lookup at runtime. Enabling retrofits a
    /// [`StagedIndex`] onto every existing subtable (one pass over its
    /// entries), so lookups behave exactly as if the classifier had been
    /// built staged from the start; disabling drops the indexes. A
    /// no-op when the flag already matches.
    pub fn set_staged_lookup(&mut self, enabled: bool) {
        if self.staged_enabled == enabled {
            return;
        }
        self.staged_enabled = enabled;
        for st in &mut self.subtables {
            st.staged = enabled.then(|| {
                let mut staged = StagedIndex::new(&st.mask);
                for (key, _) in st.entries.iter() {
                    staged.insert(key);
                }
                staged
            });
        }
    }

    /// Total entries across all subtables.
    pub fn len(&self) -> usize {
        self.entry_count
    }

    /// True if no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.entry_count == 0
    }

    /// Number of subtables — the paper's "#masks", the attack's target.
    pub fn subtable_count(&self) -> usize {
        self.subtables.len()
    }

    /// The distinct masks currently present, in probe order.
    pub fn masks(&self) -> Vec<FlowMask> {
        self.probes
            .iter()
            .map(|p| self.subtables[p.slot].mask)
            .collect()
    }

    /// Accumulated lookup statistics.
    pub fn stats(&self) -> TssStats {
        self.stats
    }

    /// Resets the statistics counters.
    pub fn reset_stats(&mut self) {
        self.stats = TssStats::default();
    }

    /// Inserts an entry; returns the previous payload if the masked key
    /// was already present. Creates the subtable on first use of a mask.
    pub fn insert(&mut self, mk: MaskedKey, value: V) -> Option<V> {
        let mask = mk.mask();
        let slot = match self.index.get(mask) {
            Some(&i) => i,
            None => {
                let slot = self.subtables.len();
                let staged = StagedIndex::new(mask);
                self.probes.push(Probe {
                    mask_words: MaskWords::of(mask),
                    slot,
                    full_probe_cost: staged.stage_count().max(1),
                    filter: 0,
                });
                self.subtables.push(Subtable {
                    mask: *mask,
                    entries: FlatTable::new(),
                    hits: 0,
                    staged: self.staged_enabled.then_some(staged),
                    probe: self.probes.len() - 1,
                });
                self.index.insert(*mask, slot);
                slot
            }
        };
        let st = &mut self.subtables[slot];
        let hash = entry_hash(mk.key());
        let prev = st.entries.insert(hash, *mk.key(), value);
        if prev.is_none() {
            self.entry_count += 1;
            self.probes[st.probe].filter |= filter_bit(hash);
            if let Some(staged) = &mut st.staged {
                staged.insert(mk.key());
            }
        }
        prev
    }

    /// Fetches an entry by exact masked key.
    pub fn get(&self, mk: &MaskedKey) -> Option<&V> {
        let &i = self.index.get(mk.mask())?;
        self.subtables[i]
            .entries
            .get(entry_hash(mk.key()), mk.key())
    }

    /// Mutable fetch by exact masked key.
    pub fn get_mut(&mut self, mk: &MaskedKey) -> Option<&mut V> {
        let &i = self.index.get(mk.mask())?;
        self.subtables[i]
            .entries
            .get_mut(entry_hash(mk.key()), mk.key())
    }

    /// Removes an entry by masked key; drops the subtable if it empties.
    pub fn remove(&mut self, mk: &MaskedKey) -> Option<V> {
        let &slot = self.index.get(mk.mask())?;
        let st = &mut self.subtables[slot];
        let removed = st.entries.remove(entry_hash(mk.key()), mk.key());
        if removed.is_some() {
            self.entry_count -= 1;
            if let Some(staged) = &mut st.staged {
                staged.remove(mk.key());
            }
            if st.entries.is_empty() {
                self.drop_empty_subtables();
            } else {
                self.probes[st.probe].filter = filter_of(&st.entries);
            }
        }
        removed
    }

    /// Drops every empty subtable in one pass. The probe array keeps the
    /// survivors' relative order; storage order is what swap-removing
    /// the empty subtables from back to front gives.
    fn drop_empty_subtables(&mut self) {
        let subtables = &self.subtables;
        self.probes
            .retain(|p| !subtables[p.slot].entries.is_empty());
        self.relink_probes();
        let subtables = &mut self.subtables;
        for slot in (0..subtables.len()).rev() {
            if !subtables[slot].entries.is_empty() {
                continue;
            }
            let gone = subtables.swap_remove(slot);
            self.index.remove(&gone.mask);
            // Every subtable after `slot` is live, so one moved here.
            if let Some(moved) = subtables.get(slot) {
                self.index.insert(moved.mask, slot);
                self.probes[moved.probe].slot = slot;
            }
        }
    }

    /// Points every subtable back at its probe's position, after the
    /// probe array was reordered or compacted.
    fn relink_probes(&mut self) {
        for (i, p) in self.probes.iter().enumerate() {
            self.subtables[p.slot].probe = i;
        }
    }

    /// The subtable walk behind every lookup: visits the probes in order
    /// and calls `on_hit(slot, hash, value)` for each subtable holding a
    /// match, stopping when it breaks. Returns `(probes, stage_checks)`.
    #[inline]
    // audit: hotpath
    fn walk<'a>(
        &'a self,
        packet: &FlowKey,
        words: &KeyWords,
        mut on_hit: impl FnMut(usize, u64, &'a V) -> ControlFlow<()>,
    ) -> (usize, usize) {
        let mut stage_checks = 0;
        for (n, p) in self.probes.iter().enumerate() {
            let staged = if self.staged_enabled {
                self.subtables[p.slot].staged.as_ref()
            } else {
                None
            };
            if let Some(staged) = staged {
                let (may, stages) = staged.probe_with(packet, words);
                stage_checks += stages;
                if !may {
                    continue;
                }
            } else {
                stage_checks += p.full_probe_cost;
            }
            let hash = words.masked_hash(&p.mask_words);
            if p.filter & filter_bit(hash) == 0 {
                continue;
            }
            let st = &self.subtables[p.slot];
            if let Some(v) = st.entries.get_by_hash(hash, |k| st.mask.key_eq(k, packet)) {
                if on_hit(p.slot, hash, v).is_break() {
                    return (n + 1, stage_checks);
                }
            }
        }
        (self.probes.len(), stage_checks)
    }

    /// Sequential-walk lookup **without** touching hit counters or stats
    /// — the pure variant used by tests and diagnostics.
    pub fn peek(&self, packet: &FlowKey) -> LookupOutcome<&V> {
        self.peek_with(packet, &KeyWords::of(packet))
    }

    /// [`TupleSpaceSearch::peek`] with the packet's words already
    /// extracted (batch callers hash once per packet, not per level).
    pub fn peek_with(&self, packet: &FlowKey, words: &KeyWords) -> LookupOutcome<&V> {
        let mut value = None;
        let (probes, stage_checks) = self.walk(packet, words, |_, _, v| {
            value = Some(v);
            ControlFlow::Break(())
        });
        LookupOutcome {
            value,
            probes,
            stage_checks,
        }
    }

    /// Sequential-walk lookup, updating hit counters and statistics and
    /// periodically re-sorting subtables when hit-count ordering is
    /// enabled. Returns a *clone-free* outcome by index; use
    /// [`TupleSpaceSearch::lookup`] for the common case.
    pub fn lookup_mut(&mut self, packet: &FlowKey) -> LookupOutcome<&mut V> {
        self.lookup_mut_with(packet, &KeyWords::of(packet))
    }

    /// [`TupleSpaceSearch::lookup_mut`] with the packet's words already
    /// extracted — the datapath's hot path.
    pub fn lookup_mut_with(&mut self, packet: &FlowKey, words: &KeyWords) -> LookupOutcome<&mut V> {
        self.maybe_resort();
        self.stats.lookups += 1;
        self.lookups_since_resort += 1;

        let mut found = None;
        let (probes, stage_checks) = self.walk(packet, words, |slot, hash, _| {
            found = Some((slot, hash));
            ControlFlow::Break(())
        });
        self.stats.subtables_probed += probes as u64;
        self.stats.stage_checks += stage_checks as u64;
        let value = found.and_then(|(slot, hash)| {
            self.stats.hits += 1;
            let st = &mut self.subtables[slot];
            st.hits += 1;
            let mask = st.mask;
            st.entries.get_mut_by_hash(hash, |k| mask.key_eq(k, packet))
        });
        LookupOutcome {
            value,
            probes,
            stage_checks,
        }
    }

    /// Like [`TupleSpaceSearch::lookup_mut`] but returning a shared
    /// reference.
    pub fn lookup(&mut self, packet: &FlowKey) -> LookupOutcome<&V> {
        let out = self.lookup_mut(packet);
        LookupOutcome {
            value: out.value.map(|v| &*v),
            probes: out.probes,
            stage_checks: out.stage_checks,
        }
    }

    fn maybe_resort(&mut self) {
        if let SubtableOrder::HitCountDescending { resort_every } = self.ordering {
            if self.lookups_since_resort >= resort_every {
                self.lookups_since_resort = 0;
                let subtables = &self.subtables;
                self.probes
                    .sort_by_key(|p| std::cmp::Reverse(subtables[p.slot].hits));
                self.relink_probes();
            }
        }
    }

    /// Scans **all** subtables and returns the best match according to
    /// `rank` (highest wins) — the priority-aware classifier mode used
    /// when entries may overlap.
    pub fn lookup_best_by<K: Ord>(
        &self,
        packet: &FlowKey,
        mut rank: impl FnMut(&V) -> K,
    ) -> LookupOutcome<&V> {
        let mut best: Option<(&V, K)> = None;
        let (probes, _) = self.walk(packet, &KeyWords::of(packet), |_, _, v| {
            let k = rank(v);
            if best.as_ref().map(|(_, bk)| k > *bk).unwrap_or(true) {
                best = Some((v, k));
            }
            ControlFlow::Continue(())
        });
        LookupOutcome {
            value: best.map(|(v, _)| v),
            probes,
            stage_checks: probes,
        }
    }

    /// Keeps only the entries for which `keep` returns true (revalidator
    /// sweeps); empty subtables are dropped.
    pub fn retain(&mut self, mut keep: impl FnMut(&MaskedKey, &mut V) -> bool) {
        let mut emptied = false;
        for st in &mut self.subtables {
            let mask = st.mask;
            let staged = &mut st.staged;
            let before = st.entries.len();
            st.entries.retain(|k, v| {
                let mk = MaskedKey::new(*k, mask);
                let kept = keep(&mk, v);
                if !kept {
                    if let Some(s) = staged {
                        s.remove(k);
                    }
                }
                kept
            });
            let removed = before - st.entries.len();
            if removed > 0 {
                self.entry_count -= removed;
                self.probes[st.probe].filter = filter_of(&st.entries);
                emptied |= st.entries.is_empty();
            }
        }
        if emptied {
            self.drop_empty_subtables();
        }
    }

    /// Iterates `(masked key, payload)` over every entry (subtable order,
    /// then arbitrary hash order within a subtable).
    pub fn iter(&self) -> impl Iterator<Item = (MaskedKey, &V)> {
        self.subtables.iter().flat_map(|st| {
            let mask = st.mask;
            st.entries
                .iter()
                .map(move |(k, v)| (MaskedKey::new(*k, mask), v))
        })
    }

    /// Removes everything.
    pub fn clear(&mut self) {
        self.subtables.clear();
        self.probes.clear();
        self.index.clear();
        self.entry_count = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi_core::Field;

    fn prefix_mk(ip: [u8; 4], len: u8) -> MaskedKey {
        MaskedKey::new(
            FlowKey::tcp(ip, [0, 0, 0, 0], 0, 0),
            pi_core::FlowMask::default().with_prefix(Field::IpSrc, len),
        )
    }

    #[test]
    fn insert_lookup_hit() {
        let mut tss = TupleSpaceSearch::default();
        tss.insert(prefix_mk([10, 0, 0, 0], 8), "ten");
        tss.insert(prefix_mk([11, 0, 0, 0], 16), "eleven");
        let out = tss.lookup(&FlowKey::tcp([10, 5, 5, 5], [1, 1, 1, 1], 3, 4));
        assert_eq!(out.value, Some(&"ten"));
        assert_eq!(tss.subtable_count(), 2);
        assert_eq!(tss.len(), 2);
    }

    #[test]
    fn same_mask_shares_subtable() {
        let mut tss = TupleSpaceSearch::default();
        for b in 0u8..50 {
            tss.insert(prefix_mk([b, 0, 0, 0], 8), b);
        }
        assert_eq!(tss.subtable_count(), 1);
        assert_eq!(tss.len(), 50);
        // One subtable ⇒ one probe regardless of entry count.
        let out = tss.lookup(&FlowKey::tcp([30, 1, 1, 1], [0, 0, 0, 0], 0, 0));
        assert_eq!(out.value, Some(&30));
        assert_eq!(out.probes, 1);
    }

    #[test]
    fn probe_count_grows_with_masks_on_miss() {
        // The attack's mechanism in miniature: distinct masks force a
        // linear walk.
        let mut tss = TupleSpaceSearch::default();
        for len in 1..=32u8 {
            tss.insert(prefix_mk([10, 0, 0, 0], len), len);
        }
        assert_eq!(tss.subtable_count(), 32);
        let miss = tss.lookup(&FlowKey::tcp([128, 0, 0, 1], [0, 0, 0, 0], 0, 0));
        assert_eq!(miss.value, None);
        assert_eq!(miss.probes, 32, "a miss visits every subtable");
    }

    #[test]
    fn first_match_in_order_wins() {
        let mut tss = TupleSpaceSearch::default();
        tss.insert(prefix_mk([10, 0, 0, 0], 8), "eight");
        tss.insert(prefix_mk([10, 0, 0, 0], 16), "sixteen");
        // Both match 10.0.x.x; insertion order probes /8 first.
        let out = tss.lookup(&FlowKey::tcp([10, 0, 7, 7], [0, 0, 0, 0], 0, 0));
        assert_eq!(out.value, Some(&"eight"));
        assert_eq!(out.probes, 1);
    }

    #[test]
    fn replace_returns_previous() {
        let mut tss = TupleSpaceSearch::default();
        assert_eq!(tss.insert(prefix_mk([10, 0, 0, 0], 8), 1), None);
        assert_eq!(tss.insert(prefix_mk([10, 0, 0, 0], 8), 2), Some(1));
        assert_eq!(tss.len(), 1);
    }

    #[test]
    fn remove_drops_empty_subtable_and_reindexes() {
        let mut tss = TupleSpaceSearch::default();
        let a = prefix_mk([10, 0, 0, 0], 8);
        let b = prefix_mk([10, 1, 0, 0], 16);
        let c = prefix_mk([10, 1, 1, 0], 24);
        tss.insert(a, 'a');
        tss.insert(b, 'b');
        tss.insert(c, 'c');
        assert_eq!(tss.subtable_count(), 3);
        assert_eq!(tss.remove(&a), Some('a'));
        assert_eq!(tss.subtable_count(), 2);
        // The swap_remove moved subtable c; lookups must still work.
        let out = tss.lookup(&FlowKey::tcp([10, 1, 1, 5], [0, 0, 0, 0], 0, 0));
        assert_eq!(out.value, Some(&'b')); // /16 matches 10.1.x.x
        let out = tss.peek(&FlowKey::tcp([10, 2, 0, 1], [0, 0, 0, 0], 0, 0));
        assert_eq!(out.value, None);
        assert_eq!(tss.remove(&b), Some('b'));
        assert_eq!(tss.remove(&c), Some('c'));
        assert_eq!(tss.subtable_count(), 0);
        assert!(tss.is_empty());
        assert_eq!(tss.remove(&a), None);
    }

    #[test]
    fn get_and_get_mut() {
        let mut tss = TupleSpaceSearch::default();
        let mk = prefix_mk([10, 0, 0, 0], 8);
        tss.insert(mk, 5);
        assert_eq!(tss.get(&mk), Some(&5));
        *tss.get_mut(&mk).unwrap() += 1;
        assert_eq!(tss.get(&mk), Some(&6));
        assert_eq!(tss.get(&prefix_mk([11, 0, 0, 0], 8)), None);
    }

    #[test]
    fn stats_accumulate() {
        let mut tss = TupleSpaceSearch::default();
        tss.insert(prefix_mk([10, 0, 0, 0], 8), ());
        tss.insert(prefix_mk([11, 0, 0, 0], 16), ());
        let hit_key = FlowKey::tcp([10, 0, 0, 1], [0, 0, 0, 0], 0, 0);
        let miss_key = FlowKey::tcp([200, 0, 0, 1], [0, 0, 0, 0], 0, 0);
        tss.lookup(&hit_key);
        tss.lookup(&miss_key);
        let s = tss.stats();
        assert_eq!(s.lookups, 2);
        assert_eq!(s.hits, 1);
        assert_eq!(s.subtables_probed, 1 + 2);
        assert!(s.avg_probes() > 1.0);
        tss.reset_stats();
        assert_eq!(tss.stats(), TssStats::default());
    }

    #[test]
    fn peek_does_not_touch_stats() {
        let mut tss = TupleSpaceSearch::default();
        tss.insert(prefix_mk([10, 0, 0, 0], 8), ());
        tss.peek(&FlowKey::tcp([10, 0, 0, 1], [0, 0, 0, 0], 0, 0));
        assert_eq!(tss.stats().lookups, 0);
    }

    #[test]
    fn hit_count_ordering_floats_hot_subtable_forward() {
        let mut tss = TupleSpaceSearch::new(SubtableOrder::HitCountDescending { resort_every: 10 });
        // 20 cold masks inserted first…
        for len in 1..=20u8 {
            tss.insert(prefix_mk([10, 0, 0, 0], len), len);
        }
        // …then a hot /32 entry probed last in insertion order.
        let hot_key = FlowKey::tcp([200, 9, 9, 9], [0, 0, 0, 0], 0, 0);
        tss.insert(prefix_mk([200, 9, 9, 9], 32), 99);
        let cold_probes = tss.lookup(&hot_key).probes;
        assert_eq!(cold_probes, 21);
        // Hammer the hot entry past the resort threshold.
        for _ in 0..30 {
            tss.lookup(&hot_key);
        }
        let warm_probes = tss.lookup(&hot_key).probes;
        assert_eq!(warm_probes, 1, "hot subtable must be probed first");
    }

    #[test]
    fn insertion_order_never_resorts() {
        let mut tss = TupleSpaceSearch::default();
        for len in 1..=5u8 {
            tss.insert(prefix_mk([10, 0, 0, 0], len), len);
        }
        let key = FlowKey::tcp([10, 0, 0, 1], [0, 0, 0, 0], 0, 0);
        for _ in 0..100 {
            tss.lookup(&key);
        }
        // /1 still probed first (10.0.0.1 matches it: first bit 0).
        assert_eq!(tss.lookup(&key).probes, 1);
        assert_eq!(tss.lookup(&key).value, Some(&1));
    }

    #[test]
    fn lookup_best_by_scans_everything() {
        let mut tss = TupleSpaceSearch::default();
        tss.insert(prefix_mk([10, 0, 0, 0], 8), 1u32); // low rank
        tss.insert(prefix_mk([10, 0, 0, 0], 16), 7u32); // high rank
        let key = FlowKey::tcp([10, 0, 3, 3], [0, 0, 0, 0], 0, 0);
        let out = tss.lookup_best_by(&key, |v| *v);
        assert_eq!(out.value, Some(&7));
        assert_eq!(out.probes, 2, "best-match mode cannot early-exit");
    }

    #[test]
    fn retain_sweeps_and_drops_subtables() {
        let mut tss = TupleSpaceSearch::default();
        for len in 1..=8u8 {
            tss.insert(prefix_mk([10, 0, 0, 0], len), len);
        }
        tss.retain(|_, v| *v % 2 == 0);
        assert_eq!(tss.len(), 4);
        assert_eq!(tss.subtable_count(), 4);
        let masks = tss.masks();
        assert!(masks
            .iter()
            .all(|m| m.field(Field::IpSrc).count_ones() % 2 == 0));
    }

    #[test]
    fn iter_visits_all_entries() {
        let mut tss = TupleSpaceSearch::default();
        tss.insert(prefix_mk([10, 0, 0, 0], 8), 1);
        tss.insert(prefix_mk([11, 0, 0, 0], 8), 2);
        tss.insert(prefix_mk([12, 0, 0, 0], 16), 3);
        let mut values: Vec<i32> = tss.iter().map(|(_, v)| *v).collect();
        values.sort_unstable();
        assert_eq!(values, vec![1, 2, 3]);
    }

    #[test]
    fn clear_resets_everything() {
        let mut tss = TupleSpaceSearch::default();
        tss.insert(prefix_mk([10, 0, 0, 0], 8), ());
        tss.clear();
        assert!(tss.is_empty());
        assert_eq!(tss.subtable_count(), 0);
        assert_eq!(tss.peek(&FlowKey::default()).probes, 0);
    }

    #[test]
    fn staged_lookup_reduces_stage_checks_on_metadata_mismatch() {
        let mut tss = TupleSpaceSearch::default().with_staged_lookup();
        // Entries pinned to in_port 1, matching ip+port too.
        for len in 1..=16u8 {
            let mk = MaskedKey::new(
                FlowKey::tcp([10, 0, 0, 0], [0, 0, 0, 0], 0, 80).with(Field::InPort, 1),
                pi_core::FlowMask::default()
                    .with_exact(Field::InPort)
                    .with_prefix(Field::IpSrc, len)
                    .with_exact(Field::TpDst),
            );
            tss.insert(mk, len);
        }
        // A packet from a different port fails every subtable at stage 1
        // of 3 — probes stay 16, but stage checks are 16, not 48.
        let mut foreign = FlowKey::tcp([10, 0, 0, 1], [0, 0, 0, 0], 0, 80);
        foreign.in_port = 2;
        let out = tss.lookup(&foreign);
        assert_eq!(out.value, None);
        assert_eq!(out.probes, 16);
        assert_eq!(out.stage_checks, 16, "1 stage unit per aborted probe");
        // Without staged lookup the same walk hashes each subtable's full
        // 3-stage mask: 3 units per probe.
        let mut plain = TupleSpaceSearch::default();
        for len in 1..=16u8 {
            let mk = MaskedKey::new(
                FlowKey::tcp([10, 0, 0, 0], [0, 0, 0, 0], 0, 80).with(Field::InPort, 1),
                pi_core::FlowMask::default()
                    .with_exact(Field::InPort)
                    .with_prefix(Field::IpSrc, len)
                    .with_exact(Field::TpDst),
            );
            plain.insert(mk, len);
        }
        let out_plain = plain.lookup(&foreign);
        assert_eq!(out_plain.probes, 16);
        assert_eq!(out_plain.stage_checks, 48, "full hash work per probe");
        // When the mismatch is only at the last stage, staged lookup
        // saves nothing: same-port wrong-dst-port packet.
        let same_port_wrong_dst =
            FlowKey::tcp([10, 0, 0, 1], [0, 0, 0, 0], 0, 81).with(Field::InPort, 1);
        let staged_out = tss.lookup(&same_port_wrong_dst);
        let plain_out = plain.lookup(&same_port_wrong_dst);
        assert_eq!(staged_out.value, None);
        assert_eq!(plain_out.value, None);
        assert_eq!(staged_out.stage_checks, 48);
        assert_eq!(plain_out.stage_checks, 48);
    }

    #[test]
    fn set_staged_lookup_retrofits_existing_subtables() {
        // Same population as the mismatch test, but staged lookup is
        // flipped on *after* the entries exist: the retrofit must make
        // the classifier behave exactly like a natively staged one.
        let build = || {
            let mut tss = TupleSpaceSearch::default();
            for len in 1..=16u8 {
                let mk = MaskedKey::new(
                    FlowKey::tcp([10, 0, 0, 0], [0, 0, 0, 0], 0, 80).with(Field::InPort, 1),
                    pi_core::FlowMask::default()
                        .with_exact(Field::InPort)
                        .with_prefix(Field::IpSrc, len)
                        .with_exact(Field::TpDst),
                );
                tss.insert(mk, len);
            }
            tss
        };
        let mut retrofitted = build();
        assert!(!retrofitted.staged_lookup());
        retrofitted.set_staged_lookup(true);
        assert!(retrofitted.staged_lookup());
        let native = build();
        // Rebuild natively staged for comparison.
        let mut staged_native = TupleSpaceSearch::default().with_staged_lookup();
        for (mk, v) in native.iter() {
            staged_native.insert(mk, *v);
        }
        let mut foreign = FlowKey::tcp([10, 0, 0, 1], [0, 0, 0, 0], 0, 80);
        foreign.in_port = 2;
        let a = retrofitted.lookup(&foreign);
        let b = staged_native.lookup(&foreign);
        assert_eq!(a.value, b.value);
        assert_eq!(a.probes, b.probes);
        assert_eq!(a.stage_checks, b.stage_checks);
        assert_eq!(a.stage_checks, 16, "staged abort at stage 1");
        // Hits are still found, and toggling back off restores full
        // hash work.
        let member = FlowKey::tcp([10, 0, 0, 1], [0, 0, 0, 0], 0, 80).with(Field::InPort, 1);
        assert!(retrofitted.lookup(&member).value.is_some());
        retrofitted.set_staged_lookup(false);
        let off = retrofitted.lookup(&foreign);
        assert_eq!(off.stage_checks, 48, "full hash work once disabled");
    }

    #[test]
    fn with_staged_lookup_retrofits_a_populated_table() {
        let entries: Vec<(MaskedKey, u8)> = (1..=16u8)
            .map(|len| {
                let mk = MaskedKey::new(
                    FlowKey::tcp([10, 0, 0, 0], [0, 0, 0, 0], 0, 80).with(Field::InPort, 1),
                    pi_core::FlowMask::default()
                        .with_exact(Field::InPort)
                        .with_prefix(Field::IpSrc, len)
                        .with_exact(Field::TpDst),
                );
                (mk, len)
            })
            .collect();
        let mut late = TupleSpaceSearch::default();
        let mut early = TupleSpaceSearch::default().with_staged_lookup();
        for &(mk, v) in &entries {
            late.insert(mk, v);
            early.insert(mk, v);
        }
        let mut late = late.with_staged_lookup();
        assert!(late.staged_lookup());
        let mut foreign = FlowKey::tcp([10, 0, 0, 1], [0, 0, 0, 0], 0, 80);
        foreign.in_port = 2;
        let member = FlowKey::tcp([10, 0, 0, 1], [0, 0, 0, 0], 0, 80).with(Field::InPort, 1);
        for pkt in [foreign, member] {
            assert_eq!(late.lookup(&pkt), early.lookup(&pkt), "packet {pkt}");
        }
        assert_eq!(late.stats(), early.stats());
        // 16 one-stage aborts, then a three-stage hit on the first probe.
        assert_eq!(late.stats().stage_checks, 16 + 3);
        // The flag already matches, so this must not touch the indexes.
        late.set_staged_lookup(true);
        assert_eq!(late.lookup(&foreign), early.lookup(&foreign));
    }

    #[test]
    fn hash_filter_tracks_inserts_removes_and_retain() {
        // 512 entries under one mask set every filter bit;
        // removing or sweeping away all but one must leave exactly the
        // survivor's bit, the survivor findable and every other key a
        // miss.
        let mks: Vec<MaskedKey> = (0..512u32)
            .map(|n| prefix_mk((0x0a00_0000 + n).to_be_bytes(), 32))
            .collect();
        let full = || {
            let mut tss = TupleSpaceSearch::default();
            for (n, mk) in mks.iter().enumerate() {
                tss.insert(*mk, n);
            }
            assert_eq!(tss.subtable_count(), 1);
            assert_eq!(tss.probes[0].filter.count_ones(), 64);
            tss
        };
        let mut removed = full();
        for mk in &mks[1..] {
            removed.remove(mk);
        }
        let mut swept = full();
        swept.retain(|_, v| *v == 0);
        for tss in [removed, swept] {
            assert_eq!(tss.probes[0].filter, filter_bit(entry_hash(mks[0].key())));
            assert_eq!(tss.peek(&mks[0].witness()).value, Some(&0));
            for mk in &mks[1..] {
                assert_eq!(tss.peek(&mk.witness()).value, None);
            }
        }
    }

    #[test]
    fn staged_lookup_hits_still_found() {
        let mut tss = TupleSpaceSearch::default().with_staged_lookup();
        let mk = MaskedKey::new(
            FlowKey::tcp([10, 0, 0, 1], [0, 0, 0, 0], 5, 80).with(Field::InPort, 1),
            pi_core::FlowMask::default()
                .with_exact(Field::InPort)
                .with_exact(Field::IpSrc)
                .with_exact(Field::TpDst),
        );
        tss.insert(mk, "hit");
        let pkt = FlowKey::tcp([10, 0, 0, 1], [9, 9, 9, 9], 1234, 80).with(Field::InPort, 1);
        assert_eq!(tss.lookup(&pkt).value, Some(&"hit"));
        tss.remove(&mk);
        assert_eq!(tss.lookup(&pkt).value, None);
    }
}
