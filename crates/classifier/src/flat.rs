//! Flat open-addressing hash tables keyed by precomputed flow hashes.
//!
//! Every Tuple Space Search subtable (and every staged-lookup stage set)
//! is a hash table from a canonical masked [`FlowKey`] to a payload. The
//! std `HashMap` served there, but it costs a SipHash of the whole key
//! per probe and scatters entries behind per-instance random state. The
//! hot path wants the opposite: the hash is **already computed** (one
//! pass per packet via [`pi_core::KeyWords`]), lookups should touch one
//! contiguous slot run, and behaviour must be bit-reproducible.
//!
//! [`FlatTable`] is that store: power-of-two capacity, linear probing
//! from `hash & (capacity - 1)`, and **tombstone-free** removal — a
//! removal rebuilds the probe run after the hole (backward-shift
//! deletion), so tables never accumulate deleted markers and lookup cost
//! never degrades below what the live entries dictate. All operations
//! take the entry hash from the caller; the table itself never hashes.

use pi_core::FlowKey;

/// One occupied slot.
#[derive(Debug, Clone)]
struct Slot<V> {
    hash: u64,
    key: FlowKey,
    value: V,
}

/// A flat open-addressing map from (precomputed hash, canonical key) to
/// `V`.
#[derive(Debug, Clone)]
pub struct FlatTable<V> {
    slots: Vec<Option<Slot<V>>>,
    len: usize,
}

/// Smallest capacity allocated once a table holds entries.
const MIN_CAPACITY: usize = 8;

impl<V> Default for FlatTable<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> FlatTable<V> {
    /// An empty table (no allocation until the first insert).
    pub fn new() -> Self {
        FlatTable {
            slots: Vec::new(),
            len: 0,
        }
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Current slot capacity (a power of two, or 0 before first insert).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    #[inline(always)]
    fn index_mask(&self) -> usize {
        debug_assert!(self.slots.len().is_power_of_two());
        self.slots.len() - 1
    }

    /// Grows when the next insert would push load above 7/8.
    fn reserve_one(&mut self) {
        if self.slots.is_empty() {
            self.slots = (0..MIN_CAPACITY).map(|_| None).collect();
            return;
        }
        if (self.len + 1) * 8 > self.slots.len() * 7 {
            let new_cap = self.slots.len() * 2;
            let old = std::mem::replace(&mut self.slots, (0..new_cap).map(|_| None).collect());
            for slot in old.into_iter().flatten() {
                self.place(slot);
            }
        }
    }

    /// Inserts into the first free slot of `slot.hash`'s probe run
    /// (caller guarantees the key is absent).
    fn place(&mut self, slot: Slot<V>) {
        let mask = self.index_mask();
        let mut i = (slot.hash as usize) & mask;
        while self.slots[i].is_some() {
            i = (i + 1) & mask;
        }
        self.slots[i] = Some(slot);
    }

    /// Inserts `value` under `(hash, key)`; returns the previous value
    /// when the exact key was already present. `key` must be canonical
    /// (pre-masked) and `hash` must be its flow hash.
    // audit: hotpath -- growth is amortised in `grow`, outside this region by design
    pub fn insert(&mut self, hash: u64, key: FlowKey, value: V) -> Option<V> {
        if !self.slots.is_empty() {
            let mask = self.index_mask();
            let mut i = (hash as usize) & mask;
            loop {
                match &mut self.slots[i] {
                    Some(s) if s.hash == hash && s.key == key => {
                        return Some(std::mem::replace(&mut s.value, value));
                    }
                    Some(_) => i = (i + 1) & mask,
                    None => break,
                }
            }
            // The presence scan already found the probe run's free slot;
            // reuse it unless this insert crosses the load threshold.
            if (self.len + 1) * 8 <= self.slots.len() * 7 {
                self.slots[i] = Some(Slot { hash, key, value });
                self.len += 1;
                return None;
            }
        }
        self.reserve_one();
        self.place(Slot { hash, key, value });
        self.len += 1;
        None
    }

    /// Looks up by precomputed hash plus an equality predicate on the
    /// stored canonical key — how the TSS walk probes with a *raw*
    /// packet: the predicate is a mask-aware comparison, so no masked
    /// key is ever materialised.
    #[inline]
    // audit: hotpath
    pub fn get_by_hash(&self, hash: u64, mut eq: impl FnMut(&FlowKey) -> bool) -> Option<&V> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.index_mask();
        let mut i = (hash as usize) & mask;
        while let Some(s) = &self.slots[i] {
            if s.hash == hash && eq(&s.key) {
                return Some(&s.value);
            }
            i = (i + 1) & mask;
        }
        None
    }

    /// Mutable variant of [`FlatTable::get_by_hash`].
    #[inline]
    // audit: hotpath
    pub fn get_mut_by_hash(
        &mut self,
        hash: u64,
        mut eq: impl FnMut(&FlowKey) -> bool,
    ) -> Option<&mut V> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.index_mask();
        let mut i = (hash as usize) & mask;
        loop {
            match &self.slots[i] {
                Some(s) if s.hash == hash && eq(&s.key) => break,
                Some(_) => i = (i + 1) & mask,
                None => return None,
            }
        }
        self.slots[i].as_mut().map(|s| &mut s.value)
    }

    /// Exact-key lookup (key already canonical).
    pub fn get(&self, hash: u64, key: &FlowKey) -> Option<&V> {
        self.get_by_hash(hash, |k| k == key)
    }

    /// Exact-key mutable lookup.
    pub fn get_mut(&mut self, hash: u64, key: &FlowKey) -> Option<&mut V> {
        self.get_mut_by_hash(hash, |k| k == key)
    }

    /// Removes the entry for `(hash, key)` and rebuilds the probe run
    /// behind it (backward-shift deletion — no tombstones).
    // audit: hotpath
    pub fn remove(&mut self, hash: u64, key: &FlowKey) -> Option<V> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.index_mask();
        let mut i = (hash as usize) & mask;
        loop {
            match &self.slots[i] {
                Some(s) if s.hash == hash && s.key == *key => break,
                Some(_) => i = (i + 1) & mask,
                None => return None,
            }
        }
        let removed = self.slots[i].take().expect("slot found above");
        self.len -= 1;
        // Close the hole: walk the cluster after `i`; any entry whose
        // ideal position does not lie strictly inside (hole, j] slides
        // back into the hole (its probe path passed through it).
        let mut hole = i;
        let mut j = i;
        loop {
            j = (j + 1) & mask;
            let Some(s) = &self.slots[j] else { break };
            let ideal = (s.hash as usize) & mask;
            if ((j.wrapping_sub(ideal)) & mask) >= ((j.wrapping_sub(hole)) & mask) {
                self.slots[hole] = self.slots[j].take();
                hole = j;
            }
        }
        Some(removed.value)
    }

    /// Keeps only the entries for which `keep` returns true, rebuilding
    /// the table from the survivors (the revalidator's sweep — one
    /// rebuild instead of per-entry hole repairs).
    pub fn retain(&mut self, mut keep: impl FnMut(&FlowKey, &mut V) -> bool) {
        if self.len == 0 {
            return;
        }
        let cap = self.slots.len();
        let old = std::mem::replace(&mut self.slots, (0..cap).map(|_| None).collect());
        self.len = 0;
        for mut slot in old.into_iter().flatten() {
            if keep(&slot.key, &mut slot.value) {
                self.place(slot);
                self.len += 1;
            }
        }
    }

    /// Iterates the stored entry hashes in slot order.
    pub fn hashes(&self) -> impl Iterator<Item = u64> + '_ {
        self.slots.iter().flatten().map(|s| s.hash)
    }

    /// Iterates `(canonical key, value)` in slot order — deterministic
    /// for a given operation sequence (no random hash state).
    pub fn iter(&self) -> impl Iterator<Item = (&FlowKey, &V)> {
        self.slots.iter().flatten().map(|s| (&s.key, &s.value))
    }

    /// Removes every entry, keeping the allocation.
    pub fn clear(&mut self) {
        self.slots.iter_mut().for_each(|s| *s = None);
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi_core::{flow_hash, for_cases, FlowKey};
    use std::collections::HashMap;

    fn key(n: u32) -> FlowKey {
        FlowKey::tcp(
            std::net::Ipv4Addr::from(0x0a00_0000 + n),
            [10, 0, 0, 1],
            (n % 60_000) as u16,
            443,
        )
    }

    #[test]
    fn insert_get_replace() {
        let mut t = FlatTable::new();
        let k = key(1);
        let h = flow_hash(&k);
        assert_eq!(t.insert(h, k, 10), None);
        assert_eq!(t.get(h, &k), Some(&10));
        assert_eq!(t.insert(h, k, 20), Some(10));
        assert_eq!(t.len(), 1);
        *t.get_mut(h, &k).unwrap() += 1;
        assert_eq!(t.get(h, &k), Some(&21));
        assert_eq!(t.get(flow_hash(&key(2)), &key(2)), None);
    }

    #[test]
    fn remove_backshift_preserves_probe_runs() {
        // Force a cluster by inserting colliding hashes: same low bits.
        let mut t: FlatTable<u32> = FlatTable::new();
        let keys: Vec<FlowKey> = (0..5).map(key).collect();
        // Synthetic hashes landing on the same initial index (mask will
        // be 7 or 15 at this size).
        for (n, k) in keys.iter().enumerate() {
            t.insert(0x100 + ((n as u64) << 32), *k, n as u32);
        }
        // Remove the middle of the cluster; the rest must stay findable.
        assert_eq!(t.remove(0x100 + (2u64 << 32), &keys[2]), Some(2));
        for (n, k) in keys.iter().enumerate() {
            if n == 2 {
                continue;
            }
            assert_eq!(
                t.get(0x100 + ((n as u64) << 32), k),
                Some(&(n as u32)),
                "entry {n} lost after backshift"
            );
        }
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn growth_keeps_all_entries() {
        let mut t = FlatTable::new();
        for n in 0..1000u32 {
            let k = key(n);
            t.insert(flow_hash(&k), k, n);
        }
        assert_eq!(t.len(), 1000);
        assert!(t.capacity().is_power_of_two());
        // Load stays at or below 7/8.
        assert!(t.len() * 8 <= t.capacity() * 7);
        for n in 0..1000u32 {
            let k = key(n);
            assert_eq!(t.get(flow_hash(&k), &k), Some(&n));
        }
    }

    #[test]
    fn get_by_hash_uses_caller_equality() {
        let mut t = FlatTable::new();
        let k = key(7);
        let h = flow_hash(&k);
        t.insert(h, k, "x");
        // Predicate sees the stored canonical key.
        assert_eq!(t.get_by_hash(h, |stored| stored.tp_dst == 443), Some(&"x"));
        assert_eq!(t.get_by_hash(h, |_| false), None);
    }

    #[test]
    fn retain_rebuilds_without_losses() {
        let mut t = FlatTable::new();
        for n in 0..100u32 {
            let k = key(n);
            t.insert(flow_hash(&k), k, n);
        }
        t.retain(|_, v| *v % 3 == 0);
        assert_eq!(t.len(), 34);
        for n in 0..100u32 {
            let k = key(n);
            let expect = (n % 3 == 0).then_some(n);
            assert_eq!(t.get(flow_hash(&k), &k).copied(), expect);
        }
    }

    #[test]
    fn clear_empties_but_keeps_capacity() {
        let mut t = FlatTable::new();
        for n in 0..50u32 {
            let k = key(n);
            t.insert(flow_hash(&k), k, n);
        }
        let cap = t.capacity();
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.capacity(), cap);
        assert_eq!(t.get(flow_hash(&key(1)), &key(1)), None);
    }

    #[test]
    fn iteration_is_deterministic_across_identical_histories() {
        let build = || {
            let mut t = FlatTable::new();
            for n in (0..64u32).rev() {
                let k = key(n);
                t.insert(flow_hash(&k), k, n);
            }
            t.remove(flow_hash(&key(13)), &key(13));
            t.iter().map(|(_, v)| *v).collect::<Vec<_>>()
        };
        assert_eq!(build(), build());
    }

    /// Randomised differential test against a std HashMap reference.
    #[test]
    fn random_ops_match_hashmap_reference() {
        for_cases(128, 0xf1a7, |rng| {
            let mut t: FlatTable<u64> = FlatTable::new();
            let mut reference: HashMap<FlowKey, u64> = HashMap::new();
            for op in 0..200 {
                let k = key(rng.gen_range(40) as u32);
                let h = flow_hash(&k);
                match rng.gen_range(3) {
                    0 => {
                        assert_eq!(t.insert(h, k, op), reference.insert(k, op));
                    }
                    1 => {
                        assert_eq!(t.remove(h, &k), reference.remove(&k));
                    }
                    _ => {
                        assert_eq!(t.get(h, &k), reference.get(&k));
                    }
                }
                assert_eq!(t.len(), reference.len());
            }
            let mut ours: Vec<(FlowKey, u64)> = t.iter().map(|(k, v)| (*k, *v)).collect();
            let mut theirs: Vec<(FlowKey, u64)> = reference.into_iter().collect();
            let sort_key = |e: &(FlowKey, u64)| (e.0.ip_src, e.0.tp_src, e.1);
            ours.sort_by_key(sort_key);
            theirs.sort_by_key(sort_key);
            assert_eq!(ours, theirs);
        });
    }
}
