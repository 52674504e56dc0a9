//! Processes: address spaces, namespaces, and kernel-side overhead.
//!
//! Each simulated process carries the kernel bookkeeping a real Linux task
//! does: a task struct + kernel stack, and page tables proportional to the
//! mapped address space. That overhead is charged to the process's cgroup as
//! kernel memory, and it is a real contributor to the gap between the
//! `free(1)` observer and the metrics-server observer in the paper — shim
//! processes live *outside* the pod cgroups, so their footprint shows up in
//! `free` but not in per-pod metrics.

use crate::cgroup::CgroupId;
use crate::mem::{Mapping, MappingId};

/// Process identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Pid(pub u64);

/// Lifecycle state of a process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcState {
    Running,
    /// Exited with a code; address space already torn down.
    Exited(i32),
    /// Killed by the kernel for exceeding a cgroup memory limit.
    OomKilled,
}

/// A simulated process: only what the kernel reads back. It has no name;
/// a caller that needs one keys its own table by pid.
#[derive(Debug, Clone)]
pub(crate) struct Process {
    pub(crate) pid: Pid,
    pub(crate) cgroup: CgroupId,
    pub(crate) state: ProcState,
    /// Namespaces this process owns (created fresh for it, not inherited);
    /// each costs a slab charge, and nothing reads which kinds they are.
    pub(crate) namespaces: u32,
    next_mapping: u32,
    /// Private: every residency change goes through the methods below, so
    /// the running `rss` cannot drift from the mappings it summarises.
    /// Sorted by id — ids only grow, so an insert is a push — and a process
    /// holds a handful, so a lookup is a binary search over one allocation,
    /// which doubles from one (see [`Process::insert_mapping`]).
    mappings: Vec<Mapping>,
    /// Running sum of every mapping's [`Mapping::rss`].
    rss: u64,
    /// Kernel bytes charged for this process: base, namespaces, page tables.
    pub(crate) kernel_charged: u64,
}

// Every resident pod keeps four of these boxed in the kernel's table.
const _: () = assert!(std::mem::size_of::<Process>() <= 80);

impl Process {
    /// A running process with room for exactly `mappings` mappings.
    pub(crate) fn new(pid: Pid, cgroup: CgroupId, mappings: usize) -> Self {
        Process {
            pid,
            cgroup,
            state: ProcState::Running,
            namespaces: 0,
            next_mapping: 0,
            mappings: Vec::with_capacity(mappings),
            rss: 0,
            kernel_charged: 0,
        }
    }

    pub(crate) fn is_alive(&self) -> bool {
        self.state == ProcState::Running
    }

    /// Resident set size: private anon + touched shared file pages.
    pub(crate) fn rss(&self) -> u64 {
        debug_assert_eq!(self.rss, self.recount_rss());
        self.rss
    }

    fn recount_rss(&self) -> u64 {
        self.mappings.iter().map(|m| m.rss()).sum()
    }

    /// Compare the running RSS against a walk over every mapping.
    pub(crate) fn check(&self) -> Result<(), String> {
        let walked = self.recount_rss();
        if self.rss == walked {
            Ok(())
        } else {
            Err(format!(
                "{:?}: running rss {} != {walked} summed over mappings",
                self.pid, self.rss
            ))
        }
    }

    /// Private anonymous bytes only (what the process "owns" exclusively).
    pub(crate) fn anon_bytes(&self) -> u64 {
        self.mappings.iter().map(|m| m.resident().0).sum()
    }

    pub(crate) fn mapping(&self, id: MappingId) -> Option<&Mapping> {
        self.position(id).map(|i| &self.mappings[i])
    }

    fn position(&self, id: MappingId) -> Option<usize> {
        self.mappings.binary_search_by_key(&id, |m| m.id).ok()
    }

    pub(crate) fn alloc_mapping_id(&mut self) -> MappingId {
        let id = MappingId(self.next_mapping);
        self.next_mapping = self.next_mapping.checked_add(1).expect("2^32 mappings in one process");
        id
    }

    pub(crate) fn insert_mapping(&mut self, m: Mapping) {
        debug_assert!(
            self.mappings.last().is_none_or(|last| last.id < m.id),
            "mapping ids are allocated once, in order"
        );
        self.rss += m.rss();
        // Double from one, not from `Vec`'s minimum of four: a process keeps
        // a few mappings for as long as its pod is resident.
        if self.mappings.len() == self.mappings.capacity() {
            self.mappings.reserve_exact(self.mappings.len().max(1));
        }
        self.mappings.push(m);
    }

    pub(crate) fn remove_mapping(&mut self, id: MappingId) -> Option<Mapping> {
        let m = self.mappings.remove(self.position(id)?);
        self.rss -= m.rss();
        Some(m)
    }

    /// The id the next mapping will get. Ids only grow, so the mappings
    /// made between two calls are exactly the ids between their results.
    pub(crate) fn mapping_mark(&self) -> MappingId {
        MappingId(self.next_mapping)
    }

    /// Empty the address space (process teardown); id order.
    pub(crate) fn take_mappings(&mut self) -> Vec<Mapping> {
        self.rss = 0;
        std::mem::take(&mut self.mappings)
    }

    /// Set a mapping's reserved length (it grows in place).
    pub(crate) fn set_len(&mut self, id: MappingId, len: u64) {
        if let Some(i) = self.position(id) {
            self.mappings[i].len = len;
        }
    }

    /// Set how much of a mapping is resident as private anon / file pages.
    pub(crate) fn set_resident(&mut self, id: MappingId, committed_anon: u64, touched_file: u64) {
        if let Some(i) = self.position(id) {
            let m = &mut self.mappings[i];
            self.rss -= m.rss();
            m.set_resident(committed_anon, touched_file);
            self.rss += m.rss();
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;

    impl Process {
        /// Total reserved virtual address space.
        fn vsz(&self) -> u64 {
            self.mappings.iter().map(|m| m.len).sum()
        }

        /// Every mapping, in id order.
        fn mappings(&self) -> impl Iterator<Item = &Mapping> {
            self.mappings.iter()
        }

        /// Mappings the process has room for without reallocating.
        pub(crate) fn mapping_capacity(&self) -> usize {
            self.mappings.capacity()
        }
    }
    use crate::kernel::PAGE_SIZE;
    use crate::mem::{round_up_pages, MapKind};

    fn anon(id: MappingId, len: u64, committed_anon: u64) -> Mapping {
        let mut m = Mapping::new(id, MapKind::AnonPrivate, len, "m");
        m.set_resident(committed_anon, 0);
        m
    }

    /// Everything a mapping holds but its (constant) kind and label, in bytes.
    fn fields(m: &Mapping) -> (MappingId, u64, u64, u64) {
        let (anon, file) = m.resident();
        (m.id, m.len, anon, file)
    }

    /// The most a mapping keeps resident: `u32::MAX` pages, just under the
    /// 2^32 pages of RAM `Kernel::boot` refuses.
    const RAM_BOUND: u64 = u32::MAX as u64 * PAGE_SIZE;

    /// A resident size: small and page-unaligned, or anywhere up to the RAM
    /// bound.
    fn resident(g: &mut crate::rng::SplitMix64) -> u64 {
        if g.next_bool() {
            g.range_u64(0, 1 << 16)
        } else {
            g.range_u64(0, RAM_BOUND + 1)
        }
    }

    /// The process keeps what a byte-counting model keeps, with every
    /// resident size rounded up to whole pages, for sizes up to the RAM
    /// bound: the page counters neither round down nor wrap.
    #[test]
    fn mapping_table_agrees_with_a_btree_model() {
        crate::prop::check("mapping_table_agrees_with_a_btree_model", 128, |g| {
            let mut p = Process::new(Pid(1), CgroupId(0), 0);
            // Id → (len, anon bytes, file bytes), whole pages.
            let mut model: BTreeMap<MappingId, (MappingId, u64, u64, u64)> = BTreeMap::new();
            for _ in 0..1 + g.index(96) {
                // Any id: live, removed, or never issued (the last two must
                // miss the same way).
                let issued = p.mapping_mark().0;
                let any = MappingId(g.range_u64(0, u64::from(issued) + 2) as u32);
                match g.index(5) {
                    0..=2 => {
                        let id = p.alloc_mapping_id();
                        assert_eq!(id.0, issued, "ids are issued in order, never reused");
                        let (len, committed) = (g.range_u64(1, 1 << 20), resident(g));
                        model.insert(id, (id, len, round_up_pages(committed, PAGE_SIZE), 0));
                        p.insert_mapping(anon(id, len, committed));
                    }
                    3 => {
                        let removed = p.remove_mapping(any);
                        assert_eq!(removed.as_ref().map(fields), model.remove(&any));
                        assert_eq!(p.mapping_mark().0, issued, "a removal frees no id");
                    }
                    _ => {
                        let (anon_bytes, file_bytes) = (resident(g), resident(g));
                        p.set_resident(any, anon_bytes, file_bytes);
                        if let Some(m) = model.get_mut(&any) {
                            m.2 = round_up_pages(anon_bytes, PAGE_SIZE);
                            m.3 = round_up_pages(file_bytes, PAGE_SIZE);
                        }
                    }
                }
                p.check().unwrap();
                assert!(p.mappings().map(fields).eq(model.values().copied()), "id order");
                assert_eq!(p.rss(), model.values().map(|m| m.2 + m.3).sum::<u64>());
                assert_eq!(p.vsz(), model.values().map(|m| m.1).sum::<u64>());
                assert_eq!(p.anon_bytes(), model.values().map(|m| m.2).sum::<u64>());
                for id in (0..p.mapping_mark().0 + 2).map(MappingId) {
                    assert_eq!(p.mapping(id).map(fields), model.get(&id).copied(), "{id:?}");
                }
            }
            let taken = p.take_mappings();
            assert!(taken.iter().map(fields).eq(model.values().copied()), "teardown order");
            assert_eq!((p.rss(), p.mappings().count()), (0, 0));
        });
    }

    #[test]
    fn removal_from_the_middle_and_of_the_last_keeps_order_and_ids() {
        let mut p = Process::new(Pid(1), CgroupId(0), 0);
        let ids: Vec<MappingId> = (0..4)
            .map(|i| {
                let id = p.alloc_mapping_id();
                p.insert_mapping(anon(id, 1 << 20, 4096 * (i + 1)));
                id
            })
            .collect();
        let mark = p.mapping_mark();
        assert_eq!(p.remove_mapping(ids[1]).map(|m| m.resident().0), Some(8192));
        assert_eq!(p.remove_mapping(ids[3]).map(|m| m.resident().0), Some(16384));
        assert!(p.remove_mapping(ids[1]).is_none(), "already removed");
        assert_eq!(p.mappings().map(|m| m.id).collect::<Vec<_>>(), [ids[0], ids[2]]);
        assert_eq!(p.rss(), 4096 + 12288);
        assert_eq!(p.mapping_mark(), mark, "the mark counts ids issued, not mappings live");
        // The next mapping lands after every id ever issued, removed or not.
        let next = p.alloc_mapping_id();
        assert_eq!(next, mark);
        p.insert_mapping(anon(next, 4096, 0));
        assert_eq!(p.mappings().last().map(|m| m.id), Some(next));
        assert!(p.mapping(ids[3]).is_none() && p.mapping(next).is_some());
    }

    #[test]
    fn rss_and_vsz() {
        let mut p = Process::new(Pid(1), CgroupId(0), 0);
        let id = p.alloc_mapping_id();
        p.insert_mapping(anon(id, 1 << 20, 4096));
        assert_eq!(p.rss(), 4096);
        assert_eq!(p.vsz(), 1 << 20);
        assert_eq!(p.anon_bytes(), 4096);
        assert!(p.is_alive());
    }

    #[test]
    fn mapping_capacity_doubles_from_one() {
        let mut p = Process::new(Pid(1), CgroupId(0), 0);
        for n in 1..=9usize {
            let id = p.alloc_mapping_id();
            p.insert_mapping(anon(id, 4096, 0));
            let cap = p.mapping_capacity();
            assert!(n <= cap && cap < 2 * n, "{n} mappings in a capacity of {cap}");
            if n.is_power_of_two() {
                assert_eq!(cap, n, "a full vector holds exactly its count");
            }
        }
    }

    #[test]
    fn mapping_ids_unique() {
        let mut p = Process::new(Pid(1), CgroupId(0), 0);
        let a = p.alloc_mapping_id();
        let b = p.alloc_mapping_id();
        assert_ne!(a, b);
    }
}
