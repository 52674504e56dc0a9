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

/// Linux namespace kinds a container runtime creates per container.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum NamespaceKind {
    Pid,
    Mount,
    Network,
    Uts,
    Ipc,
    Cgroup,
    User,
}

impl NamespaceKind {
    /// The full set a typical OCI runtime configures.
    pub const ALL: [NamespaceKind; 7] = [
        NamespaceKind::Pid,
        NamespaceKind::Mount,
        NamespaceKind::Network,
        NamespaceKind::Uts,
        NamespaceKind::Ipc,
        NamespaceKind::Cgroup,
        NamespaceKind::User,
    ];
}

/// A simulated process.
#[derive(Debug, Clone)]
pub struct Process {
    pub pid: Pid,
    pub name: String,
    pub parent: Option<Pid>,
    pub cgroup: CgroupId,
    pub state: ProcState,
    /// Namespaces this process owns (created fresh for it, not inherited).
    pub owned_namespaces: Vec<NamespaceKind>,
    next_mapping: u64,
    /// Private: every residency change goes through the methods below, so
    /// the running `rss` cannot drift from the mappings it summarises.
    /// Sorted by id — ids only grow, so an insert is a push — and a process
    /// holds a handful, so a lookup is a binary search over one allocation.
    mappings: Vec<Mapping>,
    /// Running sum of every mapping's [`Mapping::rss`].
    rss: u64,
    /// Kernel bytes currently charged for this process (base + page tables).
    pub(crate) kernel_charged: u64,
}

impl Process {
    pub(crate) fn new(pid: Pid, name: &str, parent: Option<Pid>, cgroup: CgroupId) -> Self {
        Process {
            pid,
            name: name.to_string(),
            parent,
            cgroup,
            state: ProcState::Running,
            owned_namespaces: Vec::new(),
            next_mapping: 0,
            mappings: Vec::new(),
            rss: 0,
            kernel_charged: 0,
        }
    }

    pub fn is_alive(&self) -> bool {
        self.state == ProcState::Running
    }

    /// Resident set size: private anon + touched shared file pages.
    pub fn rss(&self) -> u64 {
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

    /// Total reserved virtual address space.
    pub fn vsz(&self) -> u64 {
        self.mappings.iter().map(|m| m.len).sum()
    }

    /// Private anonymous bytes only (what the process "owns" exclusively).
    pub fn anon_bytes(&self) -> u64 {
        self.mappings.iter().map(|m| m.committed_anon).sum()
    }

    /// Every mapping, in id order.
    pub fn mappings(&self) -> impl Iterator<Item = &Mapping> {
        self.mappings.iter()
    }

    pub fn mapping(&self, id: MappingId) -> Option<&Mapping> {
        self.position(id).map(|i| &self.mappings[i])
    }

    fn position(&self, id: MappingId) -> Option<usize> {
        self.mappings.binary_search_by_key(&id, |m| m.id).ok()
    }

    pub(crate) fn alloc_mapping_id(&mut self) -> MappingId {
        let id = MappingId(self.next_mapping);
        self.next_mapping += 1;
        id
    }

    pub(crate) fn insert_mapping(&mut self, m: Mapping) {
        debug_assert!(
            self.mappings.last().is_none_or(|last| last.id < m.id),
            "mapping ids are allocated once, in order"
        );
        self.rss += m.rss();
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

    /// Set how much of a mapping is resident as private anon / file pages.
    pub(crate) fn set_resident(&mut self, id: MappingId, committed_anon: u64, touched_file: u64) {
        if let Some(i) = self.position(id) {
            let m = &mut self.mappings[i];
            self.rss = self.rss - m.rss() + committed_anon + touched_file;
            m.committed_anon = committed_anon;
            m.touched_file = touched_file;
        }
    }

    /// Change a mapping's reserved length (`mremap`); residency is untouched.
    pub(crate) fn set_mapping_len(&mut self, id: MappingId, len: u64) {
        if let Some(i) = self.position(id) {
            self.mappings[i].len = len;
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;
    use crate::mem::MapKind;

    fn anon(id: MappingId, len: u64, committed_anon: u64) -> Mapping {
        Mapping { id, kind: MapKind::AnonPrivate, len, committed_anon, touched_file: 0, label: "m" }
    }

    /// Everything a mapping holds but its (constant) kind and label.
    fn fields(m: &Mapping) -> (MappingId, u64, u64, u64) {
        (m.id, m.len, m.committed_anon, m.touched_file)
    }

    #[test]
    fn mapping_table_agrees_with_a_btree_model() {
        crate::prop::check("mapping_table_agrees_with_a_btree_model", 128, |g| {
            let mut p = Process::new(Pid(1), "t", None, CgroupId(0));
            let mut model: BTreeMap<MappingId, Mapping> = BTreeMap::new();
            for _ in 0..1 + g.index(96) {
                // Any id: live, removed, or never issued (the last two must
                // miss the same way).
                let issued = p.mapping_mark().0;
                let any = MappingId(g.range_u64(0, issued + 2));
                match g.index(6) {
                    0..=2 => {
                        let id = p.alloc_mapping_id();
                        assert_eq!(id.0, issued, "ids are issued in order, never reused");
                        let m = anon(id, g.range_u64(1, 1 << 20), g.range_u64(0, 1 << 16));
                        model.insert(id, m.clone());
                        p.insert_mapping(m);
                    }
                    3 => {
                        let removed = p.remove_mapping(any);
                        assert_eq!(
                            removed.as_ref().map(fields),
                            model.remove(&any).as_ref().map(fields)
                        );
                        assert_eq!(p.mapping_mark().0, issued, "a removal frees no id");
                    }
                    4 => {
                        let (anon_bytes, file_bytes) =
                            (g.range_u64(0, 1 << 16), g.range_u64(0, 1 << 16));
                        p.set_resident(any, anon_bytes, file_bytes);
                        if let Some(m) = model.get_mut(&any) {
                            m.committed_anon = anon_bytes;
                            m.touched_file = file_bytes;
                        }
                    }
                    _ => {
                        let len = g.range_u64(1, 1 << 24);
                        p.set_mapping_len(any, len);
                        if let Some(m) = model.get_mut(&any) {
                            m.len = len;
                        }
                    }
                }
                p.check().unwrap();
                assert!(p.mappings().map(fields).eq(model.values().map(fields)), "id order");
                assert_eq!(p.rss(), model.values().map(|m| m.rss()).sum::<u64>());
                assert_eq!(p.vsz(), model.values().map(|m| m.len).sum::<u64>());
                assert_eq!(p.anon_bytes(), model.values().map(|m| m.committed_anon).sum::<u64>());
                for id in (0..p.mapping_mark().0 + 2).map(MappingId) {
                    assert_eq!(p.mapping(id).map(fields), model.get(&id).map(fields), "{id:?}");
                }
            }
            let taken = p.take_mappings();
            assert!(taken.iter().map(fields).eq(model.values().map(fields)), "teardown order");
            assert_eq!((p.rss(), p.mappings().count()), (0, 0));
        });
    }

    #[test]
    fn removal_from_the_middle_and_of_the_last_keeps_order_and_ids() {
        let mut p = Process::new(Pid(1), "t", None, CgroupId(0));
        let ids: Vec<MappingId> = (0..4)
            .map(|i| {
                let id = p.alloc_mapping_id();
                p.insert_mapping(anon(id, 1 << 20, 4096 * (i + 1)));
                id
            })
            .collect();
        let mark = p.mapping_mark();
        assert_eq!(p.remove_mapping(ids[1]).map(|m| m.committed_anon), Some(8192));
        assert_eq!(p.remove_mapping(ids[3]).map(|m| m.committed_anon), Some(16384));
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
        let mut p = Process::new(Pid(1), "t", None, CgroupId(0));
        let id = p.alloc_mapping_id();
        p.insert_mapping(Mapping {
            id,
            kind: MapKind::AnonPrivate,
            len: 1 << 20,
            committed_anon: 4096,
            touched_file: 0,
            label: "heap",
        });
        assert_eq!(p.rss(), 4096);
        assert_eq!(p.vsz(), 1 << 20);
        assert_eq!(p.anon_bytes(), 4096);
        assert!(p.is_alive());
    }

    #[test]
    fn mapping_ids_unique() {
        let mut p = Process::new(Pid(1), "t", None, CgroupId(0));
        let a = p.alloc_mapping_id();
        let b = p.alloc_mapping_id();
        assert_ne!(a, b);
    }

    #[test]
    fn namespace_set_is_complete() {
        assert_eq!(NamespaceKind::ALL.len(), 7);
    }
}
