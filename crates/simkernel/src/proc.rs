//! Processes: address spaces, namespaces, and kernel-side overhead.
//!
//! Each simulated process carries the kernel bookkeeping a real Linux task
//! does: a task struct + kernel stack, and page tables proportional to the
//! mapped address space. That overhead is charged to the process's cgroup as
//! kernel memory, and it is a real contributor to the gap between the
//! `free(1)` observer and the metrics-server observer in the paper — shim
//! processes live *outside* the pod cgroups, so their footprint shows up in
//! `free` but not in per-pod metrics.

use std::collections::BTreeMap;

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
#[derive(Debug)]
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
    mappings: BTreeMap<MappingId, Mapping>,
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
            mappings: BTreeMap::new(),
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
        self.mappings.values().map(|m| m.rss()).sum()
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
        self.mappings.values().map(|m| m.len).sum()
    }

    /// Private anonymous bytes only (what the process "owns" exclusively).
    pub fn anon_bytes(&self) -> u64 {
        self.mappings.values().map(|m| m.committed_anon).sum()
    }

    pub fn mappings(&self) -> impl Iterator<Item = &Mapping> {
        self.mappings.values()
    }

    pub fn mapping(&self, id: MappingId) -> Option<&Mapping> {
        self.mappings.get(&id)
    }

    pub(crate) fn alloc_mapping_id(&mut self) -> MappingId {
        let id = MappingId(self.next_mapping);
        self.next_mapping += 1;
        id
    }

    pub(crate) fn insert_mapping(&mut self, m: Mapping) {
        self.rss += m.rss();
        let old = self.mappings.insert(m.id, m);
        debug_assert!(old.is_none(), "mapping ids are allocated once");
    }

    pub(crate) fn remove_mapping(&mut self, id: MappingId) -> Option<Mapping> {
        let m = self.mappings.remove(&id)?;
        self.rss -= m.rss();
        Some(m)
    }

    /// The id the next mapping will get. Ids only grow, so the mappings
    /// made between two calls are exactly the ids between their results.
    pub(crate) fn mapping_mark(&self) -> MappingId {
        MappingId(self.next_mapping)
    }

    /// Empty the address space (process teardown).
    pub(crate) fn take_mappings(&mut self) -> Vec<Mapping> {
        self.rss = 0;
        std::mem::take(&mut self.mappings).into_values().collect()
    }

    /// Set how much of a mapping is resident as private anon / file pages.
    pub(crate) fn set_resident(&mut self, id: MappingId, committed_anon: u64, touched_file: u64) {
        if let Some(m) = self.mappings.get_mut(&id) {
            self.rss = self.rss - m.rss() + committed_anon + touched_file;
            m.committed_anon = committed_anon;
            m.touched_file = touched_file;
        }
    }

    /// Change a mapping's reserved length (`mremap`); residency is untouched.
    pub(crate) fn set_mapping_len(&mut self, id: MappingId, len: u64) {
        if let Some(m) = self.mappings.get_mut(&id) {
            m.len = len;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::MapKind;

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
            label: "heap".into(),
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
