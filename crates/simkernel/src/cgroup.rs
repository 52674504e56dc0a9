//! cgroup v2 memory, cpu, and io controllers.
//!
//! The Kubernetes metrics-server observer in the reproduction reads per-pod
//! cgroup *working set* — `memory.current` minus reclaimable file pages —
//! which is exactly what kubelet's cAdvisor exports in the paper's setup.
//! Charging follows Linux semantics:
//!
//! * anonymous pages are charged to the faulting process's cgroup;
//! * page-cache pages are charged to the cgroup that first faults them in,
//!   and **stay** charged there even when other cgroups use them — the
//!   mechanism by which a shared WAMR library charged to the first container
//!   makes every later container look (and be) cheap;
//! * `memory.current` is hierarchical: a charge anywhere in a subtree is
//!   visible at every ancestor.
//!
//! Beyond `memory.max`, two more controllers contain noisy neighbors:
//!
//! * **`cpu.max`** (quota/period): guest CPU time charged through
//!   [`CgroupTree::charge_cpu`] beyond the quota share becomes *throttled
//!   sleep* — off-CPU time that stretches the guest's simulated wall clock
//!   without consuming cores. The most restrictive quota on the path to
//!   root applies, and throttle events are recorded on the limiting group.
//! * **io read budget**: cold page-cache reads charged through
//!   [`CgroupTree::charge_io_cold`] are admitted against a per-window byte
//!   budget; bytes beyond it are deferred (the reader stalls until the
//!   window refills) and counted as throttle events.
//!
//! Both controllers are inert when unset: a cgroup without `cpu.max` or an
//! io budget behaves byte-for-byte as before they existed.

use std::collections::BTreeMap;

use crate::table::IdTable;

/// Length of the io read-budget accounting window (1 simulated second).
pub(crate) const IO_WINDOW_NS: u64 = 1_000_000_000;

/// Identifier of a cgroup in the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CgroupId(pub u64);

/// Memory statistics for one cgroup (subtree-inclusive, like cgroup v2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemStat {
    /// `memory.current`: all charged bytes in the subtree.
    pub current: u64,
    /// Anonymous bytes in the subtree.
    pub anon_bytes: u64,
    /// Page-cache bytes charged to the subtree.
    pub(crate) file_bytes: u64,
    /// Kernel-side bytes (task structs, kernel stacks, page tables).
    pub(crate) kernel_bytes: u64,
}

impl MemStat {
    /// The metrics-server "working set": everything except file pages that
    /// could be reclaimed (we treat unmapped file cache as reclaimable; the
    /// kernel tells us the mapped share via `mapped_file_bytes`).
    pub(crate) fn working_set(&self, mapped_file_bytes: u64) -> u64 {
        let reclaimable = self.file_bytes.saturating_sub(mapped_file_bytes);
        self.current.saturating_sub(reclaimable)
    }
}

/// Full per-cgroup controller snapshot (memory + cpu + io), the analogue of
/// reading `memory.stat`, `cpu.stat`, and `io.stat` together.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CgroupStats {
    /// Subtree-inclusive memory counters.
    pub mem: MemStat,
    /// Times this cgroup's `memory.max` triggered an OOM.
    pub oom_events: u64,
    /// `cpu.max` as `(quota_ns, period_ns)`; `None` means unlimited.
    pub(crate) cpu_max: Option<(u64, u64)>,
    /// `cpu.stat nr_throttled`: charge operations that hit the quota.
    pub nr_cpu_throttled: u64,
    /// `cpu.stat throttled_usec` analogue: total throttled sleep, ns.
    pub cpu_throttled_ns: u64,
    /// Cold-read byte budget per [`IO_WINDOW_NS`]; `None` means unlimited.
    pub(crate) io_read_budget: Option<u64>,
    /// Subtree-inclusive cold-read bytes (all time).
    pub(crate) io_cold_bytes: u64,
    /// Cold reads that exceeded the window budget.
    pub io_throttle_events: u64,
    /// Total queueing delay experienced by this subtree's reads, ns.
    pub io_queued_ns: u64,
}

#[derive(Debug, Clone, Default)]
struct Cgroup {
    parent: Option<CgroupId>,
    /// Groups naming this one as `parent`.
    children: u32,
    /// Number of processes directly in this cgroup.
    procs: u32,
    /// Subtree-inclusive counters (maintained on every charge/uncharge by
    /// walking ancestors, so reads are O(1)).
    stat: MemStat,
    /// Mapped file bytes in the subtree (for working-set computation).
    mapped_file: u64,
    /// `memory.max`: `None` means unlimited.
    limit: Option<u64>,
    /// Subtree-inclusive cold-read bytes (all time).
    io_cold_bytes: u64,
    /// Subtree-inclusive queueing delay, ns.
    io_queued_ns: u64,
    /// Times this cgroup's limit triggered an OOM.
    oom_events: u64,
    /// The cpu and io controllers' state, made when one is first set and
    /// kept when it is lifted (its counters survive); most groups never
    /// set one.
    controllers: Option<Box<Controllers>>,
}

// A crun pod keeps three of these boxed in the kernel's table.
const _: () = assert!(std::mem::size_of::<Cgroup>() <= 112);

#[derive(Debug, Clone, Default)]
struct Controllers {
    /// `cpu.max` as `(quota_ns, period_ns)`: the subtree may run `quota` of
    /// CPU time per `period` of wall time. `None` means unlimited.
    cpu_max: Option<(u64, u64)>,
    /// Throttle events recorded on the limiting cgroup.
    nr_cpu_throttled: u64,
    /// Total throttled sleep imposed by this cgroup's quota, ns.
    cpu_throttled_ns: u64,
    /// Cold-read byte budget per [`IO_WINDOW_NS`]. `None` means unlimited.
    io_read_budget: Option<u64>,
    /// Start of the current io accounting window (ns of simulated time).
    io_window_start_ns: u64,
    /// Bytes admitted in the current window.
    io_window_bytes: u64,
    /// Reads that exceeded the window budget.
    io_throttle_events: u64,
}

/// The cgroup hierarchy.
#[derive(Debug, Clone)]
pub(crate) struct CgroupTree {
    next_id: u64,
    groups: IdTable<CgroupId, Cgroup>,
}

/// What kind of memory a charge is for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ChargeKind {
    Anon,
    File,
    Kernel,
}

impl CgroupTree {
    pub(crate) fn new() -> Self {
        let mut groups = IdTable::new();
        groups.insert(CgroupId(0), Cgroup::default());
        CgroupTree { next_id: 1, groups }
    }

    pub(crate) fn exists(&self, id: CgroupId) -> bool {
        self.groups.contains(id)
    }

    pub(crate) fn create(&mut self, parent: CgroupId) -> Option<CgroupId> {
        if !self.groups.contains(parent) {
            return None;
        }
        let id = CgroupId(self.next_id);
        self.next_id += 1;
        self.groups.insert(id, Cgroup { parent: Some(parent), ..Cgroup::default() });
        self.groups.get_mut(parent).unwrap().children += 1;
        Some(id)
    }

    /// Remove a leaf cgroup with no processes and no anon or kernel
    /// charge. Its page-cache charge moves to its parent, whose subtree
    /// counts it already. Returns the parent and the file bytes moved;
    /// `None` if the group is the root, missing or busy.
    pub(crate) fn remove(&mut self, id: CgroupId) -> Option<(CgroupId, u64)> {
        let g = self.groups.get(id)?;
        let parent = g.parent?;
        if g.procs > 0 || g.children > 0 || g.stat.anon_bytes > 0 || g.stat.kernel_bytes > 0 {
            return None;
        }
        let file = g.stat.file_bytes;
        self.groups.remove(id);
        self.groups.get_mut(parent).expect("a group's parent exists").children -= 1;
        Some((parent, file))
    }

    pub(crate) fn set_limit(&mut self, id: CgroupId, limit: Option<u64>) -> bool {
        let Some(g) = self.groups.get_mut(id) else { return false };
        g.limit = limit;
        true
    }

    /// Apply `f` to a group's controller state, made first if `set` (a
    /// lift of a controller never set makes nothing).
    fn controller(&mut self, id: CgroupId, set: bool, f: impl FnOnce(&mut Controllers)) -> bool {
        let Some(g) = self.groups.get_mut(id) else { return false };
        if set || g.controllers.is_some() {
            f(g.controllers.get_or_insert_with(Default::default));
        }
        true
    }

    /// Set `cpu.max` as `(quota_ns, period_ns)`. A zero quota or period is
    /// rejected (Linux requires both positive); `None` lifts the limit.
    pub(crate) fn set_cpu_max(&mut self, id: CgroupId, cpu_max: Option<(u64, u64)>) -> bool {
        if cpu_max.is_some_and(|(q, p)| q == 0 || p == 0) {
            return false;
        }
        self.controller(id, cpu_max.is_some(), |c| c.cpu_max = cpu_max)
    }

    /// The most restrictive `cpu.max` on the path to root (lowest
    /// quota/period ratio), with the cgroup it is set on.
    pub(crate) fn effective_cpu_max(&self, id: CgroupId) -> Option<(CgroupId, u64, u64)> {
        let mut best: Option<(CgroupId, u64, u64)> = None;
        let mut cur = Some(id);
        while let Some(c) = cur {
            let g = self.groups.get(c)?;
            if let Some((q, p)) = g.controllers.as_deref().and_then(|c| c.cpu_max) {
                let tighter = match best {
                    // Compare q/p < bq/bp without division: q*bp < bq*p.
                    Some((_, bq, bp)) => (q as u128) * (bp as u128) < (bq as u128) * (p as u128),
                    None => true,
                };
                if tighter {
                    best = Some((c, q, p));
                }
            }
            cur = g.parent;
        }
        best
    }

    /// Charge `cpu_ns` of guest CPU time against the subtree's `cpu.max`.
    /// Returns the throttled sleep the guest must serve: running `cpu_ns`
    /// at a quota/period duty cycle takes `cpu_ns * period / quota` of wall
    /// time, of which all but `cpu_ns` is off-CPU throttled sleep. Records
    /// the throttle event on the limiting cgroup. With no `cpu.max` on the
    /// path this returns 0 and records nothing.
    pub(crate) fn charge_cpu(&mut self, id: CgroupId, cpu_ns: u64) -> u64 {
        let Some((limiter, quota, period)) = self.effective_cpu_max(id) else {
            return 0;
        };
        if quota >= period || cpu_ns == 0 {
            return 0;
        }
        let sleep = ((cpu_ns as u128) * (period as u128 - quota as u128) / (quota as u128)) as u64;
        if sleep == 0 {
            return 0;
        }
        let g = self.groups.get_mut(limiter).expect("limiter found by ancestor walk");
        let c = g.controllers.as_mut().expect("the limiter's cpu.max is set");
        c.nr_cpu_throttled += 1;
        c.cpu_throttled_ns += sleep;
        sleep
    }

    /// Set the cold-read byte budget per [`IO_WINDOW_NS`]; `None` lifts it.
    pub(crate) fn set_io_read_budget(&mut self, id: CgroupId, budget: Option<u64>) -> bool {
        self.controller(id, budget.is_some(), |c| {
            c.io_read_budget = budget;
            c.io_window_start_ns = 0;
            c.io_window_bytes = 0;
        })
    }

    /// Account `bytes` of cold page-cache read by `id` at simulated instant
    /// `now_ns`. Cold bytes accumulate subtree-inclusively (like memory
    /// charges); the nearest io budget on the path to root admits bytes
    /// against its current window and defers the excess. Returns the
    /// deferred (throttled) byte count — 0 when no budget is set.
    pub(crate) fn charge_io_cold(&mut self, id: CgroupId, bytes: u64, now_ns: u64) -> u64 {
        if !self.groups.contains(id) || bytes == 0 {
            return 0;
        }
        let mut budget_owner = None;
        let mut cur = Some(id);
        while let Some(c) = cur {
            let g = self.groups.get_mut(c).expect("ancestor exists");
            g.io_cold_bytes += bytes;
            if budget_owner.is_none()
                && g.controllers.as_deref().is_some_and(|c| c.io_read_budget.is_some())
            {
                budget_owner = Some(c);
            }
            cur = g.parent;
        }
        let Some(owner) = budget_owner else { return 0 };
        let g = self.groups.get_mut(owner).expect("owner found by ancestor walk");
        let c = g.controllers.as_mut().expect("the owner's budget is set");
        let budget = c.io_read_budget.expect("owner has a budget");
        if now_ns.saturating_sub(c.io_window_start_ns) >= IO_WINDOW_NS {
            c.io_window_start_ns = now_ns;
            c.io_window_bytes = 0;
        }
        let admitted = bytes.min(budget.saturating_sub(c.io_window_bytes));
        c.io_window_bytes += admitted;
        let throttled = bytes - admitted;
        if throttled > 0 {
            c.io_throttle_events += 1;
        }
        throttled
    }

    /// Record `ns` of io queueing delay, subtree-inclusively.
    pub(crate) fn record_io_queue(&mut self, id: CgroupId, ns: u64) {
        let mut cur = Some(id);
        while let Some(c) = cur {
            let Some(g) = self.groups.get_mut(c) else { break };
            g.io_queued_ns += ns;
            cur = g.parent;
        }
    }

    /// Full controller snapshot for one cgroup.
    pub(crate) fn stats(&self, id: CgroupId) -> Option<CgroupStats> {
        let g = self.groups.get(id)?;
        let unset = Controllers::default();
        let c = g.controllers.as_deref().unwrap_or(&unset);
        Some(CgroupStats {
            mem: g.stat,
            oom_events: g.oom_events,
            cpu_max: c.cpu_max,
            nr_cpu_throttled: c.nr_cpu_throttled,
            cpu_throttled_ns: c.cpu_throttled_ns,
            io_read_budget: c.io_read_budget,
            io_cold_bytes: g.io_cold_bytes,
            io_throttle_events: c.io_throttle_events,
            io_queued_ns: g.io_queued_ns,
        })
    }

    pub(crate) fn stat(&self, id: CgroupId) -> Option<MemStat> {
        self.groups.get(id).map(|g| g.stat)
    }

    /// Metrics-server working set for a cgroup.
    pub(crate) fn working_set(&self, id: CgroupId) -> Option<u64> {
        let g = self.groups.get(id)?;
        Some(g.stat.working_set(g.mapped_file))
    }

    pub(crate) fn oom_events(&self, id: CgroupId) -> Option<u64> {
        self.groups.get(id).map(|g| g.oom_events)
    }

    pub(crate) fn parent(&self, id: CgroupId) -> Option<CgroupId> {
        self.groups.get(id).and_then(|g| g.parent)
    }

    /// Is `cg` inside the subtree rooted at `root` (inclusive)?
    pub(crate) fn in_subtree(&self, mut cg: CgroupId, root: CgroupId) -> bool {
        loop {
            if cg == root {
                return true;
            }
            match self.parent(cg) {
                Some(p) => cg = p,
                None => return false,
            }
        }
    }

    pub(crate) fn proc_attached(&mut self, id: CgroupId) {
        if let Some(g) = self.groups.get_mut(id) {
            g.procs += 1;
        }
    }

    pub(crate) fn proc_detached(&mut self, id: CgroupId) {
        if let Some(g) = self.groups.get_mut(id) {
            g.procs = g.procs.saturating_sub(1);
        }
    }

    /// Would the `charges`, `(group, bytes)` each, together exceed any
    /// limit on their paths to root? Where two paths meet, their bytes add.
    /// Returns the first offending cgroup, walking the paths in order, and
    /// its limit.
    pub(crate) fn check_limit(&self, charges: &[(CgroupId, u64)]) -> Option<(CgroupId, u64)> {
        for &(start, _) in charges {
            let mut cur = Some(start);
            while let Some(c) = cur {
                let g = self.groups.get(c)?;
                if let Some(lim) = g.limit {
                    let bytes = charges.iter().filter(|&&(id, _)| self.in_subtree(id, c));
                    if g.stat.current.saturating_add(bytes.map(|&(_, b)| b).sum()) > lim {
                        return Some((c, lim));
                    }
                }
                cur = g.parent;
            }
        }
        None
    }

    pub(crate) fn record_oom(&mut self, id: CgroupId) {
        if let Some(g) = self.groups.get_mut(id) {
            g.oom_events += 1;
        }
    }

    /// Charge `bytes` of `kind` to `id` and all its ancestors.
    /// The caller is responsible for limit checks (via [`CgroupTree::check_limit`]):
    /// no charge takes a group from within its `memory.max` to above it. A
    /// limit lowered below `current` leaves the group above it, and it
    /// refuses every charge until it is back within.
    pub(crate) fn charge(&mut self, id: CgroupId, kind: ChargeKind, bytes: u64) -> bool {
        if !self.groups.contains(id) {
            return false;
        }
        let mut cur = Some(id);
        while let Some(c) = cur {
            let g = self.groups.get_mut(c).expect("ancestor exists");
            let (was, lim) = (g.stat.current, g.limit.unwrap_or(u64::MAX));
            debug_assert!(
                was > lim || was + bytes <= lim,
                "{c:?}: {was} + {bytes} B crosses {lim}"
            );
            g.stat.current += bytes;
            match kind {
                ChargeKind::Anon => g.stat.anon_bytes += bytes,
                ChargeKind::File => g.stat.file_bytes += bytes,
                ChargeKind::Kernel => g.stat.kernel_bytes += bytes,
            }
            cur = g.parent;
        }
        true
    }

    /// Reverse of [`CgroupTree::charge`].
    pub(crate) fn uncharge(&mut self, id: CgroupId, kind: ChargeKind, bytes: u64) -> bool {
        if !self.groups.contains(id) {
            return false;
        }
        let mut cur = Some(id);
        while let Some(c) = cur {
            let g = self.groups.get_mut(c).expect("ancestor exists");
            g.stat.current = g.stat.current.saturating_sub(bytes);
            match kind {
                ChargeKind::Anon => g.stat.anon_bytes = g.stat.anon_bytes.saturating_sub(bytes),
                ChargeKind::File => g.stat.file_bytes = g.stat.file_bytes.saturating_sub(bytes),
                ChargeKind::Kernel => {
                    g.stat.kernel_bytes = g.stat.kernel_bytes.saturating_sub(bytes)
                }
            }
            cur = g.parent;
        }
        true
    }

    /// Check the tree's shape and its process counters: every group's
    /// `children` count equals the groups naming it as `parent`, and its
    /// `procs` counter equals `live(group)`, the live processes in it.
    pub(crate) fn check(&self, live: impl Fn(CgroupId) -> u64) -> Result<(), String> {
        self.groups.check("cgroups")?;
        let mut named: BTreeMap<CgroupId, Vec<CgroupId>> = BTreeMap::new();
        for (id, g) in self.groups.iter() {
            if let Some(p) = g.parent {
                named.entry(p).or_default().push(id);
            }
        }
        for (id, g) in self.groups.iter() {
            let expected = named.remove(&id).unwrap_or_default();
            if g.children as usize != expected.len() {
                return Err(format!(
                    "{id:?}: children count {} != {expected:?} naming it as parent",
                    g.children
                ));
            }
            if u64::from(g.procs) != live(id) {
                return Err(format!("{id:?}: procs counter {} != {} live", g.procs, live(id)));
            }
        }
        match named.into_iter().next() {
            Some((parent, kids)) => Err(format!("{kids:?} name a missing parent {parent:?}")),
            None => Ok(()),
        }
    }

    /// Adjust the subtree's mapped-file counter (can be negative).
    pub(crate) fn adjust_mapped_file(&mut self, id: CgroupId, delta: i64) {
        let mut cur = Some(id);
        while let Some(c) = cur {
            let Some(g) = self.groups.get_mut(c) else { break };
            if delta >= 0 {
                g.mapped_file += delta as u64;
            } else {
                g.mapped_file = g.mapped_file.saturating_sub((-delta) as u64);
            }
            cur = g.parent;
        }
    }
}

impl Default for CgroupTree {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl CgroupTree {
        fn root(&self) -> CgroupId {
            CgroupId(0)
        }

        /// Mapped file bytes in the subtree (the non-reclaimable file share).
        fn mapped_file(&self, id: CgroupId) -> Option<u64> {
            self.groups.get(id).map(|g| g.mapped_file)
        }
    }

    #[test]
    fn hierarchy_charge_propagates() {
        let mut t = CgroupTree::new();
        let pods = t.create(t.root()).unwrap();
        let pod = t.create(pods).unwrap();
        assert!(t.charge(pod, ChargeKind::Anon, 4096));
        assert_eq!(t.stat(pod).unwrap().current, 4096);
        assert_eq!(t.stat(pods).unwrap().current, 4096);
        assert_eq!(t.stat(t.root()).unwrap().current, 4096);
        assert!(t.uncharge(pod, ChargeKind::Anon, 4096));
        assert_eq!(t.stat(t.root()).unwrap().current, 0);
    }

    #[test]
    fn working_set_excludes_reclaimable_file() {
        let mut t = CgroupTree::new();
        let cg = t.create(t.root()).unwrap();
        t.charge(cg, ChargeKind::Anon, 10_000);
        t.charge(cg, ChargeKind::File, 8_000);
        t.adjust_mapped_file(cg, 3_000);
        // current = 18_000; reclaimable file = 8000 - 3000 = 5000.
        assert_eq!(t.working_set(cg).unwrap(), 13_000);
    }

    #[test]
    fn limits_are_hierarchical() {
        let mut t = CgroupTree::new();
        let parent = t.create(t.root()).unwrap();
        let child = t.create(parent).unwrap();
        t.set_limit(parent, Some(8192));
        assert!(t.check_limit(&[(child, 4096)]).is_none());
        t.charge(child, ChargeKind::Anon, 8192);
        let (victim, lim) = t.check_limit(&[(child, 1)]).unwrap();
        assert_eq!(victim, parent);
        assert_eq!(lim, 8192);
    }

    /// Two charges checked together add where their paths meet, and only
    /// there.
    #[test]
    fn charges_checked_together_add_at_their_common_ancestors() {
        let mut t = CgroupTree::new();
        let parent = t.create(t.root()).unwrap();
        let [a, b] = [0; 2].map(|_| t.create(parent).unwrap());
        t.set_limit(parent, Some(8192));
        t.set_limit(a, Some(4096));
        assert_eq!(t.check_limit(&[(a, 4096), (b, 4096)]), None);
        assert_eq!(t.check_limit(&[(a, 4096), (b, 4097)]), Some((parent, 8192)));
        assert_eq!(t.check_limit(&[(b, 4097), (a, 4096)]), Some((parent, 8192)));
        assert_eq!(t.check_limit(&[(a, 4096), (a, 1)]), Some((a, 4096)), "same group: both");
        assert_eq!(t.check_limit(&[(b, 1), (a, 4097)]), Some((a, 4096)));
    }

    #[test]
    fn removal_rules() {
        let mut t = CgroupTree::new();
        let g = t.create(t.root()).unwrap();
        t.proc_attached(g);
        assert_eq!(t.remove(g), None, "non-empty cgroup must not be removable");
        t.proc_detached(g);
        for kind in [ChargeKind::Anon, ChargeKind::Kernel] {
            t.charge(g, kind, 100);
            assert_eq!(t.remove(g), None, "charged cgroup must not be removable");
            t.uncharge(g, kind, 100);
        }
        // Page cache outlives the group: its parent, which counts it
        // already, keeps it.
        t.charge(g, ChargeKind::File, 100);
        assert_eq!(t.remove(g), Some((t.root(), 100)));
        assert_eq!(t.stat(t.root()).unwrap().file_bytes, 100);
        assert_eq!(t.remove(g), None, "removed once");
        assert_eq!(t.remove(t.root()), None, "root is permanent");
    }

    /// A group counts its children: one with a child is busy, and removing
    /// the child frees it. The `check` law compares each count with the
    /// groups naming it as their parent.
    #[test]
    fn a_group_counts_its_children() {
        let mut t = CgroupTree::new();
        let pods = t.create(t.root()).unwrap();
        let kids = [0; 3].map(|_| t.create(pods).unwrap());
        let grandchild = t.create(kids[1]).unwrap();
        t.check(|_| 0).unwrap();
        assert_eq!(t.remove(pods), None, "a group with children must not be removable");
        assert_eq!(t.remove(kids[1]), None);
        assert_eq!(t.remove(grandchild), Some((kids[1], 0)));
        for kid in kids {
            assert_eq!(t.remove(kid), Some((pods, 0)));
            t.check(|_| 0).unwrap();
        }
        assert_eq!(t.remove(pods), Some((t.root(), 0)), "its last child gone");
        t.check(|_| 0).unwrap();

        let g = t.create(t.root()).unwrap();
        t.create(g).unwrap();
        t.groups.get_mut(g).unwrap().children += 1;
        let err = t.check(|_| 0).unwrap_err();
        assert!(err.contains("children count 2"), "{err}");
    }

    /// Unset controllers allocate nothing: not on create, not when a
    /// controller never set is lifted, not when cpu time or cold reads are
    /// charged.
    #[test]
    fn unset_controllers_allocate_nothing() {
        let mut t = CgroupTree::new();
        let parent = t.create(t.root()).unwrap();
        let g = t.create(parent).unwrap();
        assert!(t.set_cpu_max(g, None) && t.set_io_read_budget(g, None));
        assert_eq!(t.charge_cpu(g, 1_000_000), 0);
        assert_eq!(t.charge_io_cold(g, 4096, 0), 0);
        t.record_io_queue(g, 500);
        assert!(t.groups.values().all(|c| c.controllers.is_none()));
        // Setting one on the parent makes the parent's state, no other.
        t.set_cpu_max(parent, Some((50, 100)));
        assert_eq!(t.charge_cpu(g, 1_000), 1_000);
        let made: Vec<bool> = t.groups.values().map(|c| c.controllers.is_some()).collect();
        assert_eq!(made, [false, true, false]);
    }

    /// Setting a controller and lifting it again leaves `stats()` reading
    /// what a group that never set one reads, but for the throttle counters
    /// the controller recorded while it was set.
    #[test]
    fn a_lifted_controller_keeps_its_counters() {
        let mut t = CgroupTree::new();
        let [set, never] = [0; 2].map(|_| t.create(t.root()).unwrap());
        for g in [set, never] {
            t.charge(g, ChargeKind::Anon, 8192);
            t.charge_io_cold(g, 4096, 0);
        }
        t.set_cpu_max(set, Some((25, 100)));
        t.set_io_read_budget(set, Some(10_000));
        assert_eq!(t.charge_cpu(set, 1_000), 3_000);
        assert_eq!(t.charge_io_cold(set, 12_000, 0), 2_000);
        t.set_cpu_max(set, None);
        t.set_io_read_budget(set, None);
        // Lifted: nothing more is throttled or deferred.
        assert_eq!(t.charge_cpu(set, 1_000), 0);
        assert_eq!(t.charge_io_cold(set, 12_000, 0), 0);
        t.charge_io_cold(never, 24_000, 0);
        let expected = CgroupStats {
            nr_cpu_throttled: 1,
            cpu_throttled_ns: 3_000,
            io_throttle_events: 1,
            ..t.stats(never).unwrap()
        };
        assert_eq!(t.stats(set), Some(expected));
        assert_eq!(t.stats(never).unwrap().nr_cpu_throttled, 0);
    }

    #[test]
    fn oom_events_recorded() {
        let mut t = CgroupTree::new();
        let g = t.create(t.root()).unwrap();
        assert_eq!(t.oom_events(g), Some(0));
        t.record_oom(g);
        t.record_oom(g);
        assert_eq!(t.oom_events(g), Some(2));
    }

    #[test]
    fn cpu_max_throttles_and_records() {
        let mut t = CgroupTree::new();
        let g = t.create(t.root()).unwrap();
        // No quota: charge is free and records nothing.
        assert_eq!(t.charge_cpu(g, 1_000_000), 0);
        assert_eq!(t.stats(g).unwrap().nr_cpu_throttled, 0);
        // 25% duty cycle: 1ms of CPU costs 3ms of throttled sleep.
        assert!(t.set_cpu_max(g, Some((25_000_000, 100_000_000))));
        assert_eq!(t.charge_cpu(g, 1_000_000), 3_000_000);
        let s = t.stats(g).unwrap();
        assert_eq!(s.nr_cpu_throttled, 1);
        assert_eq!(s.cpu_throttled_ns, 3_000_000);
        assert_eq!(s.cpu_max, Some((25_000_000, 100_000_000)));
        // Quota >= period means unthrottled; zero quota is rejected.
        assert!(t.set_cpu_max(g, Some((2, 1))));
        assert_eq!(t.charge_cpu(g, 1_000_000), 0);
        assert!(!t.set_cpu_max(g, Some((0, 1))));
    }

    #[test]
    fn cpu_max_is_hierarchical_and_tightest_wins() {
        let mut t = CgroupTree::new();
        let parent = t.create(t.root()).unwrap();
        let child = t.create(parent).unwrap();
        t.set_cpu_max(parent, Some((50, 100)));
        t.set_cpu_max(child, Some((75, 100)));
        // Parent's 50% is tighter than the child's 75%.
        let (limiter, q, p) = t.effective_cpu_max(child).unwrap();
        assert_eq!((limiter, q, p), (parent, 50, 100));
        assert_eq!(t.charge_cpu(child, 1_000), 1_000);
        assert_eq!(t.stats(parent).unwrap().nr_cpu_throttled, 1);
        assert_eq!(t.stats(child).unwrap().nr_cpu_throttled, 0);
    }

    #[test]
    fn io_budget_admits_per_window_and_defers_excess() {
        let mut t = CgroupTree::new();
        let g = t.create(t.root()).unwrap();
        // No budget: nothing deferred, cold bytes still counted.
        assert_eq!(t.charge_io_cold(g, 4096, 0), 0);
        assert_eq!(t.stats(g).unwrap().io_cold_bytes, 4096);
        assert_eq!(t.stats(t.root()).unwrap().io_cold_bytes, 4096);
        t.set_io_read_budget(g, Some(10_000));
        assert_eq!(t.charge_io_cold(g, 8_000, 0), 0);
        assert_eq!(t.charge_io_cold(g, 8_000, 0), 6_000, "window has 2_000 left");
        assert_eq!(t.stats(g).unwrap().io_throttle_events, 1);
        // A new window refills the budget.
        assert_eq!(t.charge_io_cold(g, 8_000, IO_WINDOW_NS), 0);
        assert_eq!(t.stats(g).unwrap().io_throttle_events, 1);
    }

    #[test]
    fn io_queue_delay_records_up_the_tree() {
        let mut t = CgroupTree::new();
        let parent = t.create(t.root()).unwrap();
        let child = t.create(parent).unwrap();
        t.record_io_queue(child, 500);
        assert_eq!(t.stats(child).unwrap().io_queued_ns, 500);
        assert_eq!(t.stats(parent).unwrap().io_queued_ns, 500);
    }

    #[test]
    fn mapped_file_adjustment_saturates() {
        let mut t = CgroupTree::new();
        let g = t.create(t.root()).unwrap();
        t.adjust_mapped_file(g, 100);
        t.adjust_mapped_file(g, -500);
        assert_eq!(t.mapped_file(g).unwrap(), 0);
    }
}
