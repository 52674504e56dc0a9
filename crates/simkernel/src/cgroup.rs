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

/// Length of the io read-budget accounting window (1 simulated second).
pub const IO_WINDOW_NS: u64 = 1_000_000_000;

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
    pub file_bytes: u64,
    /// Kernel-side bytes (task structs, kernel stacks, page tables).
    pub kernel_bytes: u64,
}

impl MemStat {
    /// The metrics-server "working set": everything except file pages that
    /// could be reclaimed (we treat unmapped file cache as reclaimable; the
    /// kernel tells us the mapped share via `mapped_file_bytes`).
    pub fn working_set(&self, mapped_file_bytes: u64) -> u64 {
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
    pub cpu_max: Option<(u64, u64)>,
    /// `cpu.stat nr_throttled`: charge operations that hit the quota.
    pub nr_cpu_throttled: u64,
    /// `cpu.stat throttled_usec` analogue: total throttled sleep, ns.
    pub cpu_throttled_ns: u64,
    /// Cold-read byte budget per [`IO_WINDOW_NS`]; `None` means unlimited.
    pub io_read_budget: Option<u64>,
    /// Subtree-inclusive cold-read bytes (all time).
    pub io_cold_bytes: u64,
    /// Cold reads that exceeded the window budget.
    pub io_throttle_events: u64,
    /// Total queueing delay experienced by this subtree's reads, ns.
    pub io_queued_ns: u64,
}

#[derive(Debug, Clone)]
struct Cgroup {
    name: String,
    parent: Option<CgroupId>,
    children: Vec<CgroupId>,
    /// Subtree-inclusive counters (maintained on every charge/uncharge by
    /// walking ancestors, so reads are O(1)).
    stat: MemStat,
    /// Mapped file bytes in the subtree (for working-set computation).
    mapped_file: u64,
    /// `memory.max`: `None` means unlimited.
    limit: Option<u64>,
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
    /// Subtree-inclusive cold-read bytes (all time).
    io_cold_bytes: u64,
    /// Reads that exceeded the window budget.
    io_throttle_events: u64,
    /// Subtree-inclusive queueing delay, ns.
    io_queued_ns: u64,
    /// Number of processes directly in this cgroup.
    procs: u64,
    /// Times this cgroup's limit triggered an OOM.
    oom_events: u64,
}

impl Cgroup {
    fn new(name: &str, parent: Option<CgroupId>) -> Cgroup {
        Cgroup {
            name: name.to_string(),
            parent,
            children: Vec::new(),
            stat: MemStat::default(),
            mapped_file: 0,
            limit: None,
            cpu_max: None,
            nr_cpu_throttled: 0,
            cpu_throttled_ns: 0,
            io_read_budget: None,
            io_window_start_ns: 0,
            io_window_bytes: 0,
            io_cold_bytes: 0,
            io_throttle_events: 0,
            io_queued_ns: 0,
            procs: 0,
            oom_events: 0,
        }
    }
}

/// The cgroup hierarchy.
#[derive(Debug, Clone)]
pub struct CgroupTree {
    next_id: u64,
    groups: BTreeMap<CgroupId, Cgroup>,
    root: CgroupId,
}

/// What kind of memory a charge is for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChargeKind {
    Anon,
    File,
    Kernel,
}

impl CgroupTree {
    pub fn new() -> Self {
        let root = CgroupId(0);
        let mut groups = BTreeMap::new();
        groups.insert(root, Cgroup::new("/", None));
        CgroupTree { next_id: 1, groups, root }
    }

    pub fn root(&self) -> CgroupId {
        self.root
    }

    pub fn exists(&self, id: CgroupId) -> bool {
        self.groups.contains_key(&id)
    }

    pub fn create(&mut self, parent: CgroupId, name: &str) -> Option<CgroupId> {
        if !self.groups.contains_key(&parent) {
            return None;
        }
        let id = CgroupId(self.next_id);
        self.next_id += 1;
        self.groups.insert(id, Cgroup::new(name, Some(parent)));
        self.groups.get_mut(&parent).unwrap().children.push(id);
        Some(id)
    }

    /// Remove an empty leaf cgroup. Fails (returns false) if it has
    /// processes, children, or remaining charges.
    pub fn remove(&mut self, id: CgroupId) -> bool {
        if id == self.root {
            return false;
        }
        let Some(g) = self.groups.get(&id) else { return false };
        if g.procs > 0 || !g.children.is_empty() || g.stat.current > 0 {
            return false;
        }
        let parent = g.parent;
        self.groups.remove(&id);
        if let Some(p) = parent {
            if let Some(pg) = self.groups.get_mut(&p) {
                pg.children.retain(|c| *c != id);
            }
        }
        true
    }

    pub fn set_limit(&mut self, id: CgroupId, limit: Option<u64>) -> bool {
        match self.groups.get_mut(&id) {
            Some(g) => {
                g.limit = limit;
                true
            }
            None => false,
        }
    }

    pub fn limit(&self, id: CgroupId) -> Option<u64> {
        self.groups.get(&id).and_then(|g| g.limit)
    }

    /// Set `cpu.max` as `(quota_ns, period_ns)`. A zero quota or period is
    /// rejected (Linux requires both positive); `None` lifts the limit.
    pub fn set_cpu_max(&mut self, id: CgroupId, cpu_max: Option<(u64, u64)>) -> bool {
        if let Some((q, p)) = cpu_max {
            if q == 0 || p == 0 {
                return false;
            }
        }
        match self.groups.get_mut(&id) {
            Some(g) => {
                g.cpu_max = cpu_max;
                true
            }
            None => false,
        }
    }

    /// The most restrictive `cpu.max` on the path to root (lowest
    /// quota/period ratio), with the cgroup it is set on.
    pub fn effective_cpu_max(&self, id: CgroupId) -> Option<(CgroupId, u64, u64)> {
        let mut best: Option<(CgroupId, u64, u64)> = None;
        let mut cur = Some(id);
        while let Some(c) = cur {
            let g = self.groups.get(&c)?;
            if let Some((q, p)) = g.cpu_max {
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
    pub fn charge_cpu(&mut self, id: CgroupId, cpu_ns: u64) -> u64 {
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
        let g = self.groups.get_mut(&limiter).expect("limiter found by ancestor walk");
        g.nr_cpu_throttled += 1;
        g.cpu_throttled_ns += sleep;
        sleep
    }

    /// Set the cold-read byte budget per [`IO_WINDOW_NS`]; `None` lifts it.
    pub fn set_io_read_budget(&mut self, id: CgroupId, budget: Option<u64>) -> bool {
        match self.groups.get_mut(&id) {
            Some(g) => {
                g.io_read_budget = budget;
                g.io_window_start_ns = 0;
                g.io_window_bytes = 0;
                true
            }
            None => false,
        }
    }

    pub fn io_read_budget(&self, id: CgroupId) -> Option<u64> {
        self.groups.get(&id).and_then(|g| g.io_read_budget)
    }

    /// Account `bytes` of cold page-cache read by `id` at simulated instant
    /// `now_ns`. Cold bytes accumulate subtree-inclusively (like memory
    /// charges); the nearest io budget on the path to root admits bytes
    /// against its current window and defers the excess. Returns the
    /// deferred (throttled) byte count — 0 when no budget is set.
    pub fn charge_io_cold(&mut self, id: CgroupId, bytes: u64, now_ns: u64) -> u64 {
        if !self.groups.contains_key(&id) || bytes == 0 {
            return 0;
        }
        let mut budget_owner = None;
        let mut cur = Some(id);
        while let Some(c) = cur {
            let g = self.groups.get_mut(&c).expect("ancestor exists");
            g.io_cold_bytes += bytes;
            if budget_owner.is_none() && g.io_read_budget.is_some() {
                budget_owner = Some(c);
            }
            cur = g.parent;
        }
        let Some(owner) = budget_owner else { return 0 };
        let g = self.groups.get_mut(&owner).expect("owner found by ancestor walk");
        let budget = g.io_read_budget.expect("owner has a budget");
        if now_ns.saturating_sub(g.io_window_start_ns) >= IO_WINDOW_NS {
            g.io_window_start_ns = now_ns;
            g.io_window_bytes = 0;
        }
        let admitted = bytes.min(budget.saturating_sub(g.io_window_bytes));
        g.io_window_bytes += admitted;
        let throttled = bytes - admitted;
        if throttled > 0 {
            g.io_throttle_events += 1;
        }
        throttled
    }

    /// Record `ns` of io queueing delay, subtree-inclusively.
    pub fn record_io_queue(&mut self, id: CgroupId, ns: u64) {
        let mut cur = Some(id);
        while let Some(c) = cur {
            let Some(g) = self.groups.get_mut(&c) else { break };
            g.io_queued_ns += ns;
            cur = g.parent;
        }
    }

    /// Full controller snapshot for one cgroup.
    pub fn stats(&self, id: CgroupId) -> Option<CgroupStats> {
        let g = self.groups.get(&id)?;
        Some(CgroupStats {
            mem: g.stat,
            oom_events: g.oom_events,
            cpu_max: g.cpu_max,
            nr_cpu_throttled: g.nr_cpu_throttled,
            cpu_throttled_ns: g.cpu_throttled_ns,
            io_read_budget: g.io_read_budget,
            io_cold_bytes: g.io_cold_bytes,
            io_throttle_events: g.io_throttle_events,
            io_queued_ns: g.io_queued_ns,
        })
    }

    pub fn stat(&self, id: CgroupId) -> Option<MemStat> {
        self.groups.get(&id).map(|g| g.stat)
    }

    /// Mapped file bytes in the subtree (the non-reclaimable file share).
    pub fn mapped_file(&self, id: CgroupId) -> Option<u64> {
        self.groups.get(&id).map(|g| g.mapped_file)
    }

    /// Metrics-server working set for a cgroup.
    pub fn working_set(&self, id: CgroupId) -> Option<u64> {
        let g = self.groups.get(&id)?;
        Some(g.stat.working_set(g.mapped_file))
    }

    pub fn oom_events(&self, id: CgroupId) -> Option<u64> {
        self.groups.get(&id).map(|g| g.oom_events)
    }

    pub fn name(&self, id: CgroupId) -> Option<&str> {
        self.groups.get(&id).map(|g| g.name.as_str())
    }

    pub fn parent(&self, id: CgroupId) -> Option<CgroupId> {
        self.groups.get(&id).and_then(|g| g.parent)
    }

    pub fn children(&self, id: CgroupId) -> Vec<CgroupId> {
        self.groups.get(&id).map(|g| g.children.clone()).unwrap_or_default()
    }

    /// Number of processes directly in this cgroup (0 if it does not exist).
    pub fn procs(&self, id: CgroupId) -> u64 {
        self.groups.get(&id).map_or(0, |g| g.procs)
    }

    pub fn proc_attached(&mut self, id: CgroupId) {
        if let Some(g) = self.groups.get_mut(&id) {
            g.procs += 1;
        }
    }

    pub fn proc_detached(&mut self, id: CgroupId) {
        if let Some(g) = self.groups.get_mut(&id) {
            g.procs = g.procs.saturating_sub(1);
        }
    }

    /// Would charging `bytes` to `id` exceed any limit on the path to root?
    /// Returns the first offending cgroup and its limit.
    pub fn check_limit(&self, id: CgroupId, bytes: u64) -> Option<(CgroupId, u64)> {
        let mut cur = Some(id);
        while let Some(c) = cur {
            let g = self.groups.get(&c)?;
            if let Some(lim) = g.limit {
                if g.stat.current.saturating_add(bytes) > lim {
                    return Some((c, lim));
                }
            }
            cur = g.parent;
        }
        None
    }

    pub fn record_oom(&mut self, id: CgroupId) {
        if let Some(g) = self.groups.get_mut(&id) {
            g.oom_events += 1;
        }
    }

    /// Charge `bytes` of `kind` to `id` and all its ancestors.
    /// The caller is responsible for limit checks (via [`CgroupTree::check_limit`]).
    pub fn charge(&mut self, id: CgroupId, kind: ChargeKind, bytes: u64) -> bool {
        if !self.groups.contains_key(&id) {
            return false;
        }
        let mut cur = Some(id);
        while let Some(c) = cur {
            let g = self.groups.get_mut(&c).expect("ancestor exists");
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
    pub fn uncharge(&mut self, id: CgroupId, kind: ChargeKind, bytes: u64) -> bool {
        if !self.groups.contains_key(&id) {
            return false;
        }
        let mut cur = Some(id);
        while let Some(c) = cur {
            let g = self.groups.get_mut(&c).expect("ancestor exists");
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

    /// Adjust the subtree's mapped-file counter (can be negative).
    pub fn adjust_mapped_file(&mut self, id: CgroupId, delta: i64) {
        let mut cur = Some(id);
        while let Some(c) = cur {
            let Some(g) = self.groups.get_mut(&c) else { break };
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

    #[test]
    fn hierarchy_charge_propagates() {
        let mut t = CgroupTree::new();
        let pods = t.create(t.root(), "kubepods").unwrap();
        let pod = t.create(pods, "pod-1").unwrap();
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
        let cg = t.create(t.root(), "c").unwrap();
        t.charge(cg, ChargeKind::Anon, 10_000);
        t.charge(cg, ChargeKind::File, 8_000);
        t.adjust_mapped_file(cg, 3_000);
        // current = 18_000; reclaimable file = 8000 - 3000 = 5000.
        assert_eq!(t.working_set(cg).unwrap(), 13_000);
    }

    #[test]
    fn limits_are_hierarchical() {
        let mut t = CgroupTree::new();
        let parent = t.create(t.root(), "p").unwrap();
        let child = t.create(parent, "c").unwrap();
        t.set_limit(parent, Some(8192));
        assert!(t.check_limit(child, 4096).is_none());
        t.charge(child, ChargeKind::Anon, 8192);
        let (victim, lim) = t.check_limit(child, 1).unwrap();
        assert_eq!(victim, parent);
        assert_eq!(lim, 8192);
    }

    #[test]
    fn removal_rules() {
        let mut t = CgroupTree::new();
        let g = t.create(t.root(), "g").unwrap();
        t.proc_attached(g);
        assert!(!t.remove(g), "non-empty cgroup must not be removable");
        t.proc_detached(g);
        t.charge(g, ChargeKind::File, 100);
        assert!(!t.remove(g), "charged cgroup must not be removable");
        t.uncharge(g, ChargeKind::File, 100);
        assert!(t.remove(g));
        assert!(!t.remove(t.root()), "root is permanent");
    }

    #[test]
    fn oom_events_recorded() {
        let mut t = CgroupTree::new();
        let g = t.create(t.root(), "g").unwrap();
        assert_eq!(t.oom_events(g), Some(0));
        t.record_oom(g);
        t.record_oom(g);
        assert_eq!(t.oom_events(g), Some(2));
    }

    #[test]
    fn cpu_max_throttles_and_records() {
        let mut t = CgroupTree::new();
        let g = t.create(t.root(), "g").unwrap();
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
        let parent = t.create(t.root(), "p").unwrap();
        let child = t.create(parent, "c").unwrap();
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
        let g = t.create(t.root(), "g").unwrap();
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
        let parent = t.create(t.root(), "p").unwrap();
        let child = t.create(parent, "c").unwrap();
        t.record_io_queue(child, 500);
        assert_eq!(t.stats(child).unwrap().io_queued_ns, 500);
        assert_eq!(t.stats(parent).unwrap().io_queued_ns, 500);
    }

    #[test]
    fn mapped_file_adjustment_saturates() {
        let mut t = CgroupTree::new();
        let g = t.create(t.root(), "g").unwrap();
        t.adjust_mapped_file(g, 100);
        t.adjust_mapped_file(g, -500);
        assert_eq!(t.mapped_file(g).unwrap(), 0);
    }
}
