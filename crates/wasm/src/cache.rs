//! Process-wide content-addressed module-artifact cache.
//!
//! Every simulated engine decodes + validates the same workload module
//! bytes for every container it starts. On the *simulated* side that work
//! is correctly charged per container (each container's DES task pays the
//! decode/validate steps), but on the *host* side re-decoding an identical
//! module hundreds of times per experiment grid cell is pure waste. This
//! cache shares one decoded, validated [`Module`] per distinct byte string
//! across all clusters and worker threads in the process.
//!
//! Keys are FNV-1a content hashes; each bucket stores the full original
//! bytes so hash collisions degrade to byte comparison, never to a wrong
//! module. Hit/miss counters are exposed through [`CacheStats`] so the
//! harness can assert cache effectiveness (the experiment grids reuse a
//! handful of workload images across hundreds of containers, so hit rates
//! above 90% are expected and tested).
//!
//! Hashing a module costs more host time than instantiating it, and every
//! container of an image hands in a clone of the same buffer, so a buffer
//! is hashed on first sight only: after that it is recognised by the
//! identity of its [`Bytes`] view, address and length. That is sound
//! because `Bytes` is immutable and the identity entry owns a clone of the
//! buffer it describes: the allocation cannot be freed, so its address
//! cannot be reused for other contents, while the entry lives. Equal
//! contents in a different allocation miss the identity map, hash once,
//! and land on the same `Arc<Module>`. The content key travels with the
//! module ([`ArtifactCache::get_or_decode_keyed`]), so a caller that names
//! something after the module's contents (the Wasmtime code cache) never
//! hashes for itself. An identity entry pins its buffer until [`clear`]:
//! one entry per distinct allocation ever looked up, which for the
//! memoised workload modules is one per module.
//!
//! Both maps are sharded into [`STRIPES`] independently locked stripes —
//! the content map by the low bits of the content hash, the identity map
//! by a mix of the address — so parallel grid workers touching different
//! modules never serialize on one global mutex. The (rare) occasions two
//! workers *do* collide on a stripe are counted in
//! [`CacheStats::lock_contentions`] — a driver-scaling canary the harness
//! can watch.
//!
//! [`clear`]: ArtifactCache::clear
//!
//! Modules returned by [`ArtifactCache::get_or_decode`] are **validated**:
//! callers may instantiate them through
//! [`Instance::instantiate_prevalidated`](crate::Instance::instantiate_prevalidated)
//! to skip the per-instance re-validation pass.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use bytelite::Bytes;

use crate::error::{DecodeError, ValidationError};
use crate::module::Module;

/// FNV-1a over the module bytes: cheap, deterministic, good dispersion for
/// content addressing (the same scheme the simulated Wasmtime code cache
/// uses on the DES side).
pub fn content_hash(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Why a module could not enter the cache.
#[derive(Debug)]
pub enum ArtifactError {
    Decode(DecodeError),
    Invalid(ValidationError),
}

impl std::fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArtifactError::Decode(e) => write!(f, "module failed to decode: {e}"),
            ArtifactError::Invalid(e) => write!(f, "module failed validation: {e}"),
        }
    }
}

impl std::error::Error for ArtifactError {}

/// Snapshot of cache effectiveness counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    /// Times a worker found its stripe's lock already held and had to
    /// wait. Zero in serial runs; should stay near zero in parallel ones.
    pub lock_contentions: u64,
    /// Bytes fed to [`content_hash`]: the length of every buffer seen for
    /// the first time. A process that starts ten thousand pods of one
    /// image hashes one module's worth.
    pub hashed_bytes: u64,
}

impl CacheStats {
    /// Hits over total lookups, in `[0, 1]`; `0` before any lookup.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Lock stripes in the cache map. A power of two so stripe selection is a
/// mask of the content hash; 16 is comfortably above any worker count the
/// harness spawns.
pub(crate) const STRIPES: usize = 16;

type Shard = HashMap<u64, Vec<(Bytes, Arc<Module>)>>;

/// A buffer the cache has already hashed. `_pin` keeps the allocation the
/// identity describes alive, which is what makes the identity a name for
/// its contents.
struct Seen {
    _pin: Bytes,
    key: u64,
    module: Arc<Module>,
}

/// (address, length) of a `Bytes` view → what that view holds.
type Views = HashMap<(usize, usize), Seen>;

/// A content-addressed map from module bytes to decoded+validated modules.
pub struct ArtifactCache {
    /// hash → entries with that hash, sharded by `hash & (STRIPES - 1)`.
    /// Collisions are resolved by comparing the stored bytes, so two
    /// distinct modules never alias.
    stripes: [Mutex<Shard>; STRIPES],
    /// The identity fast path in front of `stripes`.
    views: [Mutex<Views>; STRIPES],
    hits: AtomicU64,
    misses: AtomicU64,
    contentions: AtomicU64,
    hashed_bytes: AtomicU64,
}

impl Default for ArtifactCache {
    fn default() -> Self {
        ArtifactCache {
            stripes: std::array::from_fn(|_| Mutex::new(HashMap::new())),
            views: std::array::from_fn(|_| Mutex::new(HashMap::new())),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            contentions: AtomicU64::new(0),
            hashed_bytes: AtomicU64::new(0),
        }
    }
}

impl ArtifactCache {
    pub(crate) fn new() -> ArtifactCache {
        ArtifactCache::default()
    }

    /// Lock the stripe of `map` that `selector` falls on, counting the
    /// contended acquisitions.
    fn stripe<'a, T>(
        &self,
        map: &'a [Mutex<T>; STRIPES],
        selector: u64,
    ) -> std::sync::MutexGuard<'a, T> {
        let m = &map[(selector & (STRIPES as u64 - 1)) as usize];
        match m.try_lock() {
            Ok(guard) => guard,
            Err(std::sync::TryLockError::WouldBlock) => {
                self.contentions.fetch_add(1, Ordering::Relaxed);
                m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
            }
            Err(std::sync::TryLockError::Poisoned(e)) => e.into_inner(),
        }
    }

    /// The process-wide cache shared by every engine and worker thread.
    pub fn global() -> &'static ArtifactCache {
        static GLOBAL: OnceLock<ArtifactCache> = OnceLock::new();
        GLOBAL.get_or_init(ArtifactCache::new)
    }

    /// Look up `bytes`, decoding and validating on first sight. Returns a
    /// shared handle to the one `Module` for this byte string.
    pub fn get_or_decode(&self, bytes: &Bytes) -> Result<Arc<Module>, ArtifactError> {
        self.get_or_decode_keyed(bytes).map(|(_, module)| module)
    }

    /// [`get_or_decode`](ArtifactCache::get_or_decode), with the content
    /// key the module is filed under: [`content_hash`] of `bytes`, computed
    /// the first time this buffer was seen and remembered since.
    pub fn get_or_decode_keyed(&self, bytes: &Bytes) -> Result<(u64, Arc<Module>), ArtifactError> {
        let view = (bytes.as_ptr() as usize, bytes.len());
        // Allocation addresses share their low (alignment) and high bits;
        // a multiplicative mix spreads them over the stripes.
        let mut views =
            self.stripe(&self.views, (view.0 as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 60);
        if let Some(seen) = views.get(&view) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok((seen.key, Arc::clone(&seen.module)));
        }
        // First sight of this buffer, under its identity stripe's lock: a
        // second worker handed the same buffer waits here and then takes
        // the fast path, so a buffer is hashed (and decoded) exactly once.
        self.hashed_bytes.fetch_add(bytes.len() as u64, Ordering::Relaxed);
        let key = content_hash(bytes);
        let module = self.by_content(key, bytes)?;
        views.insert(view, Seen { _pin: bytes.clone(), key, module: Arc::clone(&module) });
        Ok((key, module))
    }

    /// The content-addressed lookup behind the identity fast path.
    fn by_content(&self, key: u64, bytes: &Bytes) -> Result<Arc<Module>, ArtifactError> {
        let found = self
            .stripe(&self.stripes, key)
            .get(&key)
            .and_then(|bucket| bucket.iter().find(|(b, _)| b == bytes))
            .map(|(_, m)| Arc::clone(m));
        if let Some(found) = found {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(found);
        }
        // Decode outside the content lock: misses are rare and decoding
        // under it would serialize workers whose modules share a stripe.
        let module = crate::decode::decode_module(bytes.clone()).map_err(ArtifactError::Decode)?;
        crate::validate::validate_module(&module).map_err(ArtifactError::Invalid)?;
        let module = Arc::new(module);
        let mut shard = self.stripe(&self.stripes, key);
        let bucket = shard.entry(key).or_default();
        // Another worker may have decoded equal bytes from another
        // allocation concurrently; keep the first entry so every caller
        // shares one Arc.
        if let Some((_, existing)) = bucket.iter().find(|(b, _)| b == bytes) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(existing));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        bucket.push((bytes.clone(), Arc::clone(&module)));
        Ok(module)
    }

    /// Number of distinct modules cached.
    pub fn len(&self) -> usize {
        self.stripes
            .iter()
            .map(|m| {
                let shard = m.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                shard.values().map(Vec::len).sum::<usize>()
            })
            .sum()
    }

    /// Hit/miss counters since construction (or [`reset_stats`]).
    ///
    /// [`reset_stats`]: ArtifactCache::reset_stats
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            lock_contentions: self.contentions.load(Ordering::Relaxed),
            hashed_bytes: self.hashed_bytes.load(Ordering::Relaxed),
        }
    }

    /// Zero the counters (entries stay). Lets tests measure the hit rate
    /// of one workload phase in isolation.
    pub(crate) fn reset_stats(&self) {
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.contentions.store(0, Ordering::Relaxed);
        self.hashed_bytes.store(0, Ordering::Relaxed);
    }

    /// Drop all entries — the remembered buffer identities with the
    /// modules — and counters.
    pub fn clear(&self) {
        for m in &self.views {
            m.lock().unwrap_or_else(std::sync::PoisonError::into_inner).clear();
        }
        for m in &self.stripes {
            m.lock().unwrap_or_else(std::sync::PoisonError::into_inner).clear();
        }
        self.reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::types::FuncType;
    use crate::ValType;

    fn module_bytes(marker: i32) -> Bytes {
        let mut b = ModuleBuilder::new();
        let f = b.func(FuncType::new(vec![], vec![ValType::I32]), |f| {
            f.i32_const(marker);
        });
        b.export_func("f", f);
        Bytes::from(crate::encode::encode_module(&b.build()))
    }

    #[test]
    fn same_bytes_share_one_module() {
        let cache = ArtifactCache::new();
        let bytes = module_bytes(7);
        let a = cache.get_or_decode(&bytes).unwrap();
        let b = cache.get_or_decode(&bytes.clone()).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "same bytes must yield the same Arc");
        let hashed_bytes = bytes.len() as u64;
        assert_eq!(
            cache.stats(),
            CacheStats { hits: 1, misses: 1, lock_contentions: 0, hashed_bytes }
        );
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn equal_contents_in_another_allocation_share_the_module() {
        let cache = ArtifactCache::new();
        let bytes = module_bytes(7);
        let copy = Bytes::copy_from_slice(&bytes);
        assert_ne!(bytes.as_ptr(), copy.as_ptr());
        let (key_a, a) = cache.get_or_decode_keyed(&bytes).unwrap();
        let (key_b, b) = cache.get_or_decode_keyed(&copy).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "equal contents must yield the same Arc");
        assert_eq!((key_a, key_b), (content_hash(&bytes), content_hash(&bytes)));
        // Each allocation was hashed on first sight and never again.
        for _ in 0..5 {
            assert_eq!(cache.get_or_decode_keyed(&bytes).unwrap().0, key_a);
            assert_eq!(cache.get_or_decode_keyed(&copy.clone()).unwrap().0, key_a);
        }
        let hashed_bytes = 2 * bytes.len() as u64;
        assert_eq!(
            cache.stats(),
            CacheStats { hits: 11, misses: 1, lock_contentions: 0, hashed_bytes }
        );
        assert_eq!(cache.len(), 1);
    }

    /// The allocator is free to hand a dropped buffer's address to the next
    /// allocation of the same size. The cache keeps a clone of every buffer
    /// whose identity it remembers, so that cannot happen to a remembered
    /// address. The content map pins the first buffer of each module on its
    /// own; a second allocation of cached contents is pinned by nothing but
    /// its identity entry, so that is the buffer dropped here.
    #[test]
    fn a_reused_address_cannot_alias_another_module() {
        let cache = ArtifactCache::new();
        let original = module_bytes(0);
        cache.get_or_decode(&original).unwrap();
        for marker in 1..64 {
            let copy = Bytes::copy_from_slice(&original);
            cache.get_or_decode(&copy).unwrap();
            drop(copy);
            let bytes = module_bytes(marker);
            assert_eq!(bytes.len(), original.len(), "same size class as the dropped copy");
            let module = cache.get_or_decode(&bytes).unwrap();
            drop(bytes);
            let mut inst = crate::Instance::instantiate_prevalidated(
                module,
                crate::Imports::new(),
                crate::InstanceConfig::default(),
            )
            .unwrap();
            assert_eq!(inst.invoke("f", &[]).unwrap(), vec![crate::Value::I32(marker)]);
        }
        assert_eq!(cache.len(), 64);
    }

    #[test]
    fn clear_forgets_buffer_identities() {
        let cache = ArtifactCache::new();
        let bytes = module_bytes(5);
        let before = cache.get_or_decode(&bytes).unwrap();
        cache.clear();
        assert_eq!(cache.len(), 0);
        let after = cache.get_or_decode(&bytes).unwrap();
        assert!(!Arc::ptr_eq(&before, &after), "a cleared cache decodes again");
        let hashed_bytes = bytes.len() as u64;
        assert_eq!(
            cache.stats(),
            CacheStats { hits: 0, misses: 1, lock_contentions: 0, hashed_bytes }
        );
    }

    #[test]
    fn different_bytes_get_distinct_entries() {
        let cache = ArtifactCache::new();
        let a = cache.get_or_decode(&module_bytes(1)).unwrap();
        let b = cache.get_or_decode(&module_bytes(2)).unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        let hashed_bytes = 2 * module_bytes(1).len() as u64;
        assert_eq!(
            cache.stats(),
            CacheStats { hits: 0, misses: 2, lock_contentions: 0, hashed_bytes }
        );
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn invalid_modules_are_not_cached() {
        let cache = ArtifactCache::new();
        let garbage = Bytes::from(&b"\x00asm\x01\x00\x00\x00\xff"[..]);
        assert!(cache.get_or_decode(&garbage).is_err());
        assert_eq!(cache.len(), 0);
        // Hashed, found invalid, and not remembered: a retry hashes again.
        assert!(cache.get_or_decode(&garbage).is_err());
        let hashed_bytes = 2 * garbage.len() as u64;
        assert_eq!(cache.stats(), CacheStats { hashed_bytes, ..CacheStats::default() });
    }

    #[test]
    fn hit_rate_reflects_reuse() {
        let cache = ArtifactCache::new();
        let bytes = module_bytes(3);
        for _ in 0..10 {
            cache.get_or_decode(&bytes).unwrap();
        }
        assert!(cache.stats().hit_rate() >= 0.9);
        cache.reset_stats();
        assert_eq!(cache.stats(), CacheStats::default());
    }

    #[test]
    fn striping_spreads_entries_and_counts_no_serial_contention() {
        let cache = ArtifactCache::new();
        // Enough distinct modules that at least two land on different
        // stripes (keys are content hashes, stripes the low 4 bits).
        let mut stripes_hit = std::collections::HashSet::new();
        for marker in 0..32 {
            let bytes = module_bytes(marker);
            stripes_hit.insert(content_hash(&bytes) & (STRIPES as u64 - 1));
            cache.get_or_decode(&bytes).unwrap();
        }
        assert!(stripes_hit.len() > 1, "32 hashes should span multiple stripes");
        assert_eq!(cache.len(), 32);
        // Single-threaded use never waits on a stripe lock.
        assert_eq!(cache.stats().lock_contentions, 0);
        cache.clear();
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn parallel_lookups_share_entries_across_stripes() {
        let cache = ArtifactCache::new();
        let all: Vec<Bytes> = (0..8).map(module_bytes).collect();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for bytes in &all {
                        cache.get_or_decode(bytes).unwrap();
                    }
                });
            }
        });
        // Exactly one miss per distinct module regardless of interleaving.
        assert_eq!(cache.len(), 8);
        assert_eq!(cache.stats().misses, 8);
        assert_eq!(cache.stats().hits, 4 * 8 - 8);
    }

    #[test]
    fn cached_modules_instantiate_prevalidated() {
        let cache = ArtifactCache::new();
        let module = cache.get_or_decode(&module_bytes(11)).unwrap();
        let mut inst = crate::Instance::instantiate_prevalidated(
            module,
            crate::Imports::new(),
            crate::InstanceConfig::default(),
        )
        .unwrap();
        let out = inst.invoke("f", &[]).unwrap();
        assert_eq!(out, vec![crate::Value::I32(11)]);
    }
}
