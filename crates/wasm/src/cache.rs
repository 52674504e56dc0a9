//! Process-wide content-addressed module-artifact cache.
//!
//! Every simulated engine decodes + validates the same workload module
//! bytes for every container it starts. On the *simulated* side that work
//! is correctly charged per container (each container's DES task pays the
//! decode/validate steps), but on the *host* side re-decoding an identical
//! module hundreds of times per experiment grid cell is pure waste. This
//! cache shares one decoded, validated [`Module`] per distinct byte string
//! across all clusters (and test threads) in the process.
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
//! Both maps and the counters sit behind one mutex. A lookup holds it for
//! a hash probe; a miss, once per distinct module, holds it while it
//! decodes and validates, so a module is decoded exactly once however many
//! test threads ask for it at the same time. The times a lookup found the
//! lock held are counted in [`CacheStats::lock_contentions`].
//!
//! [`clear`]: ArtifactCache::clear
//!
//! Modules returned by [`ArtifactCache::get_or_decode`] are **validated**:
//! callers may instantiate them through
//! [`Instance::instantiate_prevalidated`](crate::Instance::instantiate_prevalidated)
//! to skip the per-instance re-validation pass.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError, TryLockError};

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
    /// Times a lookup found the cache's lock already held and had to wait.
    /// Zero in serial runs; should stay near zero in parallel ones.
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

/// A buffer the cache has already hashed. `_pin` keeps the allocation the
/// identity describes alive, which is what makes the identity a name for
/// its contents.
struct Seen {
    _pin: Bytes,
    key: u64,
    module: Arc<Module>,
}

/// Everything behind the cache's one lock.
#[derive(Default)]
struct Maps {
    /// (address, length) of a `Bytes` view → what that view holds: the
    /// identity fast path in front of `contents`.
    views: HashMap<(usize, usize), Seen>,
    /// Content hash → entries with that hash. Collisions are resolved by
    /// comparing the stored bytes, so two distinct modules never alias.
    contents: HashMap<u64, Vec<(Bytes, Arc<Module>)>>,
    stats: CacheStats,
}

/// A content-addressed map from module bytes to decoded+validated modules.
#[derive(Default)]
pub struct ArtifactCache {
    maps: Mutex<Maps>,
}

impl ArtifactCache {
    fn maps(&self) -> MutexGuard<'_, Maps> {
        self.maps.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The process-wide cache shared by every engine and test thread.
    pub fn global() -> &'static ArtifactCache {
        static GLOBAL: OnceLock<ArtifactCache> = OnceLock::new();
        GLOBAL.get_or_init(ArtifactCache::default)
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
        let mut guard = match self.maps.try_lock() {
            Ok(guard) => guard,
            Err(TryLockError::WouldBlock) => {
                let mut guard = self.maps();
                guard.stats.lock_contentions += 1;
                guard
            }
            Err(TryLockError::Poisoned(e)) => e.into_inner(),
        };
        let maps = &mut *guard;
        let view = (bytes.as_ptr() as usize, bytes.len());
        if let Some(seen) = maps.views.get(&view) {
            maps.stats.hits += 1;
            return Ok((seen.key, Arc::clone(&seen.module)));
        }
        // First sight of this buffer: hash it, then find its contents or
        // decode them, all under the lock, so a buffer is hashed and its
        // contents decoded exactly once.
        maps.stats.hashed_bytes += bytes.len() as u64;
        let key = content_hash(bytes);
        let found = maps
            .contents
            .get(&key)
            .and_then(|bucket| bucket.iter().find(|(b, _)| b == bytes))
            .map(|(_, m)| Arc::clone(m));
        let module = match found {
            Some(module) => {
                maps.stats.hits += 1;
                module
            }
            None => {
                let module =
                    crate::decode::decode_module(bytes.clone()).map_err(ArtifactError::Decode)?;
                crate::validate::validate_module(&module).map_err(ArtifactError::Invalid)?;
                let module = Arc::new(module);
                maps.stats.misses += 1;
                maps.contents.entry(key).or_default().push((bytes.clone(), Arc::clone(&module)));
                module
            }
        };
        maps.views.insert(view, Seen { _pin: bytes.clone(), key, module: Arc::clone(&module) });
        Ok((key, module))
    }

    /// Number of distinct modules cached.
    pub fn len(&self) -> usize {
        self.maps().contents.values().map(Vec::len).sum()
    }

    /// Hit/miss counters since construction (or [`clear`]).
    ///
    /// [`clear`]: ArtifactCache::clear
    pub fn stats(&self) -> CacheStats {
        self.maps().stats
    }

    /// Drop all entries — the remembered buffer identities with the
    /// modules — and counters.
    pub fn clear(&self) {
        *self.maps() = Maps::default();
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
        let cache = ArtifactCache::default();
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
        let cache = ArtifactCache::default();
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
        let cache = ArtifactCache::default();
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
        let cache = ArtifactCache::default();
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
        let cache = ArtifactCache::default();
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
        let cache = ArtifactCache::default();
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
        let cache = ArtifactCache::default();
        let bytes = module_bytes(3);
        for _ in 0..10 {
            cache.get_or_decode(&bytes).unwrap();
        }
        assert!(cache.stats().hit_rate() >= 0.9);
        cache.clear();
        assert_eq!(cache.stats(), CacheStats::default());
    }

    #[test]
    fn serial_lookups_never_wait_on_the_lock() {
        let cache = ArtifactCache::default();
        for marker in 0..32 {
            cache.get_or_decode(&module_bytes(marker)).unwrap();
        }
        assert_eq!(cache.len(), 32);
        assert_eq!(cache.stats().lock_contentions, 0);
        cache.clear();
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn parallel_lookups_share_entries() {
        let cache = ArtifactCache::default();
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
        let cache = ArtifactCache::default();
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
