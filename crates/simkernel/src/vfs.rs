//! A minimal virtual filesystem with page-cache accounting.
//!
//! Files either carry real bytes (Wasm modules, Python scripts, OCI config
//! JSON — content other subsystems actually parse and execute) or are
//! *synthetic*: a size-only stand-in for large binaries we model but do not
//! execute (e.g. the 40 MB Wasmer shared library). Both kinds participate
//! identically in page-cache accounting, which is what the memory
//! experiments observe.

use std::collections::BTreeMap;

use bytelite::Bytes;

use crate::cgroup::CgroupId;

/// Identifier of a file in the VFS.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FileId(pub u64);

/// File contents: real bytes or a synthetic size.
#[derive(Debug, Clone, PartialEq)]
pub enum FileContent {
    /// Real bytes; `len` is the file size.
    Bytes(Bytes),
    /// Size-only stand-in for binaries we model but never parse.
    Synthetic(u64),
}

impl FileContent {
    pub fn len(&self) -> u64 {
        match self {
            FileContent::Bytes(b) => b.len() as u64,
            FileContent::Synthetic(n) => *n,
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Real bytes if present.
    pub fn bytes(&self) -> Option<&Bytes> {
        match self {
            FileContent::Bytes(b) => Some(b),
            FileContent::Synthetic(_) => None,
        }
    }
}

/// A file plus its page-cache state.
#[derive(Debug, Clone)]
pub struct File {
    pub id: FileId,
    pub path: String,
    pub content: FileContent,
    /// Bytes of this file currently resident in the page cache. Private:
    /// [`Vfs`] is the only writer, so its running total cannot drift.
    cached_bytes: u64,
    /// The cgroup charged for the cached pages (Linux first-toucher rule).
    pub charged_to: Option<CgroupId>,
    /// Number of live shared mappings of this file. Cached pages of files
    /// with `map_refs == 0` are evictable under memory pressure.
    pub map_refs: u64,
}

impl File {
    pub fn size(&self) -> u64 {
        self.content.len()
    }

    /// Bytes of this file currently resident in the page cache.
    pub fn cached_bytes(&self) -> u64 {
        self.cached_bytes
    }
}

/// The filesystem: a flat, sorted path namespace (directories are implicit
/// prefixes, which is all the container stack needs for bundles and images).
#[derive(Debug, Clone, Default)]
pub struct Vfs {
    next_id: u64,
    files: BTreeMap<FileId, File>,
    by_path: BTreeMap<String, FileId>,
    /// Running sum of every file's `cached_bytes`.
    cached_total: u64,
}

impl Vfs {
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a file. Returns `None` if the path already exists.
    pub fn create(&mut self, path: &str, content: FileContent) -> Option<FileId> {
        if self.by_path.contains_key(path) {
            return None;
        }
        let id = FileId(self.next_id);
        self.next_id += 1;
        self.files.insert(
            id,
            File {
                id,
                path: path.to_string(),
                content,
                cached_bytes: 0,
                charged_to: None,
                map_refs: 0,
            },
        );
        self.by_path.insert(path.to_string(), id);
        Some(id)
    }

    /// Replace the contents of an existing file, dropping its cache.
    /// Returns the evicted bytes and the cgroup they were charged to.
    pub fn overwrite(
        &mut self,
        id: FileId,
        content: FileContent,
    ) -> Option<(u64, Option<CgroupId>)> {
        let evicted = self.evict(id)?;
        self.files.get_mut(&id)?.content = content;
        Some(evicted)
    }

    /// Set a file's resident bytes (a fault brought pages in).
    pub fn set_cached(&mut self, id: FileId, bytes: u64) -> Option<()> {
        let f = self.files.get_mut(&id)?;
        self.cached_total = self.cached_total - f.cached_bytes + bytes;
        f.cached_bytes = bytes;
        Some(())
    }

    /// Drop a file's page cache. Returns the evicted bytes and the cgroup
    /// they were charged to (the caller uncharges it).
    pub fn evict(&mut self, id: FileId) -> Option<(u64, Option<CgroupId>)> {
        let f = self.files.get_mut(&id)?;
        let evicted = std::mem::take(&mut f.cached_bytes);
        self.cached_total -= evicted;
        Some((evicted, f.charged_to.take()))
    }

    pub fn get(&self, id: FileId) -> Option<&File> {
        self.files.get(&id)
    }

    pub fn get_mut(&mut self, id: FileId) -> Option<&mut File> {
        self.files.get_mut(&id)
    }

    pub fn lookup(&self, path: &str) -> Option<FileId> {
        self.by_path.get(path).copied()
    }

    /// Remove a file; returns the bytes that were cached (for uncharging).
    pub fn remove(&mut self, id: FileId) -> Option<(File, u64)> {
        let f = self.files.remove(&id)?;
        self.by_path.remove(&f.path);
        let cached = f.cached_bytes;
        self.cached_total -= cached;
        Some((f, cached))
    }

    /// All files whose path starts with `prefix`, in path order.
    pub fn list_prefix<'a>(&'a self, prefix: &'a str) -> impl Iterator<Item = &'a File> + 'a {
        self.by_path
            .range(prefix.to_string()..)
            .take_while(move |(p, _)| p.starts_with(prefix))
            .filter_map(move |(_, id)| self.files.get(id))
    }

    /// Total bytes resident in the page cache across all files.
    pub fn total_cached(&self) -> u64 {
        debug_assert_eq!(self.cached_total, self.recount_cached());
        self.cached_total
    }

    fn recount_cached(&self) -> u64 {
        self.files.values().map(|f| f.cached_bytes).sum()
    }

    /// Compare the running total against a walk over every file.
    pub(crate) fn check(&self) -> Result<(), String> {
        let walked = self.recount_cached();
        if self.cached_total == walked {
            Ok(())
        } else {
            Err(format!(
                "page cache: running total {} != {walked} summed over files",
                self.cached_total
            ))
        }
    }

    /// Files with cached pages and no live mappings, in id order
    /// (deterministic eviction order).
    pub fn evictable(&self) -> impl Iterator<Item = FileId> + '_ {
        self.files.values().filter(|f| f.map_refs == 0 && f.cached_bytes > 0).map(|f| f.id)
    }

    pub fn len(&self) -> usize {
        self.files.len()
    }

    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes(s: &str) -> FileContent {
        FileContent::Bytes(Bytes::copy_from_slice(s.as_bytes()))
    }

    #[test]
    fn create_lookup_remove() {
        let mut vfs = Vfs::new();
        let id = vfs.create("/bin/crun", FileContent::Synthetic(1 << 20)).unwrap();
        assert_eq!(vfs.lookup("/bin/crun"), Some(id));
        assert_eq!(vfs.get(id).unwrap().size(), 1 << 20);
        assert!(vfs.create("/bin/crun", FileContent::Synthetic(1)).is_none());
        let (f, cached) = vfs.remove(id).unwrap();
        assert_eq!(f.path, "/bin/crun");
        assert_eq!(cached, 0);
        assert_eq!(vfs.lookup("/bin/crun"), None);
    }

    #[test]
    fn real_content_roundtrip() {
        let mut vfs = Vfs::new();
        let id = vfs.create("/app/main.wasm", bytes("\0asm")).unwrap();
        let f = vfs.get(id).unwrap();
        assert_eq!(f.content.bytes().unwrap().as_ref(), b"\0asm");
        assert_eq!(f.size(), 4);
    }

    #[test]
    fn prefix_listing_is_sorted() {
        let mut vfs = Vfs::new();
        vfs.create("/img/b", FileContent::Synthetic(1)).unwrap();
        vfs.create("/img/a", FileContent::Synthetic(1)).unwrap();
        vfs.create("/other", FileContent::Synthetic(1)).unwrap();
        let names: Vec<_> = vfs.list_prefix("/img/").map(|f| f.path.clone()).collect();
        assert_eq!(names, vec!["/img/a", "/img/b"]);
    }

    #[test]
    fn evictable_excludes_mapped() {
        let mut vfs = Vfs::new();
        let a = vfs.create("/a", FileContent::Synthetic(8192)).unwrap();
        let b = vfs.create("/b", FileContent::Synthetic(8192)).unwrap();
        vfs.set_cached(a, 8192).unwrap();
        vfs.set_cached(b, 8192).unwrap();
        vfs.get_mut(b).unwrap().map_refs = 1;
        let ev: Vec<_> = vfs.evictable().collect();
        assert_eq!(ev, vec![a]);
        assert_eq!(vfs.total_cached(), 16384);
    }

    #[test]
    fn overwrite_drops_cache() {
        let mut vfs = Vfs::new();
        let id = vfs.create("/f", FileContent::Synthetic(4096)).unwrap();
        vfs.set_cached(id, 4096).unwrap();
        let evicted = vfs.overwrite(id, FileContent::Synthetic(100)).unwrap();
        assert_eq!(evicted, (4096, None));
        assert_eq!(vfs.get(id).unwrap().cached_bytes(), 0);
        assert_eq!(vfs.total_cached(), 0);
        assert_eq!(vfs.get(id).unwrap().size(), 100);
    }
}
