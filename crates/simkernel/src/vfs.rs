//! A minimal virtual filesystem with page-cache accounting.
//!
//! Files either carry real bytes (Wasm modules, Python scripts — content
//! other subsystems actually parse and execute) or are *synthetic*: a
//! size-only stand-in for what we model but never read the content of
//! (e.g. the 40 MB Wasmer shared library, an OCI bundle's `config.json`).
//! Both kinds participate identically in page-cache accounting, which is
//! what the memory experiments observe.

use std::hash::{BuildHasher, BuildHasherDefault, DefaultHasher};

use bytelite::Bytes;

use crate::cgroup::CgroupId;
use crate::table::IdTable;

/// Identifier of a file in the VFS.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FileId(pub u64);

/// File contents: real bytes or a synthetic size.
#[derive(Debug, Clone, PartialEq)]
pub enum FileContent {
    /// Real bytes; `len` is the file size.
    Bytes(Bytes),
    /// Size-only stand-in for content we model but never read.
    Synthetic(u64),
}

impl FileContent {
    pub fn len(&self) -> u64 {
        match self {
            FileContent::Bytes(b) => b.len() as u64,
            FileContent::Synthetic(n) => *n,
        }
    }

    /// Real bytes if present.
    pub(crate) fn bytes(&self) -> Option<&Bytes> {
        match self {
            FileContent::Bytes(b) => Some(b),
            FileContent::Synthetic(_) => None,
        }
    }
}

/// A file plus its page-cache state.
#[derive(Debug, Clone)]
pub(crate) struct File {
    pub(crate) id: FileId,
    pub(crate) path: String,
    pub(crate) content: FileContent,
    /// Bytes of this file currently resident in the page cache. Private:
    /// [`Vfs`] is the only writer, so its running total cannot drift.
    cached_bytes: u64,
    /// The cgroup charged for the cached pages (Linux first-toucher rule).
    pub(crate) charged_to: Option<CgroupId>,
    /// Number of live shared mappings of this file. Cached pages of files
    /// with `map_refs == 0` are evictable under memory pressure.
    pub(crate) map_refs: u64,
}

impl File {
    pub(crate) fn size(&self) -> u64 {
        self.content.len()
    }

    /// Bytes of this file currently resident in the page cache.
    pub(crate) fn cached_bytes(&self) -> u64 {
        self.cached_bytes
    }
}

/// The filesystem: a flat path namespace (directories are implicit
/// prefixes, which is all the container stack needs for bundles and images).
#[derive(Debug, Clone, Default)]
pub(crate) struct Vfs {
    next_id: u64,
    files: IdTable<FileId, File>,
    /// Every file's id under a 32-bit hash of its path, sorted: a lookup
    /// binary-searches one flat array of 8-byte entries and compares paths
    /// only where a hash matches. The path is stored once, in the file.
    /// Nothing walks the index, so its order reaches no output.
    by_path: Vec<(u32, u32)>,
    /// Running sum of every file's `cached_bytes`.
    cached_total: u64,
}

impl Vfs {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Create a file. Returns `None` if the path already exists.
    pub(crate) fn create(&mut self, path: &str, content: FileContent) -> Option<FileId> {
        let hash = path_hash(path);
        let at = self.find(hash, path).err()?;
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
        self.by_path.insert(at, (hash, slot(id)));
        Some(id)
    }

    /// Where `path`, of hash `hash`, is in the path index (`Ok`), or where a
    /// new file's entry for it goes (`Err`: after every entry of its hash).
    fn find(&self, hash: u32, path: &str) -> Result<usize, usize> {
        let start = self.by_path.partition_point(|&(h, _)| h < hash);
        let end = start + self.by_path[start..].partition_point(|&(h, _)| h == hash);
        let named = |e| self.files.get(file(e)).is_some_and(|f| f.path == path);
        (start..end).find(|&at| named(&self.by_path[at])).ok_or(end)
    }

    /// Replace the contents of an existing file, dropping its cache.
    /// Returns the evicted bytes and the cgroup they were charged to.
    pub(crate) fn overwrite(
        &mut self,
        id: FileId,
        content: FileContent,
    ) -> Option<(u64, Option<CgroupId>)> {
        let evicted = self.evict(id)?;
        self.files.get_mut(id)?.content = content;
        Some(evicted)
    }

    /// Set a file's resident bytes (a fault brought pages in).
    pub(crate) fn set_cached(&mut self, id: FileId, bytes: u64) -> Option<()> {
        let f = self.files.get_mut(id)?;
        self.cached_total = self.cached_total - f.cached_bytes + bytes;
        f.cached_bytes = bytes;
        Some(())
    }

    /// Drop a file's page cache. Returns the evicted bytes and the cgroup
    /// they were charged to (the caller uncharges it).
    pub(crate) fn evict(&mut self, id: FileId) -> Option<(u64, Option<CgroupId>)> {
        let f = self.files.get_mut(id)?;
        let evicted = std::mem::take(&mut f.cached_bytes);
        self.cached_total -= evicted;
        Some((evicted, f.charged_to.take()))
    }

    pub(crate) fn get(&self, id: FileId) -> Option<&File> {
        self.files.get(id)
    }

    pub(crate) fn get_mut(&mut self, id: FileId) -> Option<&mut File> {
        self.files.get_mut(id)
    }

    pub(crate) fn lookup(&self, path: &str) -> Option<FileId> {
        self.find(path_hash(path), path).ok().map(|at| file(&self.by_path[at]))
    }

    /// Remove a file; returns the bytes that were cached (for uncharging).
    pub(crate) fn remove(&mut self, id: FileId) -> Option<(File, u64)> {
        let entry = (path_hash(&self.files.get(id)?.path), slot(id));
        let at = self.by_path.binary_search(&entry).expect("every file is indexed");
        self.by_path.remove(at);
        let f = self.files.remove(id).expect("found above");
        let cached = f.cached_bytes;
        self.cached_total -= cached;
        Some((f, cached))
    }

    /// Charge every file charged to `from` to `to` instead: a removed
    /// cgroup's page cache moves to its parent.
    pub(crate) fn recharge(&mut self, from: CgroupId, to: CgroupId) {
        for f in self.files.values_mut().filter(|f| f.charged_to == Some(from)) {
            f.charged_to = Some(to);
        }
    }

    /// Total bytes resident in the page cache across all files.
    pub(crate) fn total_cached(&self) -> u64 {
        debug_assert_eq!(self.cached_total, self.recount_cached());
        self.cached_total
    }

    fn recount_cached(&self) -> u64 {
        self.files.values().map(|f| f.cached_bytes).sum()
    }

    /// Compare the running total against a walk over every file, and the
    /// path index against the files table: a bijection, sorted, each entry
    /// under its file's path hash, and each path naming one file.
    pub(crate) fn check(&self) -> Result<(), String> {
        let walked = self.recount_cached();
        if self.cached_total != walked {
            return Err(format!(
                "page cache: running total {} != {walked} summed over files",
                self.cached_total
            ));
        }
        self.files.check("files")?;
        if let Some(e) = self.by_path.iter().find(|e| !self.files.contains(file(e))) {
            return Err(format!("path index: {:?} names no file", file(e)));
        }
        if let Some(w) = self.by_path.windows(2).find(|w| w[0] >= w[1]) {
            return Err(format!("path index: {:?} is indexed out of order or twice", w[1]));
        }
        if self.by_path.len() != self.files.len() {
            return Err(format!(
                "path index: {} entries for {} files",
                self.by_path.len(),
                self.files.len()
            ));
        }
        match self.files.iter().find(|&(id, f)| f.id != id || self.lookup(&f.path) != Some(id)) {
            Some((id, f)) => {
                Err(format!("path index: {id:?} is not found under its path {:?}", f.path))
            }
            None => Ok(()),
        }
    }

    /// Files with cached pages and no live mappings, in id order
    /// (deterministic eviction order).
    pub(crate) fn evictable(&self) -> impl Iterator<Item = FileId> + '_ {
        self.files.values().filter(|f| f.map_refs == 0 && f.cached_bytes > 0).map(|f| f.id)
    }
}

/// A path's key in the index: SipHash under std's fixed keys, so the index
/// is the same in every run (the kernel draws no OS randomness).
fn path_hash(path: &str) -> u32 {
    BuildHasherDefault::<DefaultHasher>::default().hash_one(path) as u32
}

/// A file id as an index entry holds it. Ids are slots of an `IdTable`, so
/// one past 2³² would already have cost the table 32 GiB of slots.
fn slot(id: FileId) -> u32 {
    u32::try_from(id.0).expect("file ids stay below 2^32")
}

fn file(&(_, id): &(u32, u32)) -> FileId {
    FileId(id.into())
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Vfs {
        /// All files whose path starts with `prefix`, in path order.
        pub(crate) fn list_prefix(&self, prefix: &str) -> impl Iterator<Item = &File> {
            let mut listed: Vec<&File> =
                self.files.values().filter(|f| f.path.starts_with(prefix)).collect();
            listed.sort_by(|a, b| a.path.cmp(&b.path));
            listed.into_iter()
        }
    }

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

    /// Paths under one hash are told apart by their text, and a new path of
    /// that hash goes after them.
    #[test]
    fn paths_sharing_a_hash_are_told_apart() {
        let mut vfs = Vfs::new();
        vfs.create("/a", FileContent::Synthetic(1)).unwrap();
        vfs.create("/b", FileContent::Synthetic(1)).unwrap();
        for entry in &mut vfs.by_path {
            entry.0 = 7;
        }
        vfs.by_path.sort();
        assert_eq!(
            (vfs.find(7, "/a"), vfs.find(7, "/b"), vfs.find(7, "/c")),
            (Ok(0), Ok(1), Err(2))
        );
        assert_eq!(vfs.find(6, "/a"), Err(0));
        assert_eq!(vfs.find(8, "/a"), Err(2));
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
