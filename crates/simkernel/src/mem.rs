//! Address-space mappings and the page-level memory model.
//!
//! The model is deliberately *object-granular rather than page-granular*: a
//! mapping records how many bytes of it are committed/resident instead of
//! tracking individual page frames. That keeps deployments of 400 containers
//! (tens of GiB of simulated memory) cheap to account while preserving the
//! properties the paper's experiments depend on:
//!
//! * private anonymous memory is charged to the faulting process's cgroup;
//! * file-backed pages (binaries, engine shared libraries, Wasm modules)
//!   exist **once** in the page cache no matter how many processes map them,
//!   and are charged to the *first* toucher's cgroup, as in Linux;
//! * copy-on-write file mappings (data segments) turn into private anon
//!   charges when written.

use crate::vfs::FileId;

/// Identifier of a mapping within one process address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MappingId(pub u64);

/// What backs a mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapKind {
    /// Private anonymous memory (heap, stacks, JIT code buffers).
    AnonPrivate,
    /// Shared, read-only file mapping (library text, mmap'ed Wasm module).
    /// Pages live in the page cache and are shared machine-wide.
    FileShared(FileId),
    /// Private file mapping with copy-on-write semantics (data segments).
    /// Reads share the page cache; writes allocate private anonymous copies.
    FileCow(FileId),
}

impl MapKind {
    /// The backing file, if any.
    pub(crate) fn file(&self) -> Option<FileId> {
        match self {
            MapKind::AnonPrivate => None,
            MapKind::FileShared(f) | MapKind::FileCow(f) => Some(*f),
        }
    }
}

/// One region of a process address space.
#[derive(Debug, Clone)]
pub(crate) struct Mapping {
    pub(crate) id: MappingId,
    pub(crate) kind: MapKind,
    /// Reserved (virtual) length in bytes.
    pub(crate) len: u64,
    /// Bytes of private anonymous memory committed in this mapping
    /// (all of it for `AnonPrivate` touches, the written part for `FileCow`).
    pub(crate) committed_anon: u64,
    /// Bytes of file-backed pages this process has faulted in (its share of
    /// the page cache for RSS purposes; physical residency is on the file).
    pub(crate) touched_file: u64,
    /// What the region is for ("heap", "side-tables", an engine's name): a
    /// literal or a profile's name, never built per mapping.
    #[expect(dead_code, reason = "ROADMAP item 1a")]
    pub(crate) label: &'static str,
}

// A process holds its mappings inline in one vector: keep them a cache line.
const _: () = assert!(std::mem::size_of::<Mapping>() <= 64);

impl Mapping {
    /// Resident set contribution of this mapping, Linux-style: private anon
    /// plus every shared page this process has touched.
    pub(crate) fn rss(&self) -> u64 {
        self.committed_anon + self.touched_file
    }
}

/// Round a byte count up to whole pages of `page_size`, saturating rather
/// than wrapping for byte counts within a page of `u64::MAX` (adversarial
/// mmap lengths must fail the physical check, not alias to tiny values).
#[inline]
pub(crate) fn round_up_pages(bytes: u64, page_size: u64) -> u64 {
    debug_assert!(page_size.is_power_of_two());
    bytes.div_ceil(page_size).saturating_mul(page_size)
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Mapping {
        /// Bytes that remain untouched (virtual-only).
        fn uncommitted(&self) -> u64 {
            self.len.saturating_sub(self.committed_anon + self.touched_file)
        }
    }

    #[test]
    fn round_up() {
        assert_eq!(round_up_pages(0, 4096), 0);
        assert_eq!(round_up_pages(1, 4096), 4096);
        assert_eq!(round_up_pages(4096, 4096), 4096);
        assert_eq!(round_up_pages(4097, 4096), 8192);
        // Near-max byte counts saturate instead of wrapping to ~0.
        assert_eq!(round_up_pages(u64::MAX - 1, 4096), u64::MAX);
    }

    #[test]
    fn mapping_rss() {
        let m = Mapping {
            id: MappingId(1),
            kind: MapKind::AnonPrivate,
            len: 10 << 20,
            committed_anon: 1 << 20,
            touched_file: 0,
            label: "heap",
        };
        assert_eq!(m.rss(), 1 << 20);
        assert_eq!(m.uncommitted(), 9 << 20);
    }

    #[test]
    fn kind_file() {
        assert_eq!(MapKind::AnonPrivate.file(), None);
        assert_eq!(MapKind::FileShared(FileId(3)).file(), Some(FileId(3)));
        assert_eq!(MapKind::FileCow(FileId(4)).file(), Some(FileId(4)));
    }
}
