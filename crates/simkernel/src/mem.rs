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

use crate::kernel::PAGE_SIZE;
use crate::vfs::FileId;

/// Identifier of a mapping within one process address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MappingId(pub u32);

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

/// One region of a process address space. Residency is counted in whole
/// pages, in a `u32`: [`crate::Kernel::boot`] keeps RAM under 2^32 pages.
#[derive(Debug, Clone)]
pub(crate) struct Mapping {
    pub(crate) id: MappingId,
    /// A tag and a 32-bit file id: 8 bytes.
    pub(crate) kind: MapKind,
    /// Reserved (virtual) length in bytes.
    pub(crate) len: u64,
    /// Private anonymous pages committed (all of it for `AnonPrivate`
    /// touches, the written part for `FileCow`).
    committed_pages: u32,
    /// File-backed pages this process has faulted in (its share of the
    /// page cache for RSS purposes; physical residency is on the file).
    touched_pages: u32,
    /// What the region is for ("heap", "side-tables", an engine's name): a
    /// literal or a profile's name, never built per mapping.
    #[expect(dead_code, reason = "ROADMAP item 1a")]
    pub(crate) label: &'static str,
}

// A process holds its mappings inline in one vector, about a dozen a pod.
const _: () = assert!(std::mem::size_of::<Mapping>() <= 48);

/// Whole pages covering `bytes` (a partial page is resident), if a `u32`.
pub(crate) fn pages(bytes: u64) -> Option<u32> {
    u32::try_from(bytes.div_ceil(PAGE_SIZE)).ok()
}

impl Mapping {
    pub(crate) fn new(id: MappingId, kind: MapKind, len: u64, label: &'static str) -> Mapping {
        Mapping { id, kind, len, committed_pages: 0, touched_pages: 0, label }
    }

    /// Bytes resident as private anon and as file pages.
    pub(crate) fn resident(&self) -> (u64, u64) {
        (u64::from(self.committed_pages) * PAGE_SIZE, u64::from(self.touched_pages) * PAGE_SIZE)
    }

    /// Set both in whole pages; the kernel refuses a size past a `u32` first.
    pub(crate) fn set_resident(&mut self, committed_anon: u64, touched_file: u64) {
        self.committed_pages = pages(committed_anon).expect("under 2^32 pages");
        self.touched_pages = pages(touched_file).expect("under 2^32 pages");
    }

    /// Resident set contribution of this mapping, Linux-style: private anon
    /// plus every shared page this process has touched.
    pub(crate) fn rss(&self) -> u64 {
        let (anon, file) = self.resident();
        anon + file
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
            self.len.saturating_sub(self.rss())
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
        let mut m = Mapping::new(MappingId(1), MapKind::AnonPrivate, 10 << 20, "heap");
        m.set_resident(1 << 20, 0);
        assert_eq!(m.rss(), 1 << 20);
        assert_eq!(m.uncommitted(), 9 << 20);
    }

    /// A partial page is a resident page, and the last page a `u32` holds
    /// still counts: no rounding down, no wrap.
    #[test]
    fn resident_sizes_round_up_to_whole_pages_in_a_u32() {
        let last = u64::from(u32::MAX) * PAGE_SIZE;
        let mut m = Mapping::new(MappingId(7), MapKind::FileCow(FileId(4)), u64::MAX, "m");
        m.set_resident(1, last);
        assert_eq!(m.resident(), (PAGE_SIZE, last));
        assert_eq!((pages(0), pages(PAGE_SIZE + 1), pages(last + 1)), (Some(0), Some(2), None));
    }

    #[test]
    fn kind_file() {
        assert_eq!(MapKind::AnonPrivate.file(), None);
        assert_eq!(MapKind::FileShared(FileId(3)).file(), Some(FileId(3)));
        assert_eq!(MapKind::FileCow(FileId(4)).file(), Some(FileId(4)));
    }
}
