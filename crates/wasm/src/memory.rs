//! Linear memory: 64 KiB pages, bounds-checked little-endian access.
//!
//! Buffers are recycled: a dropped memory parks its buffer in a per-thread
//! slot and the next [`LinearMemory::new`] on that thread takes it back,
//! re-zeroing only the pages the previous owner wrote. A pod start then
//! pays for the pages its predecessor dirtied, not for the module's whole
//! declared minimum.

use std::cell::Cell;

use crate::types::Limits;
use crate::values::Trap;

/// Size of one WebAssembly page.
pub const WASM_PAGE_SIZE: u32 = 65536;

/// Hard cap on pages (the 4 GiB i32 address space).
pub(crate) const MAX_PAGES: u32 = 65536;

const PAGE: usize = WASM_PAGE_SIZE as usize;

/// A linear memory instance.
#[derive(Debug, Clone)]
pub struct LinearMemory {
    data: Vec<u8>,
    /// One flag per page of `data`: written since it was last known zero.
    /// `write`, `write_bytes` and `grow` are the only mutators of `data`,
    /// and each keeps this in step — recycling is only as sound as this.
    dirty: Vec<bool>,
    limits: Limits,
}

/// A parked buffer: every page of `data` not flagged in `dirty` is zero.
struct Spare {
    data: Vec<u8>,
    dirty: Vec<bool>,
}

thread_local! {
    /// At most one spare buffer per thread.
    static SPARE: Cell<Option<Spare>> = const { Cell::new(None) };
}

impl LinearMemory {
    /// Allocate with `limits.min` pages zeroed.
    pub fn new(limits: Limits) -> LinearMemory {
        let pages = limits.min as usize;
        let bytes = pages * PAGE;
        // `try_with`: a memory built while the thread tears down its locals
        // simply finds no spare.
        let spare = SPARE.try_with(Cell::take).ok().flatten();
        let (data, dirty) = match spare {
            Some(Spare { mut data, mut dirty }) => {
                data.truncate(bytes);
                dirty.truncate(pages);
                for (page, flag) in dirty.iter_mut().enumerate().filter(|(_, flag)| **flag) {
                    data[page * PAGE..(page + 1) * PAGE].fill(0);
                    *flag = false;
                }
                data.resize(bytes, 0);
                dirty.resize(pages, false);
                (data, dirty)
            }
            None => (vec![0; bytes], vec![false; pages]),
        };
        LinearMemory { data, dirty, limits }
    }

    /// Current size in pages.
    pub fn size_pages(&self) -> u32 {
        (self.data.len() / PAGE) as u32
    }

    /// Current size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.data.len()
    }

    /// `memory.grow`: returns the old size in pages, or -1 on failure.
    pub fn grow(&mut self, delta_pages: u32) -> i32 {
        let old = self.size_pages();
        let new = match old.checked_add(delta_pages) {
            Some(n) => n,
            None => return -1,
        };
        let cap = self.limits.max.unwrap_or(MAX_PAGES).min(MAX_PAGES);
        if new > cap {
            return -1;
        }
        self.data.resize(new as usize * PAGE, 0);
        self.dirty.resize(new as usize, false);
        old as i32
    }

    /// Flag the pages covering `len` bytes at `start` as written.
    #[inline]
    fn mark_dirty(&mut self, start: usize, len: usize) {
        if len == 0 {
            return;
        }
        for flag in &mut self.dirty[start / PAGE..=(start + len - 1) / PAGE] {
            *flag = true;
        }
    }

    #[inline]
    fn range(&self, addr: u32, offset: u32, len: usize) -> Result<usize, Trap> {
        let ea = addr as u64 + offset as u64;
        let end = ea + len as u64;
        if end > self.data.len() as u64 {
            return Err(Trap::MemoryOutOfBounds);
        }
        Ok(ea as usize)
    }

    /// Read `N` bytes at `addr + offset`.
    #[inline]
    pub(crate) fn read<const N: usize>(&self, addr: u32, offset: u32) -> Result<[u8; N], Trap> {
        let start = self.range(addr, offset, N)?;
        let mut out = [0u8; N];
        out.copy_from_slice(&self.data[start..start + N]);
        Ok(out)
    }

    /// Write `N` bytes at `addr + offset`.
    #[inline]
    pub fn write<const N: usize>(
        &mut self,
        addr: u32,
        offset: u32,
        v: [u8; N],
    ) -> Result<(), Trap> {
        let start = self.range(addr, offset, N)?;
        self.data[start..start + N].copy_from_slice(&v);
        self.mark_dirty(start, N);
        Ok(())
    }

    /// Read an arbitrary slice (host/WASI access).
    pub fn read_bytes(&self, addr: u32, len: u32) -> Result<&[u8], Trap> {
        let start = self.range(addr, 0, len as usize)?;
        Ok(&self.data[start..start + len as usize])
    }

    /// Write an arbitrary slice (host/WASI access, data segments).
    pub fn write_bytes(&mut self, addr: u32, bytes: &[u8]) -> Result<(), Trap> {
        let start = self.range(addr, 0, bytes.len())?;
        self.data[start..start + bytes.len()].copy_from_slice(bytes);
        self.mark_dirty(start, bytes.len());
        Ok(())
    }

    // Typed accessors used by both execution tiers.

    pub fn load_u32(&self, addr: u32, offset: u32) -> Result<u32, Trap> {
        Ok(u32::from_le_bytes(self.read::<4>(addr, offset)?))
    }

    pub fn load_u64(&self, addr: u32, offset: u32) -> Result<u64, Trap> {
        Ok(u64::from_le_bytes(self.read::<8>(addr, offset)?))
    }

    pub fn store_u32(&mut self, addr: u32, offset: u32, v: u32) -> Result<(), Trap> {
        self.write(addr, offset, v.to_le_bytes())
    }

    pub fn store_u64(&mut self, addr: u32, offset: u32, v: u64) -> Result<(), Trap> {
        self.write(addr, offset, v.to_le_bytes())
    }
}

impl Drop for LinearMemory {
    /// Park the buffer for the next [`LinearMemory::new`] on this thread,
    /// replacing any older spare.
    fn drop(&mut self) {
        let spare =
            Spare { data: std::mem::take(&mut self.data), dirty: std::mem::take(&mut self.dirty) };
        // Err: the thread is tearing down its locals; the buffer just frees.
        let _ = SPARE.try_with(|slot| slot.set(Some(spare)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_is_zeroed() {
        let m = LinearMemory::new(Limits::new(1, Some(2)));
        assert_eq!(m.size_pages(), 1);
        assert_eq!(m.load_u64(0, 0).unwrap(), 0);
        assert_eq!(m.load_u32(WASM_PAGE_SIZE - 4, 0).unwrap(), 0);
    }

    #[test]
    fn rw_roundtrip() {
        let mut m = LinearMemory::new(Limits::new(1, None));
        m.store_u32(100, 4, 0xdead_beef).unwrap();
        assert_eq!(m.load_u32(100, 4).unwrap(), 0xdead_beef);
        assert_eq!(m.load_u32(104, 0).unwrap(), 0xdead_beef);
        // Little-endian byte order.
        assert_eq!(m.read::<1>(104, 0).unwrap(), [0xef]);
    }

    #[test]
    fn bounds_checked() {
        let mut m = LinearMemory::new(Limits::new(1, None));
        assert_eq!(m.load_u32(WASM_PAGE_SIZE - 3, 0), Err(Trap::MemoryOutOfBounds));
        assert_eq!(m.store_u64(WASM_PAGE_SIZE - 7, 0, 1), Err(Trap::MemoryOutOfBounds));
        // Offset overflow must not wrap.
        assert_eq!(m.load_u32(u32::MAX, u32::MAX), Err(Trap::MemoryOutOfBounds));
        assert!(m.read_bytes(0, WASM_PAGE_SIZE).is_ok());
        assert!(m.read_bytes(1, WASM_PAGE_SIZE).is_err());
    }

    #[test]
    fn grow_respects_max() {
        let mut m = LinearMemory::new(Limits::new(1, Some(3)));
        assert_eq!(m.grow(1), 1);
        assert_eq!(m.size_pages(), 2);
        assert_eq!(m.grow(2), -1, "beyond max");
        assert_eq!(m.grow(1), 2);
        assert_eq!(m.grow(1), -1);
        // Grown memory is zeroed.
        assert_eq!(m.load_u64((3 * WASM_PAGE_SIZE) - 8, 0).unwrap(), 0);
    }

    #[test]
    fn grow_zero_reports_size() {
        let mut m = LinearMemory::new(Limits::new(2, None));
        assert_eq!(m.grow(0), 2);
    }

    #[test]
    fn write_bytes_roundtrip() {
        let mut m = LinearMemory::new(Limits::new(1, None));
        m.write_bytes(8, b"hello world").unwrap();
        assert_eq!(m.read_bytes(8, 11).unwrap(), b"hello world");
    }
}
