//! Id-indexed tables: how the kernel keeps its processes, cgroups and files.
//!
//! Pids, cgroup ids and file ids are issued once, in increasing order, and
//! never reused. A table keyed by such an id needs no search tree: slot `i`
//! is id `i`, so a lookup is an index, an insert of the newest id is a push,
//! and a walk over the slots is a walk in id order. Each slot holds its value
//! boxed, so an id whose value has been removed (or was never inserted: a
//! spawn refused after its pid was drawn) costs one pointer, not a value.

use std::fmt;
use std::marker::PhantomData;

use crate::cgroup::CgroupId;
use crate::proc::Pid;
use crate::vfs::FileId;

/// An id an [`IdTable`] indexes by: a number issued once, from 0 up.
pub(crate) trait TableId: Copy {
    fn index(self) -> usize;
    fn from_index(index: usize) -> Self;
}

macro_rules! table_id {
    ($($id:ident),*) => {$(
        impl TableId for $id {
            fn index(self) -> usize {
                self.0 as usize
            }

            fn from_index(index: usize) -> Self {
                $id(index as u64)
            }
        }
    )*};
}

table_id!(Pid, CgroupId, FileId);

/// A map from monotonic ids to values. Nothing is allocated before the
/// first insert; an id below the highest one inserted can never be inserted
/// again, so a removed id never reappears.
pub(crate) struct IdTable<K, V> {
    slots: Vec<Option<Box<V>>>,
    /// Occupied slots.
    len: usize,
    key: PhantomData<K>,
}

impl<K: TableId, V> IdTable<K, V> {
    pub(crate) const fn new() -> Self {
        IdTable { slots: Vec::new(), len: 0, key: PhantomData }
    }

    /// Insert the value of a newly issued id. Panics if `id` is not above
    /// every id this table has held.
    pub(crate) fn insert(&mut self, id: K, value: V) {
        let i = id.index();
        assert!(i >= self.slots.len(), "table ids are issued once, in increasing order");
        self.slots.resize_with(i, || None);
        self.slots.push(Some(Box::new(value)));
        self.len += 1;
    }

    pub(crate) fn get(&self, id: K) -> Option<&V> {
        self.slots.get(id.index())?.as_deref()
    }

    pub(crate) fn get_mut(&mut self, id: K) -> Option<&mut V> {
        self.slots.get_mut(id.index())?.as_deref_mut()
    }

    pub(crate) fn contains(&self, id: K) -> bool {
        self.get(id).is_some()
    }

    /// Take an id's value out; its slot stays, empty, for good.
    pub(crate) fn remove(&mut self, id: K) -> Option<V> {
        let value = self.slots.get_mut(id.index())?.take()?;
        self.len -= 1;
        Some(*value)
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Every `(id, value)`, in id order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (K, &V)> {
        self.slots.iter().enumerate().filter_map(|(i, s)| Some((K::from_index(i), s.as_deref()?)))
    }

    /// Every value, in id order.
    pub(crate) fn values(&self) -> impl Iterator<Item = &V> {
        self.slots.iter().filter_map(|s| s.as_deref())
    }

    /// Every value, mutably, in id order.
    pub(crate) fn values_mut(&mut self) -> impl Iterator<Item = &mut V> {
        self.slots.iter_mut().filter_map(|s| s.as_deref_mut())
    }

    /// Compare the occupied-slot counter against a walk over the slots.
    pub(crate) fn check(&self, what: &str) -> Result<(), String> {
        let walked = self.values().count();
        if self.len == walked {
            Ok(())
        } else {
            Err(format!("{what}: counter {} != {walked} occupied slots", self.len))
        }
    }
}

impl<K: TableId, V> Default for IdTable<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V: Clone> Clone for IdTable<K, V> {
    fn clone(&self) -> Self {
        IdTable { slots: self.slots.clone(), len: self.len, key: PhantomData }
    }
}

impl<K: TableId + fmt::Debug, V: fmt::Debug> fmt::Debug for IdTable<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_empty_table_holds_no_buffer() {
        let t: IdTable<Pid, u64> = IdTable::new();
        assert_eq!((t.slots.capacity(), t.len()), (0, 0));
        assert_eq!(std::mem::size_of::<Option<Box<[u8; 256]>>>(), 8, "a slot is a pointer");
    }

    #[test]
    fn gaps_and_removals_leave_empty_slots_in_id_order() {
        let mut t = IdTable::new();
        t.insert(Pid(1), "a");
        t.insert(Pid(4), "b");
        t.insert(Pid(5), "c");
        assert_eq!(t.remove(Pid(4)), Some("b"));
        assert_eq!(t.remove(Pid(4)), None);
        assert_eq!(t.iter().collect::<Vec<_>>(), [(Pid(1), &"a"), (Pid(5), &"c")]);
        assert_eq!((t.len(), t.get(Pid(0)), t.get(Pid(9))), (2, None, None));
        *t.get_mut(Pid(5)).unwrap() = "d";
        assert_eq!(t.values().collect::<Vec<_>>(), [&"a", &"d"]);
        assert_eq!(t.check("t"), Ok(()));
    }

    #[test]
    #[should_panic(expected = "issued once")]
    fn a_removed_id_cannot_come_back() {
        let mut t = IdTable::new();
        t.insert(CgroupId(3), ());
        t.remove(CgroupId(3));
        t.insert(CgroupId(3), ());
    }
}
