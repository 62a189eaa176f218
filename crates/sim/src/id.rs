//! Process identifiers and neighbor iteration for fully-connected networks.
//!
//! The paper assumes every process locally numbers its `n - 1` incident
//! channels from `1` to `n - 1` and "indifferently uses the notation `q` to
//! designate the process `q` or the local channel number of `q`". We follow
//! the same convention with global, zero-based [`ProcessId`]s: a process's
//! neighbors are simply all other identifiers (deviation D3 in
//! ARCHITECTURE.md §11, a pure renaming).

use std::fmt;

/// Identifier of a process in a system of `n` processes (`0..n`).
///
/// In the fully-connected topology of the paper, a `ProcessId` doubles as
/// the channel number used by every other process to address this one.
///
/// ```
/// use snapstab_sim::ProcessId;
/// let p = ProcessId::new(2);
/// assert_eq!(p.index(), 2);
/// assert_eq!(format!("{p}"), "P2");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct ProcessId(usize);

impl ProcessId {
    /// Creates a process identifier from a zero-based index.
    pub const fn new(index: usize) -> Self {
        ProcessId(index)
    }

    /// Returns the zero-based index of this process.
    pub const fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

impl From<usize> for ProcessId {
    fn from(index: usize) -> Self {
        ProcessId(index)
    }
}

impl From<ProcessId> for usize {
    fn from(id: ProcessId) -> Self {
        id.0
    }
}

/// Iterates over the neighbors of `me` in a fully-connected system of `n`
/// processes: every process other than `me`, in increasing id order.
///
/// ```
/// use snapstab_sim::{neighbors, ProcessId};
/// let ns: Vec<_> = neighbors(ProcessId::new(1), 4).collect();
/// assert_eq!(ns, vec![ProcessId::new(0), ProcessId::new(2), ProcessId::new(3)]);
/// ```
pub fn neighbors(me: ProcessId, n: usize) -> impl Iterator<Item = ProcessId> {
    (0..n).filter(move |&i| i != me.index()).map(ProcessId::new)
}

/// A per-neighbor table: one `T` slot for every process in the system,
/// where the owner's own slot is kept (for simplicity of indexing) but is
/// never semantically meaningful.
///
/// This mirrors the paper's arrays `State_p[1..n-1]`, `NeigState_p[1..n-1]`,
/// `F-Mes_p[1..n-1]`, etc., re-indexed by global [`ProcessId`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PerNeighbor<T> {
    owner: ProcessId,
    slots: Vec<T>,
}

impl<T: Clone> PerNeighbor<T> {
    /// Creates a table for a system of `n` processes owned by `owner`, with
    /// every slot set to `init`.
    ///
    /// # Panics
    ///
    /// Panics if `owner.index() >= n` or `n == 0`.
    pub fn new(owner: ProcessId, n: usize, init: T) -> Self {
        assert!(n > 0, "system must have at least one process");
        assert!(owner.index() < n, "owner {owner} out of range for n={n}");
        PerNeighbor {
            owner,
            slots: vec![init; n],
        }
    }

    /// Creates a table by evaluating `f` at every neighbor (the owner's own
    /// slot is also filled by `f` but never read by neighbor iteration).
    pub fn from_fn(owner: ProcessId, n: usize, mut f: impl FnMut(ProcessId) -> T) -> Self {
        assert!(n > 0, "system must have at least one process");
        assert!(owner.index() < n, "owner {owner} out of range for n={n}");
        PerNeighbor {
            owner,
            slots: (0..n).map(|i| f(ProcessId::new(i))).collect(),
        }
    }
}

impl<T> PerNeighbor<T> {
    /// The process that owns this table.
    pub fn owner(&self) -> ProcessId {
        self.owner
    }

    /// Number of processes in the system (slots including the owner's).
    pub fn n(&self) -> usize {
        self.slots.len()
    }

    /// Shared access to the slot of neighbor `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is the owner (a process has no channel to itself) or is
    /// out of range.
    pub fn get(&self, q: ProcessId) -> &T {
        assert_ne!(q, self.owner, "{q} has no channel to itself");
        &self.slots[q.index()]
    }

    /// Exclusive access to the slot of neighbor `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is the owner or out of range.
    pub fn get_mut(&mut self, q: ProcessId) -> &mut T {
        assert_ne!(q, self.owner, "{q} has no channel to itself");
        &mut self.slots[q.index()]
    }

    /// Sets the slot of neighbor `q` to `value`.
    pub fn set(&mut self, q: ProcessId, value: T) {
        *self.get_mut(q) = value;
    }

    /// Iterates over `(neighbor, value)` pairs in increasing id order,
    /// skipping the owner's own slot.
    pub fn iter(&self) -> impl Iterator<Item = (ProcessId, &T)> {
        let owner = self.owner;
        self.slots
            .iter()
            .enumerate()
            .filter(move |(i, _)| *i != owner.index())
            .map(|(i, t)| (ProcessId::new(i), t))
    }

    /// Iterates mutably over `(neighbor, value)` pairs, skipping the owner.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (ProcessId, &mut T)> {
        let owner = self.owner;
        self.slots
            .iter_mut()
            .enumerate()
            .filter(move |(i, _)| *i != owner.index())
            .map(|(i, t)| (ProcessId::new(i), t))
    }

    /// True if `pred` holds at every neighbor slot.
    pub fn all(&self, mut pred: impl FnMut(&T) -> bool) -> bool {
        self.iter().all(|(_, t)| pred(t))
    }

    /// True if `pred` holds at some neighbor slot.
    pub fn any(&self, mut pred: impl FnMut(&T) -> bool) -> bool {
        self.iter().any(|(_, t)| pred(t))
    }

    /// Sets every neighbor slot to values produced by `f`.
    pub fn fill_with(&mut self, mut f: impl FnMut(ProcessId) -> T) {
        let owner = self.owner;
        for (i, slot) in self.slots.iter_mut().enumerate() {
            if i != owner.index() {
                *slot = f(ProcessId::new(i));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_id_roundtrip() {
        let p = ProcessId::new(7);
        assert_eq!(usize::from(p), 7);
        assert_eq!(ProcessId::from(7usize), p);
        assert_eq!(p.index(), 7);
    }

    #[test]
    fn process_id_display() {
        assert_eq!(ProcessId::new(0).to_string(), "P0");
        assert_eq!(ProcessId::new(12).to_string(), "P12");
    }

    #[test]
    fn process_id_ordering() {
        assert!(ProcessId::new(0) < ProcessId::new(1));
        assert_eq!(ProcessId::new(3), ProcessId::new(3));
    }

    #[test]
    fn neighbors_excludes_self() {
        let ns: Vec<_> = neighbors(ProcessId::new(0), 3).collect();
        assert_eq!(ns, vec![ProcessId::new(1), ProcessId::new(2)]);
        let ns: Vec<_> = neighbors(ProcessId::new(2), 3).collect();
        assert_eq!(ns, vec![ProcessId::new(0), ProcessId::new(1)]);
    }

    #[test]
    fn neighbors_of_singleton_system_is_empty() {
        assert_eq!(neighbors(ProcessId::new(0), 1).count(), 0);
    }

    #[test]
    fn per_neighbor_basics() {
        let mut t = PerNeighbor::new(ProcessId::new(1), 4, 0u8);
        assert_eq!(t.n(), 4);
        assert_eq!(t.owner(), ProcessId::new(1));
        t.set(ProcessId::new(0), 5);
        *t.get_mut(ProcessId::new(3)) += 2;
        assert_eq!(*t.get(ProcessId::new(0)), 5);
        assert_eq!(*t.get(ProcessId::new(2)), 0);
        assert_eq!(*t.get(ProcessId::new(3)), 2);
    }

    #[test]
    fn per_neighbor_iter_skips_owner() {
        let t = PerNeighbor::from_fn(ProcessId::new(2), 4, |q| q.index() * 10);
        let pairs: Vec<_> = t.iter().map(|(q, v)| (q.index(), *v)).collect();
        assert_eq!(pairs, vec![(0, 0), (1, 10), (3, 30)]);
    }

    #[test]
    fn per_neighbor_all_any() {
        let mut t = PerNeighbor::new(ProcessId::new(0), 3, 4u8);
        assert!(t.all(|&v| v == 4));
        assert!(!t.any(|&v| v == 0));
        t.set(ProcessId::new(2), 0);
        assert!(!t.all(|&v| v == 4));
        assert!(t.any(|&v| v == 0));
    }

    #[test]
    fn per_neighbor_fill_with() {
        let mut t = PerNeighbor::new(ProcessId::new(0), 3, 0usize);
        t.fill_with(|q| q.index() + 100);
        assert_eq!(*t.get(ProcessId::new(1)), 101);
        assert_eq!(*t.get(ProcessId::new(2)), 102);
    }

    #[test]
    #[should_panic(expected = "has no channel to itself")]
    fn per_neighbor_rejects_owner_access() {
        let t = PerNeighbor::new(ProcessId::new(1), 3, 0u8);
        let _ = t.get(ProcessId::new(1));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn per_neighbor_rejects_bad_owner() {
        let _ = PerNeighbor::new(ProcessId::new(5), 3, 0u8);
    }
}
