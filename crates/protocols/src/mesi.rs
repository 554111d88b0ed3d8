//! MESI line states and the directory entry kept at the inclusive L2.

use std::fmt;
use tw_types::CoreId;

/// Stable MESI states of a line in a private L1.
///
/// Transient states of the blocking GEMS-style directory protocol are not
/// enumerated: the simulator serializes each transaction at the home node, so
/// a line is always observed in a stable state between transactions (requests
/// that would hit a line in transition are the ones the paper's protocol
/// NACKs or holds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub enum MesiState {
    /// Invalid — the L1 holds no data for the line.
    #[default]
    Invalid,
    /// Shared — read-only copy; other caches may also hold copies.
    Shared,
    /// Exclusive — the only copy on chip and it is clean; a store may upgrade
    /// to Modified silently.
    Exclusive,
    /// Modified — the only copy on chip and it is dirty.
    Modified,
}

impl MesiState {
    /// Whether a load hits in this state.
    pub const fn can_read(self) -> bool {
        !matches!(self, MesiState::Invalid)
    }

    /// Whether a store hits (possibly via the silent E→M upgrade) without any
    /// network traffic.
    pub const fn can_write_silently(self) -> bool {
        matches!(self, MesiState::Exclusive | MesiState::Modified)
    }

    /// Whether the line must be written back when evicted.
    pub const fn is_dirty(self) -> bool {
        matches!(self, MesiState::Modified)
    }
}

impl fmt::Display for MesiState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = match self {
            MesiState::Invalid => "I",
            MesiState::Shared => "S",
            MesiState::Exclusive => "E",
            MesiState::Modified => "M",
        };
        f.write_str(c)
    }
}

/// A compact sharer bit-set for up to 64 cores ([`tw_types::MAX_TILES`]:
/// `SystemConfig::validate` refuses larger meshes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct SharerSet(u64);

impl SharerSet {
    /// The empty set.
    pub const EMPTY: SharerSet = SharerSet(0);

    /// Inserts a core.
    pub fn insert(&mut self, core: CoreId) {
        self.0 |= 1 << core.0;
    }

    /// Removes a core.
    pub fn remove(&mut self, core: CoreId) {
        self.0 &= !(1 << core.0);
    }

    /// Whether the core is in the set.
    pub const fn contains(self, core: CoreId) -> bool {
        self.0 & (1 << core.0) != 0
    }

    /// Number of sharers.
    pub const fn count(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether the set is empty.
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Iterates over the sharers in ascending core order.
    pub fn iter(self) -> impl Iterator<Item = CoreId> {
        (0..64).filter(move |i| self.0 & (1 << i) != 0).map(CoreId)
    }

    /// Removes every sharer except `keep`, returning the cores removed.
    pub fn invalidate_others(&mut self, keep: CoreId) -> Vec<CoreId> {
        let removed: Vec<CoreId> = self.iter().filter(|c| *c != keep).collect();
        self.0 = if self.contains(keep) { 1 << keep.0 } else { 0 };
        removed
    }
}

impl FromIterator<CoreId> for SharerSet {
    fn from_iter<T: IntoIterator<Item = CoreId>>(iter: T) -> Self {
        let mut s = SharerSet::EMPTY;
        for c in iter {
            s.insert(c);
        }
        s
    }
}

/// Directory state for one line, kept alongside the inclusive L2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DirectoryEntry {
    /// Core holding the line in `E` or `M`, if any.
    pub owner: Option<CoreId>,
    /// Cores holding the line in `S`.
    pub sharers: SharerSet,
}

impl DirectoryEntry {
    /// Whether no L1 holds the line.
    pub fn is_idle(&self) -> bool {
        self.owner.is_none() && self.sharers.is_empty()
    }

    /// Records a read by `core`. Returns the previous exclusive owner, if the
    /// line must first be downgraded/fetched from it.
    pub fn record_read(&mut self, core: CoreId) -> Option<CoreId> {
        let prev = self.owner.take();
        if let Some(o) = prev {
            if o != core {
                self.sharers.insert(o);
            }
        }
        self.sharers.insert(core);
        prev.filter(|o| *o != core)
    }

    /// Whether a read response may grant the Exclusive state (no other copy on
    /// chip).
    pub fn grants_exclusive(&self, core: CoreId) -> bool {
        self.owner.is_none()
            && (self.sharers.is_empty()
                || (self.sharers.count() == 1 && self.sharers.contains(core)))
    }

    /// Records a write by `core`. Returns `(previous_owner, invalidated
    /// sharers)`: the owner must supply/invalidate its copy, the sharers must
    /// be sent invalidations.
    pub fn record_write(&mut self, core: CoreId) -> (Option<CoreId>, Vec<CoreId>) {
        let prev_owner = self.owner.filter(|o| *o != core);
        let mut sharers = std::mem::take(&mut self.sharers);
        let invalidated = sharers.invalidate_others(core);
        self.sharers = SharerSet::EMPTY;
        self.owner = Some(core);
        (prev_owner, invalidated)
    }

    /// Records that `core` dropped or wrote back its copy.
    pub fn record_eviction(&mut self, core: CoreId) {
        if self.owner == Some(core) {
            self.owner = None;
        }
        self.sharers.remove(core);
    }

    /// Every core with any copy (owner first).
    pub fn holders(&self) -> Vec<CoreId> {
        let mut v = Vec::new();
        if let Some(o) = self.owner {
            v.push(o);
        }
        v.extend(self.sharers.iter().filter(|c| Some(*c) != self.owner));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_predicates() {
        assert!(!MesiState::Invalid.can_read());
        assert!(MesiState::Shared.can_read());
        assert!(!MesiState::Shared.can_write_silently());
        assert!(MesiState::Exclusive.can_write_silently());
        assert!(MesiState::Modified.is_dirty());
        assert!(!MesiState::Exclusive.is_dirty());
        assert_eq!(MesiState::Modified.to_string(), "M");
    }

    #[test]
    fn sharer_set_operations() {
        let mut s = SharerSet::EMPTY;
        s.insert(CoreId(3));
        s.insert(CoreId(7));
        assert!(s.contains(CoreId(3)));
        assert_eq!(s.count(), 2);
        let removed = s.invalidate_others(CoreId(3));
        assert_eq!(removed, vec![CoreId(7)]);
        assert_eq!(s.count(), 1);
        s.remove(CoreId(3));
        assert!(s.is_empty());
    }

    #[test]
    fn first_reader_gets_exclusive() {
        let mut d = DirectoryEntry::default();
        assert!(d.is_idle());
        assert!(d.grants_exclusive(CoreId(0)));
        assert_eq!(d.record_read(CoreId(0)), None);
        // A second reader does not get E, and nobody needs downgrading
        // (the directory knows core 0 only has S or E-clean; the simulator
        // checks the L1 state for the M case).
        assert!(!d.grants_exclusive(CoreId(1)));
    }

    #[test]
    fn read_after_owner_requires_downgrade() {
        let mut d = DirectoryEntry::default();
        d.record_write(CoreId(2));
        let prev = d.record_read(CoreId(5));
        assert_eq!(prev, Some(CoreId(2)));
        assert!(d.sharers.contains(CoreId(2)));
        assert!(d.sharers.contains(CoreId(5)));
        assert_eq!(d.owner, None);
    }

    #[test]
    fn write_invalidates_sharers_and_takes_ownership() {
        let mut d = DirectoryEntry::default();
        d.record_read(CoreId(0));
        d.record_read(CoreId(1));
        d.record_read(CoreId(2));
        let (prev_owner, invalidated) = d.record_write(CoreId(1));
        assert_eq!(prev_owner, None);
        let mut inv: Vec<usize> = invalidated.iter().map(|c| c.0).collect();
        inv.sort_unstable();
        assert_eq!(inv, vec![0, 2]);
        assert_eq!(d.owner, Some(CoreId(1)));
        assert!(d.sharers.is_empty());
    }

    #[test]
    fn write_after_other_owner_forwards_from_owner() {
        let mut d = DirectoryEntry::default();
        d.record_write(CoreId(4));
        let (prev_owner, invalidated) = d.record_write(CoreId(9));
        assert_eq!(prev_owner, Some(CoreId(4)));
        assert!(invalidated.is_empty());
        assert_eq!(d.owner, Some(CoreId(9)));
    }

    #[test]
    fn eviction_clears_holder_state() {
        let mut d = DirectoryEntry::default();
        d.record_write(CoreId(3));
        d.record_eviction(CoreId(3));
        assert!(d.is_idle());
        d.record_read(CoreId(1));
        d.record_eviction(CoreId(1));
        assert!(d.is_idle());
    }

    #[test]
    fn holders_lists_owner_first() {
        let mut d = DirectoryEntry::default();
        d.record_read(CoreId(5));
        d.record_read(CoreId(2));
        assert_eq!(d.holders().len(), 2);
        let mut d2 = DirectoryEntry::default();
        d2.record_write(CoreId(7));
        assert_eq!(d2.holders(), vec![CoreId(7)]);
    }

    #[test]
    fn re_read_by_same_core_keeps_exclusivity_check_sane() {
        let mut d = DirectoryEntry::default();
        d.record_read(CoreId(6));
        assert!(
            d.grants_exclusive(CoreId(6)),
            "sole sharer re-reading stays exclusive-eligible"
        );
        assert!(!d.grants_exclusive(CoreId(0)));
    }
}
