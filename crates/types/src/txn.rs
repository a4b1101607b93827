//! Transaction / statement identifiers shared by the storage engine and
//! anything that pins a read snapshot against it.
//!
//! The relational store runs single-writer, multi-reader: every committed
//! statement gets the next [`TxnId`], and the database's *commit epoch* is
//! the id of the last committed statement. A reader pins an epoch `e` and
//! sees exactly the versions with `begin <= e < end` — so `TxnId` doubles
//! as the snapshot-epoch type.

/// Monotonically increasing statement/transaction identifier. Also used as
/// a snapshot epoch: "the state after statement `n` committed".
pub type TxnId = u64;

/// Epoch 0: the empty database, before any statement committed.
pub const TXN_EPOCH_ZERO: TxnId = 0;

/// Sentinel `end` marker of a live (not yet superseded) row version.
pub const TXN_INFINITY: TxnId = u64::MAX;

/// Visibility rule shared by scans and recovery checks: a version written
/// by `begin` and superseded at `end` is visible to a snapshot at `epoch`.
#[inline]
pub fn version_visible(begin: TxnId, end: TxnId, epoch: TxnId) -> bool {
    begin <= epoch && epoch < end
}

/// Kept for the repository benchmark only, which still passes
/// `CommitMode::group()` to `fedwf_core::LocalStoreConfig`. A durable store
/// has one commit path — the committing threads take turns leading group
/// commit (`fedwf_relstore::wal::GroupCommitter`) — so this value selects
/// nothing. It goes with the benchmark's next change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct CommitMode;

impl CommitMode {
    /// The one value.
    pub fn group() -> CommitMode {
        CommitMode
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn visibility_window() {
        // Written by txn 3, still live.
        assert!(!version_visible(3, TXN_INFINITY, 2));
        assert!(version_visible(3, TXN_INFINITY, 3));
        assert!(version_visible(3, TXN_INFINITY, 100));
        // Written by txn 3, superseded by txn 7.
        assert!(version_visible(3, 7, 6));
        assert!(!version_visible(3, 7, 7));
    }

    #[test]
    fn epoch_zero_sees_nothing_uncommitted() {
        assert!(!version_visible(1, TXN_INFINITY, TXN_EPOCH_ZERO));
    }
}
