//! Control-plane journal: a bounded ring of timestamped, severity-tagged
//! events for everything that changes the *shape* of the service — role
//! promotions, campaign fences, migrations, map installs — plus the rare
//! bad news (flush failures, follower disconnects, wrong-node redirects)
//! that previously went to `eprintln!` and vanished.
//!
//! The journal is the operator's answer to "what happened around 12:04?":
//! data-plane volume goes to histograms and counters, control-plane
//! *events* go here, each with a wall-clock timestamp (quantiles need
//! monotonic time; post-incident forensics need wall time), a severity,
//! a typed kind, and a free-form detail string. A bounded ring keeps the
//! most recent entries; a monotonically increasing sequence number makes
//! eviction visible to harvesters.

use parking_lot::Mutex;
use std::collections::VecDeque;
use std::time::{SystemTime, UNIX_EPOCH};

/// How loudly an entry should be treated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Expected control-plane activity (promotion, map install, ...).
    Info,
    /// Degraded but self-healing (follower cut, wrong-node redirect, ...).
    Warn,
    /// Something was lost or refused that should not have been.
    Error,
}

impl Severity {
    /// Stable lowercase label for JSON and text rendering.
    pub fn name(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Error => "error",
        }
    }
}

/// What happened. One variant per control-plane event class the service
/// emits; the set mirrors the service's `Counter` table (routing,
/// replication, durability) so every counted event class can also be
/// journaled with its context.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JournalKind {
    /// A node changed replica role (follower → primary).
    Promotion,
    /// A campaign's write path was fenced (migration hand-off).
    Fence,
    /// A migration adopted a campaign on its destination node.
    MigrationAdopted,
    /// A new cluster map epoch was installed on a node.
    MapInstall,
    /// A WAL flush (write or fdatasync) failed.
    FlushFailure,
    /// A snapshot cycle failed.
    SnapshotFailure,
    /// A follower was cut from the replication stream for lagging.
    FollowerDisconnect,
    /// A submission was refused because this node does not own the
    /// campaign (the `WrongNode` redirect).
    WrongNodeRejection,
}

impl JournalKind {
    /// Every kind, for exposition rendering.
    pub const ALL: [JournalKind; 8] = [
        JournalKind::Promotion,
        JournalKind::Fence,
        JournalKind::MigrationAdopted,
        JournalKind::MapInstall,
        JournalKind::FlushFailure,
        JournalKind::SnapshotFailure,
        JournalKind::FollowerDisconnect,
        JournalKind::WrongNodeRejection,
    ];

    /// Stable snake_case label for JSON and the exposition.
    pub fn name(self) -> &'static str {
        match self {
            JournalKind::Promotion => "promotion",
            JournalKind::Fence => "fence",
            JournalKind::MigrationAdopted => "migration_adopted",
            JournalKind::MapInstall => "map_install",
            JournalKind::FlushFailure => "flush_failure",
            JournalKind::SnapshotFailure => "snapshot_failure",
            JournalKind::FollowerDisconnect => "follower_disconnect",
            JournalKind::WrongNodeRejection => "wrong_node_rejection",
        }
    }
}

/// One journaled control-plane event.
#[derive(Debug, Clone)]
pub struct JournalEntry {
    /// Monotonically increasing per-journal sequence number. Gaps at the
    /// front of a snapshot mean older entries were evicted.
    pub seq: u64,
    /// Wall-clock milliseconds since the Unix epoch.
    pub unix_ms: u64,
    pub severity: Severity,
    pub kind: JournalKind,
    /// Free-form context ("campaign c3 fenced at watermark 8812", ...).
    pub detail: String,
}

/// Default journal capacity (most recent entries kept).
pub const DEFAULT_JOURNAL_CAPACITY: usize = 512;

/// Bounded ring of control-plane events.
///
/// Control-plane events are rare (per migration / failure, not per
/// request), so a mutex-guarded ring is the right cost model: the data
/// plane never touches it.
pub struct ControlJournal {
    inner: Mutex<JournalInner>,
    capacity: usize,
}

struct JournalInner {
    ring: VecDeque<JournalEntry>,
    next_seq: u64,
}

impl ControlJournal {
    /// A journal keeping the `capacity` most recent entries.
    pub fn with_capacity(capacity: usize) -> Self {
        ControlJournal {
            inner: Mutex::new(JournalInner {
                ring: VecDeque::with_capacity(capacity.max(1)),
                next_seq: 0,
            }),
            capacity: capacity.max(1),
        }
    }

    /// A journal with [`DEFAULT_JOURNAL_CAPACITY`].
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_JOURNAL_CAPACITY)
    }

    /// Appends an event, evicting the oldest at capacity.
    pub fn log(&self, severity: Severity, kind: JournalKind, detail: impl Into<String>) {
        let unix_ms = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_millis().min(u64::MAX as u128) as u64)
            .unwrap_or(0);
        let mut inner = self.inner.lock();
        let seq = inner.next_seq;
        inner.next_seq += 1;
        if inner.ring.len() == self.capacity {
            inner.ring.pop_front();
        }
        inner.ring.push_back(JournalEntry {
            seq,
            unix_ms,
            severity,
            kind,
            detail: detail.into(),
        });
    }

    /// Convenience for [`Severity::Info`].
    pub fn info(&self, kind: JournalKind, detail: impl Into<String>) {
        self.log(Severity::Info, kind, detail);
    }

    /// Convenience for [`Severity::Warn`].
    pub fn warn(&self, kind: JournalKind, detail: impl Into<String>) {
        self.log(Severity::Warn, kind, detail);
    }

    /// Convenience for [`Severity::Error`].
    pub fn error(&self, kind: JournalKind, detail: impl Into<String>) {
        self.log(Severity::Error, kind, detail);
    }

    /// Number of entries currently held.
    pub fn len(&self) -> usize {
        self.inner.lock().ring.len()
    }

    /// Whether the journal holds no entries.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().ring.is_empty()
    }

    /// Total entries ever logged (`>= len()` once eviction starts).
    pub fn total_logged(&self) -> u64 {
        self.inner.lock().next_seq
    }

    /// Copies out all held entries, oldest first.
    pub fn snapshot(&self) -> Vec<JournalEntry> {
        self.inner.lock().ring.iter().cloned().collect()
    }

    /// Per-kind entry counts over the held window, in [`JournalKind::ALL`]
    /// order — the exposition's `docs_journal_events` samples.
    pub fn counts_by_kind(&self) -> [(JournalKind, u64); JournalKind::ALL.len()] {
        let inner = self.inner.lock();
        let mut out = JournalKind::ALL.map(|k| (k, 0u64));
        for entry in inner.ring.iter() {
            for slot in out.iter_mut() {
                if slot.0 == entry.kind {
                    slot.1 += 1;
                }
            }
        }
        out
    }

    /// Renders every held entry as a JSON array.
    pub fn to_json(&self) -> String {
        let entries = self.snapshot();
        let mut out = String::from("[");
        for (i, e) in entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"seq\":{},\"unix_ms\":{},\"severity\":\"{}\",\"kind\":\"{}\",\"detail\":\"{}\"}}",
                e.seq,
                e.unix_ms,
                e.severity.name(),
                e.kind.name(),
                escape_json(&e.detail)
            ));
        }
        out.push(']');
        out
    }
}

impl Default for ControlJournal {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for ControlJournal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ControlJournal")
            .field("capacity", &self.capacity)
            .field("len", &self.len())
            .field("total_logged", &self.total_logged())
            .finish()
    }
}

/// Escapes a string for embedding in a JSON string literal.
pub(crate) fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entries_are_sequenced_and_timestamped() {
        let j = ControlJournal::new();
        j.info(JournalKind::Promotion, "node n1 promoted to primary");
        j.warn(JournalKind::FollowerDisconnect, "follower f1 cut off");
        let snap = j.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].seq, 0);
        assert_eq!(snap[1].seq, 1);
        assert!(snap[0].unix_ms > 1_500_000_000_000, "plausible wall clock");
        assert_eq!(snap[0].severity, Severity::Info);
        assert_eq!(snap[1].kind, JournalKind::FollowerDisconnect);
    }

    #[test]
    fn ring_evicts_oldest_but_keeps_sequence() {
        let j = ControlJournal::with_capacity(2);
        for i in 0..5 {
            j.info(JournalKind::MapInstall, format!("epoch {i}"));
        }
        let snap = j.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].seq, 3, "eviction visible through seq gap");
        assert_eq!(j.total_logged(), 5);
    }

    #[test]
    fn counts_by_kind_cover_the_window() {
        let j = ControlJournal::new();
        j.info(JournalKind::Fence, "c1");
        j.info(JournalKind::Fence, "c2");
        j.error(JournalKind::FlushFailure, "shard 0: sync failed");
        let counts = j.counts_by_kind();
        let get = |k: JournalKind| counts.iter().find(|(kk, _)| *kk == k).unwrap().1;
        assert_eq!(get(JournalKind::Fence), 2);
        assert_eq!(get(JournalKind::FlushFailure), 1);
        assert_eq!(get(JournalKind::Promotion), 0);
    }

    #[test]
    fn json_escapes_details() {
        let j = ControlJournal::new();
        j.info(JournalKind::MapInstall, "path \"a\\b\"\nnew line");
        let json = j.to_json();
        assert!(json.contains("\\\"a\\\\b\\\"\\nnew line"));
        assert!(json.starts_with('[') && json.ends_with(']'));
    }
}
