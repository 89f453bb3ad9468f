//! Cluster routing client: a campaign→node directory with role-aware
//! fan-out — writes go to the owning primary, reads fan out to that node's
//! replicas round-robin, and stale-map redirects retry against the owner
//! the service names.
//!
//! The paper's deployment serves every request from one Django backend;
//! WAL-shipping replication scaled the read path, and the cluster
//! directory scales the write path: campaigns are partitioned across
//! multiple primary nodes, and ownership is a *migratable* fact recorded
//! in a versioned [`ClusterMap`] (see ARCHITECTURE.md, "Cluster &
//! migration"). A [`ClusterRouter`] wraps any number of [`ClusterNode`]s
//! (each a primary [`ServiceHandle`] plus its read replicas), and
//! [`ClusterRouter::single`] is the one-node primary+replicas client.
//!
//! The router adds no per-operation methods of its own: every operation
//! is the one [`ServiceHandle`] method, run through one of three
//! combinators.
//!
//! * [`ClusterRouter::write`] resolves the campaign's owner through the
//!   router's map and runs the operation on that node's primary, e.g.
//!   `router.write(c, |h| h.request_tasks_ticket_in(c, w)?.wait())`. A
//!   [`RejectReason::WrongNode`] answer means the map is stale (the
//!   campaign was migrated): the router learns the returned owner and
//!   retries there — one retry for a settled directory, a brief
//!   park-and-ping-pong during a migration's fence window (both sides
//!   redirect until the new owner adopts the tail, which is exactly the
//!   "buffer and forward in-flight submissions" phase).
//! * [`ClusterRouter::read`] runs a pure read (`status_in`,
//!   `peek_report_in`, `snapshot_state_in`) on the owning node's next
//!   replica in round-robin order, falling back to that node's primary
//!   when a replica is gone, refuses, or has not bootstrapped the campaign
//!   yet (its lag shows as `UnknownCampaign`).
//! * [`ClusterRouter::owner_primary`] names the primary a pipelined
//!   submission should target right now; a crowd drive
//!   ([`DriveTarget`]) harvests the ticket and runs any redirect through
//!   the same policy as `write`.
//!
//! Replicas serve *their watermark's* state: a read routed to a lagging
//! follower is consistent-but-stale, exactly like any asynchronous read
//! replica. Callers that need read-your-writes read from the primary.

use crate::metrics::Counter;
use crate::server::{ServiceError, ServiceHandle};
use docs_types::{CampaignId, ClusterMap, NodeId, RejectReason};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Redirect budget of one operation: generous enough to ride out a
/// migration's whole fence window (each post-first redirect parks ~1 ms,
/// so this is ~10 s of forwarding patience), finite so a routing loop
/// between two confused nodes cannot hang a client forever.
const REDIRECT_LIMIT: usize = 10_000;

/// Anything a client can aim operations at: a single service pool
/// ([`ServiceHandle`]) or a whole multi-primary cluster
/// ([`ClusterRouter`]). A target names the primary that serves a campaign
/// right now and keeps the redirect ledger: a stale-map
/// [`RejectReason::WrongNode`] answer is a *retry* signal, not a
/// submission failure, so the caller resubmits against the owner the
/// service named instead of counting a rejection.
pub trait DriveTarget: Clone + Send + Sync + 'static {
    /// The campaign the target serves when the caller names none.
    fn default_campaign(&self) -> CampaignId;

    /// The primary that serves `campaign` right now. An owner outside the
    /// target's node set surfaces as the same `WrongNode` rejection the
    /// service would send.
    fn owner_primary(&self, campaign: CampaignId) -> Result<&ServiceHandle, ServiceError>;

    /// A `WrongNode` answer was harvested: learn the placement so the
    /// retry aims right. A single pool has nothing to learn.
    fn note_redirect(&self, _campaign: CampaignId, _owner: NodeId) {}

    /// An operation succeeded after at least one redirect (forwarding
    /// accounting). A single pool keeps no such ledger.
    fn note_forwarded(&self, _campaign: CampaignId) {}
}

impl DriveTarget for ServiceHandle {
    fn default_campaign(&self) -> CampaignId {
        ServiceHandle::default_campaign(self)
    }

    fn owner_primary(&self, _campaign: CampaignId) -> Result<&ServiceHandle, ServiceError> {
        Ok(self)
    }
}

/// The stale-map redirect policy, shared by the blocking
/// [`ClusterRouter::write`] and every pipelined caller (the crowd drive
/// harvests its tickets through it). `first` is the outcome of the first
/// attempt; every `WrongNode` answer is counted and learned through
/// `target`, then `retry` runs against the primary now believed to own
/// `campaign`. The first retry is immediate (a settled stale map
/// converges in one); later ones park ~1 ms, riding out a migration's
/// fence window in which source and destination both redirect until the
/// tail is adopted. An owner outside the target's node set ends the loop
/// with its `WrongNode` rejection, uncounted.
pub fn absorb_redirects<D: DriveTarget, T>(
    target: &D,
    campaign: CampaignId,
    first: Result<T, ServiceError>,
    retry: impl Fn(&ServiceHandle) -> Result<T, ServiceError>,
) -> Result<T, ServiceError> {
    let mut outcome = first;
    let mut redirects = 0usize;
    loop {
        match outcome {
            Ok(value) => {
                if redirects > 0 {
                    target.note_forwarded(campaign);
                }
                return Ok(value);
            }
            Err(ServiceError::Rejected(RejectReason::WrongNode { owner })) => {
                redirects += 1;
                if redirects > REDIRECT_LIMIT {
                    return Err(ServiceError::Rejected(RejectReason::WrongNode { owner }));
                }
                target.note_redirect(campaign, owner);
                if redirects > 1 {
                    std::thread::sleep(Duration::from_millis(1));
                }
                outcome = retry(target.owner_primary(campaign)?);
            }
            Err(e) => return Err(e),
        }
    }
}

/// One primary node of the cluster, as the router sees it: the write-side
/// handle plus any read replicas tailing it.
#[derive(Clone)]
pub struct ClusterNode {
    /// The node's cluster identity ([`ServiceConfig::node`] of its pool).
    ///
    /// [`ServiceConfig::node`]: crate::ServiceConfig
    pub id: NodeId,
    /// The node's primary (write-side) handle.
    pub primary: ServiceHandle,
    /// Read replicas tailing this node (may be empty).
    pub replicas: Vec<ServiceHandle>,
}

/// Per-node routing state: the handles plus the node's replica
/// round-robin cursor.
struct NodeEntry {
    node: ClusterNode,
    next_replica: AtomicUsize,
}

/// Where the router sent traffic so far (observability for tests,
/// examples, and capacity planning).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClusterRouterStats {
    /// Reads served by a replica.
    pub replica_reads: u64,
    /// Reads served by a primary (no replicas, or fallback).
    pub primary_reads: u64,
    /// Reads that fell back to a primary after a replica refused or
    /// disconnected.
    pub fallbacks: u64,
    /// `WrongNode` answers absorbed: the map was stale and the router
    /// re-aimed at the owner the service named.
    pub wrong_node_redirects: u64,
    /// Writes that succeeded after at least one redirect — the forwarded
    /// in-flight submissions of migration fence windows plus ordinary
    /// stale-map retries.
    pub forwarded_writes: u64,
}

impl std::fmt::Display for ClusterRouterStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "reads: {} replica / {} primary ({} fallbacks); \
             writes: {} redirects absorbed, {} forwarded",
            self.replica_reads,
            self.primary_reads,
            self.fallbacks,
            self.wrong_node_redirects,
            self.forwarded_writes
        )
    }
}

/// The routing client of a multi-primary cluster.
#[derive(Clone)]
pub struct ClusterRouter {
    nodes: Arc<Vec<NodeEntry>>,
    map: Arc<Mutex<ClusterMap>>,
    /// Placements learned from `WrongNode` answers — fresher than the map
    /// but not epoch-stamped, so a real [`ClusterRouter::install_map`]
    /// clears them.
    learned: Arc<Mutex<HashMap<CampaignId, NodeId>>>,
    replica_reads: Arc<AtomicU64>,
    primary_reads: Arc<AtomicU64>,
    fallbacks: Arc<AtomicU64>,
    wrong_node_redirects: Arc<AtomicU64>,
    forwarded_writes: Arc<AtomicU64>,
}

impl ClusterRouter {
    /// Routes by `map` across `nodes`.
    ///
    /// # Panics
    /// Panics when `nodes` is empty — a router with nowhere to send
    /// traffic is a construction bug, not a runtime condition.
    pub fn new(nodes: Vec<ClusterNode>, map: ClusterMap) -> Self {
        assert!(!nodes.is_empty(), "cluster router needs at least one node");
        ClusterRouter {
            nodes: Arc::new(
                nodes
                    .into_iter()
                    .map(|node| NodeEntry {
                        node,
                        next_replica: AtomicUsize::new(0),
                    })
                    .collect(),
            ),
            map: Arc::new(Mutex::new(map)),
            learned: Arc::new(Mutex::new(HashMap::new())),
            replica_reads: Arc::new(AtomicU64::new(0)),
            primary_reads: Arc::new(AtomicU64::new(0)),
            fallbacks: Arc::new(AtomicU64::new(0)),
            wrong_node_redirects: Arc::new(AtomicU64::new(0)),
            forwarded_writes: Arc::new(AtomicU64::new(0)),
        }
    }

    /// A one-node cluster — the single primary + replicas deployment:
    /// every campaign lives on `primary`, writes go there, and reads fan
    /// out across `replicas` (an empty list degrades to an all-primary
    /// router).
    pub fn single(id: NodeId, primary: ServiceHandle, replicas: Vec<ServiceHandle>) -> Self {
        Self::new(
            vec![ClusterNode {
                id,
                primary,
                replicas,
            }],
            ClusterMap::new(id),
        )
    }

    /// The routing directory the router currently follows (learned
    /// placements not included — they are transient hints).
    pub fn map(&self) -> ClusterMap {
        self.map.lock().clone()
    }

    /// Adopts a fresher directory (stale epochs are ignored) and drops
    /// every learned placement — the map is authoritative now. Returns
    /// whether the map was adopted.
    pub fn install_map(&self, map: &ClusterMap) -> bool {
        let mut current = self.map.lock();
        if map.epoch() <= current.epoch() && *current != *map {
            return false;
        }
        *current = map.clone();
        self.learned.lock().clear();
        true
    }

    /// The cluster nodes, in construction order.
    pub fn nodes(&self) -> Vec<ClusterNode> {
        self.nodes.iter().map(|e| e.node.clone()).collect()
    }

    /// Routing accounting so far.
    pub fn stats(&self) -> ClusterRouterStats {
        ClusterRouterStats {
            replica_reads: self.replica_reads.load(Ordering::Relaxed),
            primary_reads: self.primary_reads.load(Ordering::Relaxed),
            fallbacks: self.fallbacks.load(Ordering::Relaxed),
            wrong_node_redirects: self.wrong_node_redirects.load(Ordering::Relaxed),
            forwarded_writes: self.forwarded_writes.load(Ordering::Relaxed),
        }
    }

    /// The node currently believed to own `campaign`: a learned placement
    /// if one is pending, the directory otherwise. A one-node router
    /// skips the lookup — there is nothing to resolve.
    fn owner_of(&self, campaign: CampaignId) -> NodeId {
        if self.nodes.len() == 1 {
            return self.nodes[0].node.id;
        }
        if let Some(&owner) = self.learned.lock().get(&campaign) {
            return owner;
        }
        self.map.lock().owner(campaign)
    }

    fn entry_of(&self, id: NodeId) -> Option<&NodeEntry> {
        self.nodes.iter().find(|e| e.node.id == id)
    }

    /// The primary handle a pipelined submission for `campaign` should
    /// target right now. An owner outside the router's node set surfaces
    /// as the same `WrongNode` rejection the service would send.
    pub fn owner_primary(&self, campaign: CampaignId) -> Result<&ServiceHandle, ServiceError> {
        let owner = self.owner_of(campaign);
        match self.entry_of(owner) {
            Some(entry) => Ok(&entry.node.primary),
            None => Err(ServiceError::Rejected(RejectReason::WrongNode { owner })),
        }
    }

    /// Runs one write on the owning node's primary under the redirect
    /// policy: `WrongNode` answers are absorbed by learning the named
    /// owner and running `op` again there (see the module docs).
    pub fn write<T>(
        &self,
        campaign: CampaignId,
        op: impl Fn(&ServiceHandle) -> Result<T, ServiceError>,
    ) -> Result<T, ServiceError> {
        let started = Instant::now();
        // Routing work so far — directory lookup plus every absorbed
        // redirect and fence-window park — is what this hop cost the
        // request before it reached the node it is about to try.
        let hop = |primary: &ServiceHandle| {
            primary.metrics().router_hop_recorded(started.elapsed());
            op(primary)
        };
        let first = hop(self.owner_primary(campaign)?);
        absorb_redirects(self, campaign, first, hop)
    }

    /// Whether a replica's refusal warrants retrying on its primary: the
    /// replica is gone, lagging (campaign not bootstrapped yet), or was
    /// promoted/demoted out from under the router.
    fn retry_on_primary(error: &ServiceError) -> bool {
        matches!(
            error,
            ServiceError::Disconnected | ServiceError::Rejected(RejectReason::UnknownCampaign(_))
        )
    }

    /// Runs one pure read on the owning node: next replica in round-robin
    /// order, primary fallback. An owner outside the router's node set
    /// falls back to the first node — a fenced ex-owner still serves
    /// reads as a consistent-but-stale replica, so any node beats an
    /// error for read traffic.
    pub fn read<T>(
        &self,
        campaign: CampaignId,
        op: impl Fn(&ServiceHandle) -> Result<T, ServiceError>,
    ) -> Result<T, ServiceError> {
        let owner = self.owner_of(campaign);
        let entry = self.entry_of(owner).unwrap_or(&self.nodes[0]);
        let replicas = &entry.node.replicas;
        if replicas.is_empty() {
            self.primary_reads.fetch_add(1, Ordering::Relaxed);
            return op(&entry.node.primary);
        }
        let pick = entry.next_replica.fetch_add(1, Ordering::Relaxed) % replicas.len();
        match op(&replicas[pick]) {
            Ok(value) => {
                self.replica_reads.fetch_add(1, Ordering::Relaxed);
                Ok(value)
            }
            Err(e) if Self::retry_on_primary(&e) => {
                self.fallbacks.fetch_add(1, Ordering::Relaxed);
                self.primary_reads.fetch_add(1, Ordering::Relaxed);
                op(&entry.node.primary)
            }
            Err(e) => Err(e),
        }
    }
}

impl DriveTarget for ClusterRouter {
    fn default_campaign(&self) -> CampaignId {
        self.nodes[0].node.primary.default_campaign()
    }

    fn owner_primary(&self, campaign: CampaignId) -> Result<&ServiceHandle, ServiceError> {
        ClusterRouter::owner_primary(self, campaign)
    }

    fn note_redirect(&self, campaign: CampaignId, owner: NodeId) {
        self.wrong_node_redirects.fetch_add(1, Ordering::Relaxed);
        self.learned.lock().insert(campaign, owner);
    }

    fn note_forwarded(&self, campaign: CampaignId) {
        self.forwarded_writes.fetch_add(1, Ordering::Relaxed);
        if let Some(entry) = self.entry_of(self.owner_of(campaign)) {
            entry
                .node
                .primary
                .metrics()
                .add(Counter::ForwardedSubmissions, 1);
        }
    }
}

impl std::fmt::Debug for ClusterRouter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterRouter")
            .field("nodes", &self.nodes.len())
            .field("epoch", &self.map.lock().epoch())
            .field("stats", &self.stats())
            .finish()
    }
}
