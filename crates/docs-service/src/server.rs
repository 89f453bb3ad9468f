//! The sharded service runtime: a pool of shard threads, each owning a
//! [`CampaignRegistry`] of the campaigns hashed to it, plus a cloneable
//! routing handle speaking the submission/completion protocol.
//!
//! The paper's deployment is one Django backend serving one requester batch;
//! the seed mirrored that with a single server thread owning a single
//! [`Docs`]. This runtime generalizes it:
//!
//! * **Campaigns** are the unit of state: each [`CampaignId`] maps to one
//!   `Docs` state machine living on exactly one shard
//!   ([`CampaignId::shard`]), so campaign state is share-nothing — no locks,
//!   and requests for one campaign keep the paper's strict arrival-order
//!   serialization.
//! * **The router is the handle**: [`ServiceHandle`] computes the owning
//!   shard client-side and enqueues directly on that shard's channel —
//!   routing adds no extra hop or thread.
//! * **One method per operation**: each [`Request`] kind has one
//!   [`ServiceHandle`] method (the `create_campaign*` forms differ only in
//!   the persistence they request, and `try_request_tasks_in` is the
//!   fail-fast twin of `request_tasks_ticket_in`). Worker-plane
//!   operations (assignment, golden and answer submission) enqueue a
//!   correlation-tagged
//!   [`RequestEnvelope`](crate::message::RequestEnvelope) and return a
//!   [`Ticket`] immediately, so one client thread can keep many requests
//!   pipelined per shard; a blocking caller writes `?.wait()`. Requester,
//!   read, replication and control operations block for their completion.
//! * **Ingress is bounded**: each shard's queue admits at most
//!   [`ServiceConfig::queue_capacity`] requests. Submissions park until a
//!   slot frees (backpressure); the one fail-fast entry point,
//!   [`ServiceHandle::try_request_tasks_in`], returns
//!   [`ServiceError::Busy`] and bumps the shard's `busy_rejections` counter
//!   instead of letting the queue grow without limit.
//! * **Failures are data**: every refusal carries a matchable
//!   [`RejectReason`] ([`ServiceError::Rejected`]) whose `Display` output
//!   reproduces the pre-taxonomy message text.
//! * **Durability is event-sourced**: when [`ServiceConfig::durability`] is
//!   set, each shard owns a [`CampaignLog`] under `dir/shard-<i>`. For a
//!   campaign that opted in (per-campaign, via
//!   `DocsConfig::durable_flush` or a wire-level override), every mutating
//!   request is validated, rendered into a [`CampaignEvent`], appended to
//!   the log (group-committed per the campaign's [`FlushPolicy`]), and only
//!   then applied. Periodic snapshots (`snapshot_every`) re-baseline every
//!   campaign on the shard and prune old segments.
//!   [`DocsService::recover`] rebuilds the whole registry from snapshots +
//!   log replay — across restarts that change the shard count.
//! * **Single-campaign deployments**: [`DocsService::spawn`] registers its
//!   `Docs` as the *default campaign* ([`ServiceHandle::default_campaign`])
//!   and [`DocsService::join`] returns it, so a seed-style caller names one
//!   campaign id and otherwise uses the same methods as everyone else.

use crate::message::{BatchOutcome, Completion, Request, RequestEnvelope, Response};
use crate::metrics::{Counter, OpKind, ServiceMetrics};
use crate::ticket::Ticket;
use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender, TrySendError};
use docs_obs::{JournalKind, SpanKind, TraceContext};
use docs_storage::{recover_tree, AdaptiveCommit, CampaignLog, FlushPolicy};
use docs_system::{
    CampaignRegistry, CampaignStatus, Docs, MutationAdmission, OwnershipTable, RequesterReport,
    WorkRequest,
};
use docs_types::{
    codec, Answer, CampaignEvent, CampaignId, ChoiceIndex, ClusterMap, EventFrame, NodeId,
    PublishedEvent, RejectReason, ReplicaRole, ReplicationFrame, SnapshotFrame, TaskId, WorkerId,
};
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Errors surfaced to service clients.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// The owning shard thread is gone (shut down or panicked).
    Disconnected,
    /// Fail-fast admission refused the submission: the owning shard's
    /// bounded ingress queue is at capacity. The request was *not*
    /// enqueued; retry later or fall back to a blocking submission.
    Busy {
        /// The shard whose queue was full.
        shard: usize,
    },
    /// The system rejected the request; the reason is matchable data
    /// (duplicate answer, unknown campaign, exhausted budget, …).
    Rejected(RejectReason),
}

impl ServiceError {
    /// The structured rejection, when this error is one.
    pub fn reason(&self) -> Option<&RejectReason> {
        match self {
            ServiceError::Rejected(reason) => Some(reason),
            _ => None,
        }
    }
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Disconnected => write!(f, "DOCS service disconnected"),
            ServiceError::Busy { shard } => {
                write!(f, "shard {shard} ingress queue is full")
            }
            ServiceError::Rejected(reason) => write!(f, "request rejected: {reason}"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// The primary's half of the replication wire: shard threads hand every
/// frame they seal (durable event batches, snapshots) to this sink; a
/// `docs-replication` hub on the other end encodes, CRC-stamps, and fans
/// the frames out to subscribed followers. Shipping is strictly
/// *post-flush*: a frame never carries an event the primary's disk has not
/// accepted, so a follower's watermark can only reach states the primary
/// could itself recover to.
#[derive(Clone)]
pub struct ReplicationSink(Sender<ReplicationFrame>);

impl ReplicationSink {
    /// Wraps the sending half of a replication stream.
    pub fn new(tx: Sender<ReplicationFrame>) -> Self {
        ReplicationSink(tx)
    }

    /// Ships one frame; a gone hub (every follower detached) is not an
    /// error — the primary keeps serving unreplicated.
    fn ship(&self, frame: ReplicationFrame) -> bool {
        self.0.send(frame).is_ok()
    }
}

impl fmt::Debug for ReplicationSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ReplicationSink").finish_non_exhaustive()
    }
}

/// Shared mutable role of a running service: shards consult it per
/// request, promotion flips it exactly once.
#[derive(Debug, Clone)]
struct RoleCell(Arc<AtomicU8>);

impl RoleCell {
    fn new(role: ReplicaRole) -> Self {
        RoleCell(Arc::new(AtomicU8::new(match role {
            ReplicaRole::Primary => 0,
            ReplicaRole::Follower => 1,
        })))
    }

    fn get(&self) -> ReplicaRole {
        if self.0.load(Ordering::SeqCst) == 0 {
            ReplicaRole::Primary
        } else {
            ReplicaRole::Follower
        }
    }

    fn set(&self, role: ReplicaRole) {
        self.0.store(
            match role {
                ReplicaRole::Primary => 0,
                ReplicaRole::Follower => 1,
            },
            Ordering::SeqCst,
        );
    }
}

/// Where and how the service persists campaign events.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Root directory; each shard logs under `dir/shard-<i>`.
    pub dir: PathBuf,
    /// Flush policy for campaigns created durable without naming one.
    pub default_flush: FlushPolicy,
    /// After this many logged events, a shard snapshots every campaign it
    /// owns and prunes its log segments (bounds replay cost).
    pub snapshot_every: u64,
    /// Adaptive group commit for [`FlushPolicy::EveryEvent`] campaigns:
    /// under load a shard grows the commit batch within these bounds and
    /// pays one `fdatasync` for the whole batch, **deferring every
    /// acknowledgment until the batch is durable** — the ack⇒durable
    /// contract of `EveryEvent` survives while the sync cost amortizes
    /// like `Batch(n)`. An idle shard flushes immediately (the batch
    /// shrinks back to one event). `None` restores strict
    /// one-sync-per-event behavior.
    pub adaptive: Option<AdaptiveCommit>,
}

impl DurabilityConfig {
    /// Durability rooted at `dir` with group commit (`Batch(64)`), a
    /// 1024-event snapshot cadence, and adaptive commit for `EveryEvent`
    /// campaigns.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DurabilityConfig {
            dir: dir.into(),
            default_flush: FlushPolicy::Batch(64),
            snapshot_every: 1024,
            adaptive: Some(AdaptiveCommit::default()),
        }
    }
}

/// Deployment knobs of the service runtime.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Number of shard worker threads. Campaigns are hash-partitioned
    /// across them; `1` reproduces the seed's single-server-thread runtime.
    /// `0` is treated as `1`.
    pub shards: usize,
    /// Event-log durability; `None` keeps every campaign memory-only.
    pub durability: Option<DurabilityConfig>,
    /// Per-shard ingress-queue bound: at most this many requests can sit
    /// in a shard's queue (one more may already be executing on the shard
    /// thread, so worst-case in-shard demand is `queue_capacity + 1`).
    /// Submissions park until a slot frees;
    /// [`ServiceHandle::try_request_tasks_in`] fails fast with
    /// [`ServiceError::Busy`]. `0` is treated as `1`.
    pub queue_capacity: usize,
    /// The role the pool starts in. A [`ReplicaRole::Follower`] refuses
    /// every mutation with [`RejectReason::ReadOnlyReplica`], serves the
    /// pure reads locally, and accepts the replication plane (snapshot
    /// installs, replicated applies) until it is promoted.
    pub role: ReplicaRole,
    /// When set on a primary with durability, every snapshot written and
    /// every flushed (durable) event is also handed to this sink as a
    /// [`ReplicationFrame`] — the WAL-shipping feed followers apply.
    pub replication: Option<ReplicationSink>,
    /// Sample every Nth submission into the flight recorder as a full
    /// request trace (`0` disables tracing). Sampling is cheap enough to
    /// leave on in production at, say, `1024`; traced requests pay one
    /// heap allocation plus a handful of clock reads.
    pub trace_sample_every: u64,
    /// This pool's identity inside a multi-primary cluster. Single-node
    /// deployments keep the default `NodeId(0)` and never notice it; in a
    /// cluster each primary pool gets a distinct id, which fencing records
    /// as the redirect target of [`RejectReason::WrongNode`].
    pub node: NodeId,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            shards: 0,
            durability: None,
            queue_capacity: Self::DEFAULT_QUEUE_CAPACITY,
            role: ReplicaRole::Primary,
            replication: None,
            trace_sample_every: 0,
            node: NodeId(0),
        }
    }
}

impl ServiceConfig {
    /// Default per-shard ingress bound: deep enough that pipelined clients
    /// never notice it, shallow enough that a stalled shard pushes back
    /// instead of buffering unboundedly.
    pub const DEFAULT_QUEUE_CAPACITY: usize = 1024;

    /// A memory-only pool of `shards` shard threads.
    pub fn sharded(shards: usize) -> Self {
        ServiceConfig {
            shards,
            ..Default::default()
        }
    }

    /// A pool of `shards` shard threads with durability rooted at `dir`.
    pub fn durable(shards: usize, dir: impl Into<PathBuf>) -> Self {
        ServiceConfig {
            shards,
            durability: Some(DurabilityConfig::new(dir)),
            ..Default::default()
        }
    }

    /// Overrides the per-shard ingress bound (`0` is treated as `1`).
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Samples every Nth submission into the flight recorder (`0` = off).
    pub fn with_trace_sampling(mut self, every: u64) -> Self {
        self.trace_sample_every = every;
        self
    }

    /// A memory-only follower pool of `shards` shard threads (campaigns
    /// arrive via snapshot installs, not `create_campaign`).
    pub fn follower(shards: usize) -> Self {
        ServiceConfig {
            shards,
            role: ReplicaRole::Follower,
            ..Default::default()
        }
    }

    /// Attaches a replication sink: durable events and snapshots ship
    /// through it as frames (see [`ReplicationSink`]).
    pub fn with_replication(mut self, sink: ReplicationSink) -> Self {
        self.replication = Some(sink);
        self
    }

    /// Sets this pool's cluster node identity.
    pub fn with_node(mut self, node: NodeId) -> Self {
        self.node = node;
        self
    }

    fn num_shards(&self) -> usize {
        self.shards.max(1)
    }
}

/// Per-shard spawn seeds: the registry each shard starts with plus, per
/// persisted campaign, its flush policy and last durable sequence number.
type PoolSeeds = Vec<(CampaignRegistry, Vec<(CampaignId, FlushPolicy, u64)>)>;

/// One admitted submission on a shard's ingress queue: the wire envelope
/// plus the sender of the submitter's one-shot completion slot.
struct Inbound {
    envelope: RequestEnvelope,
    completions: Sender<Completion>,
}

/// How a submission behaves when the shard's ingress queue is full.
#[derive(Clone, Copy)]
enum Admission {
    /// Park until a slot frees — backpressure, every method's choice but
    /// one.
    Block,
    /// Fail fast with [`ServiceError::Busy`] —
    /// [`ServiceHandle::try_request_tasks_in`] only.
    FailFast,
}

/// Cloneable routing client for a running [`DocsService`].
///
/// One method per operation over one wire protocol:
///
/// * **worker plane** — [`request_tasks_ticket_in`](Self::request_tasks_ticket_in),
///   [`submit_golden_ticket_in`](Self::submit_golden_ticket_in),
///   [`submit_answer_ticket_in`](Self::submit_answer_ticket_in) and
///   [`submit_answer_batch_ticket_in`](Self::submit_answer_batch_ticket_in)
///   return the [`Ticket`], letting one client thread keep many
///   operations in flight per shard and harvest completions when it
///   pleases; `?.wait()` turns any of them into one synchronous
///   round-trip, exactly like an HTTP call to the paper's Django backend.
///   [`try_request_tasks_in`](Self::try_request_tasks_in) is the single
///   fail-fast form ([`ServiceError::Busy`] on a full queue);
/// * **requester plane, reads, replication and control** — `create_campaign*`,
///   `finish_in`, `status_in`, `peek_report_in`, `snapshot_state_in`,
///   `replicate_*`, `fence_in`, the migration steps and
///   `install_cluster_map` block until their completion arrives.
///
/// Handles are cheap to clone and safe to use from many threads.
#[derive(Clone)]
pub struct ServiceHandle {
    shards: Arc<Vec<Sender<Inbound>>>,
    next_campaign: Arc<AtomicU32>,
    next_correlation: Arc<AtomicU64>,
    metrics: ServiceMetrics,
    default_campaign: CampaignId,
    default_flush: Option<FlushPolicy>,
    crash: Arc<AtomicBool>,
    role: RoleCell,
}

impl ServiceHandle {
    /// The submission half of every operation: tags the request with a
    /// fresh correlation id, admits it onto the owning shard's bounded
    /// queue under `admission`, and returns the typed completion handle.
    fn submit_with<T>(
        &self,
        request: Request,
        admission: Admission,
        decode: fn(Response) -> Result<T, ServiceError>,
    ) -> Result<Ticket<T>, ServiceError> {
        let shard = request.campaign().shard(self.shards.len());
        self.submit_to_shard(shard, request, admission, decode)
    }

    /// Like [`submit_with`](Self::submit_with) but with an explicit target
    /// shard — the broadcast path (`InstallMap`) sends one copy per shard
    /// instead of routing by campaign.
    fn submit_to_shard<T>(
        &self,
        shard: usize,
        request: Request,
        admission: Admission,
        decode: fn(Response) -> Result<T, ServiceError>,
    ) -> Result<Ticket<T>, ServiceError> {
        let correlation = self.next_correlation.fetch_add(1, Ordering::Relaxed);
        let (completion_tx, completion_rx) = bounded(1);
        // Sampled tracing: the unsampled path is one relaxed load inside
        // `maybe_trace`. A sampled envelope closes its client-submit span
        // here, so everything until the shard dequeues it is queue wait.
        let trace = self.metrics.maybe_trace(correlation).map(|mut t| {
            t.span(SpanKind::ClientSubmit);
            Box::new(t)
        });
        let inbound = Inbound {
            envelope: RequestEnvelope {
                correlation,
                request,
                trace,
            },
            completions: completion_tx,
        };
        let depth = self.metrics.shard_enqueued(shard);
        let outcome = match admission {
            Admission::Block => self.shards[shard]
                .send(inbound)
                .map_err(|_| ServiceError::Disconnected),
            Admission::FailFast => self.shards[shard].try_send(inbound).map_err(|e| match e {
                TrySendError::Full(_) => {
                    self.metrics.busy_rejection(shard);
                    ServiceError::Busy { shard }
                }
                TrySendError::Disconnected(_) => ServiceError::Disconnected,
            }),
        };
        if let Err(e) = outcome {
            // The request never entered the queue: roll the depth back so
            // no phantom high-water mark survives.
            self.metrics.shard_enqueue_failed(shard);
            return Err(e);
        }
        // High-water mark only once the request is really in the queue.
        self.metrics.shard_send_recorded(shard, depth);
        self.metrics.ticket_issued(shard);
        Ok(Ticket::new(
            completion_rx,
            correlation,
            shard,
            decode,
            self.metrics.clone(),
        ))
    }

    fn create_campaign_inner(
        &self,
        docs: Docs,
        persistence: Option<FlushPolicy>,
    ) -> Result<CampaignId, ServiceError> {
        let campaign = CampaignId(self.next_campaign.fetch_add(1, Ordering::Relaxed));
        self.submit_with(
            Request::CreateCampaign {
                campaign,
                docs: Box::new(docs),
                persistence,
            },
            Admission::Block,
            decode_created,
        )?
        .wait()
    }

    /// Registers a published system as a new campaign and returns its id.
    /// The campaign is persisted iff its own `DocsConfig::durable_flush`
    /// asks for it (and the service was spawned with durability).
    pub fn create_campaign(&self, docs: Docs) -> Result<CampaignId, ServiceError> {
        self.create_campaign_inner(docs, None)
    }

    /// Registers a campaign with an explicit persistence override: the
    /// campaign's events are logged under `policy` regardless of what its
    /// `DocsConfig` says. Fails if the service has no durability directory.
    pub fn create_campaign_with(
        &self,
        docs: Docs,
        policy: FlushPolicy,
    ) -> Result<CampaignId, ServiceError> {
        self.create_campaign_inner(docs, Some(policy))
    }

    /// Registers a durable campaign under the service's default flush
    /// policy ([`DurabilityConfig::default_flush`]).
    pub fn create_campaign_durable(&self, docs: Docs) -> Result<CampaignId, ServiceError> {
        let policy = self.default_flush.ok_or(ServiceError::Rejected(
            RejectReason::DurabilityUnavailable { campaign: None },
        ))?;
        self.create_campaign_inner(docs, Some(policy))
    }

    /// The campaign [`DocsService::spawn`] registered its `Docs` as
    /// (`CampaignId(0)`; an empty or recovered pool reports the same id).
    pub fn default_campaign(&self) -> CampaignId {
        self.default_campaign
    }

    /// The service's current replica role.
    pub fn role(&self) -> ReplicaRole {
        self.role.get()
    }

    /// Flips the service to [`ReplicaRole::Primary`]: mutations are
    /// accepted from the next request on, and the replication plane is
    /// refused. This is the *mechanism* of failover; the *policy* (drain
    /// every received frame first, record the promotion watermark) lives in
    /// `docs-replication`'s follower controller — prefer promoting through
    /// it so no in-flight frame is abandoned below the promised watermark.
    pub fn promote_to_primary(&self) {
        self.role.set(ReplicaRole::Primary);
        self.metrics
            .journal()
            .info(JournalKind::Promotion, "replica promoted to primary");
    }

    /// Fault injection: makes every shard behave as if the process died —
    /// each shard thread stops at its next loop turn *without* flushing its
    /// group-commit buffer, so acknowledged-but-unsynced events are lost
    /// exactly as a real `kill -9` would lose them. Drop all handles
    /// afterwards to unblock shards waiting on their queues; then recover
    /// with [`DocsService::recover`].
    pub fn simulate_crash(&self) {
        self.crash.store(true, Ordering::SeqCst);
    }

    // ------------------------------------------------------------------
    // Worker plane: the latency-critical operations return their ticket
    // (`?.wait()` makes any of them a blocking round-trip).
    // ------------------------------------------------------------------

    /// "A worker comes and requests tasks" on one campaign: returns the
    /// completion handle without waiting. Parks if the shard's ingress
    /// queue is full.
    pub fn request_tasks_ticket_in(
        &self,
        campaign: CampaignId,
        worker: WorkerId,
    ) -> Result<Ticket<WorkRequest>, ServiceError> {
        self.submit_with(
            Request::RequestWork { campaign, worker },
            Admission::Block,
            decode_work,
        )
    }

    /// Fail-fast form of [`ServiceHandle::request_tasks_ticket_in`] — the
    /// service's one load-shedding entry point: returns
    /// [`ServiceError::Busy`] instead of parking when the shard's ingress
    /// queue is at capacity.
    pub fn try_request_tasks_in(
        &self,
        campaign: CampaignId,
        worker: WorkerId,
    ) -> Result<Ticket<WorkRequest>, ServiceError> {
        self.submit_with(
            Request::RequestWork { campaign, worker },
            Admission::FailFast,
            decode_work,
        )
    }

    /// Submits a new worker's golden-HIT answers on one campaign without
    /// waiting for the ack.
    pub fn submit_golden_ticket_in(
        &self,
        campaign: CampaignId,
        worker: WorkerId,
        answers: Vec<(TaskId, ChoiceIndex)>,
    ) -> Result<Ticket<()>, ServiceError> {
        self.submit_with(
            Request::SubmitGolden {
                campaign,
                worker,
                answers,
            },
            Admission::Block,
            decode_ack,
        )
    }

    /// Submits one answer on one campaign without waiting for the ack.
    pub fn submit_answer_ticket_in(
        &self,
        campaign: CampaignId,
        answer: Answer,
    ) -> Result<Ticket<()>, ServiceError> {
        self.submit_with(
            Request::SubmitAnswer { campaign, answer },
            Admission::Block,
            decode_ack,
        )
    }

    /// Submits a whole HIT's answers on one campaign without waiting for
    /// the per-answer outcome — the pipelined driver's hot path: the next
    /// HIT request can ride the wire while this batch is still being
    /// validated, logged, and applied. The batch is one WAL record, one
    /// group-commit sync, and one benefit-index repair on the owning
    /// shard; rejection is per answer, and the [`BatchOutcome`] names
    /// which answers were refused and why, exactly as individual
    /// submissions would have been.
    pub fn submit_answer_batch_ticket_in(
        &self,
        campaign: CampaignId,
        answers: Vec<Answer>,
    ) -> Result<Ticket<BatchOutcome>, ServiceError> {
        self.submit_with(
            Request::SubmitAnswerBatch { campaign, answers },
            Admission::Block,
            decode_batch,
        )
    }

    // ------------------------------------------------------------------
    // Requester plane and pure reads: one blocking round-trip each. The
    // reads are served by primaries and followers alike.
    // ------------------------------------------------------------------

    /// Submits `request` (parking on a full queue) and waits for its
    /// completion.
    fn call<T>(
        &self,
        request: Request,
        decode: fn(Response) -> Result<T, ServiceError>,
    ) -> Result<T, ServiceError> {
        self.submit_with(request, Admission::Block, decode)?.wait()
    }

    /// Finalizes one campaign's inference and returns its report.
    pub fn finish_in(&self, campaign: CampaignId) -> Result<RequesterReport, ServiceError> {
        self.call(Request::Finish { campaign }, decode_report)
    }

    /// The campaign's observable serving state (answers collected, worker
    /// counts, budget) — a pure read, servable by a follower.
    pub fn status_in(&self, campaign: CampaignId) -> Result<CampaignStatus, ServiceError> {
        self.call(Request::Status { campaign }, decode_status)
    }

    /// The requester report under the campaign's *current* state — unlike
    /// [`ServiceHandle::finish_in`], no `Finished` event is applied (no
    /// full-inference pass is forced, nothing is logged), so this is a
    /// pure read a follower serves locally.
    pub fn peek_report_in(&self, campaign: CampaignId) -> Result<RequesterReport, ServiceError> {
        self.call(Request::PeekReport { campaign }, decode_report)
    }

    /// The campaign's full serialized `CampaignSnapshot` — the
    /// byte-identity probe: a follower at watermark `w` returns exactly
    /// the bytes the primary's state had at `w`.
    pub fn snapshot_state_in(&self, campaign: CampaignId) -> Result<Vec<u8>, ServiceError> {
        self.call(Request::SnapshotState { campaign }, decode_state)
    }

    // ------------------------------------------------------------------
    // Replication plane: fed by a follower's applier, refused elsewhere.
    // ------------------------------------------------------------------

    /// Installs a replicated campaign snapshot on this follower (bootstrap
    /// or fast-forward), covering sequences up to `seq`.
    pub fn replicate_install_snapshot(
        &self,
        campaign: CampaignId,
        seq: u64,
        snapshot: Vec<u8>,
    ) -> Result<(), ServiceError> {
        self.call(
            Request::InstallSnapshot {
                campaign,
                seq,
                snapshot,
            },
            decode_ack,
        )
    }

    /// Applies one replicated event at its primary-assigned sequence
    /// number on this follower. The caller (the applier) guarantees
    /// per-campaign gap-free order.
    pub fn replicate_apply(
        &self,
        campaign: CampaignId,
        seq: u64,
        event: CampaignEvent,
    ) -> Result<(), ServiceError> {
        self.call(
            Request::ApplyReplicated {
                campaign,
                seq,
                event: Box::new(event),
            },
            decode_ack,
        )
    }

    // ------------------------------------------------------------------
    // Cluster control plane: fencing, migration intake, directory
    // installs (see ARCHITECTURE.md, "Cluster & migration").
    // ------------------------------------------------------------------

    /// Fences `campaign` away to `owner`: the owning shard hardens the
    /// campaign's buffered events, ships them, records the hand-off, and
    /// returns the hardened watermark — every later mutation of the
    /// campaign is refused with [`RejectReason::WrongNode`] naming
    /// `owner`. The linearization point of a live migration.
    pub fn fence_in(&self, campaign: CampaignId, owner: NodeId) -> Result<u64, ServiceError> {
        self.call(Request::Fence { campaign, owner }, decode_fenced)
    }

    /// Begins migration intake for `campaign`: this pool admits the
    /// replication plane for it (despite running as a primary) and
    /// redirects mutations back to `source` until
    /// [`ServiceHandle::complete_migration_in`].
    pub fn prepare_migration_in(
        &self,
        campaign: CampaignId,
        source: NodeId,
    ) -> Result<(), ServiceError> {
        self.call(Request::PrepareMigration { campaign, source }, decode_ack)
    }

    /// Adopts the migrated campaign's write path: ends intake, clears any
    /// stale fence from a previous round-trip.
    pub fn complete_migration_in(&self, campaign: CampaignId) -> Result<(), ServiceError> {
        self.call(Request::CompleteMigration { campaign }, decode_ack)
    }

    /// Installs a routing directory on **every** shard of this pool
    /// (broadcast — the one request not routed by campaign). Fresher
    /// epochs win per shard; stale installs are acknowledged and dropped.
    pub fn install_cluster_map(&self, map: &ClusterMap) -> Result<(), ServiceError> {
        let tickets: Vec<Ticket<()>> = (0..self.shards.len())
            .map(|shard| {
                self.submit_to_shard(
                    shard,
                    Request::InstallMap {
                        map: Box::new(map.clone()),
                    },
                    Admission::Block,
                    decode_ack,
                )
            })
            .collect::<Result<_, _>>()?;
        for ticket in tickets {
            ticket.wait()?;
        }
        Ok(())
    }

    /// The shared latency/queue/durability metrics.
    pub fn metrics(&self) -> &ServiceMetrics {
        &self.metrics
    }
}

// Completion decoders: one per operation kind. Rejections pass through as
// typed errors; a cross-typed response is a protocol violation (the shard
// echoed the wrong correlation's payload), which per-ticket one-shot slots
// make impossible short of a bug.
fn decode_created(response: Response) -> Result<CampaignId, ServiceError> {
    match response {
        Response::CampaignCreated(id) => Ok(id),
        Response::Rejected(reason) => Err(ServiceError::Rejected(reason)),
        other => unreachable!("protocol violation: {other:?}"),
    }
}

fn decode_work(response: Response) -> Result<WorkRequest, ServiceError> {
    match response {
        Response::Work(w) => Ok(w),
        Response::Rejected(reason) => Err(ServiceError::Rejected(reason)),
        other => unreachable!("protocol violation: {other:?}"),
    }
}

fn decode_ack(response: Response) -> Result<(), ServiceError> {
    match response {
        Response::Ack => Ok(()),
        Response::Rejected(reason) => Err(ServiceError::Rejected(reason)),
        other => unreachable!("protocol violation: {other:?}"),
    }
}

fn decode_batch(response: Response) -> Result<BatchOutcome, ServiceError> {
    match response {
        Response::BatchAck(outcome) => Ok(outcome),
        Response::Rejected(reason) => Err(ServiceError::Rejected(reason)),
        other => unreachable!("protocol violation: {other:?}"),
    }
}

fn decode_report(response: Response) -> Result<RequesterReport, ServiceError> {
    match response {
        Response::Report(r) => Ok(*r),
        Response::Rejected(reason) => Err(ServiceError::Rejected(reason)),
        other => unreachable!("protocol violation: {other:?}"),
    }
}

fn decode_status(response: Response) -> Result<CampaignStatus, ServiceError> {
    match response {
        Response::Status(s) => Ok(*s),
        Response::Rejected(reason) => Err(ServiceError::Rejected(reason)),
        other => unreachable!("protocol violation: {other:?}"),
    }
}

fn decode_state(response: Response) -> Result<Vec<u8>, ServiceError> {
    match response {
        Response::State(bytes) => Ok(bytes),
        Response::Rejected(reason) => Err(ServiceError::Rejected(reason)),
        other => unreachable!("protocol violation: {other:?}"),
    }
}

fn decode_fenced(response: Response) -> Result<u64, ServiceError> {
    match response {
        Response::Fenced { watermark } => Ok(watermark),
        Response::Rejected(reason) => Err(ServiceError::Rejected(reason)),
        other => unreachable!("protocol violation: {other:?}"),
    }
}

/// A running DOCS service (the shard-thread pool).
pub struct DocsService {
    joins: Vec<JoinHandle<CampaignRegistry>>,
    default_campaign: CampaignId,
}

/// Runs a data-plane handler against one campaign's state; an unknown id
/// gets the one [`RejectReason::UnknownCampaign`] every request kind
/// shares.
fn on_campaign(
    registry: &mut CampaignRegistry,
    campaign: CampaignId,
    f: impl FnOnce(&mut Docs) -> Response,
) -> Response {
    match registry.get_mut(campaign) {
        Some(docs) => f(docs),
        None => Response::Rejected(RejectReason::UnknownCampaign(campaign)),
    }
}

/// A sealed-but-unshipped item of one shard's replication feed, queued in
/// append order until the group commit that hardens it completes.
enum Unshipped {
    Snapshot(SnapshotFrame),
    Event(EventFrame),
}

/// One shard's durability state: its campaign log plus the set of campaigns
/// whose events it records.
struct ShardDurability {
    log: CampaignLog,
    persisted: BTreeSet<CampaignId>,
    /// Sequence each campaign's latest snapshot covers — clean campaigns
    /// (no events since) are skipped by the snapshot cycle.
    snapshotted_at: HashMap<CampaignId, u64>,
    snapshot_every: u64,
    events_since_snapshot: u64,
    observed_flushes: u64,
    /// Replication feed (primary side): frames queue here at append time
    /// and ship only once the log's buffer is empty — i.e. once the events
    /// they carry are actually on disk.
    sink: Option<ReplicationSink>,
    unshipped: Vec<Unshipped>,
}

impl ShardDurability {
    /// Opens shard `shard`'s campaign log under `d.dir`, registers the
    /// recovered `persisted` campaigns at their last durable sequence, and
    /// writes each a fresh baseline snapshot into *this* epoch's directory,
    /// so the next recovery replays only events from now on.
    fn open(
        shard: usize,
        d: &DurabilityConfig,
        sink: Option<ReplicationSink>,
        registry: &CampaignRegistry,
        persisted: Vec<(CampaignId, FlushPolicy, u64)>,
        metrics: &ServiceMetrics,
    ) -> docs_types::Result<Self> {
        let mut log = CampaignLog::open(d.dir.join(format!("shard-{shard}")))?;
        log.set_adaptive(d.adaptive);
        // Every group commit reports its batch size and sync latency
        // straight into the lock-free histograms.
        let flush_metrics = metrics.clone();
        log.set_flush_observer(Some(Arc::new(move |events, sync| {
            flush_metrics.flush_recorded(events, sync);
        })));
        let mut durability = ShardDurability {
            log,
            persisted: BTreeSet::new(),
            snapshotted_at: HashMap::new(),
            snapshot_every: d.snapshot_every,
            events_since_snapshot: 0,
            observed_flushes: 0,
            sink,
            unshipped: Vec::new(),
        };
        for (campaign, policy, last_seq) in persisted {
            durability.log.register(campaign, policy, last_seq);
            durability.persisted.insert(campaign);
            if let Some(docs) = registry.get(campaign) {
                durability.snapshot_campaign(campaign, docs, metrics)?;
            }
        }
        Ok(durability)
    }

    fn snapshot_campaign(
        &mut self,
        campaign: CampaignId,
        docs: &Docs,
        metrics: &ServiceMetrics,
    ) -> docs_types::Result<()> {
        let bytes = codec::to_bytes(&docs.snapshot());
        let seq = self.log.write_snapshot(campaign, &bytes)?;
        self.snapshotted_at.insert(campaign, seq);
        metrics.add(Counter::SnapshotsWritten, 1);
        if self.sink.is_some() {
            self.unshipped.push(Unshipped::Snapshot(SnapshotFrame {
                campaign,
                seq,
                payload: bytes,
            }));
        }
        Ok(())
    }

    /// Queues one appended event for shipping (no-op without a sink). The
    /// payload is the exact WAL record payload, so followers replay the
    /// same bytes recovery would. Takes the encoded bytes by value: the
    /// append path is done with them, so shipping moves the allocation
    /// instead of copying it.
    fn queue_event_for_ship(&mut self, campaign: CampaignId, seq: u64, payload: Vec<u8>) {
        if self.sink.is_some() {
            self.unshipped.push(Unshipped::Event(EventFrame {
                campaign,
                seq,
                payload,
            }));
        }
    }

    /// Ships everything queued, provided the log's buffer is empty (all
    /// queued events are durable). Consecutive events coalesce into one
    /// [`ReplicationFrame::Events`] per group commit; snapshots ship as
    /// their own frames, in order. Called *before* a request's completion
    /// is sent, so an acknowledged durable event is always already on the
    /// wire to the followers.
    fn ship(&mut self, metrics: &ServiceMetrics) {
        let Some(sink) = &self.sink else {
            return;
        };
        if self.unshipped.is_empty() || self.log.pending_events() != 0 {
            return;
        }
        let mut batch: Vec<EventFrame> = Vec::new();
        let mut frames: Vec<ReplicationFrame> = Vec::new();
        for item in self.unshipped.drain(..) {
            match item {
                Unshipped::Event(event) => batch.push(event),
                Unshipped::Snapshot(snapshot) => {
                    if !batch.is_empty() {
                        frames.push(ReplicationFrame::Events(std::mem::take(&mut batch)));
                    }
                    frames.push(ReplicationFrame::Snapshot(snapshot));
                }
            }
        }
        if !batch.is_empty() {
            frames.push(ReplicationFrame::Events(batch));
        }
        for frame in frames {
            let events = frame.num_events() as u64;
            if !sink.ship(frame) {
                // Hub gone: stop feeding a dead wire but keep serving.
                self.sink = None;
                self.unshipped.clear();
                return;
            }
            metrics.add(Counter::FramesShipped, 1);
            metrics.add(Counter::EventsShipped, events);
        }
    }

    /// Re-baselines the *dirty* persisted campaigns on the shard (those
    /// with events beyond their latest snapshot) and prunes the log
    /// segments the snapshots superseded. Clean campaigns keep their
    /// existing snapshot — it already covers every event they have, so
    /// pruning stays safe without re-serializing idle state.
    fn snapshot_cycle(
        &mut self,
        registry: &CampaignRegistry,
        metrics: &ServiceMetrics,
    ) -> docs_types::Result<()> {
        let campaigns: Vec<CampaignId> = self.persisted.iter().copied().collect();
        for campaign in campaigns {
            if self.log.last_seq(campaign)
                == self.snapshotted_at.get(&campaign).copied().unwrap_or(0)
            {
                continue;
            }
            if let Some(docs) = registry.get(campaign) {
                self.snapshot_campaign(campaign, docs, metrics)?;
            }
        }
        self.log.prune_segments()?;
        self.events_since_snapshot = 0;
        Ok(())
    }

    /// Publishes flush gauges when the log flushed since the last look.
    fn observe(&mut self, shard: usize, metrics: &ServiceMetrics) {
        let stats = self.log.stats();
        if stats.flushes == self.observed_flushes {
            return;
        }
        self.observed_flushes = stats.flushes;
        metrics.shard_log_observed(
            shard,
            stats.appended,
            stats.flushes,
            stats.last_flush,
            stats.max_flush,
            self.log.on_disk_bytes(),
        );
    }
}

/// Validates, logs (for persisted campaigns), and applies one event, then
/// builds the success response. The write-ahead discipline: nothing is
/// applied before it is in the log buffer, and nothing rejected ever
/// reaches the log.
fn apply_event(
    registry: &mut CampaignRegistry,
    durability: &mut Option<ShardDurability>,
    metrics: &ServiceMetrics,
    shard: usize,
    campaign: CampaignId,
    event: CampaignEvent,
    success: impl FnOnce(&mut Docs) -> Response,
) -> Response {
    let Some(docs) = registry.get_mut(campaign) else {
        return Response::Rejected(RejectReason::UnknownCampaign(campaign));
    };
    if let Some(d) = durability
        .as_mut()
        .filter(|d| d.persisted.contains(&campaign))
    {
        if let Err(e) = docs.validate_event(&event) {
            return Response::Rejected(e.into());
        }
        let bytes = codec::encode_event(&event);
        let seq = match d.log.append_event(campaign, &bytes) {
            Ok(seq) => seq,
            Err(e) => return Response::Rejected(e.into()),
        };
        d.queue_event_for_ship(campaign, seq, bytes);
        d.events_since_snapshot += 1;
        d.observe(shard, metrics);
    }
    match docs.apply(&event) {
        Ok(()) => success(docs),
        Err(e) => Response::Rejected(e.into()),
    }
}

/// Validates and applies one answer batch: the accepted sub-batch becomes
/// **one** [`CampaignEvent::AnswerBatchSubmitted`] — one WAL record, one
/// group-commit decision, one `fdatasync` — while rejected answers are
/// reported per position without ever reaching the log. The event itself
/// goes through [`apply_event`], so the batch path shares the exact
/// write-ahead discipline (whole-event validation before logging included)
/// rather than re-implementing it.
fn apply_answer_batch(
    registry: &mut CampaignRegistry,
    durability: &mut Option<ShardDurability>,
    metrics: &ServiceMetrics,
    shard: usize,
    campaign: CampaignId,
    answers: Vec<Answer>,
) -> Response {
    let Some(docs) = registry.get(campaign) else {
        return Response::Rejected(RejectReason::UnknownCampaign(campaign));
    };
    let (accepted, rejected) = docs.validate_answer_batch(&answers);
    let outcome = BatchOutcome {
        accepted: accepted.len(),
        rejected: rejected.into_iter().map(|(i, e)| (i, e.into())).collect(),
    };
    if accepted.is_empty() {
        return Response::BatchAck(outcome);
    }
    apply_event(
        registry,
        durability,
        metrics,
        shard,
        campaign,
        CampaignEvent::answer_batch(accepted),
        move |_| Response::BatchAck(outcome),
    )
}

/// Handles a replicated snapshot install on a follower shard: restores the
/// campaign (replacing any earlier registration — a fast-forward), and, on
/// a durable follower whose campaign opts in, registers the local log at
/// the shipped sequence and writes its own baseline snapshot so the
/// follower is independently recoverable (and can itself be a shipping
/// primary after promotion).
fn install_snapshot(
    registry: &mut CampaignRegistry,
    durability: &mut Option<ShardDurability>,
    metrics: &ServiceMetrics,
    next_campaign: &AtomicU32,
    campaign: CampaignId,
    seq: u64,
    snapshot: &[u8],
) -> Response {
    if let Err(e) = registry.install_snapshot(campaign, snapshot) {
        return Response::Rejected(e.into());
    }
    // Keep the handle-level allocator ahead of every replicated id, so the
    // first `create_campaign` after this follower is promoted cannot
    // collide with a campaign it replicated.
    next_campaign.fetch_max(campaign.0 + 1, Ordering::SeqCst);
    metrics.add(Counter::SnapshotsInstalled, 1);
    if let Some(d) = durability.as_mut() {
        let policy = registry
            .get(campaign)
            .and_then(|docs| docs.config().durable_flush);
        if let Some(policy) = policy {
            d.log.register(campaign, policy, seq);
            d.persisted.insert(campaign);
            if let Some(docs) = registry.get(campaign) {
                if let Err(e) = d.snapshot_campaign(campaign, docs, metrics) {
                    return Response::Rejected(e.into());
                }
            }
        }
    }
    Response::Ack
}

/// Applies one replicated event on a follower shard through the exact
/// write-ahead discipline the primary used ([`apply_event`]): validated
/// against the follower's state, appended to the follower's own log when
/// the campaign is durable here, then applied. On a durable follower the
/// locally assigned sequence must equal the primary's — the logs stay
/// byte-compatible — so a misaligned stream is refused instead of forking
/// the history.
fn apply_replicated(
    registry: &mut CampaignRegistry,
    durability: &mut Option<ShardDurability>,
    metrics: &ServiceMetrics,
    shard: usize,
    campaign: CampaignId,
    seq: u64,
    event: CampaignEvent,
) -> Response {
    if let Some(d) = durability
        .as_ref()
        .filter(|d| d.persisted.contains(&campaign))
    {
        let expected = d.log.last_seq(campaign) + 1;
        if seq != expected {
            return Response::Rejected(RejectReason::Storage(format!(
                "replicated event for campaign {campaign} arrived at sequence {seq}; \
                 the local log expects {expected}"
            )));
        }
    }
    let response = apply_event(
        registry,
        durability,
        metrics,
        shard,
        campaign,
        event,
        |_| Response::Ack,
    );
    if matches!(response, Response::Ack) {
        metrics.add(Counter::EventsApplied, 1);
    }
    response
}

/// The metrics bucket each request kind lands in.
fn kind_of(request: &Request) -> OpKind {
    match request {
        Request::CreateCampaign { .. } => OpKind::Create,
        Request::RequestWork { .. } => OpKind::Assign,
        Request::SubmitGolden { .. } => OpKind::Golden,
        Request::SubmitAnswer { .. } => OpKind::Submit,
        Request::SubmitAnswerBatch { .. } => OpKind::SubmitBatch,
        Request::Finish { .. } => OpKind::Finish,
        Request::Status { .. } | Request::PeekReport { .. } | Request::SnapshotState { .. } => {
            OpKind::Read
        }
        Request::InstallSnapshot { .. } | Request::ApplyReplicated { .. } => OpKind::Replicate,
        Request::Fence { .. }
        | Request::PrepareMigration { .. }
        | Request::CompleteMigration { .. }
        | Request::InstallMap { .. } => OpKind::Cluster,
    }
}

/// What a shard starts with: its pre-built registry (empty on a fresh
/// spawn, replayed on recovery) and its durability state, already holding
/// every recovered campaign's baseline snapshot.
struct ShardSeed {
    registry: CampaignRegistry,
    durability: Option<ShardDurability>,
    /// The handle-level campaign-id allocator, shared so snapshot installs
    /// keep it ahead of every replicated id (see `install_snapshot`).
    next_campaign: Arc<AtomicU32>,
    node: NodeId,
}

fn shard_loop(
    shard: usize,
    seed: ShardSeed,
    rx: Receiver<Inbound>,
    metrics: ServiceMetrics,
    crash: Arc<AtomicBool>,
    role: RoleCell,
) -> CampaignRegistry {
    let mut registry = seed.registry;
    let seed_next_campaign = seed.next_campaign;
    let mut ownership = OwnershipTable::new(seed.node);
    let mut durability = seed.durability;

    // The loop ends when every handle (every sender) is dropped — or
    // instantly once a simulated crash is flagged.
    //
    // After a *failed* idle flush, the buffer stays pending and its
    // deadline stays at zero; retry only once per interval window instead
    // of busy-spinning on a disk that keeps erroring.
    let mut idle_flush_retry_at: Option<Instant> = None;
    // Completions withheld by adaptive group commit: an `EveryEvent`
    // campaign's ack promises durability, so while its event sits in the
    // deferred-sync batch the ack (and, to keep per-shard FIFO completion
    // order, every completion behind it) queues here until the batch's one
    // `fdatasync` lands.
    // Each withheld completion carries its request's trace (if sampled) so
    // the flush-wait span can close when the ack is finally released.
    let mut deferred: Vec<DeferredCompletion> = Vec::new();
    loop {
        // Adaptive drain mode: with acks withheld, keep eating queued
        // requests without blocking — the batch grows under load until a
        // bound trips inside `append_event` — and the moment the queue is
        // empty, close the batch (flush + ship + release the acks) instead
        // of sitting on it. Load grows the batch; idleness shrinks it.
        if !deferred.is_empty() {
            match rx.try_recv() {
                Ok(inbound) => {
                    if crash.load(Ordering::SeqCst) {
                        break;
                    }
                    process_one(
                        shard,
                        inbound,
                        &mut registry,
                        &mut durability,
                        &mut ownership,
                        &metrics,
                        &role,
                        &seed_next_campaign,
                        &mut deferred,
                    );
                    continue;
                }
                Err(crossbeam::channel::TryRecvError::Empty) => {
                    let d = durability.as_mut().expect("deferred implies durability");
                    close_adaptive_batch(shard, d, &mut deferred, &metrics);
                    continue;
                }
                Err(crossbeam::channel::TryRecvError::Disconnected) => break,
            }
        }
        // `IntervalMs`'s elapsed check only runs at append time, so an
        // *idle* shard would keep acknowledged events buffered
        // indefinitely; when such a deadline is pending, wait with a
        // timeout and harden the buffer the moment the window elapses.
        let deadline = durability
            .as_ref()
            .and_then(|d| d.log.idle_flush_due_in())
            .map(|due| match idle_flush_retry_at {
                Some(retry) => due.max(retry.saturating_duration_since(Instant::now())),
                None => due,
            });
        let inbound = match deadline {
            Some(due) => match rx.recv_timeout(due.max(Duration::from_millis(1))) {
                Ok(inbound) => inbound,
                Err(RecvTimeoutError::Timeout) => {
                    // A simulated kill must not be defeated by the idle
                    // timer hardening the buffer it is meant to lose.
                    if crash.load(Ordering::SeqCst) {
                        break;
                    }
                    let d = durability.as_mut().expect("deadline implies durability");
                    match d.log.flush_if_due() {
                        Ok(flushed) => {
                            idle_flush_retry_at = None;
                            if flushed {
                                // Idle-hardened events are durable now:
                                // they ship exactly like a request-path
                                // group commit's would.
                                d.ship(&metrics);
                            }
                        }
                        Err(e) => {
                            eprintln!("docs-shard-{shard}: idle interval flush failed: {e}");
                            metrics.journal().error(
                                JournalKind::FlushFailure,
                                format!("shard {shard}: idle interval flush failed: {e}"),
                            );
                            // Floored: IntervalMs(0) must not turn a broken
                            // disk into a ~1 kHz retry spin.
                            let backoff = d
                                .log
                                .min_interval()
                                .unwrap_or(Duration::from_secs(1))
                                .max(Duration::from_millis(100));
                            idle_flush_retry_at = Some(Instant::now() + backoff);
                        }
                    }
                    d.observe(shard, &metrics);
                    continue;
                }
                Err(RecvTimeoutError::Disconnected) => break,
            },
            None => match rx.recv() {
                Ok(inbound) => inbound,
                Err(_) => break,
            },
        };
        if crash.load(Ordering::SeqCst) {
            break;
        }
        process_one(
            shard,
            inbound,
            &mut registry,
            &mut durability,
            &mut ownership,
            &metrics,
            &role,
            &seed_next_campaign,
            &mut deferred,
        );
    }
    if let Some(d) = durability.as_mut() {
        if crash.load(Ordering::SeqCst) {
            // Simulated kill: drop the unflushed group-commit buffer (and
            // the frames queued behind it — a real dead process ships
            // nothing either). Withheld completions are dropped unsent: a
            // dead process never acknowledged them, and the events they
            // would have acknowledged just vanished with the buffer.
            d.log.abandon();
            deferred.clear();
        } else {
            if d.log.flush().is_ok() {
                d.ship(&metrics);
            }
            d.observe(shard, &metrics);
            // Shutdown closes the final adaptive batch like any other:
            // flush first, then release the withheld acks in order.
            release_deferred(&mut deferred, &metrics);
        }
    }
    registry
}

/// Flushes the adaptive group-commit batch, ships what became durable, and
/// releases the withheld completions in arrival order. A failed flush is a
/// durability *delay*, same as the append path's policy flush: the buffer
/// resumes at the next trigger, and the acks are released anyway (holding
/// them hostage to a broken disk would deadlock clients without making the
/// events any more durable).
fn close_adaptive_batch(
    shard: usize,
    d: &mut ShardDurability,
    deferred: &mut Vec<DeferredCompletion>,
    metrics: &ServiceMetrics,
) {
    if let Err(e) = d.log.flush() {
        eprintln!("docs-shard-{shard}: adaptive batch flush failed: {e}");
        metrics.journal().error(
            JournalKind::FlushFailure,
            format!("shard {shard}: adaptive batch flush failed: {e}"),
        );
        d.log.clear_strict_pending();
    }
    d.ship(metrics);
    d.observe(shard, metrics);
    release_deferred(deferred, metrics);
}

/// A completion withheld by adaptive group commit, with the trace of the
/// request it acknowledges (if that request was sampled).
type DeferredCompletion = (Sender<Completion>, Completion, Option<Box<TraceContext>>);

/// Sends every withheld completion in arrival order. A sampled request's
/// trace closes its flush-wait span here — the whole deferral window,
/// including the batch `fdatasync` and the post-flush ship, counts as
/// waiting for the flush — and lands in the flight recorder.
fn release_deferred(deferred: &mut Vec<DeferredCompletion>, metrics: &ServiceMetrics) {
    for (tx, completion, trace) in deferred.drain(..) {
        if let Some(mut t) = trace {
            t.span(SpanKind::FlushWait);
            // Record before the send: waking the blocked client is a
            // futex syscall whose cost belongs to the *client's* next
            // span, not to an unattributed tail of this trace.
            metrics.flight().record(t.finish());
        }
        let _ = tx.send(completion);
    }
}

/// Handles one inbound request end to end: role gate, dispatch, finish
/// hardening, snapshot cadence, shipping, and the completion — which is
/// either sent immediately or withheld in `deferred` while adaptive group
/// commit keeps the event it acknowledges buffered.
#[allow(clippy::too_many_arguments)]
fn process_one(
    shard: usize,
    inbound: Inbound,
    registry: &mut CampaignRegistry,
    durability: &mut Option<ShardDurability>,
    ownership: &mut OwnershipTable,
    metrics: &ServiceMetrics,
    role: &RoleCell,
    seed_next_campaign: &Arc<AtomicU32>,
    deferred: &mut Vec<DeferredCompletion>,
) {
    let start = Instant::now();
    let RequestEnvelope {
        correlation,
        request,
        mut trace,
    } = inbound.envelope;
    // The trace's mark was last advanced when the submitter closed its
    // client-submit span, so everything since is time spent in the shard's
    // ingress queue.
    if let Some(t) = trace.as_mut() {
        t.span(SpanKind::QueueWait);
    }
    let campaign = request.campaign();
    let kind = kind_of(&request);
    // The role gate: a follower refuses every external mutation (pure
    // reads and the replication plane pass), a primary refuses the
    // replication plane — unless the campaign is in migration intake,
    // whose shipping feed is the one legitimate primary-side source.
    // Behind the role, the ownership gate: a primary mutation for a
    // campaign this node fenced away (or never owned under the installed
    // directory) is redirected with `WrongNode` instead of applied. Reads
    // stay served locally — a fenced campaign's state is exactly a
    // consistent-but-stale replica of its new owner.
    let refusal = match role.get() {
        ReplicaRole::Follower if !request.is_read() && !request.is_replication() => {
            metrics.add(Counter::ReadOnlyRejections, 1);
            Some(Response::Rejected(RejectReason::ReadOnlyReplica {
                campaign,
            }))
        }
        ReplicaRole::Primary
            if request.is_replication() && !ownership.accepts_replication(campaign) =>
        {
            Some(Response::Rejected(RejectReason::NotAFollower { campaign }))
        }
        ReplicaRole::Primary
            if !request.is_read() && !request.is_replication() && !request.is_cluster_control() =>
        {
            match ownership.admit_mutation(campaign) {
                MutationAdmission::Allowed => None,
                MutationAdmission::Redirect { owner } => {
                    metrics.add(Counter::WrongNodeRejections, 1);
                    metrics.journal().warn(
                        JournalKind::WrongNodeRejection,
                        format!("campaign {campaign}: mutation redirected to {owner}"),
                    );
                    Some(Response::Rejected(RejectReason::WrongNode { owner }))
                }
            }
        }
        _ => None,
    };
    let mut response = match refusal {
        Some(response) => response,
        None => match request {
            Request::CreateCampaign {
                campaign,
                docs,
                persistence,
            } => create_campaign(registry, durability, metrics, campaign, *docs, persistence),
            Request::RequestWork { worker, .. } => on_campaign(registry, campaign, |docs| {
                Response::Work(docs.request_tasks(worker))
            }),
            Request::SubmitGolden {
                worker, answers, ..
            } => apply_event(
                registry,
                durability,
                metrics,
                shard,
                campaign,
                CampaignEvent::golden(worker, answers),
                |_| Response::Ack,
            ),
            Request::SubmitAnswer { answer, .. } => apply_event(
                registry,
                durability,
                metrics,
                shard,
                campaign,
                CampaignEvent::answer(answer),
                |_| Response::Ack,
            ),
            Request::SubmitAnswerBatch { answers, .. } => {
                apply_answer_batch(registry, durability, metrics, shard, campaign, answers)
            }
            Request::Finish { .. } => apply_event(
                registry,
                durability,
                metrics,
                shard,
                campaign,
                CampaignEvent::finished(),
                |docs| Response::Report(Box::new(docs.report())),
            ),
            Request::Status { .. } => on_campaign(registry, campaign, |docs| {
                Response::Status(Box::new(docs.status()))
            }),
            Request::PeekReport { .. } => on_campaign(registry, campaign, |docs| {
                Response::Report(Box::new(docs.report()))
            }),
            Request::SnapshotState { .. } => on_campaign(registry, campaign, |docs| {
                Response::State(codec::to_bytes(&docs.snapshot()))
            }),
            Request::InstallSnapshot { seq, snapshot, .. } => install_snapshot(
                registry,
                durability,
                metrics,
                seed_next_campaign,
                campaign,
                seq,
                &snapshot,
            ),
            Request::ApplyReplicated { seq, event, .. } => {
                apply_replicated(registry, durability, metrics, shard, campaign, seq, *event)
            }
            Request::Fence { owner, .. } => on_fence(
                registry, durability, ownership, metrics, shard, campaign, owner,
            ),
            Request::PrepareMigration { source, .. } => {
                ownership.begin_intake(campaign, source);
                Response::Ack
            }
            Request::CompleteMigration { .. } => {
                ownership.complete_intake(campaign);
                metrics.add(Counter::MigrationsAdopted, 1);
                metrics.journal().info(
                    JournalKind::MigrationAdopted,
                    format!("campaign {campaign} adopted after migration intake"),
                );
                Response::Ack
            }
            Request::InstallMap { map } => {
                if ownership.install_map(&map) {
                    metrics.add(Counter::MapsInstalled, 1);
                    metrics.journal().info(
                        JournalKind::MapInstall,
                        format!("cluster map epoch {} installed", map.epoch()),
                    );
                }
                Response::Ack
            }
        },
    };
    // Validation + event render + WAL append + in-memory apply all
    // happened inside the request match above.
    if let Some(t) = trace.as_mut() {
        t.span(SpanKind::Apply);
    }
    // `finish` is the requester's "my report is final" moment: harden
    // everything buffered for it, whatever the campaign's flush policy.
    // A failed sync fails the finish — handing back a Report while its
    // events are still only in memory would be a silent durability lie
    // (the requester can retry; events stay buffered for the resumed
    // flush).
    if matches!(kind, OpKind::Finish) {
        if let Some(d) = durability
            .as_mut()
            .filter(|d| d.persisted.contains(&campaign))
        {
            if let Err(e) = d.log.flush() {
                response = Response::Rejected(RejectReason::ReportNotDurable {
                    campaign,
                    cause: e.to_string(),
                });
            }
            d.observe(shard, metrics);
        }
    }
    // Snapshot cadence: after enough logged events, re-baseline every
    // campaign on this shard and prune the log.
    if let Some(d) = durability.as_mut() {
        if d.snapshot_every > 0 && d.events_since_snapshot >= d.snapshot_every {
            if let Err(e) = d.snapshot_cycle(registry, metrics) {
                // Keep serving; the log keeps growing until the next
                // cycle succeeds.
                eprintln!("docs-shard-{shard}: snapshot cycle failed: {e}");
                metrics.journal().error(
                    JournalKind::SnapshotFailure,
                    format!("shard {shard}: snapshot cycle failed: {e}"),
                );
            }
            d.observe(shard, metrics);
        }
        // Ship everything this request's group commit made durable
        // *before* acknowledging it: once a completion is out, the
        // event it acknowledged is either still buffered (not yet
        // durable, so not owed to followers) or already on the wire.
        d.ship(metrics);
        // Inline finish-hardening, snapshot cadence, and the ship above
        // all count as the ship stage. An event still held by adaptive
        // group commit ships at batch close instead; its trace folds that
        // into the flush-wait span.
        if let Some(t) = trace.as_mut() {
            t.span(SpanKind::Ship);
        }
    }
    let elapsed = start.elapsed();
    metrics.record_on(shard, kind, elapsed);
    metrics.shard_processed(shard, elapsed);
    // The completion echoes the submission's correlation id. A client
    // that dropped its ticket after submitting is fine.
    let completion = Completion {
        correlation,
        response,
    };
    let strict_pending = durability
        .as_ref()
        .is_some_and(|d| d.log.pending_strict_events() > 0);
    if strict_pending {
        // Adaptive group commit still holds the event this completion
        // acknowledges (or an earlier one — FIFO) in the unsynced batch:
        // withhold the ack until the batch's fdatasync lands.
        deferred.push((inbound.completions, completion, trace));
    } else {
        // Everything acknowledged so far is durable; release any batch
        // acks first so completions leave in arrival order.
        release_deferred(deferred, metrics);
        if let Some(t) = trace {
            // Nothing withheld, so there is no flush-wait span; the
            // trace is complete. Record before the send so the client
            // wake-up (a futex syscall) is not an unattributed tail.
            metrics.flight().record(t.finish());
        }
        let _ = inbound.completions.send(completion);
    }
}

/// Handles `CreateCampaign` on the owning shard: plain insert for
/// memory-only campaigns; for persisted ones, the baseline snapshot and the
/// `Published` event are durable *before* the creation is acknowledged.
fn create_campaign(
    registry: &mut CampaignRegistry,
    durability: &mut Option<ShardDurability>,
    metrics: &ServiceMetrics,
    campaign: CampaignId,
    mut docs: Docs,
    persistence: Option<FlushPolicy>,
) -> Response {
    let policy = persistence.or(docs.config().durable_flush);
    let Some(policy) = policy else {
        return match registry.insert(campaign, docs) {
            Ok(()) => Response::CampaignCreated(campaign),
            Err(e) => Response::Rejected(e.into()),
        };
    };
    let Some(d) = durability.as_mut() else {
        return Response::Rejected(RejectReason::DurabilityUnavailable {
            campaign: Some(campaign),
        });
    };
    // Pin the effective policy into the campaign's own config so every
    // snapshot records the policy it actually runs with.
    docs.set_durable_flush(Some(policy));
    d.log.register(campaign, policy, 0);
    let result = d
        .snapshot_campaign(campaign, &docs, metrics)
        .and_then(|()| {
            let event = CampaignEvent::Published(PublishedEvent {
                campaign,
                num_tasks: docs.tasks().len() as u32,
                num_golden: docs.golden_ids().len() as u32,
            });
            let bytes = codec::encode_event(&event);
            let seq = d.log.append_event(campaign, &bytes)?;
            d.queue_event_for_ship(campaign, seq, bytes);
            // Control-plane creation is always synced immediately, whatever
            // the campaign's data-plane policy.
            d.log.flush()?;
            Ok(())
        });
    if let Err(e) = result {
        return Response::Rejected(e.into());
    }
    d.persisted.insert(campaign);
    match registry.insert(campaign, docs) {
        Ok(()) => Response::CampaignCreated(campaign),
        Err(e) => Response::Rejected(e.into()),
    }
}

/// Handles `Fence` on the owning shard: hardens and ships everything the
/// campaign still has buffered, records the hand-off at the resulting
/// watermark, and answers [`Response::Fenced`]. After this returns, no
/// mutation of the campaign can commit locally — the watermark is the
/// migration's linearization point. Memory-only campaigns fence at
/// watermark 0 (a routing-only hand-off; there is no log to harden).
#[allow(clippy::too_many_arguments)]
fn on_fence(
    registry: &mut CampaignRegistry,
    durability: &mut Option<ShardDurability>,
    ownership: &mut OwnershipTable,
    metrics: &ServiceMetrics,
    shard: usize,
    campaign: CampaignId,
    owner: NodeId,
) -> Response {
    if registry.get(campaign).is_none() {
        return Response::Rejected(RejectReason::UnknownCampaign(campaign));
    }
    let mut watermark = 0;
    if let Some(d) = durability
        .as_mut()
        .filter(|d| d.persisted.contains(&campaign))
    {
        // Flush-then-ship before recording the watermark: every event the
        // new owner must chase is durable *and* on the wire when the fence
        // answer (carrying the watermark) leaves this shard.
        if let Err(e) = d.log.flush() {
            return Response::Rejected(RejectReason::Storage(e.to_string()));
        }
        d.ship(metrics);
        d.observe(shard, metrics);
        watermark = d.log.last_seq(campaign);
    }
    ownership.fence(campaign, owner, watermark);
    metrics.add(Counter::CampaignsFenced, 1);
    metrics.journal().info(
        JournalKind::Fence,
        format!("campaign {campaign} fenced to {owner} at watermark {watermark}"),
    );
    Response::Fenced { watermark }
}

impl DocsService {
    /// Spawns a single-shard service around one published [`Docs`] — the
    /// seed's API, now routed through the shard pool.
    pub fn spawn(docs: Docs) -> (DocsService, ServiceHandle) {
        Self::spawn_sharded(docs, ServiceConfig::default())
    }

    /// Spawns the shard pool, registers `docs` as the default campaign, and
    /// returns the service plus its first routing handle.
    ///
    /// # Panics
    /// Panics if the durability directory (when configured) cannot be
    /// opened, or if the default campaign is rejected (e.g. it requests
    /// durability on a memory-only pool).
    pub fn spawn_sharded(docs: Docs, config: ServiceConfig) -> (DocsService, ServiceHandle) {
        let shards = config.num_shards();
        let seeds = (0..shards)
            .map(|_| (CampaignRegistry::new(), Vec::new()))
            .collect();
        let (service, handle) = Self::spawn_pool(&config, seeds, 0, CampaignId(0))
            .expect("open durability directory for the shard pool");
        let default_campaign = handle
            .create_campaign(docs)
            .expect("fresh shard pool accepts the default campaign");
        debug_assert_eq!(default_campaign, CampaignId(0));
        (service, handle)
    }

    /// Spawns an **empty follower pool**: no default campaign, every
    /// mutation refused with [`RejectReason::ReadOnlyReplica`]. Campaigns
    /// arrive through the replication plane (snapshot installs + replicated
    /// applies, normally fed by `docs-replication`'s applier), reads are
    /// served locally, and [`ServiceHandle::promote_to_primary`] turns the
    /// pool into a serving primary during failover.
    ///
    /// `config.role` is forced to [`ReplicaRole::Follower`]; durability is
    /// honored (a durable follower writes its own log and is itself
    /// recoverable and promotable into a shipping primary).
    pub fn spawn_replica(
        mut config: ServiceConfig,
    ) -> Result<(DocsService, ServiceHandle), ServiceError> {
        config.role = ReplicaRole::Follower;
        let shards = config.num_shards();
        let seeds = (0..shards)
            .map(|_| (CampaignRegistry::new(), Vec::new()))
            .collect();
        Self::spawn_pool(&config, seeds, 0, CampaignId(0))
    }

    /// Spawns an **empty primary pool**: no default campaign. A cluster
    /// node usually starts this way — campaigns arrive later through
    /// [`ServiceHandle::create_campaign`] or through a migration's intake
    /// (`docs-replication::migrate_campaign` ships a campaign in over the
    /// replication plane and then hands it the write path).
    pub fn spawn_empty(
        config: ServiceConfig,
    ) -> Result<(DocsService, ServiceHandle), ServiceError> {
        let shards = config.num_shards();
        let seeds = (0..shards)
            .map(|_| (CampaignRegistry::new(), Vec::new()))
            .collect();
        Self::spawn_pool(&config, seeds, 0, CampaignId(0))
    }

    /// Rebuilds the full multi-campaign service from its durability
    /// directory: every persisted campaign is restored from its latest
    /// snapshot and the replayed event suffix, then the pool resumes
    /// serving (and logging) exactly where the durable prefix ended.
    ///
    /// The recovering pool may use a different shard count than the one
    /// that wrote the directory — campaigns are re-homed by
    /// [`CampaignId::shard`] and the logs of every past epoch are merged by
    /// per-campaign sequence number.
    pub fn recover(config: ServiceConfig) -> Result<(DocsService, ServiceHandle), ServiceError> {
        let durability = config.durability.clone().ok_or(ServiceError::Rejected(
            RejectReason::RecoverWithoutDurability,
        ))?;
        let tree = recover_tree(&durability.dir).map_err(|e| ServiceError::Rejected(e.into()))?;
        let shards = config.num_shards();
        let metrics = ServiceMetrics::new(shards);
        // Torn segment tails are tolerated crash artifacts — but they are
        // *observations* of a crash, so they surface as a counter instead
        // of being dropped after classification.
        metrics.add(Counter::TornTailRecoveries, tree.torn_tails);
        let mut seeds: PoolSeeds = (0..shards)
            .map(|_| (CampaignRegistry::new(), Vec::new()))
            .collect();
        let mut max_id: Option<u32> = None;
        for (id, campaign) in &tree.campaigns {
            let Some((_, snapshot)) = &campaign.snapshot else {
                // A crash between registering the campaign and writing its
                // baseline snapshot: the creation was never acknowledged,
                // so there is nothing to resurrect.
                continue;
            };
            let shard = id.shard(shards);
            // Arena-backed views out of the recovered tree: cloning a
            // `PayloadBytes` bumps a refcount on the per-file arena, so no
            // event payload is copied on the way into replay.
            let events: Vec<docs_storage::PayloadBytes> = campaign
                .events
                .iter()
                .map(|(_, payload)| payload.clone())
                .collect();
            let stats = seeds[shard]
                .0
                .replay(*id, snapshot, &events)
                .map_err(|e| ServiceError::Rejected(e.into()))?;
            metrics.add(Counter::EventsReplayed, stats.applied);
            metrics.add(Counter::ReplayRejected, stats.rejected);
            metrics.add(Counter::SnapshotsLoaded, 1);
            let policy = seeds[shard]
                .0
                .get(*id)
                .and_then(|docs| docs.config().durable_flush)
                .unwrap_or(durability.default_flush);
            seeds[shard].1.push((*id, policy, campaign.last_seq));
            max_id = Some(max_id.map_or(id.0, |m| m.max(id.0)));
        }
        Self::spawn_pool_with_metrics(
            &config,
            seeds,
            max_id.map_or(0, |m| m + 1),
            // The default campaign stays campaign 0. If the original one
            // was not durable, calls naming it fail with "unknown campaign
            // c0" — a clear diagnostic — instead of silently re-targeting
            // some other recovered campaign.
            CampaignId(0),
            metrics,
        )
    }

    fn spawn_pool(
        config: &ServiceConfig,
        seeds: PoolSeeds,
        next_campaign: u32,
        default_campaign: CampaignId,
    ) -> Result<(DocsService, ServiceHandle), ServiceError> {
        let metrics = ServiceMetrics::new(config.num_shards());
        Self::spawn_pool_with_metrics(config, seeds, next_campaign, default_campaign, metrics)
    }

    fn spawn_pool_with_metrics(
        config: &ServiceConfig,
        seeds: PoolSeeds,
        next_campaign: u32,
        default_campaign: CampaignId,
        metrics: ServiceMetrics,
    ) -> Result<(DocsService, ServiceHandle), ServiceError> {
        let shards = config.num_shards();
        debug_assert_eq!(seeds.len(), shards);
        metrics.set_trace_sampling(config.trace_sample_every);
        let crash = Arc::new(AtomicBool::new(false));
        let role = RoleCell::new(config.role);
        // Shared with every shard: snapshot installs on a follower must
        // advance the allocator past the replicated ids, or the first
        // `create_campaign` after a promotion would collide with them
        // (the same reason `recover` seeds `max_id + 1`).
        let next_campaign = Arc::new(AtomicU32::new(next_campaign));
        let mut senders = Vec::with_capacity(shards);
        let mut joins = Vec::with_capacity(shards);
        // Every shard's log is opened, and every recovered campaign's
        // baseline written, before any shard thread starts: a failure
        // surfaces here as an error instead of as a shard panic behind an
        // already-returned pool.
        let mut shard_seeds = Vec::with_capacity(shards);
        for (shard, (registry, persisted)) in seeds.into_iter().enumerate() {
            let durability = match &config.durability {
                Some(d) => Some(
                    ShardDurability::open(
                        shard,
                        d,
                        config.replication.clone(),
                        &registry,
                        persisted,
                        &metrics,
                    )
                    .map_err(|e| ServiceError::Rejected(e.into()))?,
                ),
                None => None,
            };
            shard_seeds.push(ShardSeed {
                registry,
                durability,
                next_campaign: Arc::clone(&next_campaign),
                node: config.node,
            });
        }
        for (shard, seed) in shard_seeds.into_iter().enumerate() {
            // The ingress bound is the pool's admission control: blocking
            // submissions park on a full queue, fail-fast ones bounce.
            let (tx, rx) = bounded::<Inbound>(config.queue_capacity.max(1));
            let shard_metrics = metrics.clone();
            let shard_crash = Arc::clone(&crash);
            let shard_role = role.clone();
            senders.push(tx);
            joins.push(
                std::thread::Builder::new()
                    .name(format!("docs-shard-{shard}"))
                    .spawn(move || {
                        shard_loop(shard, seed, rx, shard_metrics, shard_crash, shard_role)
                    })
                    .expect("spawn docs shard thread"),
            );
        }
        let handle = ServiceHandle {
            shards: Arc::new(senders),
            next_campaign,
            next_correlation: Arc::new(AtomicU64::new(0)),
            metrics,
            default_campaign,
            default_flush: config.durability.as_ref().map(|d| d.default_flush),
            crash,
            role,
        };
        Ok((
            DocsService {
                joins,
                default_campaign,
            },
            handle,
        ))
    }

    /// Waits for every shard to drain and stop, returning all campaigns'
    /// final state, ascending by campaign id.
    ///
    /// The pool stops when every [`ServiceHandle`] has been dropped, so drop
    /// all handles before calling or it will block forever.
    pub fn join_all(self) -> Vec<(CampaignId, Docs)> {
        let mut campaigns: Vec<(CampaignId, Docs)> = self
            .joins
            .into_iter()
            .flat_map(|j| {
                j.join()
                    .expect("docs shard thread panicked")
                    .into_campaigns()
            })
            .collect();
        campaigns.sort_unstable_by_key(|(id, _)| *id);
        campaigns
    }

    /// Waits for shutdown and returns the default campaign's final state
    /// (the seed's single-campaign API).
    pub fn join(self) -> Docs {
        let default = self.default_campaign;
        self.join_all()
            .into_iter()
            .find(|(id, _)| *id == default)
            .map(|(_, docs)| docs)
            .expect("default campaign outlives the service")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ticket::TicketWait;
    use docs_kb::table2_example_kb;
    use docs_system::DocsConfig;
    use docs_types::TaskBuilder;

    fn published(n: usize) -> Docs {
        let kb = table2_example_kb();
        let subjects = ["Michael Jordan", "Kobe Bryant", "NBA"];
        let tasks: Vec<_> = (0..n)
            .map(|i| {
                TaskBuilder::new(i, format!("Is {} great?", subjects[i % 3]))
                    .yes_no()
                    .with_ground_truth(i % 2)
                    .with_true_domain(1)
                    .build()
                    .unwrap()
            })
            .collect();
        let config = DocsConfig {
            num_golden: 2,
            k_per_hit: 3,
            answers_per_task: 2,
            z: 10,
            ..Default::default()
        };
        Docs::publish(&kb, tasks, config).unwrap()
    }

    fn service() -> (DocsService, ServiceHandle) {
        DocsService::spawn(published(9))
    }

    /// A handle whose single "shard" is a queue the test holds the
    /// receiving end of — nothing is ever served, which makes admission
    /// control and pending-ticket behavior deterministic.
    fn stub_handle(capacity: usize) -> (ServiceHandle, Receiver<Inbound>) {
        let (tx, rx) = bounded(capacity);
        let handle = ServiceHandle {
            shards: Arc::new(vec![tx]),
            next_campaign: Arc::new(AtomicU32::new(1)),
            next_correlation: Arc::new(AtomicU64::new(0)),
            metrics: ServiceMetrics::new(1),
            default_campaign: CampaignId(0),
            default_flush: None,
            crash: Arc::new(AtomicBool::new(false)),
            role: RoleCell::new(ReplicaRole::Primary),
        };
        (handle, rx)
    }

    fn tmp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("docs-server-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Answers golden tasks correctly (ground truth is i % 2 by id).
    fn pass_golden(handle: &ServiceHandle, worker: WorkerId, golden: &[TaskId]) {
        let answers: Vec<_> = golden.iter().map(|&g| (g, g.index() % 2)).collect();
        handle
            .submit_golden_ticket_in(handle.default_campaign(), worker, answers)
            .and_then(Ticket::wait)
            .unwrap();
    }

    fn pass_golden_in(
        handle: &ServiceHandle,
        campaign: CampaignId,
        worker: WorkerId,
        golden: &[TaskId],
    ) {
        let answers: Vec<_> = golden.iter().map(|&g| (g, g.index() % 2)).collect();
        handle
            .submit_golden_ticket_in(campaign, worker, answers)
            .and_then(Ticket::wait)
            .unwrap();
    }

    #[test]
    fn round_trip_golden_then_tasks_then_report() {
        let (service, handle) = service();
        let c = handle.default_campaign();
        let w = WorkerId(0);
        let golden = match handle
            .request_tasks_ticket_in(c, w)
            .and_then(Ticket::wait)
            .unwrap()
        {
            WorkRequest::Golden(g) => g,
            other => panic!("expected golden HIT, got {other:?}"),
        };
        assert_eq!(golden.len(), 2);
        pass_golden(&handle, w, &golden);
        let tasks = match handle
            .request_tasks_ticket_in(c, w)
            .and_then(Ticket::wait)
            .unwrap()
        {
            WorkRequest::Tasks(t) => t,
            other => panic!("expected task HIT, got {other:?}"),
        };
        assert_eq!(tasks.len(), 3);
        for t in tasks {
            handle
                .submit_answer_ticket_in(c, Answer::new(w, t, t.index() % 2))
                .and_then(Ticket::wait)
                .unwrap();
        }
        let report = handle.finish_in(c).unwrap();
        assert_eq!(report.truths.len(), 9);
        assert_eq!(report.answers_collected, 3);
        drop(handle);
        let _docs = service.join();
    }

    #[test]
    fn duplicate_answer_is_rejected_with_a_matchable_reason() {
        let (service, handle) = service();
        let c = handle.default_campaign();
        let w = WorkerId(1);
        if let WorkRequest::Golden(g) = handle
            .request_tasks_ticket_in(c, w)
            .and_then(Ticket::wait)
            .unwrap()
        {
            pass_golden(&handle, w, &g);
        }
        let answer = Answer::new(w, TaskId(0), 0);
        handle
            .submit_answer_ticket_in(c, answer)
            .and_then(Ticket::wait)
            .unwrap();
        let err = handle
            .submit_answer_ticket_in(c, answer)
            .and_then(Ticket::wait)
            .unwrap_err();
        // The rejection is typed end to end…
        assert_eq!(
            err,
            ServiceError::Rejected(RejectReason::DuplicateAnswer {
                worker: w,
                task: TaskId(0),
            })
        );
        // …and its rendering matches the pre-taxonomy message.
        assert_eq!(
            err.to_string(),
            "request rejected: worker w1 already answered task t0"
        );
        // The service keeps serving after the rejection.
        assert!(handle
            .request_tasks_ticket_in(c, w)
            .and_then(Ticket::wait)
            .is_ok());
        drop(handle);
        service.join();
    }

    #[test]
    fn pipelined_tickets_complete_in_submission_order() {
        let (service, handle) = service();
        let c = handle.default_campaign();
        let w = WorkerId(0);
        // Golden first (blocking), so the pipelined requests get task HITs.
        if let WorkRequest::Golden(g) = handle
            .request_tasks_ticket_in(c, w)
            .and_then(Ticket::wait)
            .unwrap()
        {
            pass_golden(&handle, w, &g);
        }
        // Pipeline: a HIT request, its answers, and the next HIT request —
        // all in flight before the first completion is harvested.
        let first = handle.request_tasks_ticket_in(c, w).unwrap();
        assert!(handle.metrics().shard(0).in_flight >= 1);
        let hit = match first.wait().unwrap() {
            WorkRequest::Tasks(t) => t,
            other => panic!("expected tasks, got {other:?}"),
        };
        let answers: Vec<Answer> = hit
            .iter()
            .map(|&t| Answer::new(w, t, t.index() % 2))
            .collect();
        let batch_ticket = handle.submit_answer_batch_ticket_in(c, answers).unwrap();
        let next_ticket = handle.request_tasks_ticket_in(c, w).unwrap();
        assert!(
            batch_ticket.correlation() < next_ticket.correlation(),
            "correlation ids are monotone per handle"
        );
        // FIFO per shard: once the later request completed, the earlier
        // batch ack must already be in its slot.
        let work = next_ticket.wait().unwrap();
        assert!(matches!(work, WorkRequest::Tasks(_) | WorkRequest::Done));
        match batch_ticket.try_take() {
            TicketWait::Ready(Ok(outcome)) => assert_eq!(outcome.accepted, hit.len()),
            other => panic!(
                "batch ack must be ready once a later completion arrived: {:?}",
                other.ready().map(|r| r.map(|o| o.accepted))
            ),
        }
        assert_eq!(
            handle.metrics().shard(0).in_flight,
            0,
            "all tickets resolved"
        );
        drop(handle);
        service.join();
    }

    #[test]
    fn try_submit_fails_fast_with_busy_when_the_queue_is_full() {
        let (handle, rx) = stub_handle(2);
        let c = handle.default_campaign();
        // Two admissions fill the queue; nothing serves it.
        let _t1 = handle.try_request_tasks_in(c, WorkerId(0)).unwrap();
        let _t2 = handle.try_request_tasks_in(c, WorkerId(1)).unwrap();
        let err = handle.try_request_tasks_in(c, WorkerId(2)).unwrap_err();
        assert_eq!(err, ServiceError::Busy { shard: 0 });
        assert_eq!(err.to_string(), "shard 0 ingress queue is full");
        let stats = handle.metrics().shard(0);
        assert_eq!(stats.busy_rejections, 1, "refusal counted");
        assert_eq!(stats.queued, 2, "refused request rolled its depth back");
        assert_eq!(stats.max_queued, 2, "no phantom high-water mark");
        assert_eq!(stats.in_flight, 2, "no ticket issued for the refusal");
        // Draining one slot re-opens admission.
        let served = rx.recv().unwrap();
        handle
            .metrics()
            .shard_processed(0, Duration::from_micros(1));
        let _t3 = handle.try_request_tasks_in(c, WorkerId(2)).unwrap();
        assert_eq!(handle.metrics().shard(0).busy_rejections, 1);
        // A dead shard is Disconnected, not Busy.
        drop(rx);
        drop(served);
        let err = handle.try_request_tasks_in(c, WorkerId(3)).unwrap_err();
        assert_eq!(err, ServiceError::Disconnected);
    }

    #[test]
    fn pending_tickets_time_out_and_resolve_once_served() {
        let (handle, rx) = stub_handle(4);
        let c = handle.default_campaign();
        let ticket = handle.request_tasks_ticket_in(c, WorkerId(0)).unwrap();
        assert_eq!(handle.metrics().shard(0).in_flight, 1);
        // Nothing serves the queue: the wait elapses and hands the ticket
        // back, still pending, still counted in flight.
        let ticket = match ticket.wait_timeout(Duration::from_millis(10)) {
            TicketWait::Pending(t) => t,
            TicketWait::Ready(r) => panic!("unserved ticket completed: {r:?}"),
        };
        let ticket = match ticket.try_take() {
            TicketWait::Pending(t) => t,
            TicketWait::Ready(r) => panic!("unserved ticket completed: {r:?}"),
        };
        assert_eq!(handle.metrics().shard(0).in_flight, 1);
        // Serve it by hand: the completion must echo the correlation id.
        let inbound = rx.recv().unwrap();
        assert_eq!(inbound.envelope.correlation, ticket.correlation());
        inbound
            .completions
            .send(Completion {
                correlation: inbound.envelope.correlation,
                response: Response::Work(WorkRequest::Done),
            })
            .unwrap();
        assert_eq!(ticket.wait().unwrap(), WorkRequest::Done);
        assert_eq!(handle.metrics().shard(0).in_flight, 0);
        // A ticket whose shard died reports Disconnected.
        let orphan = handle.request_tasks_ticket_in(c, WorkerId(1)).unwrap();
        drop(rx);
        assert_eq!(orphan.wait().unwrap_err(), ServiceError::Disconnected);
        // Dropping a pending ticket is fire-and-forget and still resolves
        // the in-flight gauge.
        let ticket = handle.request_tasks_ticket_in(c, WorkerId(2));
        assert!(matches!(ticket, Err(ServiceError::Disconnected)));
        assert_eq!(handle.metrics().shard(0).in_flight, 0);
    }

    #[test]
    fn metrics_count_operations() {
        let (service, handle) = service();
        let c = handle.default_campaign();
        let w = WorkerId(2);
        let _ = handle.request_tasks_ticket_in(c, w).and_then(Ticket::wait);
        if let WorkRequest::Golden(g) = handle
            .request_tasks_ticket_in(c, w)
            .and_then(Ticket::wait)
            .unwrap()
        {
            pass_golden(&handle, w, &g);
        }
        assert_eq!(handle.metrics().stats(OpKind::Assign).count, 2);
        assert_eq!(handle.metrics().stats(OpKind::Golden).count, 1);
        assert_eq!(handle.metrics().stats(OpKind::Create).count, 1);
        assert!(handle.metrics().stats(OpKind::Assign).max > std::time::Duration::ZERO);
        drop(handle);
        service.join();
    }

    #[test]
    fn calls_after_shutdown_fail_cleanly() {
        let (service, handle) = service();
        let extra = handle.clone();
        drop(handle);
        // Pool still alive: `extra` holds every shard's sender.
        assert!(extra
            .request_tasks_ticket_in(extra.default_campaign(), WorkerId(3))
            .and_then(Ticket::wait)
            .is_ok());
        drop(extra);
        let _docs = service.join();
    }

    #[test]
    fn many_threads_share_one_handle() {
        let (service, handle) = service();
        // Seed golden for 4 workers, then hammer assignments concurrently.
        for w in 0..4u32 {
            let w = WorkerId(w);
            if let WorkRequest::Golden(g) = handle
                .request_tasks_ticket_in(handle.default_campaign(), w)
                .and_then(Ticket::wait)
                .unwrap()
            {
                pass_golden(&handle, w, &g);
            }
        }
        let threads: Vec<_> = (0..4u32)
            .map(|w| {
                let h = handle.clone();
                std::thread::spawn(move || {
                    let w = WorkerId(w);
                    for _ in 0..10 {
                        h.request_tasks_ticket_in(h.default_campaign(), w)
                            .and_then(Ticket::wait)
                            .unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(handle.metrics().stats(OpKind::Assign).count, 4 + 40);
        drop(handle);
        service.join();
    }

    #[test]
    fn campaigns_route_to_stable_shards_and_stay_isolated() {
        let (service, handle) = DocsService::spawn_sharded(published(9), ServiceConfig::sharded(4));
        // Two extra campaigns with different task counts.
        let c1 = handle.create_campaign(published(6)).unwrap();
        let c2 = handle.create_campaign(published(12)).unwrap();
        assert_eq!(handle.default_campaign(), CampaignId(0));
        assert_eq!((c1, c2), (CampaignId(1), CampaignId(2)));

        // The same worker id participates in all three campaigns
        // independently: golden state is per campaign.
        let w = WorkerId(0);
        for (campaign, tasks_n) in [(CampaignId(0), 9), (c1, 6), (c2, 12)] {
            let golden = match handle
                .request_tasks_ticket_in(campaign, w)
                .and_then(Ticket::wait)
                .unwrap()
            {
                WorkRequest::Golden(g) => g,
                other => panic!("expected golden in {campaign}, got {other:?}"),
            };
            pass_golden_in(&handle, campaign, w, &golden);
            match handle
                .request_tasks_ticket_in(campaign, w)
                .and_then(Ticket::wait)
                .unwrap()
            {
                WorkRequest::Tasks(t) => assert!(!t.is_empty()),
                other => panic!("expected tasks in {campaign}, got {other:?}"),
            }
            let report = handle.finish_in(campaign).unwrap();
            assert_eq!(report.truths.len(), tasks_n);
        }

        // Unknown campaigns are rejected with the campaign id, not fatal.
        let err = handle
            .request_tasks_ticket_in(CampaignId(99), w)
            .and_then(Ticket::wait)
            .unwrap_err();
        assert_eq!(
            err,
            ServiceError::Rejected(RejectReason::UnknownCampaign(CampaignId(99)))
        );
        assert_eq!(err.to_string(), "request rejected: unknown campaign c99");

        // Per-shard accounting saw every processed request.
        let processed: u64 = handle
            .metrics()
            .all_shards()
            .iter()
            .map(|s| s.processed)
            .sum();
        assert_eq!(processed, handle.metrics().total_ops());
        drop(handle);
        let campaigns = service.join_all();
        assert_eq!(
            campaigns.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
            vec![CampaignId(0), c1, c2]
        );
    }

    #[test]
    fn create_campaign_ids_are_unique_under_concurrency() {
        let (service, handle) = DocsService::spawn_sharded(published(3), ServiceConfig::sharded(3));
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let h = handle.clone();
                std::thread::spawn(move || {
                    (0..3)
                        .map(|_| h.create_campaign(published(3)).unwrap())
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let mut ids: Vec<CampaignId> = threads
            .into_iter()
            .flat_map(|t| t.join().unwrap())
            .collect();
        ids.push(handle.default_campaign());
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 13, "12 created + 1 default, all distinct");
        drop(handle);
        assert_eq!(service.join_all().len(), 13);
    }

    #[test]
    fn durable_campaign_on_memory_only_pool_is_rejected() {
        let (service, handle) = service();
        let err = handle.create_campaign_durable(published(3)).unwrap_err();
        assert_eq!(
            err,
            ServiceError::Rejected(RejectReason::DurabilityUnavailable { campaign: None })
        );
        let err = handle
            .create_campaign_with(published(3), FlushPolicy::EveryEvent)
            .unwrap_err();
        assert!(matches!(
            err,
            ServiceError::Rejected(RejectReason::DurabilityUnavailable { campaign: Some(_) })
        ));
        drop(handle);
        service.join();
    }

    #[test]
    fn durable_round_trip_writes_events_and_snapshots() {
        let dir = tmp_dir("durable-roundtrip");
        let (service, handle) =
            DocsService::spawn_sharded(published(9), ServiceConfig::durable(2, &dir));
        let c = handle
            .create_campaign_with(published(6), FlushPolicy::EveryEvent)
            .unwrap();
        let w = WorkerId(0);
        if let WorkRequest::Golden(g) = handle
            .request_tasks_ticket_in(c, w)
            .and_then(Ticket::wait)
            .unwrap()
        {
            pass_golden_in(&handle, c, w, &g);
        }
        handle
            .submit_answer_ticket_in(c, Answer::new(w, TaskId(0), 0))
            .and_then(Ticket::wait)
            .unwrap();
        let shards = handle.metrics().all_shards();
        let events_logged: u64 = shards.iter().map(|s| s.events_logged).sum();
        assert!(
            events_logged >= 3,
            "published + golden + answer logged, got {shards:?}"
        );
        assert!(handle.metrics().counter(Counter::SnapshotsWritten) >= 1);
        assert!(shards.iter().map(|s| s.log_bytes).sum::<u64>() > 0);
        drop(handle);
        service.join();
        // The on-disk tree recovers the campaign with its events.
        let tree = recover_tree(&dir).unwrap();
        let rec = &tree.campaigns[&c];
        assert!(rec.snapshot.is_some());
        assert_eq!(rec.events.len(), 3, "published + golden + answer");
    }

    #[test]
    fn batched_submission_round_trip_with_per_answer_rejections() {
        let (service, handle) = service();
        let c = handle.default_campaign();
        let w = WorkerId(0);
        if let WorkRequest::Golden(g) = handle
            .request_tasks_ticket_in(c, w)
            .and_then(Ticket::wait)
            .unwrap()
        {
            pass_golden(&handle, w, &g);
        }
        handle
            .submit_answer_ticket_in(c, Answer::new(w, TaskId(0), 0))
            .and_then(Ticket::wait)
            .unwrap();
        let batch = vec![
            Answer::new(w, TaskId(0), 1), // duplicate against the log
            Answer::new(w, TaskId(1), 1),
            Answer::new(w, TaskId(1), 0), // duplicate within the batch
            Answer::new(w, TaskId(2), 0),
        ];
        let outcome = handle
            .submit_answer_batch_ticket_in(c, batch)
            .and_then(Ticket::wait)
            .unwrap();
        assert_eq!(outcome.accepted, 2);
        assert_eq!(
            outcome.rejected.iter().map(|(i, _)| *i).collect::<Vec<_>>(),
            vec![0, 2]
        );
        // Per-answer rejections are typed and keep their message text.
        assert_eq!(
            outcome.rejected[0].1,
            RejectReason::DuplicateAnswer {
                worker: w,
                task: TaskId(0),
            }
        );
        assert!(outcome.rejected[0]
            .1
            .to_string()
            .contains("already answered"));
        assert_eq!(handle.metrics().stats(OpKind::SubmitBatch).count, 1);
        let report = handle.finish_in(c).unwrap();
        assert_eq!(report.answers_collected, 3);
        drop(handle);
        service.join();
    }

    #[test]
    fn durable_batch_is_one_log_record_and_one_flush() {
        let dir = tmp_dir("durable-batch");
        let (service, handle) =
            DocsService::spawn_sharded(published(9), ServiceConfig::durable(1, &dir));
        // EveryEvent: the strictest policy — yet a whole batch must cost
        // one append + one fdatasync, not one per answer.
        let c = handle
            .create_campaign_with(published(9), FlushPolicy::EveryEvent)
            .unwrap();
        let w = WorkerId(0);
        if let WorkRequest::Golden(g) = handle
            .request_tasks_ticket_in(c, w)
            .and_then(Ticket::wait)
            .unwrap()
        {
            pass_golden_in(&handle, c, w, &g);
        }
        let flushes = || -> u64 {
            handle
                .metrics()
                .all_shards()
                .iter()
                .map(|s| s.log_flushes)
                .sum()
        };
        let flushes_before = flushes();
        let batch: Vec<Answer> = (0..6).map(|t| Answer::new(w, TaskId(t), 0)).collect();
        let outcome = handle
            .submit_answer_batch_ticket_in(c, batch)
            .and_then(Ticket::wait)
            .unwrap();
        assert_eq!(outcome.accepted, 6);
        let flushes_after = flushes();
        assert_eq!(
            flushes_after - flushes_before,
            1,
            "six answers, one group commit"
        );
        drop(handle);
        service.join();
        // On disk: published + golden + ONE batch record; recovery replays
        // the batch and yields every answer.
        let tree = recover_tree(&dir).unwrap();
        let rec = &tree.campaigns[&c];
        assert_eq!(rec.events.len(), 3, "published + golden + one batch");
        let (service, handle) = DocsService::recover(ServiceConfig::durable(1, &dir)).unwrap();
        let report = handle.finish_in(c).unwrap();
        assert_eq!(report.answers_collected, 6);
        drop(handle);
        service.join_all();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recover_on_empty_directory_yields_an_empty_pool() {
        let dir = tmp_dir("recover-empty");
        let (service, handle) = DocsService::recover(ServiceConfig::durable(2, &dir)).unwrap();
        // No campaigns recovered: the default campaign does not exist.
        let err = handle
            .request_tasks_ticket_in(handle.default_campaign(), WorkerId(0))
            .and_then(Ticket::wait)
            .unwrap_err();
        assert_eq!(
            err,
            ServiceError::Rejected(RejectReason::UnknownCampaign(CampaignId(0)))
        );
        // But new campaigns can be created (durably) right away.
        let c = handle.create_campaign_durable(published(3)).unwrap();
        assert_eq!(c, CampaignId(0));
        drop(handle);
        assert_eq!(service.join_all().len(), 1);
    }
}
