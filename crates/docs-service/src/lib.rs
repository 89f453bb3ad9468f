//! Concurrent service front-end for DOCS — the role the paper's Django web
//! server plays in the deployment ("We implement DOCS in Python 2.7 with the
//! Django web framework").
//!
//! On AMT, many workers interact with DOCS at once: some submitting answers
//! (Figure 1, arrow ⑤), others requesting HITs (arrow ④). The paper calls
//! the assignment path latency-critical ("online task assignment is required
//! to achieve instant assignment"). This crate reproduces that serving
//! architecture in-process and scales it out as a **sharded multi-campaign
//! runtime** with a **pipelined submission/completion API** (see
//! ARCHITECTURE.md at the workspace root):
//!
//! * [`DocsService`] runs a pool of shard threads; each shard owns a
//!   [`docs_system::CampaignRegistry`] of the campaigns hashed to it
//!   (`CampaignId::shard`). A campaign's requests are processed strictly in
//!   arrival order on its owning shard — the same serialization a
//!   single-writer web backend provides — while different campaigns
//!   progress in parallel on different shards,
//! * [`ServiceHandle`] is a cheaply cloneable routing client with **one
//!   method per operation**. Worker-plane operations
//!   (`request_tasks_ticket_in`, `submit_golden_ticket_in`,
//!   `submit_answer_ticket_in`, `submit_answer_batch_ticket_in`) enqueue a
//!   correlation-tagged
//!   envelope and return a [`Ticket`] — a one-shot completion handle with
//!   [`Ticket::wait`], [`Ticket::wait_timeout`], and [`Ticket::try_take`]
//!   — so one client thread can keep many requests in flight per shard; a
//!   blocking caller writes `?.wait()`. Requester, read, replication and
//!   control operations (`create_campaign*`, `finish_in`, `status_in`,
//!   `peek_report_in`, `snapshot_state_in`, `fence_in`, …) block for their
//!   completion,
//! * **Backpressure**: per-shard ingress queues are bounded
//!   ([`ServiceConfig::queue_capacity`]); submissions park on a full queue
//!   while the one fail-fast entry point,
//!   [`ServiceHandle::try_request_tasks_in`], returns
//!   [`ServiceError::Busy`] and bumps the shard's `busy_rejections`
//!   counter,
//! * **Pull assignment**: a worker asks
//!   ([`ServiceHandle::request_tasks_ticket_in`]) and the campaign's shard
//!   answers with the paper's top-`k`-by-benefit pick
//!   (`Docs::request_tasks`); this is the only way assignments reach
//!   workers (see ARCHITECTURE.md, "Task assignment"),
//! * **Typed errors**: every refusal carries a matchable
//!   [`RejectReason`]
//!   (`DuplicateAnswer`, `UnknownCampaign`, `BudgetExhausted`, …) whose
//!   `Display` output preserves the pre-taxonomy message text, end to end
//!   from docs-system validation through the wire to
//!   [`ServiceError::Rejected`] and the per-answer [`BatchOutcome`],
//! * **Durability** ([`ServiceConfig::durability`]): each shard owns a
//!   `docs_storage::CampaignLog`; campaigns that opt in (per campaign, via
//!   `DocsConfig::durable_flush` or
//!   [`ServiceHandle::create_campaign_with`]) have every mutation
//!   validated, logged as a `docs_types::CampaignEvent` (group-committed
//!   per their `FlushPolicy`), and only then applied.
//!   [`DocsService::recover`] rebuilds the whole registry from snapshots +
//!   log replay — byte-identical reports, even across a shard-count change
//!   (see ARCHITECTURE.md, "Durability & recovery"),
//! * [`ServiceMetrics`] records per-operation latency (count/mean/max),
//!   per-shard queue depth / in-flight tickets / busy rejections / service
//!   time / log gauges ([`ShardStats`]), and the service-wide durability,
//!   replication and routing counters (one [`Counter`] table), and renders
//!   all of it plus the replication hub's [`HubStats`] in one exposition,
//!   so the Figure 8(b) "worst-case assignment time" measurement works
//!   under real concurrency and the pool's balance and admission pressure
//!   are observable,
//! * **Replication** ([`ServiceConfig::role`] +
//!   [`ServiceConfig::with_replication`]): a primary ships every durable
//!   event and snapshot as [`docs_types::ReplicationFrame`]s
//!   (ship-after-flush, ship-before-ack); a follower pool
//!   ([`DocsService::spawn_replica`]) refuses mutations with
//!   [`RejectReason::ReadOnlyReplica`](docs_types::RejectReason) while
//!   serving the pure reads ([`ServiceHandle::status_in`],
//!   [`ServiceHandle::peek_report_in`],
//!   [`ServiceHandle::snapshot_state_in`]) locally, and
//!   [`ClusterRouter::single`] — the primary+replicas client — fans client
//!   reads out to replicas while pinning writes to the primary. The
//!   streaming hub, applier, and
//!   promotion/failover live in the `docs-replication` crate (see
//!   ARCHITECTURE.md, "Replication & failover"),
//! * **Cluster routing** ([`ClusterRouter`]): campaigns partition across
//!   multiple primary nodes by a versioned
//!   [`ClusterMap`](docs_types::ClusterMap). The router has no per-op
//!   methods: [`ClusterRouter::write`] runs any `ServiceHandle` operation
//!   on the owning primary, [`ClusterRouter::read`] runs a pure read
//!   replica-first on the owning node, and a stale map self-heals — a
//!   [`RejectReason::WrongNode`](docs_types::RejectReason) answer names
//!   the owner and [`absorb_redirects`], the one redirect loop shared by
//!   blocking writes and pipelined drives, retries there. Live campaign migration
//!   (fence → chase tail → adopt → flip the directory epoch) lives in
//!   `docs-replication::migrate_campaign` (see ARCHITECTURE.md,
//!   "Cluster & migration"),
//! * [`drive_workers`] / [`drive_workers_on`] run a whole simulated crowd
//!   (from `docs-crowd`) against one campaign from `threads` parallel
//!   clients until the budget is consumed, **pipelining** each client's
//!   next HIT request behind its in-flight submission;
//!   [`drive_workers_blocking_on`] keeps the strict request/response loop
//!   as the seed-architecture reference (byte-identical truths, measurably
//!   lower throughput — see the `service_pipeline` bench).

mod client;
mod message;
mod metrics;
mod routing;
mod server;
mod ticket;

pub use client::{
    drive_workers, drive_workers_blocking, drive_workers_blocking_on, drive_workers_on,
    DriveOutcome, DriveReport,
};
pub use message::{BatchOutcome, Completion, CorrelationId, Request, RequestEnvelope, Response};
pub use metrics::{Counter, FollowerLag, HubStats, OpKind, OpStats, ServiceMetrics, ShardStats};
pub use routing::{absorb_redirects, ClusterNode, ClusterRouter, ClusterRouterStats, DriveTarget};
pub use server::{
    DocsService, DurabilityConfig, ReplicationSink, ServiceConfig, ServiceError, ServiceHandle,
};
// Adaptive group-commit bounds appear in `DurabilityConfig`; re-exported
// so configuring a service doesn't require a direct docs-storage import.
pub use docs_storage::AdaptiveCommit;
pub use ticket::{Ticket, TicketWait};

// The rejection taxonomy and the replica role travel the wire, so clients
// match on them next to `ServiceError`; re-exported for convenience.
pub use docs_types::{RejectReason, ReplicaRole};
