//! The one file through which the benchmark talks to the service.
//!
//! Every `docs-service` and `docs-replication` call the workloads make —
//! spawning a pool, creating campaigns, the pull-plane operations, reads,
//! crash and recovery, and the metric harvest — goes through [`Pool`] and
//! [`Pending`]. An API change in the service edits this file only.

use docs_obs::{LatencyHistogram, Trace};
use docs_replication::{bootstrap_frames, replication_channel, HubStats, Replica, ReplicationHub};
use docs_service::{
    AdaptiveCommit, BatchOutcome, DocsService, DurabilityConfig, ServiceConfig, ServiceError,
    ServiceHandle, ShardStats, Ticket, TicketWait,
};
use docs_storage::FlushPolicy;
use docs_system::{Docs, RequesterReport, WorkRequest};
use docs_types::{Answer, CampaignId, ChoiceIndex, TaskId, WorkerId};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// How long the replication pump must stay idle, with the follower at
/// its shipped watermark, before the follower counts as at zero lag.
const SETTLE: Duration = Duration::from_millis(100);

/// Why an operation failed: refused by admission, rejected by the system,
/// or lost with the shard.
pub type OpError = String;

fn op_error(e: ServiceError) -> OpError {
    e.to_string()
}

/// A submitted operation whose completion has not been taken yet.
pub struct Pending<T> {
    ticket: Ticket<T>,
}

/// Outcome of a bounded wait on a [`Pending`] operation.
pub enum Polled<T> {
    Ready(Result<T, OpError>),
    /// Still in flight; handed back.
    Waiting(Pending<T>),
}

impl<T> Pending<T> {
    /// The correlation id; sampled request traces carry it as their id.
    pub fn correlation(&self) -> u64 {
        self.ticket.correlation()
    }

    pub fn wait(self) -> Result<T, OpError> {
        self.ticket.wait().map_err(op_error)
    }

    /// Waits at most `timeout`; hands the operation back if it is still
    /// in flight.
    pub fn wait_timeout(self, timeout: Duration) -> Polled<T> {
        match self.ticket.wait_timeout(timeout) {
            TicketWait::Ready(r) => Polled::Ready(r.map_err(op_error)),
            TicketWait::Pending(ticket) => Polled::Waiting(Pending { ticket }),
        }
    }
}

fn pending<T>(r: Result<Ticket<T>, ServiceError>) -> Result<Pending<T>, OpError> {
    r.map(|ticket| Pending { ticket }).map_err(op_error)
}

/// Durable topology of a pool: where it logs and the live follower that
/// tails it through a replication hub.
struct Durable {
    dir: PathBuf,
    shards: usize,
    hub: Option<ReplicationHub>,
    replica: Option<Replica>,
}

/// A running service pool (in memory, or durable with one follower).
pub struct Pool {
    service: Option<DocsService>,
    handle: Option<ServiceHandle>,
    durable: Option<Durable>,
}

/// What the service's own metrics say about a run.
pub struct ServiceView {
    pub traces: Vec<Trace>,
    pub shards: Vec<ShardStats>,
    pub flush_batch: LatencyHistogram,
    pub replication_lag: LatencyHistogram,
    pub hub: Option<HubStats>,
}

fn durable_config(dir: &Path, shards: usize) -> ServiceConfig {
    ServiceConfig {
        shards,
        durability: Some(DurabilityConfig {
            dir: dir.to_path_buf(),
            default_flush: FlushPolicy::EveryEvent,
            snapshot_every: 1024,
            adaptive: Some(AdaptiveCommit::default()),
        }),
        ..Default::default()
    }
}

impl Pool {
    /// A memory-only pool of one shard thread; `trace_every > 0` samples
    /// every Nth submission into the flight recorder.
    pub fn in_memory(trace_every: u64) -> Result<Pool, OpError> {
        let config = ServiceConfig::sharded(1).with_trace_sampling(trace_every);
        let (service, handle) = DocsService::spawn_empty(config).map_err(op_error)?;
        Ok(Pool {
            service: Some(service),
            handle: Some(handle),
            durable: None,
        })
    }

    /// A durable pool logging under `dir` (`EveryEvent` with adaptive
    /// group commit) whose flushed events ship to one live follower.
    pub fn durable(dir: &Path, shards: usize, trace_every: u64) -> Result<Pool, OpError> {
        let (sink, feed) = replication_channel();
        let config = durable_config(dir, shards)
            .with_replication(sink)
            .with_trace_sampling(trace_every);
        let (service, handle) = DocsService::spawn_empty(config).map_err(op_error)?;
        let hub = ReplicationHub::spawn(feed);
        hub.attach_metrics(handle.metrics());
        let link = hub.subscribe("follower-1");
        let bootstrap = bootstrap_frames(dir).map_err(|e| e.to_string())?;
        let replica =
            Replica::spawn(ServiceConfig::follower(1), link, bootstrap).map_err(op_error)?;
        Ok(Pool {
            service: Some(service),
            handle: Some(handle),
            durable: Some(Durable {
                dir: dir.to_path_buf(),
                shards,
                hub: Some(hub),
                replica: Some(replica),
            }),
        })
    }

    fn handle(&self) -> &ServiceHandle {
        self.handle
            .as_ref()
            .expect("pool handle lives until shutdown")
    }

    /// Registers a campaign (durable under `EveryEvent` on a durable pool).
    pub fn create(&self, docs: Docs) -> Result<CampaignId, OpError> {
        match self.durable {
            Some(_) => self
                .handle()
                .create_campaign_with(docs, FlushPolicy::EveryEvent),
            None => self.handle().create_campaign(docs),
        }
        .map_err(op_error)
    }

    pub fn request(&self, c: CampaignId, w: WorkerId) -> Result<Pending<WorkRequest>, OpError> {
        pending(self.handle().request_tasks_ticket_in(c, w))
    }

    pub fn golden(
        &self,
        c: CampaignId,
        w: WorkerId,
        answers: Vec<(TaskId, ChoiceIndex)>,
    ) -> Result<Pending<()>, OpError> {
        pending(self.handle().submit_golden_ticket_in(c, w, answers))
    }

    pub fn submit(
        &self,
        c: CampaignId,
        answers: Vec<Answer>,
    ) -> Result<Pending<BatchOutcome>, OpError> {
        pending(self.handle().submit_answer_batch_ticket_in(c, answers))
    }

    pub fn finish(&self, c: CampaignId) -> Result<RequesterReport, OpError> {
        self.handle().finish_in(c).map_err(op_error)
    }

    /// Served truths without applying a `Finished` event.
    pub fn peek(&self, c: CampaignId) -> Result<RequesterReport, OpError> {
        self.handle().peek_report_in(c).map_err(op_error)
    }

    pub fn state(&self, c: CampaignId) -> Result<Vec<u8>, OpError> {
        self.handle().snapshot_state_in(c).map_err(op_error)
    }

    fn replica(&self) -> Option<&Replica> {
        self.durable.as_ref().and_then(|d| d.replica.as_ref())
    }

    /// Waits, once every operation is acknowledged, until the follower
    /// has applied everything the primary wrote (zero lag); `false` on
    /// timeout. The primary hands each event to the hub's feed before it
    /// acks, but the hub's shipped watermark advances only as its pump
    /// drains that feed, so the follower standing at the shipped
    /// watermark is not enough: the pump must also have shipped nothing
    /// for [`SETTLE`].
    pub fn await_follower(&self, timeout: Duration) -> bool {
        let Some(d) = &self.durable else { return true };
        let (Some(hub), Some(replica)) = (&d.hub, &d.replica) else {
            return true;
        };
        let deadline = Instant::now() + timeout;
        // Since when the follower has stood at the shipped watermark, and
        // the hub's shipped-event count then.
        let mut level: Option<(Instant, u64)> = None;
        loop {
            let events = hub.stats().events_shipped;
            let caught_up = replica.error().is_none()
                && hub
                    .shipped_watermarks()
                    .iter()
                    .all(|&(c, seq)| replica.watermark(c) >= seq);
            match level {
                Some((since, n)) if caught_up && n == events => {
                    if since.elapsed() >= SETTLE {
                        return true;
                    }
                }
                _ => level = caught_up.then(|| (Instant::now(), events)),
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// The follower's served truths and full state for one campaign.
    pub fn follower_view(&self, c: CampaignId) -> Result<(RequesterReport, Vec<u8>), OpError> {
        let replica = self.replica().ok_or("pool has no follower")?;
        let h = replica.handle();
        Ok((
            h.peek_report_in(c).map_err(op_error)?,
            h.snapshot_state_in(c).map_err(op_error)?,
        ))
    }

    /// Bytes under the durability directory.
    pub fn disk_bytes(&self) -> u64 {
        self.durable.as_ref().map_or(0, |d| dir_bytes(&d.dir))
    }

    /// Cumulative busy time summed over the primary's shards.
    pub fn busy(&self) -> Duration {
        self.handle()
            .metrics()
            .all_shards()
            .iter()
            .map(|s| s.busy)
            .sum()
    }

    /// Harvests the flight recorder (most recent sampled traces).
    pub fn traces(&self) -> Vec<Trace> {
        self.handle().metrics().flight().snapshot()
    }

    pub fn view(&self, traces: Vec<Trace>) -> ServiceView {
        let m = self.handle().metrics();
        ServiceView {
            traces,
            shards: m.all_shards(),
            flush_batch: m.flush_batch_histogram(),
            // The follower records ship → applied lag as it applies.
            replication_lag: self.replica().map_or_else(
                || m.replication_lag_histogram(),
                |r| r.handle().metrics().replication_lag_histogram(),
            ),
            hub: self
                .durable
                .as_ref()
                .and_then(|d| d.hub.as_ref())
                .map(|h| h.stats()),
        }
    }

    /// Fault injection: the primary's shards stop at their next turn
    /// without flushing their group-commit buffers. Pending operations
    /// then resolve either acknowledged or lost.
    pub fn crash(&self) {
        self.handle().simulate_crash();
    }

    /// After [`Pool::crash`] and a harvest of every pending operation:
    /// stops the crashed pool, its hub and follower, then recovers a new
    /// pool from the durability directory. Returns the recovered pool and
    /// the time from the recovery call to its first served read.
    pub fn recover(mut self, probe: CampaignId) -> Result<(Pool, Duration), OpError> {
        self.stop_pool();
        let d = self.durable.take().ok_or("recover needs a durable pool")?;
        let (dir, shards) = stop_replication(d);
        let started = Instant::now();
        let (service, handle) =
            DocsService::recover(durable_config(&dir, shards)).map_err(op_error)?;
        handle.status_in(probe).map_err(op_error)?;
        let took = started.elapsed();
        let durable = Durable {
            dir,
            shards,
            hub: None,
            replica: None,
        };
        Ok((
            Pool {
                service: Some(service),
                handle: Some(handle),
                durable: Some(durable),
            },
            took,
        ))
    }

    fn stop_pool(&mut self) -> Vec<(CampaignId, Docs)> {
        drop(self.handle.take());
        self.service
            .take()
            .map(|s| s.join_all())
            .unwrap_or_default()
    }

    /// Stops everything and returns the final state of every campaign the
    /// primary held.
    pub fn shutdown(mut self) -> BTreeMap<CampaignId, Docs> {
        self.stop_pool().into_iter().collect()
    }
}

/// Joins the hub (it exits once the primary's shards are gone) and stops
/// the follower; returns where the primary logged and its shard count.
fn stop_replication(d: Durable) -> (PathBuf, usize) {
    if let Some(hub) = d.hub {
        hub.join();
    }
    if let Some(replica) = d.replica {
        let (service, handle) = replica.detach();
        drop(handle);
        service.join_all();
    }
    (d.dir, d.shards)
}

impl Drop for Pool {
    fn drop(&mut self) {
        // Primary first: its exit closes the replication feed the hub
        // waits on.
        self.stop_pool();
        if let Some(d) = self.durable.take() {
            stop_replication(d);
        }
    }
}

/// Total size of the regular files under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}
