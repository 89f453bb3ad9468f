//! The layer ledger: replays a campaign's recorded operation stream
//! in-process through each layer's public functions, under spans kept by
//! the benchmark (`spans.rs`), and turns the spans into per-layer costs.
//!
//! Because a shard served the campaign's operations in send order, the
//! replay reproduces the served picks and truths exactly; the workloads
//! check that it does.

use crate::drive::{Op, OpLog, Served};
use crate::spans::SpanLog;
use crate::stats::Samples;
use docs_core::dve;
use docs_kb::{EntityLinker, KnowledgeBase};
use docs_storage::{CampaignLog, FlushPolicy};
use docs_system::{Docs, DocsConfig, RequesterReport};
use docs_types::codec::{decode_event, encode_event};
use docs_types::{CampaignEvent, CampaignId, Task};
use std::path::Path;
use std::time::{Duration, Instant};

/// Layer names as used in spans and per-layer metrics.
pub const DVE: &str = "dve";
pub const OTA: &str = "ota";
pub const TI: &str = "ti";
pub const SYSTEM: &str = "system";
pub const CODEC: &str = "codec";
pub const STORAGE: &str = "storage";

/// Costs accumulated over every replayed campaign of one workload.
#[derive(Debug, Default)]
pub struct LayerCosts {
    pub dve_us: Samples,
    pub ota_us: Samples,
    pub validate_us: Samples,
    pub ti_incr_ns: u64,
    pub ti_incr_answers: u64,
    pub ti_full_ms: Samples,
    pub ti_finish_ms: Samples,
    pub encode_ns: u64,
    pub decode_ns: u64,
    pub event_bytes: u64,
    pub events: u64,
    pub append_ns: u64,
    pub appended: u64,
    pub fsync_us: Samples,
    /// Replayed operations whose outcome differed from the served one.
    pub mismatches: Vec<String>,
    /// Encoded events of every replayed campaign, for the storage replay.
    pub encoded: Vec<(CampaignId, Vec<u8>)>,
}

/// Replays one campaign and returns the truths the replay infers. With
/// `finish`, the stream ends in `Docs::finish` (as served); otherwise the
/// truths are `Docs::report` at the end of the stream (a served peek).
#[allow(clippy::too_many_arguments)]
pub fn replay(
    campaign: CampaignId,
    kb: &KnowledgeBase,
    mut tasks: Vec<Task>,
    config: DocsConfig,
    log: &OpLog,
    finish: bool,
    spans: &mut SpanLog,
    costs: &mut LayerCosts,
) -> Result<RequesterReport, String> {
    // ① DVE, exactly as `Docs::publish` runs it, one span per task.
    let m = kb.num_domains();
    let linker = EntityLinker::new(kb, config.linker);
    for (i, task) in tasks.iter_mut().enumerate() {
        if task.domain_vector.is_none() {
            let (v, ns) = spans.time(DVE, None, i as u64, || {
                dve::domain_vector(&linker.link(&task.text), m)
            });
            task.domain_vector = Some(v);
            costs.dve_us.push(ns as f64 / 1e3);
        }
    }
    let z = config.z;
    let mut docs = Docs::publish(kb, tasks, config).map_err(|e| e.to_string())?;
    let mut events = Vec::new();
    for (r, (op, served)) in log.ops.iter().enumerate() {
        let req = r as u64;
        match op {
            Op::Request(w) => {
                let root = spans.open("op.request", None, req);
                let (got, ns) = spans.time(OTA, Some(root), req, || docs.request_tasks(*w));
                spans.close(root);
                costs.ota_us.push(ns as f64 / 1e3);
                if let Served::Work(want) = served {
                    if *want != got {
                        costs
                            .mismatches
                            .push(format!("op {r}: served {want:?}, replay picked {got:?}"));
                    }
                }
            }
            Op::Golden(w, answers) => {
                if !matches!(served, Served::Ack) {
                    continue;
                }
                let root = spans.open("op.golden", None, req);
                let (res, _) = spans.time(TI, Some(root), req, || docs.submit_golden(*w, answers));
                spans.close(root);
                res.map_err(|e| format!("op {r}: golden replay failed: {e}"))?;
                events.push(CampaignEvent::golden(*w, answers.clone()));
            }
            Op::Submit(answers) => {
                let Served::Batch(rejected) = served else {
                    continue;
                };
                let root = spans.open("op.submit", None, req);
                let ((accepted, refused), v_ns) = spans.time(SYSTEM, Some(root), req, || {
                    docs.validate_answer_batch(answers)
                });
                let before = docs.engine().submissions();
                let (res, ns) =
                    spans.time(TI, Some(root), req, || docs.submit_answer_batch(answers));
                spans.close(root);
                res.map_err(|e| format!("op {r}: batch replay failed: {e}"))?;
                costs.validate_us.push(v_ns as f64 / 1e3);
                let after = docs.engine().submissions();
                // `submit_answer_batch` re-validates; its TI share is the
                // rest.
                let ti_ns = ns.saturating_sub(v_ns);
                if z > 0 && before / z != after / z {
                    costs.ti_full_ms.push(ti_ns as f64 / 1e6);
                } else {
                    costs.ti_incr_ns += ti_ns;
                    costs.ti_incr_answers += accepted.len() as u64;
                }
                let refused: Vec<usize> = refused.iter().map(|(i, _)| *i).collect();
                if refused != *rejected {
                    costs.mismatches.push(format!(
                        "op {r}: served rejections {rejected:?}, replay {refused:?}"
                    ));
                }
                if !accepted.is_empty() {
                    events.push(CampaignEvent::answer_batch(accepted));
                }
            }
        }
    }
    let report = if finish {
        let req = log.ops.len() as u64;
        let root = spans.open("op.finish", None, req);
        let (report, ns) = spans.time(TI, Some(root), req, || docs.finish());
        spans.close(root);
        costs.ti_finish_ms.push(ns as f64 / 1e6);
        events.push(CampaignEvent::finished());
        report.map_err(|e| e.to_string())?
    } else {
        docs.report()
    };
    // The codec on this campaign's events: encode, decode, size.
    for event in &events {
        let t = Instant::now();
        let bytes = encode_event(event);
        let enc = t.elapsed();
        let t = Instant::now();
        let decoded = decode_event(&bytes).map_err(|e| e.to_string())?;
        let dec = t.elapsed();
        if decoded != *event {
            costs
                .mismatches
                .push("codec round trip changed an event".to_string());
        }
        costs.encode_ns += enc.as_nanos() as u64;
        costs.decode_ns += dec.as_nanos() as u64;
        costs.event_bytes += bytes.len() as u64;
        costs.events += 1;
        costs.encoded.push((campaign, bytes));
    }
    Ok(report)
}

/// Appends every encoded event to a fresh `CampaignLog` under `dir`,
/// syncing once per `per_flush` events (the group size the live run
/// measured), and records append and fsync costs.
pub fn replay_storage(dir: &Path, per_flush: usize, costs: &mut LayerCosts) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dir);
    let mut log = CampaignLog::open(dir).map_err(|e| e.to_string())?;
    let LayerCosts {
        encoded,
        append_ns,
        appended,
        fsync_us,
        ..
    } = costs;
    let mut registered = std::collections::BTreeSet::new();
    for (c, _) in encoded.iter() {
        if registered.insert(*c) {
            // The replay decides when to sync; the policy never does.
            log.register(*c, FlushPolicy::Batch(usize::MAX), 0);
        }
    }
    let per_flush = per_flush.max(1);
    for (i, (c, bytes)) in encoded.iter().enumerate() {
        let t = Instant::now();
        log.append_event(*c, bytes).map_err(|e| e.to_string())?;
        *append_ns += t.elapsed().as_nanos() as u64;
        *appended += 1;
        if (i + 1) % per_flush == 0 || i + 1 == encoded.len() {
            let t = Instant::now();
            log.flush().map_err(|e| e.to_string())?;
            fsync_us.push_us(t.elapsed());
        }
    }
    drop(log);
    let _ = std::fs::remove_dir_all(dir);
    Ok(())
}

/// Self time of the shard-side layers in the replay, by layer.
pub fn shard_time(
    spans: &SpanLog,
    costs: &LayerCosts,
    durable: bool,
) -> Vec<(&'static str, Duration)> {
    let selfs = spans.self_ns();
    let get = |k: &str| Duration::from_nanos(*selfs.get(k).unwrap_or(&0));
    let mut out = vec![(OTA, get(OTA)), (TI, get(TI)), (SYSTEM, get(SYSTEM))];
    if durable {
        out.push((CODEC, Duration::from_nanos(costs.encode_ns)));
        let fsync: f64 = costs.fsync_us.sum();
        out.push((
            STORAGE,
            Duration::from_nanos(costs.append_ns) + Duration::from_secs_f64(fsync / 1e6),
        ));
    }
    out
}

/// Time the replay spent inside the layers: every layer span's self time
/// (the `op.*` roots' own time is the replay's bookkeeping), plus the
/// codec and storage calls, which are timed directly.
pub fn layer_time(spans: &SpanLog, costs: &LayerCosts) -> Duration {
    let in_spans: u64 = spans
        .self_ns()
        .iter()
        .filter(|(name, _)| !name.starts_with("op."))
        .map(|(_, ns)| *ns)
        .sum();
    Duration::from_nanos(in_spans + costs.encode_ns + costs.decode_ns + costs.append_ns)
        + Duration::from_secs_f64(costs.fsync_us.sum() / 1e6)
}
