//! The three workloads. Each builds its inputs from the seed, sets up,
//! measures for the requested time, checks the outputs, and — in a traced
//! run — replays its operation stream through the layer ledger.

use crate::adapter::{Pool, ServiceView};
use crate::checks;
use crate::crowd::{mix, Crowd};
use crate::drive::{self, Latencies, Observed, Op, OpLog, Served, Step, StepResult, Tenant};
use crate::ledger::{self, LayerCosts};
use crate::spans::SpanLog;
use crate::stats::{median, Samples};
use docs_crowd::{PopulationConfig, WorkerPopulation};
use docs_datasets::focus_population_qualities;
use docs_kb::KnowledgeBase;
use docs_obs::{SpanKind, Trace};
use docs_storage::{recover_tree, FlushPolicy};
use docs_system::{Docs, DocsConfig};
use docs_types::{CampaignId, ChoiceIndex, Task, TaskBuilder, WorkerId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::time::{Duration, Instant};

pub const WORKLOADS: &[&str] = &["paper_campaign", "large_pool", "durable_tenants"];

/// Set-up repetitions per run; `setup_s` is their median. They are spread
/// over the run (before and after the measured phase), so that the median
/// spans the whole run rather than one moment of the host. A traced run
/// sets up once per pool it drives.
const SETUPS: usize = 21;
/// Every Nth submission carries a service trace in a traced run.
const TRACE_EVERY: u64 = 4;
/// A run whose generator sent later than this (p99 over a step) is
/// flagged invalid and is not compared.
pub const SEND_LAG_LIMIT_MS: f64 = 15.0;

pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory inside the checkout (durable logs, span dumps).
    pub data: PathBuf,
}

#[derive(Default)]
pub struct Report {
    /// End-to-end metrics: name, value, sample count.
    pub e2e: Vec<(&'static str, f64, usize)>,
    /// Per-layer metrics (traced run only).
    pub layers: Vec<(&'static str, f64)>,
    /// Workload-specific figures printed beside the metrics.
    pub extra: Vec<(String, f64, &'static str, usize)>,
    pub manifest: Vec<(String, String)>,
    pub checks: Vec<(String, Result<(), String>)>,
    pub attempted: usize,
    pub failed: usize,
    pub valid: bool,
    pub spans: Option<SpanLog>,
}

/// A served campaign the ledger replays.
struct Replayable {
    /// Which of the workload's pools served it (empty when it has one).
    pool: &'static str,
    id: CampaignId,
    tasks: Vec<Task>,
    config: DocsConfig,
    log: OpLog,
    finish: bool,
    served: Vec<ChoiceIndex>,
}

#[derive(Default)]
struct DurableFacts {
    events_per_flush: f64,
    flushes: u64,
    acked: usize,
    recover_ms: f64,
    scan_ms: f64,
}

/// One live (service-driven) run of a workload.
#[derive(Default)]
struct Live {
    setup_s: Vec<f64>,
    answers_per_s: f64,
    answers_count: usize,
    lat: Latencies,
    accuracy: f64,
    accuracy_count: usize,
    kb: Option<KnowledgeBase>,
    replays: Vec<Replayable>,
    attempted: usize,
    failed: usize,
    checks: Vec<(String, Result<(), String>)>,
    extra: Vec<(String, f64, &'static str, usize)>,
    manifest: Vec<(String, String)>,
    /// Measured-phase wall time and shard busy time within it.
    wall: Duration,
    busy: Duration,
    view: Option<ServiceView>,
    send_lag: Samples,
    durable: Option<DurableFacts>,
    /// Campaigns (or capacity segments) the measured phase repeated.
    runs: usize,
}

/// Spare set-ups (timed, then shut down) before the measured phase, and
/// the number of set-ups to time in all.
fn setup_plan(traced: bool) -> (usize, usize) {
    if traced {
        (0, 0)
    } else {
        (SETUPS / 2 - 1, SETUPS)
    }
}

fn shuffled(mut v: Vec<WorkerId>, rng: &mut SmallRng) -> Vec<WorkerId> {
    drive::shuffle(&mut v, rng);
    v
}

/// Collects sampled service traces during a traced run (the flight
/// recorder is a bounded ring, so it is drained every 20 ms).
struct TraceSink {
    on: bool,
    last: Instant,
    traces: BTreeMap<u64, Trace>,
}

impl TraceSink {
    fn new(on: bool) -> Self {
        TraceSink {
            on,
            last: Instant::now(),
            traces: BTreeMap::new(),
        }
    }

    fn poll(&mut self, pool: &Pool, force: bool) {
        if self.on && (force || self.last.elapsed() >= Duration::from_millis(20)) {
            for t in pool.traces() {
                self.traces.insert(t.id.0, t);
            }
            self.last = Instant::now();
        }
    }
}

fn acc_check(live: &mut Live, name: &str, r: Result<(), String>) {
    live.checks.push((name.to_string(), r));
}

// ---------------------------------------------------------------------
// paper_campaign
// ---------------------------------------------------------------------

/// `repeat` fixes the number of campaigns (the traced run repeats the
/// untraced run's); otherwise campaigns run until `--seconds` is measured.
fn paper_campaign(opts: &Opts, traced: bool, repeat: Option<usize>) -> Result<Live, String> {
    let ds = docs_datasets::yahoo_qa();
    let tasks = ds.tasks.clone();
    let workers = 300;
    let m = ds.domain_set.len();
    let config = DocsConfig::default();
    let mut live = Live {
        kb: Some(ds.kb.clone()),
        ..Default::default()
    };
    live.manifest = vec![
        (
            "dataset".into(),
            format!("yahoo_qa ({} tasks, text; DVE at publish)", tasks.len()),
        ),
        (
            "crowd".into(),
            format!("{workers} focus-domain workers, closed loop, 1 pipelined client"),
        ),
        ("config".into(), format!("{config:?}")),
        ("topology".into(), "in memory, 1 shard".into()),
    ];
    let crowd_for = |seed: u64| {
        let q = focus_population_qualities(m, &ds.focus_domains, workers, seed);
        Crowd::new(WorkerPopulation::from_qualities(q), seed)
    };
    // Publish (with DVE), spawn, create, golden priming: the timed set-up.
    let setup =
        |crowd: &Crowd, trace_every: u64| -> Result<(Pool, CampaignId, OpLog, f64), String> {
            let t0 = Instant::now();
            let docs =
                Docs::publish(&ds.kb, tasks.clone(), config.clone()).map_err(|e| e.to_string())?;
            let pool = Pool::in_memory(trace_every)?;
            let c = pool.create(docs)?;
            let mut logs = [OpLog::default()];
            drive::prime_golden(&pool, &[(c, crowd, &tasks)], &mut logs)?;
            let [log] = logs;
            Ok((pool, c, log, t0.elapsed().as_secs_f64()))
        };
    let mut aps = Vec::new();
    let mut acc = Vec::new();
    let mut measured = Duration::ZERO;
    let mut sink = TraceSink::new(traced);
    let trace_every = if traced { TRACE_EVERY } else { 0 };
    for rep in 0u64.. {
        let seed = mix(opts.seed ^ mix(rep));
        let crowd = crowd_for(seed);
        let mut rng = SmallRng::seed_from_u64(seed);
        let order = shuffled(crowd.ids(), &mut rng);
        let (pool, c, log, secs) = setup(&crowd, trace_every)?;
        live.setup_s.push(secs);

        let busy0 = pool.busy();
        let t0 = Instant::now();
        let mut tenant = [Tenant {
            id: c,
            crowd: &crowd,
            tasks: &tasks,
            log,
            held: Vec::new(),
            retired: vec![false; workers],
        }];
        let lat = drive::closed_loop(&pool, &mut tenant, vec![order], None, &mut || {
            sink.poll(&pool, false)
        })?;
        let [Tenant { log, .. }] = tenant;
        let report = pool.finish(c)?;
        let wall = t0.elapsed();
        live.busy += pool.busy() - busy0;
        live.wall += wall;
        measured += wall;
        sink.poll(&pool, true);
        let acked = log.acked_answers();
        aps.push(acked.len() as f64 / wall.as_secs_f64());
        let docs_acc = checks::accuracy(&report.truths, &tasks);
        let mv_acc = checks::accuracy(&checks::majority_vote(&tasks, &acked), &tasks);
        acc.push(docs_acc);
        live.extra.push((
            format!("campaign{rep}.answers_per_s"),
            *aps.last().expect("pushed above"),
            "answers/s",
            acked.len(),
        ));
        live.extra.push((
            format!("campaign{rep}.mv_accuracy"),
            mv_acc,
            "fraction",
            tasks.len(),
        ));
        let check = checks::docs_beats_mv(docs_acc, mv_acc);
        acc_check(
            &mut live,
            &format!("campaign{rep}: DOCS >= majority vote"),
            check,
        );
        live.lat.assign.extend(&lat.assign);
        live.lat.submit.extend(&lat.submit);
        let (a, f) = log.attempted_failed();
        live.attempted += a;
        live.failed += f;
        live.answers_count += acked.len();
        if rep == 0 {
            // Correlation ids restart with each pool: the trace join uses
            // the first campaign only.
            live.lat.observed = lat.observed;
            live.replays.push(Replayable {
                pool: "",
                id: c,
                tasks: tasks.clone(),
                config: config.clone(),
                log,
                finish: true,
                served: report.truths.clone(),
            });
            if traced {
                live.view =
                    Some(pool.view(std::mem::take(&mut sink.traces).into_values().collect()));
            }
        }
        pool.shutdown();
        let done = match repeat {
            Some(n) => aps.len() >= n,
            None => measured.as_secs_f64() >= opts.seconds,
        };
        if done {
            break;
        }
    }
    // Further set-ups only, so `setup_s` is a median of several.
    let (_, setups) = setup_plan(traced);
    while live.setup_s.len() < setups {
        let crowd = crowd_for(mix(opts.seed ^ mix(live.setup_s.len() as u64 + 1000)));
        let (pool, _, _, secs) = setup(&crowd, 0)?;
        live.setup_s.push(secs);
        pool.shutdown();
    }
    live.answers_per_s = median(&aps);
    live.accuracy = median(&acc);
    live.accuracy_count = tasks.len();
    live.runs = aps.len();
    live.manifest
        .push(("campaigns".into(), aps.len().to_string()));
    Ok(live)
}

// ---------------------------------------------------------------------
// large_pool
// ---------------------------------------------------------------------

fn large_pool(opts: &Opts, traced: bool) -> Result<Live, String> {
    let (n, workers) = (8000, 240);
    let m = 26;
    let k = 5;
    let tasks = docs_datasets::scalability_tasks(n, m, opts.seed);
    let kb = docs_datasets::curated_kb();
    let config = DocsConfig {
        k_per_hit: k,
        ..Default::default()
    };
    let crowd = Crowd::new(
        WorkerPopulation::generate(&PopulationConfig {
            m,
            size: workers,
            seed: mix(opts.seed),
            ..Default::default()
        }),
        opts.seed,
    );
    let mut rng = SmallRng::seed_from_u64(mix(opts.seed ^ 0x0A));
    let order = shuffled(crowd.ids(), &mut rng);
    let mut live = Live {
        kb: Some(kb.clone()),
        ..Default::default()
    };
    live.manifest = vec![
        (
            "dataset".into(),
            format!("scalability_tasks n={n} m={m} (domain vectors supplied, no DVE)"),
        ),
        (
            "crowd".into(),
            format!(
                "{workers} workers in a seeded rotation, closed loop, 1 pipelined client, k={k}"
            ),
        ),
        ("config".into(), format!("{config:?}")),
        ("topology".into(), "in memory, 1 shard".into()),
    ];
    let trace_every = if traced { TRACE_EVERY } else { 0 };
    let setup = || -> Result<(Pool, CampaignId, OpLog, f64), String> {
        let t0 = Instant::now();
        let docs = Docs::publish(&kb, tasks.clone(), config.clone()).map_err(|e| e.to_string())?;
        let pool = Pool::in_memory(trace_every)?;
        let c = pool.create(docs)?;
        let mut logs = [OpLog::default()];
        drive::prime_golden(&pool, &[(c, &crowd, &tasks)], &mut logs)?;
        let [log] = logs;
        Ok((pool, c, log, t0.elapsed().as_secs_f64()))
    };
    let (spare, setups) = setup_plan(traced);
    for _ in 0..spare {
        let (pool, _, _, secs) = setup()?;
        live.setup_s.push(secs);
        pool.shutdown();
    }
    let (pool, c, log, secs) = setup()?;
    live.setup_s.push(secs);
    let mut sink = TraceSink::new(traced);
    let busy0 = pool.busy();
    let t0 = Instant::now();
    let until = t0 + Duration::from_secs_f64(opts.seconds);
    let mut tenant = [Tenant {
        id: c,
        crowd: &crowd,
        tasks: &tasks,
        log,
        held: Vec::new(),
        retired: vec![false; workers],
    }];
    live.lat = drive::closed_loop(&pool, &mut tenant, vec![order], Some(until), &mut || {
        sink.poll(&pool, false)
    })?;
    let [Tenant { log, .. }] = tenant;
    live.wall = t0.elapsed();
    live.busy = pool.busy() - busy0;
    sink.poll(&pool, true);
    let report = pool.finish(c)?;
    let acked = log.acked_answers();
    live.answers_count = acked.len();
    live.answers_per_s = acked.len() as f64 / live.wall.as_secs_f64();
    // A timed run leaves many tasks unanswered at their default truth, so
    // accuracy is scored over the tasks that received an accepted answer.
    (live.accuracy, live.accuracy_count) =
        checks::answered_accuracy(&report.truths, &tasks, &acked);
    let (a, f) = log.attempted_failed();
    live.attempted = a;
    live.failed = f;
    if traced {
        live.view = Some(pool.view(sink.traces.into_values().collect()));
    }
    pool.shutdown();
    while live.setup_s.len() < setups {
        let (pool, _, _, secs) = setup()?;
        live.setup_s.push(secs);
        pool.shutdown();
    }
    live.replays.push(Replayable {
        pool: "",
        id: c,
        tasks,
        config,
        log,
        finish: true,
        served: report.truths,
    });
    Ok(live)
}

fn step_extras(live: &mut Live, results: &[StepResult]) {
    for (i, r) in results.iter().enumerate() {
        let answers_per_s = r.hits_per_s * r.answers_per_hit;
        let p = format!("step{i}");
        live.extra.push((
            format!("{p}.offered_hits_per_s"),
            r.hits_per_s,
            "HITs/s",
            r.arrivals,
        ));
        live.extra.push((
            format!("{p}.offered_answers_per_s"),
            answers_per_s,
            "answers/s",
            r.arrivals,
        ));
        for (name, s) in [("assign", &r.lat.assign), ("submit", &r.lat.submit)] {
            let n = s.len();
            live.extra
                .push((format!("{p}.{name}_p50_ms"), s.quantile(0.5), "ms", n));
            live.extra
                .push((format!("{p}.{name}_p99_ms"), s.quantile(0.99), "ms", n));
        }
        let n = r.send_lag.len();
        live.extra.push((
            format!("{p}.send_lag_p50_ms"),
            r.send_lag.quantile(0.5),
            "ms",
            n,
        ));
        live.extra.push((
            format!("{p}.send_lag_p99_ms"),
            r.send_lag.quantile(0.99),
            "ms",
            n,
        ));
        live.extra
            .push((format!("{p}.send_lag_max_ms"), r.send_lag.max(), "ms", n));
        live.extra
            .push((format!("{p}.failed"), r.failed as f64, "ops", r.ops));
        live.extra.push((
            format!("{p}.backlog_end"),
            r.backlog_end as f64,
            "ops",
            r.ops,
        ));
    }
}

// ---------------------------------------------------------------------
// durable_tenants
// ---------------------------------------------------------------------

/// `durable_tenants` sizes.
const TENANT_CAMPAIGNS: usize = 24;
const TENANT_TASKS: usize = 200;
const TENANT_WORKERS: usize = 30;
/// Offered rates of the ladder, as multiples of the run's own closed-loop
/// capacity. The first is the reference step whose latencies are reported;
/// the last lies past the knee on the box in README.md.
const LADDER: [f64; 8] = [0.1, 0.2, 0.3, 0.45, 0.6, 0.8, 1.0, 1.25];
/// Expected HITs each ladder step offers, per second of `--seconds`. A
/// fixed count, not a fixed time, so the ladder's answers stay well within
/// the pool's (144,000) however fast the program gets.
const LADDER_HITS_PER_S: f64 = 80.0;
/// Share of `--seconds` spent measuring closed-loop capacity.
const CAPACITY_SHARE: f64 = 0.5;
/// Length of one capacity segment: a fresh pool driven closed loop for
/// this long, a small part of its 144,000 answers, so that every campaign
/// stays busy throughout; `answers_per_s` is the median over segments.
const CAPACITY_SEGMENT_S: f64 = 1.5;
/// A ladder step passes when its submit p99 is within this limit, with no
/// failed operation and no growing backlog.
const SUBMIT_P99_LIMIT_MS: f64 = 50.0;

/// A set-up durable pool: campaigns, their priming logs, its directory,
/// and the set-up time.
type TenantPool = (Pool, Vec<CampaignId>, Vec<OpLog>, PathBuf, f64);

fn tenant_tasks(seed: u64, campaign: usize, n: usize) -> Vec<Task> {
    let subjects = ["Michael Jordan", "Kobe Bryant", "NBA"];
    let mut rng = SmallRng::seed_from_u64(mix(seed ^ mix(campaign as u64)));
    (0..n)
        .map(|i| {
            TaskBuilder::new(
                i,
                format!("Is {} great? (c{campaign} q{i})", subjects[i % 3]),
            )
            .yes_no()
            .with_ground_truth(rng.gen_range(0..2usize))
            .with_true_domain(1)
            .build()
            .expect("valid yes/no task")
        })
        .collect()
}

/// `repeat` fixes the number of capacity segments, as in [`paper_campaign`].
fn durable_tenants(opts: &Opts, traced: bool, repeat: Option<usize>) -> Result<Live, String> {
    let kb = docs_kb::table2_example_kb();
    // Tiny compute per operation, so the durable path dominates: the
    // benefit index instead of the O(n) scan, and a full inference every
    // 400 answers instead of every 100.
    let config = DocsConfig {
        num_golden: 4,
        k_per_hit: 4,
        answers_per_task: 0,
        z: 400,
        use_benefit_index: true,
        durable_flush: Some(FlushPolicy::EveryEvent),
        ..Default::default()
    };
    let shards = 2;
    let all_tasks: Vec<Vec<Task>> = (0..TENANT_CAMPAIGNS)
        .map(|c| tenant_tasks(opts.seed, c, TENANT_TASKS))
        .collect();
    let crowds: Vec<Crowd> = (0..TENANT_CAMPAIGNS)
        .map(|c| {
            let seed = mix(opts.seed ^ mix(100 + c as u64));
            Crowd::new(
                WorkerPopulation::generate(&PopulationConfig {
                    m: 3,
                    size: TENANT_WORKERS,
                    seed,
                    ..Default::default()
                }),
                seed,
            )
        })
        .collect();
    let mut live = Live {
        kb: Some(kb.clone()),
        durable: Some(DurableFacts::default()),
        ..Default::default()
    };
    let closed_secs = opts.seconds * CAPACITY_SHARE;
    let hits_per_step = (opts.seconds * LADDER_HITS_PER_S).round();
    live.manifest = vec![
        (
            "dataset".into(),
            format!(
                "{TENANT_CAMPAIGNS} campaigns x {TENANT_TASKS} text tasks over the 3-domain example KB (DVE at publish)"
            ),
        ),
        (
            "crowd".into(),
            format!(
                "{TENANT_WORKERS} workers per campaign; closed loop in {CAPACITY_SEGMENT_S} s segments, each on a fresh pool, for {closed_secs:.2} s; then open loop Poisson; 1 sending thread for all campaigns"
            ),
        ),
        (
            "rate_ladder".into(),
            format!("{LADDER:?} x the closed-loop capacity"),
        ),
        (
            "ladder_step_hits".into(),
            format!("{hits_per_step} expected arrivals per step"),
        ),
        (
            "submit_p99_limit_ms".into(),
            SUBMIT_P99_LIMIT_MS.to_string(),
        ),
        ("config".into(), format!("{config:?}")),
        (
            "flush_policy".into(),
            "EveryEvent + adaptive group commit (AdaptiveCommit::default)".into(),
        ),
        (
            "topology".into(),
            format!("durable, {shards} shards, 1 live follower (replication hub)"),
        ),
        ("data_dir_fs".into(), filesystem_of(&opts.data)),
    ];
    let trace_every = if traced { TRACE_EVERY } else { 0 };
    let setup = |rep: usize| -> Result<TenantPool, String> {
        let dir = opts.data.join(format!(
            "durable-{}-{rep}",
            if traced { "traced" } else { "plain" }
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let t0 = Instant::now();
        let pool = Pool::durable(&dir, shards, trace_every)?;
        let mut ids = Vec::new();
        for tasks in &all_tasks {
            let docs =
                Docs::publish(&kb, tasks.clone(), config.clone()).map_err(|e| e.to_string())?;
            ids.push(pool.create(docs)?);
        }
        let primed: Vec<drive::Primed> = ids
            .iter()
            .zip(&crowds)
            .zip(&all_tasks)
            .map(|((&c, crowd), tasks)| (c, crowd, tasks.as_slice()))
            .collect();
        let mut logs = vec![OpLog::default(); ids.len()];
        drive::prime_golden(&pool, &primed, &mut logs)?;
        Ok((pool, ids, logs, dir, t0.elapsed().as_secs_f64()))
    };
    let tenants_of = |ids: Vec<CampaignId>, logs: Vec<OpLog>| -> Vec<Tenant> {
        ids.into_iter()
            .zip(logs)
            .enumerate()
            .map(|(ci, (id, log))| Tenant {
                id,
                crowd: &crowds[ci],
                tasks: &all_tasks[ci],
                log,
                held: vec![None; TENANT_WORKERS],
                retired: vec![false; TENANT_WORKERS],
            })
            .collect()
    };
    let (spare, setups) = setup_plan(traced);
    let mut next = 0..;
    for _ in 0..spare {
        let (pool, _, _, dir, secs) = setup(next.next().unwrap_or_default())?;
        live.setup_s.push(secs);
        pool.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
    let mut rng = SmallRng::seed_from_u64(mix(opts.seed ^ 0x0D));

    // Capacity, on pools of their own: every campaign driven closed loop
    // (one pipelined chain per campaign, every submission durable and
    // shipped before its ack) for one segment, repeated with fresh pools
    // until the time is measured.
    let mut aps = Vec::new();
    let mut measured = Duration::ZERO;
    while match repeat {
        Some(n) => aps.len() < n,
        None => aps.is_empty() || measured.as_secs_f64() < closed_secs,
    } {
        let (pool, ids, logs, dir, secs) = setup(next.next().unwrap_or_default())?;
        live.setup_s.push(secs);
        let mut tenants = tenants_of(ids, logs);
        let orders = tenants
            .iter()
            .map(|t| shuffled(t.crowd.ids(), &mut rng))
            .collect();
        let busy0 = pool.busy();
        let t0 = Instant::now();
        let until = t0 + Duration::from_secs_f64(CAPACITY_SEGMENT_S);
        drive::closed_loop(&pool, &mut tenants, orders, Some(until), &mut || {})?;
        let wall = t0.elapsed();
        measured += wall;
        live.wall += wall;
        live.busy += pool.busy() - busy0;
        let answers: usize = tenants.iter().map(|t| t.log.acked_answers().len()).sum();
        live.answers_count += answers;
        aps.push(answers as f64 / wall.as_secs_f64());
        live.extra.push((
            format!("capacity{}.answers_per_s", aps.len() - 1),
            answers as f64 / wall.as_secs_f64(),
            "answers/s",
            answers,
        ));
        for t in tenants {
            let served = pool.peek(t.id)?.truths;
            let (a, f) = t.log.attempted_failed();
            live.attempted += a;
            live.failed += f;
            if aps.len() == 1 {
                live.replays.push(Replayable {
                    pool: "capacity pool ",
                    id: t.id,
                    tasks: t.tasks.to_vec(),
                    config: config.clone(),
                    log: t.log,
                    finish: false,
                    served,
                });
            }
        }
        pool.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
    live.answers_per_s = median(&aps);
    live.runs = aps.len();
    live.manifest
        .push(("capacity_segments".into(), aps.len().to_string()));

    // The rate ladder, open loop, on a second pool, at rates sized from
    // the capacity just measured, after every worker holds a HIT. Every
    // step runs (no early stop).
    let (pool, ids, logs, dir, secs) = setup(next.next().unwrap_or_default())?;
    live.setup_s.push(secs);
    let mut tenants = tenants_of(ids, logs);
    let hits_capacity = live.answers_per_s / config.k_per_hit as f64;
    let steps: Vec<Step> = LADDER
        .iter()
        .map(|f| Step {
            hits_per_s: hits_capacity * f,
            dur: Duration::from_secs_f64(hits_per_step / (hits_capacity * f)),
        })
        .collect();
    live.manifest.push((
        "rate_ladder_hits_per_s".into(),
        format!(
            "{:?}",
            steps
                .iter()
                .map(|s| s.hits_per_s.round())
                .collect::<Vec<_>>()
        ),
    ));
    let mut sink = TraceSink::new(traced);
    drive::first_hits(&pool, &mut tenants)?;
    let results = drive::open_loop(&pool, &mut tenants, &steps, &mut rng, &mut || {
        sink.poll(&pool, false)
    });
    sink.poll(&pool, true);
    let meets = |r: &StepResult| {
        r.failed == 0
            && r.lat.submit.quantile(0.99) <= SUBMIT_P99_LIMIT_MS
            && r.backlog_end <= (r.hits_per_s * 0.05) as usize + 4
    };
    let passed = results.iter().take_while(|r| meets(r)).count();
    // The reported latencies, and the service-side split of them, are the
    // reference step's.
    let reference = &results[0];
    live.lat = reference.lat.clone();
    // Generator health is judged where the service kept up: past the
    // knee the generator waits on workers whose operations are queued.
    for r in &results[..passed.max(1)] {
        live.send_lag.extend(&r.send_lag);
    }
    let max_rate = results[..passed]
        .iter()
        .map(|r| r.hits_per_s * r.answers_per_hit)
        .fold(0.0, f64::max);
    live.extra.push((
        "max_rate_answers_per_s".into(),
        max_rate,
        "answers/s",
        results.len(),
    ));
    live.extra.push((
        "ladder_knee_found".into(),
        f64::from(u8::from(passed < results.len())),
        "bool",
        results.len(),
    ));
    step_extras(&mut live, &results);

    // Follower at zero lag: same truths and state as the primary.
    let caught_up = pool.await_follower(Duration::from_secs(20));
    acc_check(
        &mut live,
        "follower reached zero lag",
        if caught_up {
            Ok(())
        } else {
            Err("follower did not catch up within 20 s".into())
        },
    );
    // Accuracy: the ladder pool's truths, after about ten answers per task
    // (a capacity segment leaves most tasks with one answer or none),
    // scored over the tasks that received an accepted answer.
    let (mut right, mut scored) = (0.0, 0usize);
    let mut served = Vec::new();
    for t in &tenants {
        let primary = pool.peek(t.id)?;
        let (a, n) = checks::answered_accuracy(&primary.truths, t.tasks, &t.log.acked_answers());
        right += a * n as f64;
        scored += n;
        let state = pool.state(t.id)?;
        let (follower, fstate) = pool.follower_view(t.id)?;
        acc_check(
            &mut live,
            &format!("campaign {}: follower == primary", t.id),
            checks::follower_matches(&primary.truths, &follower.truths, &state, &fstate),
        );
        served.push(primary.truths);
    }
    live.accuracy = right / scored.max(1) as f64;
    live.accuracy_count = scored;
    let disk = pool.disk_bytes();
    let acked_before: usize = tenants.iter().map(|t| t.log.acked_answers().len()).sum();
    live.extra.push((
        "disk_bytes_per_answer".into(),
        disk as f64 / acked_before.max(1) as f64,
        "B/answer",
        acked_before,
    ));
    for (t, truths) in tenants.iter().zip(served) {
        live.replays.push(Replayable {
            pool: "ladder pool ",
            id: t.id,
            tasks: t.tasks.to_vec(),
            config: config.clone(),
            log: t.log.clone(),
            finish: false,
            served: truths,
        });
        let (a, f) = t.log.attempted_failed();
        live.attempted += a;
        live.failed += f;
    }
    let view = pool.view(sink.traces.into_values().collect());
    let facts = live.durable.as_mut().expect("durable facts");
    facts.events_per_flush =
        view.flush_batch.sum_ns() as f64 / view.flush_batch.count().max(1) as f64;
    facts.flushes = view.flush_batch.count();
    facts.acked = acked_before;
    if traced {
        live.view = Some(view);
    }

    // Crash with answer batches in flight, then recover.
    let mut burst = Vec::new();
    for (ti, t) in tenants.iter_mut().enumerate() {
        for w in 0..t.held.len() {
            if let Some(hit) = t.held[w].take() {
                let answers = t.crowd.hit(WorkerId(w as u32), &hit, t.tasks);
                let op = t.log.push(Op::Submit(answers.clone()));
                burst.push((ti, op, pool.submit(t.id, answers)?));
            }
        }
    }
    // Crash once the first batch is acknowledged: the rest are in the
    // group-commit buffer or still queued.
    let mut burst = burst.into_iter();
    let first = burst.next();
    let mut harvested = Vec::new();
    if let Some((ti, op, p)) = first {
        harvested.push((ti, op, drive::batch_served(p.wait())));
    }
    pool.crash();
    harvested.extend(burst.map(|(ti, op, p)| (ti, op, drive::batch_served(p.wait()))));
    let (mut acked_burst, mut lost_burst) = (0usize, 0usize);
    for (ti, op, served) in harvested {
        if matches!(served, Served::Batch(_)) {
            acked_burst += 1;
        } else {
            lost_burst += 1;
        }
        tenants[ti].log.ops[op].1 = served;
    }
    live.extra.push((
        "crash.batches_acked".into(),
        acked_burst as f64,
        "batches",
        acked_burst + lost_burst,
    ));
    live.extra.push((
        "crash.batches_lost_unacked".into(),
        lost_burst as f64,
        "batches",
        acked_burst + lost_burst,
    ));
    let (recovered_pool, took) = pool.recover(tenants[0].id)?;
    let recovered = recovered_pool.shutdown();
    for t in &tenants {
        let acked = t.log.acked_answers();
        let r = match recovered.get(&t.id) {
            Some(docs) => checks::acked_recovered(&acked, |a| {
                docs.engine().log().has_answered(a.worker, a.task)
            }),
            None => Err(format!("campaign {} missing after recovery", t.id)),
        };
        acc_check(
            &mut live,
            &format!("campaign {}: acked answers survive crash", t.id),
            r,
        );
    }
    let t0 = Instant::now();
    let scan = recover_tree(&dir).map_err(|e| e.to_string())?;
    let scan_ms = t0.elapsed().as_secs_f64() * 1e3;
    let facts = live.durable.as_mut().expect("durable facts");
    facts.recover_ms = took.as_secs_f64() * 1e3;
    facts.scan_ms = scan_ms;
    live.extra.push((
        "recover_s".into(),
        took.as_secs_f64(),
        "s",
        scan.events_recovered as usize,
    ));
    let _ = std::fs::remove_dir_all(&dir);
    while live.setup_s.len() < setups {
        let (pool, _, _, dir, secs) = setup(next.next().unwrap_or_default())?;
        live.setup_s.push(secs);
        pool.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
    Ok(live)
}

fn filesystem_of(path: &std::path::Path) -> String {
    let _ = std::fs::create_dir_all(path);
    let Ok(mounts) = std::fs::read_to_string("/proc/mounts") else {
        return "unknown".into();
    };
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let mut best: Option<(usize, String)> = None;
    for line in mounts.lines() {
        let f: Vec<&str> = line.split_whitespace().collect();
        if f.len() >= 3
            && path.starts_with(f[1])
            && best.as_ref().is_none_or(|(l, _)| f[1].len() > *l)
        {
            best = Some((f[1].len(), f[2].to_string()));
        }
    }
    best.map_or("unknown".into(), |(_, fs)| fs)
}

// ---------------------------------------------------------------------
// Report assembly
// ---------------------------------------------------------------------

fn live_run(name: &str, opts: &Opts, traced: bool, repeat: Option<usize>) -> Result<Live, String> {
    match name {
        "paper_campaign" => paper_campaign(opts, traced, repeat),
        "large_pool" => large_pool(opts, traced),
        "durable_tenants" => durable_tenants(opts, traced, repeat),
        other => Err(format!("unknown workload {other:?}; known: {WORKLOADS:?}")),
    }
}

/// CPU time (user + system) this process has used, seconds.
pub fn cpu_s() -> f64 {
    let ticks = std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // Fields after the parenthesised command name; utime and stime are
            // the 14th and 15th fields of the whole line.
            let rest = &s[s.rfind(')')? + 2..];
            let f: Vec<&str> = rest.split_whitespace().collect();
            Some(f.get(11)?.parse::<f64>().ok()? + f.get(12)?.parse::<f64>().ok()?)
        });
    ticks.map_or(0.0, |t| t / 100.0)
}

/// Peak resident set of this process, MiB.
pub fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn run(name: &str, opts: &Opts) -> Result<Report, String> {
    let mut live = live_run(name, opts, false, None)?;
    let mut report = Report {
        valid: true,
        ..Default::default()
    };
    if !live.send_lag.is_empty() && live.send_lag.quantile(0.99) > SEND_LAG_LIMIT_MS {
        report.valid = false;
    }
    let durable = live.durable.is_some();
    report.e2e = vec![
        ("setup_s", median(&live.setup_s), live.setup_s.len()),
        ("answers_per_s", live.answers_per_s, live.answers_count),
        ("accuracy", live.accuracy, live.accuracy_count),
    ];
    // Reported beside the gated metrics, not gated: too noisy on a shared
    // 2-core box to bound (see README.md).
    let (na, ns) = (live.lat.assign.len(), live.lat.submit.len());
    report.extra = vec![
        (
            "assign_p50_ms".into(),
            live.lat.assign.quantile(0.5),
            "ms",
            na,
        ),
        (
            "assign_p99_ms".into(),
            live.lat.assign.quantile(0.99),
            "ms",
            na,
        ),
        (
            "submit_p50_ms".into(),
            live.lat.submit.quantile(0.5),
            "ms",
            ns,
        ),
        (
            "submit_p99_ms".into(),
            live.lat.submit.quantile(0.99),
            "ms",
            ns,
        ),
    ];
    report.extra.append(&mut live.extra);
    report.extra.push((
        "failed_frac".into(),
        live.failed as f64 / live.attempted.max(1) as f64,
        "fraction",
        live.attempted,
    ));
    report.manifest = std::mem::take(&mut live.manifest);
    report.checks = std::mem::take(&mut live.checks);
    report.attempted = live.attempted;
    report.failed = live.failed;

    // Replay every served campaign through the ledger: the truths must
    // come out byte-identical, and the spans give the layer costs.
    let kb = live.kb.take().expect("workload keeps its KB");
    let mut spans = SpanLog::new();
    let mut costs = LayerCosts::default();
    let replay_start = Instant::now();
    for r in std::mem::take(&mut live.replays) {
        let replayed = ledger::replay(
            r.id, &kb, r.tasks, r.config, &r.log, r.finish, &mut spans, &mut costs,
        );
        let check = replayed.and_then(|rep| checks::replay_matches(&r.served, &rep.truths));
        report.checks.push((
            format!("{}campaign {}: replayed truths == served", r.pool, r.id),
            check,
        ));
    }
    let mut replay_wall = replay_start.elapsed();
    let picks = match costs.mismatches.first() {
        None => Ok(()),
        Some(first) => Err(format!(
            "{} replayed outcomes differ (first: {first})",
            costs.mismatches.len()
        )),
    };
    report
        .checks
        .push(("replayed picks == served".into(), picks));

    if opts.trace {
        // The same work as the untraced run: same seed, same repetitions.
        let traced = live_run(name, opts, true, Some(live.runs))?;
        if durable {
            let facts = live.durable.as_ref().expect("durable facts");
            let per_flush = facts.events_per_flush.round().max(1.0) as usize;
            let t0 = Instant::now();
            ledger::replay_storage(&opts.data.join("storage-replay"), per_flush, &mut costs)?;
            replay_wall += t0.elapsed();
        }
        report.layers = layers(&live, &traced, &spans, &costs, durable, replay_wall);
        report.spans = Some(spans);
    }
    report.extra.push(("process_cpu_s".into(), cpu_s(), "s", 1));
    report.e2e.push(("rss_peak_mb", rss_peak_mb(), 1));
    Ok(report)
}

/// Service-side figures from the sampled traces of the traced live run,
/// joined by correlation id with what the client observed.
fn service_layers(view: &ServiceView, observed: &[Observed]) -> (Vec<(&'static str, f64)>, f64) {
    let by_id: HashMap<u64, &Observed> = observed.iter().map(|o| (o.correlation, o)).collect();
    let mut qw = Samples::new();
    let mut apply = Samples::new();
    let mut fw = Samples::new();
    let mut ship = Samples::new();
    let mut wake = Samples::new();
    let (mut spans_ns, mut seen_ns) = (0u64, 0u64);
    let (mut durable_ns, mut submit_ns) = (0u64, 0u64);
    for t in &view.traces {
        let Some(o) = by_id.get(&t.id.0) else {
            continue;
        };
        let us = |k: SpanKind| t.span_ns(k).map(|ns| ns as f64 / 1e3);
        if let Some(v) = us(SpanKind::QueueWait) {
            qw.push(v);
        }
        if let Some(v) = us(SpanKind::Apply) {
            apply.push(v);
        }
        if let Some(v) = us(SpanKind::FlushWait) {
            fw.push(v);
        }
        if let Some(v) = us(SpanKind::Ship) {
            ship.push(v);
        }
        wake.push(o.latency_ns.saturating_sub(t.total_ns) as f64 / 1e3);
        spans_ns += t.spans_sum_ns();
        seen_ns += o.latency_ns;
        if o.submit {
            submit_ns += o.latency_ns;
            durable_ns += t.span_ns(SpanKind::FlushWait).unwrap_or(0)
                + t.span_ns(SpanKind::Ship).unwrap_or(0);
        }
    }
    let out = vec![
        ("service.queue_wait_us_p50", qw.quantile(0.5)),
        ("service.queue_wait_us_p99", qw.quantile(0.99)),
        ("service.apply_us_p50", apply.quantile(0.5)),
        ("service.flush_wait_us_p50", fw.quantile(0.5)),
        ("service.flush_wait_us_p99", fw.quantile(0.99)),
        ("service.ship_us_p50", ship.quantile(0.5)),
        ("service.wake_us_p50", wake.quantile(0.5)),
        (
            "service.queue_depth_max",
            view.shards.iter().map(|s| s.max_queued).max().unwrap_or(0) as f64,
        ),
        (
            "service.trace_coverage",
            spans_ns as f64 / seen_ns.max(1) as f64,
        ),
    ];
    (out, durable_ns as f64 / submit_ns.max(1) as f64)
}

fn layers(
    live: &Live,
    traced: &Live,
    spans: &SpanLog,
    costs: &LayerCosts,
    durable: bool,
    replay_wall: Duration,
) -> Vec<(&'static str, f64)> {
    let per = |num: f64, den: u64| if den == 0 { 0.0 } else { num / den as f64 };
    let mut out = vec![
        ("dve.link_us_per_task", costs.dve_us.mean()),
        ("ota.assign_us_p50", costs.ota_us.quantile(0.5)),
        ("ota.assign_us_p99", costs.ota_us.quantile(0.99)),
        ("ota.calls", costs.ota_us.len() as f64),
        (
            "ti.incr_us_per_answer",
            per(costs.ti_incr_ns as f64 / 1e3, costs.ti_incr_answers),
        ),
        ("ti.full_ms_p50", costs.ti_full_ms.quantile(0.5)),
        ("ti.full_ms_max", costs.ti_full_ms.max()),
        ("ti.full_runs", costs.ti_full_ms.len() as f64),
        ("ti.finish_ms", costs.ti_finish_ms.mean()),
        ("system.validate_us_per_batch", costs.validate_us.mean()),
        (
            "codec.encode_ns_per_event",
            per(costs.encode_ns as f64, costs.events),
        ),
        (
            "codec.decode_ns_per_event",
            per(costs.decode_ns as f64, costs.events),
        ),
        (
            "codec.bytes_per_event",
            per(costs.event_bytes as f64, costs.events),
        ),
    ];
    let facts = live.durable.as_ref();
    let d = |f: fn(&DurableFacts) -> f64| facts.map_or(0.0, f);
    out.push((
        "system.replay_ms",
        d(|f| (f.recover_ms - f.scan_ms).max(0.0)),
    ));
    if durable {
        out.push((
            "storage.append_us_per_event",
            per(costs.append_ns as f64 / 1e3, costs.appended),
        ));
        out.push(("storage.fsync_us_p50", costs.fsync_us.quantile(0.5)));
        out.push(("storage.fsync_us_p99", costs.fsync_us.quantile(0.99)));
    } else {
        out.push(("storage.append_us_per_event", 0.0));
        out.push(("storage.fsync_us_p50", 0.0));
        out.push(("storage.fsync_us_p99", 0.0));
    }
    out.push(("storage.events_per_flush", d(|f| f.events_per_flush)));
    out.push((
        "storage.flushes_per_answer",
        d(|f| f.flushes as f64 / f.acked.max(1) as f64),
    ));
    out.push(("storage.recover_scan_ms", d(|f| f.scan_ms)));
    let view = traced.view.as_ref();
    let lag = view.map(|v| v.replication_lag.clone());
    let lag_q = |p: f64| {
        lag.as_ref()
            .filter(|h| h.count() > 0)
            .map_or(0.0, |h| h.quantile_ms(p))
    };
    out.push(("replication.lag_ms_p50", lag_q(0.5)));
    out.push(("replication.lag_ms_p99", lag_q(0.99)));
    out.push((
        "replication.wire_bytes_per_event",
        view.and_then(|v| v.hub.as_ref())
            .map_or(0.0, |h| per(h.bytes_shipped as f64, h.events_shipped)),
    ));
    let (service, durable_share) = match view {
        Some(v) => service_layers(v, &traced.lat.observed),
        None => (Vec::new(), 0.0),
    };
    out.extend(service);
    let shards = view.map_or(1, |v| v.shards.len().max(1));
    out.push((
        "service.shard_busy_frac",
        live.busy.as_secs_f64() / (live.wall.as_secs_f64() * shards as f64).max(1e-9),
    ));
    let shard = ledger::shard_time(spans, costs, durable);
    let total: f64 = shard.iter().map(|(_, d)| d.as_secs_f64()).sum();
    let share = |name: &str| {
        shard
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, d)| d.as_secs_f64())
            / total.max(1e-12)
    };
    out.push(("share.ti_of_shard", share(ledger::TI)));
    out.push(("share.ota_of_shard", share(ledger::OTA)));
    out.push(("share.durable_of_submit", durable_share));
    out.push((
        "harness.span_coverage",
        ledger::layer_time(spans, costs).as_secs_f64() / replay_wall.as_secs_f64().max(1e-12),
    ));
    out.push(("harness.send_lag_p99_ms", live.send_lag.quantile(0.99)));
    // Both live runs do the same work, so their throughputs compare.
    out.push((
        "harness.trace_overhead_frac",
        live.answers_per_s / traced.answers_per_s.max(1e-12) - 1.0,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{END_TO_END, PER_LAYER};

    /// Every workload, at benchmark size with a short measured phase,
    /// reports exactly the declared end-to-end and per-layer metrics, and
    /// passes its checks.
    #[test]
    fn every_workload_emits_every_declared_metric() {
        for name in WORKLOADS {
            let data = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("../.bench_data")
                .join(format!("test-{name}-{}", std::process::id()));
            let opts = Opts {
                seed: 3,
                seconds: 1.0,
                trace: true,
                data: data.clone(),
            };
            let report = run(name, &opts).expect("workload runs");
            let _ = std::fs::remove_dir_all(&data);
            let e2e: Vec<&str> = report.e2e.iter().map(|(n, _, _)| *n).collect();
            let want: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
            assert_eq!(e2e, want, "{name}: end-to-end metrics");
            let layers: Vec<&str> = report.layers.iter().map(|(n, _)| *n).collect();
            let mut want: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
            let mut got = layers.clone();
            want.sort_unstable();
            got.sort_unstable();
            assert_eq!(got, want, "{name}: per-layer metrics");
            for (check, r) in &report.checks {
                assert!(r.is_ok(), "{name}: check {check} failed: {r:?}");
            }
            for (n, v, _) in &report.e2e {
                assert!(v.is_finite() && *v > 0.0, "{name}: {n} = {v}");
            }
        }
    }

    /// The replay check compares real served truths with a real replay:
    /// it passes on the served stream and trips on a flipped served truth
    /// or on a stream with one acknowledged answer dropped.
    #[test]
    fn replay_check_trips_on_corrupted_served_data() {
        let opts = Opts {
            seed: 5,
            seconds: 1.0,
            trace: false,
            data: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../.bench_data/test-replay"),
        };
        let mut live = large_pool(&opts, false).expect("large_pool runs");
        let kb = live.kb.take().expect("kb");
        let r = live.replays.pop().expect("one replayable campaign");
        let replay = |log: &OpLog| {
            let mut costs = LayerCosts::default();
            let report = ledger::replay(
                r.id,
                &kb,
                r.tasks.clone(),
                r.config.clone(),
                log,
                r.finish,
                &mut SpanLog::new(),
                &mut costs,
            )
            .expect("replay runs");
            (report.truths, costs.mismatches)
        };
        let (truths, mismatches) = replay(&r.log);
        assert!(checks::replay_matches(&r.served, &truths).is_ok());
        assert!(mismatches.is_empty(), "{mismatches:?}");

        let mut flipped = r.served.clone();
        flipped[0] = 1 - flipped[0];
        assert!(checks::replay_matches(&flipped, &truths).is_err());

        // Drop the only accepted answer of a task whose served truth is that
        // answer's non-default choice: without it the task is unanswered,
        // its truth falls back to choice 0, and the replay must differ.
        let acked = r.log.acked_answers();
        let mut per_task = vec![0usize; r.tasks.len()];
        for a in &acked {
            per_task[a.task.index()] += 1;
        }
        let victim = *acked
            .iter()
            .find(|a| {
                a.choice != 0
                    && per_task[a.task.index()] == 1
                    && r.served[a.task.index()] == a.choice
            })
            .expect("a task answered once, with a non-default choice");
        let mut dropped = r.log.clone();
        for (op, _) in &mut dropped.ops {
            if let Op::Submit(answers) = op {
                answers.retain(|a| *a != victim);
            }
        }
        let (truths, mismatches) = replay(&dropped);
        assert!(
            checks::replay_matches(&r.served, &truths).is_err() || !mismatches.is_empty(),
            "dropping an acknowledged answer must change the replay"
        );
    }
}
