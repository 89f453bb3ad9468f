//! Load generation: the closed-loop pipelined client and the open-loop
//! scheduled generator. Each campaign has exactly one sending thread, and
//! a shard serves one client's operations in FIFO order, so every
//! campaign's recorded operation list is the order the shard served it —
//! what the replay reproduces.

use crate::adapter::{OpError, Pending, Polled, Pool};
use crate::crowd::Crowd;
use crate::stats::Samples;
use docs_service::BatchOutcome;
use docs_system::WorkRequest;
use docs_types::{Answer, CampaignId, ChoiceIndex, Task, TaskId, WorkerId};
use rand::rngs::SmallRng;
use rand::Rng;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// One operation as sent.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    Request(WorkerId),
    Golden(WorkerId, Vec<(TaskId, ChoiceIndex)>),
    Submit(Vec<Answer>),
}

/// What the service answered.
#[derive(Debug, Clone, PartialEq)]
pub enum Served {
    /// Not harvested (still in flight when the run stopped, or lost).
    Unknown,
    Work(WorkRequest),
    Ack,
    /// Batch acknowledged; positions of the rejected answers.
    Batch(Vec<usize>),
    Failed(OpError),
}

/// A campaign's operation stream in send order, with its outcomes.
#[derive(Debug, Clone, Default)]
pub struct OpLog {
    pub ops: Vec<(Op, Served)>,
}

impl OpLog {
    pub fn push(&mut self, op: Op) -> usize {
        self.ops.push((op, Served::Unknown));
        self.ops.len() - 1
    }

    /// Answers the service acknowledged (accepted in an acked batch).
    pub fn acked_answers(&self) -> Vec<Answer> {
        let mut out = Vec::new();
        for (op, served) in &self.ops {
            if let (Op::Submit(answers), Served::Batch(rejected)) = (op, served) {
                out.extend(
                    answers
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| !rejected.contains(i))
                        .map(|(_, a)| *a),
                );
            }
        }
        out
    }

    /// Operations attempted and operations failed (refused, errored,
    /// lost, or a batch with rejected answers).
    pub fn attempted_failed(&self) -> (usize, usize) {
        let failed = self
            .ops
            .iter()
            .filter(|(_, s)| match s {
                Served::Unknown | Served::Failed(_) => true,
                Served::Batch(rejected) => !rejected.is_empty(),
                _ => false,
            })
            .count();
        (self.ops.len(), failed)
    }
}

pub fn batch_served(r: Result<BatchOutcome, OpError>) -> Served {
    match r {
        Ok(o) => Served::Batch(o.rejected.iter().map(|(i, _)| *i).collect()),
        Err(e) => Served::Failed(e),
    }
}

/// Client-observed latency of one traced-eligible operation, keyed by its
/// correlation id (sampled service traces carry the same id).
#[derive(Debug, Clone, Copy)]
pub struct Observed {
    pub correlation: u64,
    pub latency_ns: u64,
    pub submit: bool,
}

/// Latency samples (ms) of one measured phase.
#[derive(Debug, Clone, Default)]
pub struct Latencies {
    pub assign: Samples,
    pub submit: Samples,
    /// Send → completion per operation (for the trace join).
    pub observed: Vec<Observed>,
}

/// A campaign being primed: its id, crowd and tasks.
pub type Primed<'a> = (CampaignId, &'a Crowd, &'a [Task]);

/// Golden priming of every worker of every given campaign, pipelined:
/// all first requests go on the wire before the first wait, then all
/// golden HITs' answers.
pub fn prime_golden(pool: &Pool, campaigns: &[Primed], logs: &mut [OpLog]) -> Result<(), OpError> {
    let mut tickets = Vec::new();
    for (ci, &(c, crowd, _)) in campaigns.iter().enumerate() {
        for w in crowd.ids() {
            let i = logs[ci].push(Op::Request(w));
            tickets.push((ci, i, w, pool.request(c, w)?));
        }
    }
    let mut goldens = Vec::with_capacity(tickets.len());
    for (ci, i, w, t) in tickets {
        let (c, crowd, tasks) = campaigns[ci];
        let r = t.wait()?;
        logs[ci].ops[i].1 = Served::Work(r.clone());
        let WorkRequest::Golden(g) = r else {
            return Err(format!("fresh worker {w} was not sent the golden HIT"));
        };
        let answers = crowd.golden(w, &g, tasks);
        let j = logs[ci].push(Op::Golden(w, answers.clone()));
        goldens.push((ci, j, pool.golden(c, w, answers)?));
    }
    for (ci, j, t) in goldens {
        t.wait()?;
        logs[ci].ops[j].1 = Served::Ack;
    }
    Ok(())
}

/// Every worker's first HIT in every tenant, pipelined (the warm-up
/// before an open loop: from then on each arrival answers a held HIT and
/// asks for the next).
pub fn first_hits(pool: &Pool, tenants: &mut [Tenant]) -> Result<(), OpError> {
    let mut tickets = Vec::new();
    for (ti, t) in tenants.iter_mut().enumerate() {
        for w in t.crowd.ids() {
            if !t.retired[w.0 as usize] {
                let i = t.log.push(Op::Request(w));
                tickets.push((ti, i, w, pool.request(t.id, w)?));
            }
        }
    }
    for (ti, i, w, p) in tickets {
        let r = p.wait()?;
        let t = &mut tenants[ti];
        t.log.ops[i].1 = Served::Work(r.clone());
        match r {
            WorkRequest::Tasks(hit) => t.held[w.0 as usize] = Some(hit),
            _ => t.retired[w.0 as usize] = true,
        }
    }
    Ok(())
}

/// One campaign's pipelined chain in the closed loop.
struct Chain {
    order: Vec<WorkerId>,
    next: usize,
    remaining: usize,
    /// The outstanding HIT request: worker, op index, send time.
    request: Option<(WorkerId, usize, Instant, Pending<WorkRequest>)>,
    /// The answer batch sent right before it: op index, send time.
    batch: Option<(usize, Instant, Pending<BatchOutcome>)>,
}

impl Chain {
    fn send_request(&mut self, pool: &Pool, t: &mut Tenant) -> Result<(), OpError> {
        let w = loop {
            let w = self.order[self.next % self.order.len()];
            self.next += 1;
            if !t.retired[w.0 as usize] {
                break w;
            }
        };
        let i = t.log.push(Op::Request(w));
        self.request = Some((w, i, Instant::now(), pool.request(t.id, w)?));
        Ok(())
    }
}

fn take_batch(chain: &mut Chain, t: &mut Tenant, lat: &mut Latencies) {
    if let Some((j, sent, p)) = chain.batch.take() {
        let correlation = p.correlation();
        let r = p.wait();
        let took = sent.elapsed();
        lat.submit.push_ms(took);
        lat.observed.push(Observed {
            correlation,
            latency_ns: took.as_nanos() as u64,
            submit: true,
        });
        t.log.ops[j].1 = batch_served(r);
    }
}

/// Closed loop, one client thread with one pipelined chain per campaign:
/// a campaign's next HIT request rides the wire right behind the previous
/// worker's answer batch, and the chains are served round-robin. Runs
/// until every worker is told `Done` (the budget is spent) or, with
/// `until`, until that instant passes. `orders` is each campaign's worker
/// rotation.
pub fn closed_loop(
    pool: &Pool,
    tenants: &mut [Tenant],
    orders: Vec<Vec<WorkerId>>,
    until: Option<Instant>,
    tick: &mut dyn FnMut(),
) -> Result<Latencies, OpError> {
    let mut lat = Latencies::default();
    let mut chains = Vec::with_capacity(tenants.len());
    for (t, order) in tenants.iter_mut().zip(orders) {
        let mut chain = Chain {
            remaining: t.retired.iter().filter(|r| !**r).count(),
            order,
            next: 0,
            request: None,
            batch: None,
        };
        chain.send_request(pool, t)?;
        chains.push(chain);
    }
    while chains.iter().any(|c| c.request.is_some()) {
        for (chain, t) in chains.iter_mut().zip(tenants.iter_mut()) {
            let Some((w, i, sent, p)) = chain.request.take() else {
                continue;
            };
            tick();
            // The batch went out first on the same shard: it completes
            // first.
            take_batch(chain, t, &mut lat);
            let correlation = p.correlation();
            let r = p.wait();
            let took = sent.elapsed();
            lat.assign.push_ms(took);
            lat.observed.push(Observed {
                correlation,
                latency_ns: took.as_nanos() as u64,
                submit: false,
            });
            let r = match r {
                Ok(r) => r,
                Err(e) => {
                    t.log.ops[i].1 = Served::Failed(e.clone());
                    return Err(e);
                }
            };
            t.log.ops[i].1 = Served::Work(r.clone());
            match r {
                WorkRequest::Tasks(hit) => {
                    let answers = t.crowd.hit(w, &hit, t.tasks);
                    let j = t.log.push(Op::Submit(answers.clone()));
                    chain.batch = Some((j, Instant::now(), pool.submit(t.id, answers)?));
                }
                WorkRequest::Done | WorkRequest::Golden(_) => {
                    if !t.retired[w.0 as usize] {
                        t.retired[w.0 as usize] = true;
                        chain.remaining -= 1;
                    }
                }
            }
            if chain.remaining > 0 && until.is_none_or(|u| Instant::now() < u) {
                chain.send_request(pool, t)?;
            }
        }
    }
    for (chain, t) in chains.iter_mut().zip(tenants.iter_mut()) {
        take_batch(chain, t, &mut lat);
    }
    Ok(lat)
}

/// Seeded Fisher–Yates shuffle.
pub fn shuffle<T>(v: &mut [T], rng: &mut SmallRng) {
    for i in (1..v.len()).rev() {
        let j = rng.gen_range(0..=i);
        v.swap(i, j);
    }
}

/// One rate step of an open-loop schedule.
#[derive(Debug, Clone, Copy)]
pub struct Step {
    /// Worker arrivals (HITs) per second.
    pub hits_per_s: f64,
    pub dur: Duration,
}

/// What one step measured. Latencies run from each operation's scheduled
/// send time; `send_lag` is how late the generator actually sent.
#[derive(Debug, Clone, Default)]
pub struct StepResult {
    pub hits_per_s: f64,
    pub answers_per_hit: f64,
    pub lat: Latencies,
    pub send_lag: Samples,
    pub arrivals: usize,
    pub ops: usize,
    pub failed: usize,
    /// Operations still in flight when the step's schedule ended.
    pub backlog_end: usize,
    /// Answers acknowledged for operations scheduled in this step.
    pub answers: usize,
}

/// A campaign under open-loop load.
pub struct Tenant<'a> {
    pub id: CampaignId,
    pub crowd: &'a Crowd,
    pub tasks: &'a [Task],
    pub log: OpLog,
    /// The HIT each worker holds (answered at its next arrival).
    pub held: Vec<Option<Vec<TaskId>>>,
    /// Worker told `Done`: no further arrivals.
    pub retired: Vec<bool>,
}

enum Ticket {
    Work(Pending<WorkRequest>),
    Batch(Pending<BatchOutcome>),
}

struct InFlight {
    tenant: usize,
    op: usize,
    worker: WorkerId,
    step: usize,
    due: Instant,
    sent: Instant,
    ticket: Ticket,
}

/// Waits at most `timeout` for one in-flight operation. A completed one
/// is recorded against its step (latency from its scheduled send time);
/// one still in flight is handed back.
fn poll(
    f: InFlight,
    timeout: Duration,
    tenants: &mut [Tenant],
    steps: &mut [StepResult],
) -> Option<InFlight> {
    let InFlight {
        tenant,
        op,
        worker,
        step,
        due,
        sent,
        ticket,
    } = f;
    let waiting = |ticket| {
        Some(InFlight {
            tenant,
            op,
            worker,
            step,
            due,
            sent,
            ticket,
        })
    };
    let t = &mut tenants[tenant];
    let w = worker.0 as usize;
    let (served, submit, correlation) = match ticket {
        Ticket::Work(p) => {
            let correlation = p.correlation();
            let served = match p.wait_timeout(timeout) {
                Polled::Waiting(p) => return waiting(Ticket::Work(p)),
                Polled::Ready(Ok(WorkRequest::Tasks(hit))) => {
                    t.held[w] = Some(hit.clone());
                    Served::Work(WorkRequest::Tasks(hit))
                }
                Polled::Ready(r) => {
                    t.retired[w] = true;
                    match r {
                        Ok(other) => Served::Work(other),
                        Err(e) => Served::Failed(e),
                    }
                }
            };
            (served, false, correlation)
        }
        Ticket::Batch(p) => {
            let correlation = p.correlation();
            match p.wait_timeout(timeout) {
                Polled::Waiting(p) => return waiting(Ticket::Batch(p)),
                Polled::Ready(r) => (batch_served(r), true, correlation),
            }
        }
    };
    let now = Instant::now();
    let s = &mut steps[step];
    if submit {
        s.lat.submit.push_ms(now - due);
    } else {
        s.lat.assign.push_ms(now - due);
    }
    s.lat.observed.push(Observed {
        correlation,
        latency_ns: (now - sent).as_nanos() as u64,
        submit,
    });
    match &served {
        Served::Batch(rejected) => {
            if let Op::Submit(answers) = &t.log.ops[op].0 {
                s.answers += answers.len() - rejected.len();
            }
            if !rejected.is_empty() {
                s.failed += 1;
            }
        }
        Served::Failed(_) => s.failed += 1,
        _ => {}
    }
    t.log.ops[op].1 = served;
    None
}

/// Harvests in send order until `until`, stopping at the first operation
/// not done by then. When everything in flight is harvested early and
/// `idle` is set, sleeps out the rest (the generator waits for its next
/// scheduled send).
fn harvest(
    flight: &mut VecDeque<InFlight>,
    until: Instant,
    idle: bool,
    tenants: &mut [Tenant],
    steps: &mut [StepResult],
) {
    while let Some(f) = flight.pop_front() {
        let timeout = until.saturating_duration_since(Instant::now());
        if let Some(f) = poll(f, timeout, tenants, steps) {
            flight.push_front(f);
            return;
        }
    }
    let now = Instant::now();
    if idle && until > now {
        std::thread::sleep(until - now);
    }
}

/// Open-loop load over a set of tenants, one sending thread. Arrivals are
/// Poisson at each step's rate; each arrival is the next (tenant, worker)
/// of a seeded rotation, which submits its held HIT's answers and requests
/// the next one. `tick` runs once per arrival (the traced run drains the
/// flight recorder from it).
pub fn open_loop(
    pool: &Pool,
    tenants: &mut [Tenant],
    steps: &[Step],
    rng: &mut SmallRng,
    tick: &mut dyn FnMut(),
) -> Vec<StepResult> {
    let mut rotation: Vec<(usize, WorkerId)> = tenants
        .iter()
        .enumerate()
        .flat_map(|(i, t)| t.crowd.ids().into_iter().map(move |w| (i, w)))
        .collect();
    shuffle(&mut rotation, rng);
    let mut results: Vec<StepResult> = steps
        .iter()
        .map(|s| StepResult {
            hits_per_s: s.hits_per_s,
            ..Default::default()
        })
        .collect();
    let mut flight: VecDeque<InFlight> = VecDeque::new();
    let mut next = 0usize;
    let start = Instant::now();
    let mut offset = Duration::ZERO;
    for (si, step) in steps.iter().enumerate() {
        let step_end = offset + step.dur;
        let mut t = offset;
        loop {
            let u: f64 = rng.gen_range(0.0..1.0);
            t += Duration::from_secs_f64(-(1.0 - u).ln() / step.hits_per_s);
            if t >= step_end {
                break;
            }
            let due = start + t;
            harvest(&mut flight, due, true, tenants, &mut results);
            tick();
            // The next live worker of the rotation.
            let mut pick = None;
            for _ in 0..rotation.len() {
                let (ti, w) = rotation[next % rotation.len()];
                next += 1;
                if !tenants[ti].retired[w.0 as usize] {
                    pick = Some((ti, w));
                    break;
                }
            }
            let Some((ti, w)) = pick else { break };
            // A worker whose previous HIT is still in flight is waited
            // for: the generator falls behind and the lag shows.
            while tenants[ti].held[w.0 as usize].is_none()
                && flight.iter().any(|f| f.tenant == ti && f.worker == w)
            {
                let f = flight.pop_front().expect("in-flight list is non-empty");
                if let Some(f) = poll(f, Duration::from_secs(30), tenants, &mut results) {
                    flight.push_front(f);
                    break;
                }
            }
            let sent = Instant::now();
            let r = &mut results[si];
            r.arrivals += 1;
            r.send_lag.push_ms(sent.saturating_duration_since(due));
            if let Some(hit) = tenants[ti].held[w.0 as usize].take() {
                let tn = &mut tenants[ti];
                let answers = tn.crowd.hit(w, &hit, tn.tasks);
                let op = tn.log.push(Op::Submit(answers.clone()));
                r.ops += 1;
                match pool.submit(tn.id, answers) {
                    Ok(p) => flight.push_back(InFlight {
                        tenant: ti,
                        op,
                        worker: w,
                        step: si,
                        due,
                        sent,
                        ticket: Ticket::Batch(p),
                    }),
                    Err(e) => {
                        tn.log.ops[op].1 = Served::Failed(e);
                        r.failed += 1;
                    }
                }
            }
            let tn = &mut tenants[ti];
            let op = tn.log.push(Op::Request(w));
            r.ops += 1;
            match pool.request(tn.id, w) {
                Ok(p) => flight.push_back(InFlight {
                    tenant: ti,
                    op,
                    worker: w,
                    step: si,
                    due,
                    sent,
                    ticket: Ticket::Work(p),
                }),
                Err(e) => {
                    tn.log.ops[op].1 = Served::Failed(e);
                    tn.retired[w.0 as usize] = true;
                    r.failed += 1;
                }
            }
        }
        offset = step_end;
        let end = start + offset;
        harvest(&mut flight, end, true, tenants, &mut results);
        results[si].backlog_end = flight.iter().filter(|f| f.step == si).count();
    }
    let deadline = Instant::now() + Duration::from_secs(60);
    harvest(&mut flight, deadline, false, tenants, &mut results);
    for f in flight {
        results[f.step].failed += 1;
    }
    for r in &mut results {
        r.answers_per_hit = r.answers as f64 / r.lat.submit.len().max(1) as f64;
    }
    results
}
