//! The `whatif` workload: a warm `WhatIfService` (default GigE config, a
//! fixed seeded background) driven closed-loop by two clients through
//! `ServeHandle`.
//!
//! Client 0 interleaves clock advances with its queries and, after each
//! advance, admits exactly as many transfers as just completed, so the
//! in-flight population — and with it the cost of a query — stays
//! constant however long the run lasts. Client 1 only queries. Every
//! `ServeHandle` call blocks its caller, so two clients (the core count
//! of the reference box) keep at most two queries outstanding; the
//! service coalesces what sits in its queue into one executor batch.
//!
//! Throughput is answered queries per second; latency is one query's
//! round trip through the handle.

use crate::inputs::whatif::{self as gen, BACKGROUND, WARM_CLOCK};
use crate::trace::{self, secs, summarize, Summary, Tracer, Window};
use crate::{EndToEnd, Report};
use netbw::fluid::TransferKey;
use netbw::graph::Communication;
use netbw::prelude::{ServeConfig, WhatIfQuery, WhatIfService};
use netbw::serve::{ServeError, ServeHandle, WhatIfAnswer};
use std::time::{Duration, Instant};

const CLIENTS: u64 = 2;
/// Client 0 advances the clock before every this many of its queries.
const ADVANCE_EVERY: u64 = 4;
/// Simulated seconds per clock advance.
const ADVANCE_STEP: f64 = 0.002;
/// Churn steps taken while warming the service. Starting from the
/// background's ramp-up, query cost climbs for a few simulated seconds
/// before it levels off; the loop starts after that.
const PRIME_STEPS: usize = 1_500;
/// Closed loops per untraced run, each on freshly warmed services, so the
/// set-ups are spread over the run instead of bunched at its start.
const SEGMENTS: u32 = 4;
/// Warm services built for `setup_s` before each loop.
const SETUPS: usize = 2;
/// Length of a measurement window (seconds); see [`trace::whole_run`].
const WINDOW: f64 = 0.5;
/// Queries re-answered through the rebuild path after each loop (the
/// rebuild replays the whole admission log, so a few per loop suffice).
const REBUILD_SAMPLE: u64 = 2;
/// Last-decile median query latency may exceed the first decile's by
/// at most this factor before the run counts as drifting.
const DRIFT_LIMIT: f64 = 2.0;

/// The churn state client 0 carries: the service clock and every
/// transfer admitted so far, indexed by key (the service numbers
/// admissions 0, 1, ...).
#[derive(Clone)]
struct Churn {
    clock: f64,
    admitted: Vec<Communication>,
}

impl Churn {
    /// The replacement for the completed transfer `key`: the same
    /// transfer again, so the population keeps its composition.
    fn replacement(&self, key: TransferKey) -> Option<Communication> {
        self.admitted.get(key as usize).copied()
    }

    /// Records the admission of `comm` under `key`; false if the service
    /// numbered it out of sequence.
    fn admitted(&mut self, comm: Communication, key: Result<TransferKey, ServeError>) -> bool {
        let in_sequence = key == Ok(self.admitted.len() as TransferKey);
        if in_sequence {
            self.admitted.push(comm);
        }
        in_sequence
    }
}

/// A service with the background admitted, the clock advanced into the
/// thick of it and [`PRIME_STEPS`] churn steps taken (so the engine's
/// state has settled into the steady state the loop keeps it in), the
/// first snapshot built and the `Tref` memo hot.
fn warm_service(seed: u64) -> (WhatIfService, Churn) {
    let service = WhatIfService::new(ServeConfig::default());
    let mut churn = Churn {
        clock: WARM_CLOCK,
        admitted: Vec::new(),
    };
    for i in 0..BACKGROUND {
        let (comm, start) = gen::background(seed, i);
        assert!(
            churn.admitted(comm, service.admit(comm, start)),
            "background admission"
        );
    }
    service
        .advance_to(WARM_CLOCK)
        .expect("advance into the load");
    for _ in 0..PRIME_STEPS {
        churn.clock += ADVANCE_STEP;
        for done in service.advance_to(churn.clock).expect("priming advance") {
            let comm = churn.replacement(done.key).expect("known key");
            assert!(
                churn.admitted(comm, service.admit(comm, churn.clock)),
                "priming admission"
            );
        }
    }
    let warm: Vec<WhatIfQuery> = gen::QUERY_SIZES
        .iter()
        .map(|&size| WhatIfQuery::flow(Communication::new(0u32, gen::SENDERS as u32, size), 0.0))
        .collect();
    for answer in service.what_if_batch(&warm) {
        answer.expect("warm-up query");
    }
    (service, churn)
}

/// One operation client 0 issued, for the unspawned twin to replay.
#[derive(Clone, Copy)]
enum Op {
    Advance(f64),
    Admit(Communication, f64),
}

/// What one closed-loop client saw.
#[derive(Default)]
struct ClientLog {
    /// (issue time since loop start, round trip) per query, in order.
    queries: Vec<(f64, f64)>,
    /// Client 0's advances and admissions, in order.
    ops: Vec<Op>,
    attempted: u64,
    failed: u64,
    tracer: Option<Tracer>,
}

fn answer_ok(answer: &Result<WhatIfAnswer, ServeError>) -> bool {
    answer.as_ref().is_ok_and(|a| {
        !a.flows.is_empty()
            && a.flows
                .iter()
                .all(|f| f.slowdown.is_finite() && f.slowdown > 0.0)
    })
}

fn client(
    handle: &ServeHandle,
    seed: u64,
    c: u64,
    mut churn: Churn,
    origin: Instant,
    budget: Duration,
    tracer: Option<Tracer>,
) -> ClientLog {
    let mut log = ClientLog {
        tracer,
        ..ClientLog::default()
    };
    let mut i = 0u64;
    while origin.elapsed() < budget {
        if c == 0 && i.is_multiple_of(ADVANCE_EVERY) {
            churn.clock += ADVANCE_STEP;
            let clock = churn.clock;
            let done = match log.tracer.as_mut() {
                Some(t) => t.span("serve.handle.advance_to", || handle.advance_to(clock)),
                None => handle.advance_to(clock),
            };
            log.ops.push(Op::Advance(clock));
            log.attempted += 1;
            log.failed += u64::from(done.is_err());
            for done in done.unwrap_or_default() {
                let Some(comm) = churn.replacement(done.key) else {
                    log.failed += 1;
                    continue;
                };
                let key = match log.tracer.as_mut() {
                    Some(t) => t.span("serve.handle.admit", || handle.admit(comm, clock)),
                    None => handle.admit(comm, clock),
                };
                log.ops.push(Op::Admit(comm, clock));
                log.attempted += 1;
                log.failed += u64::from(!churn.admitted(comm, key));
            }
        }
        let query = gen::query(seed, c, i);
        let issued = origin.elapsed();
        let t0 = Instant::now();
        let answer = handle.what_if(query);
        let end = Instant::now();
        if let Some(t) = log.tracer.as_mut() {
            t.record("serve.handle.what_if", (c << 31 | i) as u32, t0, end);
        }
        log.queries.push((secs(issued), secs(end - t0)));
        log.attempted += 1;
        log.failed += u64::from(!answer_ok(&answer));
        i += 1;
    }
    log
}

/// What one run of the closed loop produced.
struct Loop {
    service: WhatIfService,
    /// When the clients started; the clients' tracers count from here.
    origin: Instant,
    setups: Vec<f64>,
    in_flight_start: usize,
    elapsed: f64,
    logs: Vec<ClientLog>,
}

impl Loop {
    fn latencies(&self) -> Vec<f64> {
        self.logs
            .iter()
            .flat_map(|l| l.queries.iter().map(|q| q.1))
            .collect()
    }

    /// The loop cut into [`WINDOW`]-long windows by answer time: the
    /// queries answered in each, and their round trips.
    fn windows(&self) -> Vec<Window> {
        let mut windows = vec![Window::default(); (self.elapsed / WINDOW) as usize];
        for &(issued, latency) in self.logs.iter().flat_map(|l| &l.queries) {
            if let Some(w) = windows.get_mut(((issued + latency) / WINDOW) as usize) {
                w.ops.push(latency);
            }
        }
        for w in &mut windows {
            w.work = w.ops.len() as f64;
            w.secs = WINDOW;
        }
        windows
    }
}

/// Times [`SETUPS`] warm services into `setups`, returning the last.
fn set_up(seed: u64, setups: &mut Vec<f64>) -> (WhatIfService, Churn) {
    let mut service = None;
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        let s = warm_service(seed);
        setups.push(secs(t0.elapsed()));
        service = Some(s);
    }
    service.expect("at least one set-up")
}

fn closed_loop(seed: u64, budget: Duration, traced: bool) -> Loop {
    let mut setups = Vec::with_capacity(SETUPS);
    let (service, churn) = set_up(seed, &mut setups);
    let in_flight_start = service.in_flight();
    let (handle, thread) = service.spawn();
    let origin = Instant::now();
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let handle = handle.clone();
                let tracer = traced.then(|| Tracer::with_origin(true, origin));
                let churn = churn.clone();
                scope.spawn(move || client(&handle, seed, c, churn, origin, budget, tracer))
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("client thread"))
            .collect()
    });
    let elapsed = secs(origin.elapsed());
    handle.shutdown();
    let service = thread.join().expect("service thread");
    Loop {
        service,
        origin,
        setups,
        in_flight_start,
        elapsed,
        logs,
    }
}

fn bits(answer: &WhatIfAnswer) -> Vec<u64> {
    let mut out = vec![answer.makespan.to_bits()];
    for f in &answer.flows {
        out.extend([f.completion, f.elapsed, f.tref, f.slowdown].map(f64::to_bits));
    }
    out
}

/// Checks everything the loop left behind: the population did not drift,
/// the latency did not drift, and a sample of queries answered by the
/// fork path equals the rebuild-and-replay path bitwise.
fn check(seed: u64, l: &Loop, report: &mut Report) -> (usize, Summary, Summary) {
    for log in &l.logs {
        report.attempted += log.attempted;
        report.failed += log.failed;
    }
    let in_flight_end = l.service.in_flight();
    if in_flight_end != l.in_flight_start {
        report.problem(format!(
            "in-flight population drifted from {} to {in_flight_end}",
            l.in_flight_start
        ));
    }
    let mut by_issue: Vec<(f64, f64)> = l.logs.iter().flat_map(|g| g.queries.clone()).collect();
    by_issue.sort_by(|a, b| a.0.total_cmp(&b.0));
    let decile = (by_issue.len() / 10).max(1);
    let lat = |qs: &[(f64, f64)]| summarize(&qs.iter().map(|q| q.1).collect::<Vec<_>>());
    let first = lat(&by_issue[..decile.min(by_issue.len())]);
    let last = lat(&by_issue[by_issue.len().saturating_sub(decile)..]);
    if last.p50 > first.p50 * DRIFT_LIMIT {
        report.problem(format!(
            "query latency drifted: last-decile p50 {:.4} ms vs first-decile {:.4} ms",
            last.p50 * 1e3,
            first.p50 * 1e3
        ));
    }
    let sample: Vec<WhatIfQuery> = (0..REBUILD_SAMPLE)
        .map(|i| gen::query(seed, i % CLIENTS, 1_000_000 + i))
        .collect();
    let forked = l.service.what_if_batch(&sample);
    let rebuilt = l.service.what_if_batch_via_rebuild(&sample);
    for (f, r) in forked.iter().zip(&rebuilt) {
        let same = match (f, r) {
            (Ok(f), Ok(r)) => bits(f) == bits(r),
            _ => false,
        };
        report.op(same && answer_ok(f));
    }
    if report.failed > 0 {
        report.problem(format!(
            "{} of {} operations failed",
            report.failed, report.attempted
        ));
    }
    (in_flight_end, first, last)
}

pub fn run(seed: u64, budget: Duration, trace: bool) -> Report {
    let mut report = Report::default();
    let (mut setups, mut windows) = (Vec::new(), Vec::new());
    for _ in 0..SEGMENTS {
        let l = closed_loop(seed, budget / SEGMENTS, false);
        let (in_flight_end, first, last) = check(seed, &l, &mut report);
        eprintln!(
            "perfbench: in flight {} -> {in_flight_end} | query p50 first decile {:.4} ms, last {:.4} ms | {}",
            l.in_flight_start,
            first.p50 * 1e3,
            last.p50 * 1e3,
            l.service.stats()
        );
        setups.extend(&l.setups);
        windows.extend(l.windows());
    }
    let (throughput_per_s, latency) = trace::whole_run(&windows);
    report.e2e = EndToEnd {
        setup_s: trace::median(&setups),
        throughput_per_s,
        latency,
    };
    if !trace {
        return report;
    }

    let traced = closed_loop(seed, budget, true);
    let (in_flight_end, first, last) = check(seed, &traced, &mut report);
    let mut tracer = Tracer::with_origin(true, traced.origin);
    for t in traced.logs.iter().filter_map(|log| log.tracer.as_ref()) {
        tracer.absorb(t);
    }
    let l = &mut report.layers;
    let stats = traced.service.stats();
    let batches = stats.snapshot_builds + stats.snapshot_batch_reuses;
    l.set("serve.snapshot_builds", stats.snapshot_builds as f64);
    l.set(
        "serve.per_query_reuse",
        stats.per_query_snapshot_reuse_rate(),
    );
    l.set("serve.rebases", stats.rebases as f64);
    l.set("serve.rebase_fallbacks", stats.rebase_fallbacks as f64);
    l.set("serve.fork_reuses", stats.fork_reuses as f64);
    l.set(
        "serve.batch_size_mean",
        stats.queries as f64 / batches.max(1) as f64,
    );
    l.set("serve.in_flight_start", traced.in_flight_start as f64);
    l.set("serve.in_flight_end", in_flight_end as f64);
    l.set("serve.query.ms_p50_first_decile", first.p50 * 1e3);
    l.set("serve.query.ms_p50_last_decile", last.p50 * 1e3);
    l.set("eval.tref.hit_rate", stats.sweep.tref_hit_rate());
    l.set("eval.steals", stats.sweep.steals as f64);
    l.set(
        "eval.worker_imbalance",
        crate::validate::imbalance(&stats.sweep.per_worker_items),
    );
    l.set_overhead(
        report.e2e.throughput_per_s,
        trace::whole_run(&traced.windows()).0,
    );

    let round_trip = summarize(&traced.latencies());
    let twin = replay_on_twin(seed, &traced.logs, &mut tracer);
    let l = &mut report.layers;
    l.set_summary(
        "serve.what_if_batch.ms_p50",
        "serve.what_if_batch.ms_p99",
        &twin.batch,
        1e3,
    );
    l.set("serve.admit.us_p50", twin.admit.p50 * 1e6);
    l.set("serve.advance_to.us_p50", twin.advance.p50 * 1e6);
    l.set(
        "serve.queue_wait.ms_p50",
        ((round_trip.p50 - twin.batch.p50) * 1e3).max(0.0),
    );
    l.set("eval.sweep.dispatch_us_p50", sweep_dispatch_probe() * 1e6);
    l.set(
        "eval.executor.map_us_p50",
        crate::fluid::executor_map_probe() * 1e6,
    );
    l.set_spans(&tracer);
    let path = std::path::Path::new("perfbench/out/whatif.spans.csv");
    if let Err(err) = tracer.write_csv(path) {
        report.problem(format!("writing {}: {err}", path.display()));
    }
    report
}

/// Direct service times of the traced request stream, replayed on an
/// unspawned twin of the service.
struct Twin {
    batch: Summary,
    admit: Summary,
    advance: Summary,
}

/// Replays client 0's advances and admissions in order on a freshly
/// warmed, unspawned service, answering the clients' queries between
/// them one per batch (the served stream coalesces little: its mean batch
/// is ~1.15 queries). The authoritative engine is deterministic and
/// queries never touch it, so the twin walks through the same states.
fn replay_on_twin(seed: u64, logs: &[ClientLog], tracer: &mut Tracer) -> Twin {
    let (twin, _) = warm_service(seed);
    let (mut batch, mut admit, mut advance) = (Vec::new(), Vec::new(), Vec::new());
    let mut ops = logs[0].ops.iter().peekable();
    let root = tracer.open("bench.twin", 0);
    for i in 0..logs[0].queries.len() as u64 {
        if i.is_multiple_of(ADVANCE_EVERY) {
            if let Some(Op::Advance(t)) = ops.next() {
                let t0 = Instant::now();
                tracer.span("serve.advance_to", || {
                    twin.advance_to(*t).expect("twin advance")
                });
                advance.push(secs(t0.elapsed()));
            }
            while let Some(&&Op::Admit(comm, t)) = ops.peek() {
                let t0 = Instant::now();
                tracer.span("serve.admit", || {
                    twin.admit(comm, t).expect("twin admission")
                });
                admit.push(secs(t0.elapsed()));
                ops.next();
            }
        }
        for c in (0..CLIENTS).filter(|&c| i < logs[c as usize].queries.len() as u64) {
            let query = [gen::query(seed, c, i)];
            let t0 = Instant::now();
            tracer.span("serve.what_if_batch", || twin.what_if_batch(&query));
            batch.push(secs(t0.elapsed()));
        }
    }
    tracer.close(root);
    Twin {
        batch: summarize(&batch),
        admit: summarize(&admit),
        advance: summarize(&advance),
    }
}

/// Median seconds of a trivial two-item `EvalSession::sweep`: what every
/// what-if batch pays to reach its workers.
pub fn sweep_dispatch_probe() -> f64 {
    let session = netbw::prelude::EvalSession::new();
    let items = [0u64, 1];
    let times: Vec<f64> = (0..200)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(session.sweep(&items, |_, &x| x + 1));
            secs(t0.elapsed())
        })
        .collect();
    trace::median(&times)
}
