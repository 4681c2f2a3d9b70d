//! The `refine` workload: bridge-wave churn fed online to the sharded
//! `FluidNetwork` on the sweep executor and drained to completion. The
//! partition merges and splits every wave, loading the component tracker,
//! shard split/merge and settle dispatch.
//!
//! Throughput is completions per second of drain time; latency is the
//! engine time one event costs (its `advance_to`, plus the settles of
//! arrivals fed since the previous event).

use crate::inputs::Schedule;
use crate::trace::{self, secs, summarize, Tracer, Window};
use crate::{EndToEnd, Report};
use netbw::eval::SweepExecutor;
use netbw::graph::Communication;
use netbw::prelude::{FluidNetwork, GigabitEthernetModel, NetworkParams, PenaltyModel};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// `netbw_bench::churn_stagger` for GigE.
const STAGGER: f64 = 25.0;
const REFINE_COMPS: usize = 256;
const REFINE_FLOWS_PER_COMP: usize = 16;
const REFINE_WAVES: usize = 16;
/// `refine` set-up ends when the clock reaches the second wave: the first
/// wave is cold (every shard builds its model scratch), so the drain is
/// measured from the second wave on.
const REFINE_WARM_UNTIL: f64 = STAGGER * REFINE_FLOWS_PER_COMP as f64;
/// Set-ups timed per drain: the drain's own plus this many more, so
/// `setup_s` is a median over set-ups spread across the run.
const EXTRA_SETUPS: usize = 2;
/// Every this many events the traced pass snapshots the live
/// population, to time the penalty model on it afterwards.
const PROBE_EVERY: usize = 2_000;

pub fn refine(seed: u64, budget: Duration, trace: bool) -> Report {
    let transfers = netbw_bench::bridge_wave_churn(
        REFINE_COMPS,
        REFINE_FLOWS_PER_COMP,
        REFINE_WAVES,
        STAGGER,
        seed,
    );
    let mut report = Report::default();
    let mut check = Completions::new(transfers.len());
    let untraced = pass(
        &transfers,
        budget,
        &mut Tracer::new(false),
        &mut check,
        &mut report,
    );
    eprintln!(
        "perfbench: set-ups {:?} s | completions/s per drain {:?}",
        untraced.setups, untraced.drains
    );
    let (throughput_per_s, latency) = trace::whole_run(&untraced.windows);
    report.e2e = EndToEnd {
        setup_s: trace::median(&untraced.setups),
        throughput_per_s,
        latency,
    };
    if trace {
        // One drain, traced every other window, is enough for the layer
        // breakdown and keeps the span buffer bounded.
        let mut tracer = Tracer::new(true);
        let traced = pass(
            &transfers,
            Duration::ZERO,
            &mut tracer,
            &mut check,
            &mut report,
        );
        layers(&mut report, &mut tracer, &traced);
        report.layers.set_overhead(
            trace::whole_run(&traced.windows).0,
            trace::whole_run(&traced.traced_windows).0,
        );
        let path = std::path::Path::new("perfbench/out/refine.spans.csv");
        if let Err(err) = tracer.write_csv(path) {
            report.problem(format!("writing {}: {err}", path.display()));
        }
    }
    report
}

/// The engine under test: the default GigE engine with sharded settle
/// barriers dispatched on a `nproc`-worker sweep executor.
fn build() -> Net {
    FluidNetwork::new(GigabitEthernetModel::default(), NetworkParams::unit())
        .with_sharded_dispatch(Arc::new(SweepExecutor::new(0)))
}

type Net = FluidNetwork<GigabitEthernetModel>;

/// What one pass over the schedule measured.
#[derive(Default)]
struct Pass {
    setups: Vec<f64>,
    /// Completions per second of each drain.
    drains: Vec<f64>,
    /// Every wave of the drains (one merge/split cycle each), with the
    /// engine time of each event in it.
    windows: Vec<Window>,
    /// The windows run with tracing on, when [`Pass::alternate`] is set.
    traced_windows: Vec<Window>,
    /// Switch tracing on and off window by window, so traced and untraced
    /// windows run side by side and their rates give the tracing overhead.
    alternate: bool,
    /// The span around the current traced window.
    window_span: Option<u32>,
    /// The window being filled (while a drain is measured).
    open: Option<Open>,
    /// Live populations snapshotted for the model probe.
    populations: Vec<Vec<Communication>>,
    live_max: usize,
    cache: netbw::fluid::CacheStats,
    timeline: netbw::fluid::TimelineStats,
    shards: netbw::fluid::ShardStats,
}

fn layers(report: &mut Report, tracer: &mut Tracer, p: &Pass) {
    let l = &mut report.layers;
    let adv = summarize(&tracer.durations("fluid.advance_to"));
    l.set("fluid.advance_to.count", adv.n as f64);
    l.set("fluid.advance_to.busy_s", adv.sum);
    l.set_summary(
        "fluid.advance_to.us_p50",
        "fluid.advance_to.us_p99",
        &adv,
        1e6,
    );
    l.set("fluid.advance_to.us_max", adv.max * 1e6);
    let next = summarize(&tracer.durations("fluid.next_event_time"));
    l.set("fluid.next_event_time.us_p50", next.p50 * 1e6);
    let add = summarize(&tracer.durations("fluid.add"));
    l.set("fluid.add.us_p50", add.p50 * 1e6);
    l.set("fluid.timeline.heap_pushes", p.timeline.heap_pushes as f64);
    l.set("fluid.timeline.lazy_pops", p.timeline.lazy_pops as f64);
    l.set("fluid.timeline.rescans", p.timeline.rescans as f64);
    l.set("fluid.cache.model_queries", p.cache.model_queries as f64);
    l.set(
        "fluid.cache.patch_share",
        p.cache.patched_queries as f64 / p.cache.model_queries.max(1) as f64,
    );
    l.set(
        "fluid.cache.scratch_rebuilds",
        p.cache.scratch_rebuilds as f64,
    );
    l.set(
        "fluid.cache.budget_fallbacks",
        p.cache.budget_fallbacks as f64,
    );
    l.set("fluid.shard.splits", p.shards.splits as f64);
    l.set("fluid.shard.merges", p.shards.merges as f64);
    l.set("fluid.shard.drains", p.shards.drains as f64);
    l.set("fluid.shard.live_max", p.live_max as f64);
    l.set(
        "fluid.shard.budget_collapses",
        p.shards.budget_collapses as f64,
    );

    // Probes timed after the drain: the model on the live populations the
    // drain passed through, and the executor the settle barriers dispatch
    // on.
    let model = GigabitEthernetModel::default();
    for pop in &p.populations {
        tracer.span("core.gige.penalties", || {
            std::hint::black_box(model.penalties(std::hint::black_box(pop)))
        });
    }
    let penalties = summarize(&tracer.durations("core.gige.penalties"));
    l.set("core.gige.penalties.us_p50", penalties.p50 * 1e6);
    l.set_spans(tracer);
    l.set("eval.executor.map_us_p50", executor_map_probe() * 1e6);
}

/// Median seconds of a trivial two-item `SweepExecutor::map`: the
/// dispatch cost a settle barrier pays before any shard work.
pub fn executor_map_probe() -> f64 {
    let exec = SweepExecutor::new(0);
    let items = [0u64, 1];
    let times: Vec<f64> = (0..200)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(exec.map(&items, |&x| x + 1));
            secs(t0.elapsed())
        })
        .collect();
    trace::median(&times)
}

/// Drains the schedule through fresh engines until `budget` is spent
/// (at least once), checking every drain's completions.
fn pass(
    transfers: &Schedule,
    budget: Duration,
    tracer: &mut Tracer,
    check: &mut Completions,
    report: &mut Report,
) -> Pass {
    let mut p = Pass {
        alternate: tracer.enabled(),
        ..Pass::default()
    };
    let started = Instant::now();
    while p.drains.is_empty() || started.elapsed() < budget {
        if !tracer.enabled() {
            for _ in 0..EXTRA_SETUPS {
                check.start();
                drop(set_up(transfers, tracer, check, &mut p));
            }
        }
        check.start();
        let mut walk = set_up(transfers, tracer, check, &mut p);
        let warm_completions = check.count;
        let t0 = Instant::now();
        if p.alternate {
            p.window_span = Some(tracer.open("bench.window", 0));
        }
        p.open = Some(Open {
            start: t0,
            completions: 0,
            ops: Vec::new(),
            wave_end: REFINE_WARM_UNTIL * 2.0,
        });
        walk.run_until(f64::INFINITY, tracer, check, &mut p);
        p.open = None;
        match p.window_span.take() {
            Some(span) => tracer.close(span),
            None => tracer.set_enabled(p.alternate),
        }
        let elapsed = secs(t0.elapsed());
        p.drains
            .push((check.count - warm_completions) as f64 / elapsed);
        check.finish(report);
        p.cache = walk.net.cache_stats();
        p.timeline = walk.net.timeline_stats();
        p.shards = walk.net.shard_stats();
    }
    p
}

/// Builds an engine and runs the cold first wave through it. Records the
/// time taken.
fn set_up<'a>(
    transfers: &'a Schedule,
    tracer: &mut Tracer,
    check: &mut Completions,
    p: &mut Pass,
) -> Walk<'a> {
    let setup = tracer.open("bench.setup", 0);
    let t0 = Instant::now();
    let mut walk = Walk {
        net: build(),
        transfers,
        next: 0,
        low: 0,
    };
    walk.run_until(REFINE_WARM_UNTIL, tracer, check, p);
    p.setups.push(secs(t0.elapsed()));
    tracer.close(setup);
    walk
}

/// A measurement window being filled.
struct Open {
    start: Instant,
    completions: usize,
    /// Engine time of each event so far.
    ops: Vec<f64>,
    /// The clock at which the current wave ends.
    wave_end: f64,
}

/// One engine working through a schedule.
struct Walk<'a> {
    net: Net,
    transfers: &'a Schedule,
    /// The next transfer to add.
    next: usize,
    /// Every transfer before `low` has completed (probe window).
    low: usize,
}

impl Walk<'_> {
    /// Feeds arrivals and advances to events, in time order, until the
    /// next one falls at or after `until` or nothing is left. Records in
    /// the open window the engine time of each event: the `advance_to`
    /// plus every call since the previous event (the settles of the
    /// arrivals added in between happen in those calls).
    fn run_until(
        &mut self,
        until: f64,
        tracer: &mut Tracer,
        check: &mut Completions,
        p: &mut Pass,
    ) {
        let net = &mut self.net;
        let mut since_event = 0.0;
        let mut events = 0usize;
        loop {
            let t0 = Instant::now();
            let event = tracer.span("fluid.next_event_time", || net.next_event_time());
            let arrival = self.transfers.get(self.next).map(|t| t.2);
            match event {
                Some(te) if arrival.is_none_or(|ta| te <= ta) => {
                    if te >= until {
                        return;
                    }
                    let done = tracer.span("fluid.advance_to", || net.advance_to(te));
                    let op = since_event + secs(t0.elapsed());
                    since_event = 0.0;
                    events += 1;
                    for c in &done {
                        check.complete(c.key, c.completion);
                    }
                    if let Some(open) = p.open.as_mut() {
                        open.ops.push(op);
                        open.completions += done.len();
                        if te >= open.wave_end {
                            while te >= open.wave_end {
                                open.wave_end += REFINE_WARM_UNTIL;
                            }
                            let window = Window {
                                work: open.completions as f64,
                                secs: secs(open.start.elapsed()),
                                ops: std::mem::take(&mut open.ops),
                            };
                            if tracer.enabled() {
                                p.traced_windows.push(window);
                            } else {
                                p.windows.push(window);
                            }
                            if p.alternate {
                                match p.window_span.take() {
                                    Some(span) => {
                                        tracer.close(span);
                                        tracer.set_enabled(false);
                                    }
                                    None => {
                                        tracer.set_enabled(true);
                                        p.window_span = Some(tracer.open("bench.window", 0));
                                    }
                                }
                            }
                            open.start = Instant::now();
                            open.completions = 0;
                        }
                    }
                }
                _ => {
                    let Some(ta) = arrival else { return };
                    if ta >= until {
                        return;
                    }
                    let (key, comm, start) = self.transfers[self.next];
                    tracer.span("fluid.add", || net.add(key, comm, start));
                    since_event += secs(t0.elapsed());
                    self.next += 1;
                    continue;
                }
            }
            if tracer.enabled() {
                p.live_max = p.live_max.max(net.shard_count());
                if events.is_multiple_of(PROBE_EVERY) {
                    let now = net.time();
                    while self.low < self.transfers.len() && check.done(self.transfers[self.low].0)
                    {
                        self.low += 1;
                    }
                    let live: Vec<Communication> = self.transfers[self.low..]
                        .iter()
                        .take_while(|t| t.2 <= now)
                        .filter(|t| !check.done(t.0))
                        .map(|t| t.1)
                        .collect();
                    if !live.is_empty() {
                        p.populations.push(live);
                    }
                }
            }
        }
    }
}

/// Per-drain completion check: every key completes exactly once, and the
/// digest of (key, completion-time bits) in completion order is the same
/// on every drain of the run.
struct Completions {
    seen: Vec<bool>,
    count: usize,
    duplicates: usize,
    digest: u64,
    first_digest: Option<u64>,
}

impl Completions {
    fn new(n: usize) -> Self {
        Completions {
            seen: vec![false; n],
            count: 0,
            duplicates: 0,
            digest: 0,
            first_digest: None,
        }
    }

    fn start(&mut self) {
        self.seen.fill(false);
        self.count = 0;
        self.duplicates = 0;
        self.digest = 0xcbf2_9ce4_8422_2325;
    }

    fn done(&self, key: u64) -> bool {
        self.seen[key as usize]
    }

    fn complete(&mut self, key: u64, completion: f64) {
        match self.seen.get_mut(key as usize) {
            Some(seen) if !*seen => {
                *seen = true;
                self.count += 1;
            }
            _ => self.duplicates += 1,
        }
        for word in [key, completion.to_bits()] {
            for byte in word.to_le_bytes() {
                self.digest = (self.digest ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }

    fn finish(&mut self, report: &mut Report) {
        let n = self.seen.len();
        let missing = n - self.count;
        let wrong = (missing + self.duplicates).min(n);
        report.attempted += n as u64;
        report.failed += wrong as u64;
        if wrong > 0 {
            report.problem(format!(
                "{missing} of {n} transfers never completed, {} completed twice",
                self.duplicates
            ));
        }
        match self.first_digest {
            None => self.first_digest = Some(self.digest),
            Some(d) if d != self.digest => report.problem(format!(
                "completion digest {:016x} differs from the first drain's {d:016x}",
                self.digest
            )),
            Some(_) => {}
        }
        eprintln!("perfbench: drain digest {:016x}", self.digest);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_drains_complete_every_key_once_with_a_stable_digest() {
        let transfers = netbw_bench::bridge_wave_churn(4, 16, 3, STAGGER, 5);
        let mut report = Report::default();
        let mut check = Completions::new(transfers.len());
        let mut tracer = Tracer::new(true);
        let p = pass(
            &transfers,
            Duration::ZERO,
            &mut tracer,
            &mut check,
            &mut report,
        );
        assert_eq!(p.drains.len(), 1);
        pass(
            &transfers,
            Duration::ZERO,
            &mut Tracer::new(false),
            &mut check,
            &mut report,
        );
        assert!(report.problems.is_empty(), "{:?}", report.problems);
        assert_eq!(report.attempted, 2 * transfers.len() as u64);
        assert_eq!(report.failed, 0);
        // only the adds of traced windows are recorded
        let adds = tracer.durations("fluid.add").len();
        assert!(adds > 0 && adds < transfers.len());
    }

    #[test]
    fn a_lost_completion_is_reported() {
        let mut report = Report::default();
        let mut check = Completions::new(3);
        check.start();
        check.complete(0, 1.0);
        check.complete(0, 1.0);
        check.complete(2, 2.0);
        check.finish(&mut report);
        assert_eq!((report.attempted, report.failed), (3, 2));
        assert_eq!(report.problems.len(), 1);
    }
}
