//! The `validate` workload: the paper's validation battery through one
//! `EvalSession` — the paper and random scheme batteries compared on the
//! GigE, Myrinet and InfiniBand fabric/model pairs, then the Fig. 8/9 HPL
//! replays (three placement policies on GigE and Myrinet) on the same
//! session's executor.
//!
//! Throughput is scheme comparisons per second of battery time; latency
//! is one sweep of HPL replays (the six `SweepWorker::compare_hpl` calls
//! of Figs. 8/9), the request a user of the trace simulator waits on.
//! Every sample holds the same six replays, so the median does not jump
//! between replays of different lengths. A pass runs the battery once and
//! then [`SWEEPS_PER_PASS`] sweeps.

use crate::inputs::validate as gen;
use crate::trace::{self, secs, summarize, Tracer, Window};
use crate::{EndToEnd, Report};
use netbw::eval::{HplComparison, SchemeComparison};
use netbw::fluid::NetworkParams;
use netbw::prelude::{
    ClusterSpec, EvalSession, FabricConfig, FluidNetwork, FluidSolver, GigabitEthernetModel,
    HplConfig, MyrinetModel, PacketFabric, PacketNetwork, PenaltyModel, Placement, PlacementPolicy,
    Simulator,
};
use std::time::{Duration, Instant};

/// Every this many battery schemes, one is re-checked on the per-call path.
const CHECK_EVERY: usize = 10;
/// Battery passes per measurement window (~0.2 s); see [`trace::whole_run`].
const PASSES_PER_WINDOW: usize = 2;
/// HPL sweeps per battery pass: enough latency samples (about 2800 in a
/// 30 s run) for the tail to be a p99 with room to spare.
const SWEEPS_PER_PASS: usize = 8;
/// Cluster the HPL trace runs on: 8 dual-core nodes, as in Figs. 8/9.
const HPL_NODES: usize = 8;

/// One HPL replay: a placement policy on a fabric with its model.
struct HplJob<'m> {
    policy: PlacementPolicy,
    fabric: FabricConfig,
    model: &'m dyn PenaltyModel,
}

/// What one pass over the battery produced.
struct Pass {
    schemes: Vec<Vec<SchemeComparison>>,
    hpl: Vec<HplComparison>,
}

fn scheme_bits(c: &SchemeComparison) -> Vec<u64> {
    c.measured
        .iter()
        .chain(&c.predicted)
        .chain(&c.erel)
        .chain([&c.eabs])
        .map(|x| x.to_bits())
        .collect()
}

fn hpl_bits(c: &HplComparison) -> Vec<u64> {
    c.sm.iter()
        .chain(&c.sp)
        .chain(&c.eabs)
        .chain([&c.makespan_measured, &c.makespan_predicted])
        .map(|x| x.to_bits())
        .collect()
}

/// A single-worker session with the `Tref` memo filled for every
/// (fabric, size) the battery uses.
///
/// One worker, not `EvalSession::new()`'s one per core: on a 2-vCPU KVM
/// guest shared with other tenants the two-worker battery rate moved
/// 7–20 % from run to run, the one-worker rate 1.5 %. `refine` and `whatif` still load the executor.
fn warm_session(battery: &[netbw::prelude::CommGraph]) -> EvalSession {
    let session = EvalSession::sequential();
    let mut sizes: Vec<u64> = battery
        .iter()
        .flat_map(|g| g.comms().iter().map(|c| c.size))
        .collect();
    sizes.sort_unstable();
    sizes.dedup();
    let jobs: Vec<(FabricConfig, u64)> = FabricConfig::paper_fabrics()
        .into_iter()
        .flat_map(|f| sizes.iter().map(move |&s| (f, s)))
        .collect();
    session.sweep(&jobs, |worker, &(fabric, size)| worker.tref(fabric, size));
    session
}

pub fn run(seed: u64, budget: Duration, trace: bool) -> Report {
    let battery = gen::battery(seed);
    let pairs = netbw_bench::fabric_model_pairs();
    let hpl = gen::hpl();
    let cluster = ClusterSpec::smp(HPL_NODES);
    let (gige, myrinet) = (GigabitEthernetModel::default(), MyrinetModel::default());
    let hpl_jobs: Vec<HplJob> = gen::policies(seed)
        .into_iter()
        .flat_map(|policy| {
            [
                (FabricConfig::gige(), &gige as &dyn PenaltyModel),
                (FabricConfig::myrinet2000(), &myrinet as &dyn PenaltyModel),
            ]
            .map(|(fabric, model)| HplJob {
                policy: policy.clone(),
                fabric,
                model,
            })
        })
        .collect();

    let mut report = Report::default();
    let t0 = Instant::now();
    let session = warm_session(&battery);
    let first_setup = secs(t0.elapsed());

    let mut tracer = Tracer::new(false);
    let untraced = measure(
        &session,
        &battery,
        &pairs,
        &hpl,
        &cluster,
        &hpl_jobs,
        budget,
        &mut tracer,
    );
    check(
        &untraced.reference,
        &battery,
        &pairs,
        &hpl,
        &cluster,
        &hpl_jobs,
        &mut report,
    );
    report.attempted += untraced.attempted;
    report.failed += untraced.failed;
    let mut setups = untraced.setups.clone();
    setups.push(first_setup);
    let (throughput_per_s, latency) = trace::whole_run(&untraced.windows);
    report.e2e = EndToEnd {
        setup_s: trace::median(&setups),
        throughput_per_s,
        latency,
    };
    let eabs_schemes = mean(untraced.reference.schemes.iter().flatten().map(|c| c.eabs));
    let eabs_hpl = mean(untraced.reference.hpl.iter().map(HplComparison::mean_eabs));
    eprintln!(
        "perfbench: {} schemes x {} fabrics, {} HPL replays per pass | Eabs schemes {eabs_schemes:.3} %, \
         HPL {eabs_hpl:.3} % | {}",
        battery.len(),
        pairs.len(),
        hpl_jobs.len(),
        session.stats()
    );
    if !trace {
        return report;
    }

    let mut tracer = Tracer::new(true);
    let traced = measure(
        &session,
        &battery,
        &pairs,
        &hpl,
        &cluster,
        &hpl_jobs,
        budget,
        &mut tracer,
    );
    report.attempted += traced.attempted;
    report.failed += traced.failed;
    let stats = session.stats();
    let l = &mut report.layers;
    l.set_overhead(report.e2e.throughput_per_s, traced.schemes_per_s());
    l.set(
        "eval.hpl_replays_per_s",
        untraced.replays as f64 / untraced.hpl_s,
    );
    l.set("eval.eabs_schemes_pct", eabs_schemes);
    l.set("eval.eabs_hpl_pct", eabs_hpl);
    l.set("eval.tref.hit_rate", stats.tref_hit_rate());
    l.set("eval.fabric_reuse_rate", stats.fabric_reuse_rate());
    l.set("eval.steals", stats.steals as f64);
    l.set("eval.worker_imbalance", imbalance(&stats.per_worker_items));
    l.set(
        "eval.sweep.dispatch_us_p50",
        crate::whatif::sweep_dispatch_probe() * 1e6,
    );
    l.set(
        "eval.executor.map_us_p50",
        crate::fluid::executor_map_probe() * 1e6,
    );
    probe_layers(&mut tracer, &battery, &pairs, &hpl, &cluster, &hpl_jobs);
    let l = &mut report.layers;
    let p50_us = |name| summarize(&tracer.durations(name)).p50 * 1e6;
    l.set("packet.run_scheme.us_p50", p50_us("packet.run_scheme"));
    l.set(
        "packet.run_scheme.busy_s",
        tracer.durations("packet.run_scheme").iter().sum(),
    );
    l.set(
        "fluid.solver.effective_penalties.us_p50",
        p50_us("fluid.solver.effective_penalties"),
    );
    l.set("core.gige.penalties.us_p50", p50_us("core.gige.penalties"));
    l.set(
        "core.myrinet.penalties.us_p50",
        p50_us("core.myrinet.penalties"),
    );
    l.set(
        "core.infiniband.penalties.us_p50",
        p50_us("core.infiniband.penalties"),
    );
    l.set("eval.tref.us_p50", p50_us("eval.tref"));
    l.set(
        "sim.packet_replay.ms_p50",
        p50_us("sim.packet_replay") * 1e-3,
    );
    l.set("sim.fluid_replay.ms_p50", p50_us("sim.fluid_replay") * 1e-3);
    l.set_spans(&tracer);
    let path = std::path::Path::new("perfbench/out/validate.spans.csv");
    if let Err(err) = tracer.write_csv(path) {
        report.problem(format!("writing {}: {err}", path.display()));
    }
    report
}

/// How far the busiest worker's item count exceeds the mean (0 = even).
pub fn imbalance(per_worker_items: &[u64]) -> f64 {
    let mean = per_worker_items.iter().sum::<u64>() as f64 / per_worker_items.len().max(1) as f64;
    let max = per_worker_items.iter().copied().max().unwrap_or(0) as f64;
    max / mean - 1.0
}

fn mean(xs: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = xs.fold((0.0, 0usize), |(s, n), x| (s + x, n + 1));
    sum / n.max(1) as f64
}

/// Totals of the battery passes run within one budget.
struct Measured {
    /// The first pass's results; later passes must repeat them bitwise.
    reference: Pass,
    /// Every [`PASSES_PER_WINDOW`] passes: scheme comparisons, battery
    /// seconds, and the time of each HPL sweep.
    windows: Vec<Window>,
    hpl_s: f64,
    replays: usize,
    /// Seconds per session set-up.
    setups: Vec<f64>,
    attempted: u64,
    failed: u64,
}

impl Measured {
    fn schemes_per_s(&self) -> f64 {
        trace::whole_run(&self.windows).0
    }
}

/// Runs whole battery passes until `budget` is spent (at least one).
#[allow(clippy::too_many_arguments)]
fn measure(
    session: &EvalSession,
    battery: &[netbw::prelude::CommGraph],
    pairs: &[(FabricConfig, Box<dyn PenaltyModel>)],
    hpl: &HplConfig,
    cluster: &ClusterSpec,
    jobs: &[HplJob],
    budget: Duration,
    tracer: &mut Tracer,
) -> Measured {
    let started = Instant::now();
    let mut m = Measured {
        reference: Pass {
            schemes: Vec::new(),
            hpl: Vec::new(),
        },
        windows: Vec::new(),
        hpl_s: 0.0,
        replays: 0,
        setups: Vec::new(),
        attempted: 0,
        failed: 0,
    };
    let mut first = true;
    // The window being filled: battery seconds, passes, replay times.
    let mut open = (0.0, 0usize, Vec::new());
    while first || started.elapsed() < budget {
        let root = tracer.open("bench.pass", 0);
        let mut schemes = Vec::with_capacity(pairs.len());
        let t0 = Instant::now();
        for (fabric, model) in pairs {
            let out = tracer.span("eval.compare_schemes", || {
                session.compare_schemes(model.as_ref(), *fabric, battery)
            });
            schemes.push(out);
        }
        open.0 += secs(t0.elapsed());
        open.1 += 1;
        let mut sweeps = Vec::with_capacity(SWEEPS_PER_PASS);
        for _ in 0..SWEEPS_PER_PASS {
            let sweep = tracer.open("eval.sweep", 0);
            let t0 = Instant::now();
            let timed = session.sweep(jobs, |worker, job| {
                let start = Instant::now();
                let out = worker.compare_hpl(hpl, cluster, &job.policy, job.model, job.fabric);
                (out, start, Instant::now())
            });
            let sweep_s = secs(t0.elapsed());
            m.hpl_s += sweep_s;
            open.2.push(sweep_s);
            let mut hpl = Vec::with_capacity(jobs.len());
            for (i, (out, start, end)) in timed.into_iter().enumerate() {
                tracer.record("eval.compare_hpl", i as u32, start, end);
                m.replays += 1;
                m.attempted += 1;
                match out {
                    Ok(c) => hpl.push(c),
                    Err(_) => m.failed += 1,
                }
            }
            tracer.close(sweep);
            sweeps.push(hpl);
        }
        tracer.close(root);
        if open.1 == PASSES_PER_WINDOW || (m.windows.is_empty() && started.elapsed() >= budget) {
            m.windows.push(Window {
                work: (open.1 * battery.len() * pairs.len()) as f64,
                secs: open.0,
                ops: std::mem::take(&mut open.2),
            });
            open = (0.0, 0, Vec::new());
            // One more set-up per window, so `setup_s` samples the whole run.
            let t0 = Instant::now();
            drop(std::hint::black_box(warm_session(battery)));
            m.setups.push(secs(t0.elapsed()));
        }

        let mut sweeps = sweeps.into_iter();
        let hpl = sweeps.next().unwrap_or_default();
        let pass = Pass { schemes, hpl };
        if first {
            m.attempted += pass.schemes.iter().map(|s| s.len() as u64).sum::<u64>();
            m.reference = pass;
            first = false;
        } else {
            // A later pass must repeat the first bit for bit.
            for (a, b) in pass
                .schemes
                .iter()
                .flatten()
                .zip(m.reference.schemes.iter().flatten())
            {
                m.attempted += 1;
                m.failed += u64::from(scheme_bits(a) != scheme_bits(b));
            }
            for (a, b) in pass.hpl.iter().zip(&m.reference.hpl) {
                m.attempted += 1;
                m.failed += u64::from(hpl_bits(a) != hpl_bits(b));
            }
        }
        // The pass's further sweeps must repeat the first pass's sweep.
        for sweep in sweeps {
            for (a, b) in sweep.iter().zip(&m.reference.hpl) {
                m.attempted += 1;
                m.failed += u64::from(hpl_bits(a) != hpl_bits(b));
            }
        }
    }
    m
}

/// Re-answers a sample of the session's results on the per-call path
/// (`compare_scheme`, `compare_hpl`), which must agree bitwise.
fn check(
    reference: &Pass,
    battery: &[netbw::prelude::CommGraph],
    pairs: &[(FabricConfig, Box<dyn PenaltyModel>)],
    hpl: &HplConfig,
    cluster: &ClusterSpec,
    jobs: &[HplJob],
    report: &mut Report,
) {
    for ((fabric, model), results) in pairs.iter().zip(&reference.schemes) {
        for (i, scheme) in battery.iter().enumerate().step_by(CHECK_EVERY) {
            let direct = netbw::eval::compare_scheme(model.as_ref(), *fabric, scheme);
            report.op(scheme_bits(&direct) == scheme_bits(&results[i]));
        }
    }
    for (job, session) in jobs.iter().zip(&reference.hpl).step_by(2) {
        let direct = netbw::eval::compare_hpl(hpl, cluster, &job.policy, job.model, job.fabric);
        report.op(direct.is_ok_and(|d| hpl_bits(&d) == hpl_bits(session)));
    }
    if reference.hpl.len() != jobs.len() {
        report.problem(format!(
            "{} of {} HPL replays failed",
            jobs.len() - reference.hpl.len(),
            jobs.len()
        ));
    }
}

/// Times each layer the battery passes through, called directly on the
/// battery's inputs: the packet fabric, the fluid solver, the penalty
/// models, `Tref` lookups, and both simulator back ends on the HPL trace.
fn probe_layers(
    tracer: &mut Tracer,
    battery: &[netbw::prelude::CommGraph],
    pairs: &[(FabricConfig, Box<dyn PenaltyModel>)],
    hpl: &HplConfig,
    cluster: &ClusterSpec,
    jobs: &[HplJob],
) {
    let root = tracer.open("bench.probes", 0);
    let nodes = battery
        .iter()
        .flat_map(|g| g.nodes().iter().map(|n| n.idx() + 1).collect::<Vec<_>>())
        .max()
        .unwrap_or(2);
    for (fabric, model) in pairs {
        let core_span = match fabric.name {
            "gige" => "core.gige.penalties",
            "myrinet" => "core.myrinet.penalties",
            _ => "core.infiniband.penalties",
        };
        let mut packet = PacketFabric::new(*fabric, nodes.next_power_of_two().max(8));
        let mut solver = FluidSolver::new(model.as_ref(), NetworkParams::unit());
        let mut worker = netbw::eval::SweepWorker::standalone();
        for scheme in battery {
            tracer.span("packet.run_scheme", || {
                std::hint::black_box(packet.run_scheme(scheme));
            });
            tracer.span("fluid.solver.effective_penalties", || {
                std::hint::black_box(solver.effective_penalties(scheme));
            });
            tracer.span(core_span, || {
                std::hint::black_box(model.penalties(scheme.comms()));
            });
            for c in scheme.comms() {
                tracer.span("eval.tref", || {
                    std::hint::black_box(worker.tref(*fabric, c.size))
                });
            }
        }
    }
    let trace = hpl.trace();
    for job in jobs {
        let placement = Placement::assign(&job.policy, trace.len(), cluster);
        tracer.span("sim.packet_replay", || {
            let backend = PacketNetwork::new(job.fabric.coarse(), cluster.nodes);
            std::hint::black_box(Simulator::new(&trace, *cluster, placement.clone(), backend).run())
                .is_ok()
        });
        tracer.span("sim.fluid_replay", || {
            let params = NetworkParams::new(job.fabric.flow_cap, job.fabric.startup);
            let backend = FluidNetwork::new(job.model, params);
            std::hint::black_box(Simulator::new(&trace, *cluster, placement.clone(), backend).run())
                .is_ok()
        });
    }
    tracer.close(root);
}
