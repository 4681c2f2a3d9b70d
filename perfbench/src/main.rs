//! End-to-end benchmark of the netbw workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <refine|whatif|validate> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload builds its inputs from the seed, measures for about
//! `--seconds` seconds, checks the program's outputs, and prints one JSON
//! object as the last line of stdout: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics of a separate traced pass with
//! `--trace 1`. A human-readable summary goes to stderr. See README.md
//! for what each workload exercises and which metrics it should move.

mod fluid;
mod inputs;
mod trace;
mod validate;
mod whatif;

use std::collections::BTreeMap;
use std::time::Duration;
use trace::Summary;

/// End-to-end metrics, reported by every workload (`--trace 0`).
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_mean_ms", "ms"),
    ("latency_tail_ms", "ms"),
];

/// Per-layer metrics (`--trace 1`). Every workload prints all of them; a
/// layer that is not on a workload's path reads 0 there.
pub const PER_LAYER: [(&str, &str); 67] = [
    ("fluid.advance_to.count", "count"),
    ("fluid.advance_to.busy_s", "s"),
    ("fluid.advance_to.us_p50", "us"),
    ("fluid.advance_to.us_p99", "us"),
    ("fluid.advance_to.us_max", "us"),
    ("fluid.next_event_time.us_p50", "us"),
    ("fluid.add.us_p50", "us"),
    ("fluid.timeline.heap_pushes", "count"),
    ("fluid.timeline.lazy_pops", "count"),
    ("fluid.timeline.rescans", "count"),
    ("fluid.cache.model_queries", "count"),
    ("fluid.cache.patch_share", "ratio"),
    ("fluid.cache.scratch_rebuilds", "count"),
    ("fluid.cache.budget_fallbacks", "count"),
    ("fluid.shard.splits", "count"),
    ("fluid.shard.merges", "count"),
    ("fluid.shard.drains", "count"),
    ("fluid.shard.live_max", "count"),
    ("fluid.shard.budget_collapses", "count"),
    ("fluid.solver.effective_penalties.us_p50", "us"),
    ("core.gige.penalties.us_p50", "us"),
    ("core.myrinet.penalties.us_p50", "us"),
    ("core.infiniband.penalties.us_p50", "us"),
    ("eval.executor.map_us_p50", "us"),
    ("eval.sweep.dispatch_us_p50", "us"),
    ("eval.tref.us_p50", "us"),
    ("eval.tref.hit_rate", "ratio"),
    ("eval.fabric_reuse_rate", "ratio"),
    ("eval.steals", "count"),
    ("eval.worker_imbalance", "ratio"),
    ("eval.hpl_replays_per_s", "1/s"),
    ("eval.eabs_schemes_pct", "%"),
    ("eval.eabs_hpl_pct", "%"),
    ("packet.run_scheme.us_p50", "us"),
    ("packet.run_scheme.busy_s", "s"),
    ("sim.packet_replay.ms_p50", "ms"),
    ("sim.fluid_replay.ms_p50", "ms"),
    ("serve.what_if_batch.ms_p50", "ms"),
    ("serve.what_if_batch.ms_p99", "ms"),
    ("serve.admit.us_p50", "us"),
    ("serve.advance_to.us_p50", "us"),
    ("serve.queue_wait.ms_p50", "ms"),
    ("serve.snapshot_builds", "count"),
    ("serve.per_query_reuse", "ratio"),
    ("serve.rebases", "count"),
    ("serve.rebase_fallbacks", "count"),
    ("serve.fork_reuses", "count"),
    ("serve.batch_size_mean", "count"),
    ("serve.in_flight_start", "count"),
    ("serve.in_flight_end", "count"),
    ("serve.query.ms_p50_first_decile", "ms"),
    ("serve.query.ms_p50_last_decile", "ms"),
    ("latency.p50_ms", "ms"),
    ("latency.tail_pct", "%"),
    ("latency.samples", "count"),
    ("run.error_rate", "ratio"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
    ("bench.self_s", "s"),
    ("core.self_s", "s"),
    ("eval.self_s", "s"),
    ("fluid.self_s", "s"),
    ("packet.self_s", "s"),
    ("serve.self_s", "s"),
    ("sim.self_s", "s"),
    ("trace.untraced_per_s", "1/s"),
    ("trace.traced_per_s", "1/s"),
];

/// The user-facing numbers of one workload run.
#[derive(Clone, Copy, Debug, Default)]
pub struct EndToEnd {
    /// Median set-up time over the run's set-ups (seconds).
    pub setup_s: f64,
    /// Units of work completed per second (the workload defines the unit).
    pub throughput_per_s: f64,
    /// Latency of the workload's unit operation, in seconds.
    pub latency: Summary,
}

/// Per-layer metric values, keyed by the names in [`PER_LAYER`].
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// Sets a metric; the name must be one of [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|&(n, _)| n == name),
            "unknown per-layer metric {name}"
        );
        self.0
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }

    /// Sets the median and the tail of `s` (seconds), times `scale`.
    pub fn set_summary(&mut self, p50: &'static str, tail: &'static str, s: &Summary, scale: f64) {
        self.set(p50, s.p50 * scale);
        self.set(tail, s.tail * scale);
    }

    /// Self time per layer and the span count of a traced pass.
    pub fn set_spans(&mut self, tracer: &trace::Tracer) {
        self.set("trace.spans", tracer.spans().len() as f64);
        for (layer, secs) in tracer.layer_self_times() {
            let name = PER_LAYER
                .iter()
                .map(|&(n, _)| n)
                .find(|n| n.strip_suffix(".self_s") == Some(layer))
                .unwrap_or_else(|| panic!("no self-time metric for layer {layer}"));
            self.set(name, secs);
        }
    }

    /// Tracing overhead: how much slower the traced pass ran than the
    /// untraced one, in percent of the traced throughput.
    pub fn set_overhead(&mut self, untraced_per_s: f64, traced_per_s: f64) {
        self.set("trace.untraced_per_s", untraced_per_s);
        self.set("trace.traced_per_s", traced_per_s);
        self.set(
            "trace.overhead_pct",
            (untraced_per_s / traced_per_s - 1.0) * 100.0,
        );
    }

    fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (completions, queries, comparisons, ...).
    pub attempted: u64,
    /// Operations that failed or answered wrongly.
    pub failed: u64,
    /// Run-level check failures (determinism, stationarity, ...).
    pub problems: Vec<String>,
    pub e2e: EndToEnd,
    pub layers: Layers,
}

impl Report {
    /// Records a run-level check failure.
    pub fn problem(&mut self, msg: String) {
        eprintln!("perfbench: CHECK FAILED: {msg}");
        self.problems.push(msg);
    }

    /// Counts one operation, failed unless `ok`.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0 && self.attempted > 0
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10.0f64, false);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn json_metric(name: &str, value: f64, unit: &str) -> String {
    format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            std::process::exit(2);
        }
    };
    let budget = Duration::from_secs_f64(args.seconds);
    let mut report = match args.workload.as_str() {
        "refine" => fluid::refine(args.seed, budget, args.trace),
        "whatif" => whatif::run(args.seed, budget, args.trace),
        "validate" => validate::run(args.seed, budget, args.trace),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    let e = report.e2e;
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    eprintln!(
        "perfbench: {} seed {} on {cores} cores | setup {:.4} s | {:.1}/s | latency mean {:.4} ms, \
         p50 {:.4} ms, p{} {:.4} ms (n={}) | {} attempted, {} failed",
        args.workload,
        args.seed,
        e.setup_s,
        e.throughput_per_s,
        e.latency.mean() * 1e3,
        e.latency.p50 * 1e3,
        e.latency.tail_pct,
        e.latency.tail * 1e3,
        e.latency.n,
        report.attempted,
        report.failed,
    );
    let metrics: Vec<String> = if args.trace {
        report.layers.set("latency.p50_ms", e.latency.p50 * 1e3);
        report.layers.set("latency.tail_pct", e.latency.tail_pct);
        report.layers.set("latency.samples", e.latency.n as f64);
        report.layers.set(
            "run.error_rate",
            report.failed as f64 / report.attempted.max(1) as f64,
        );
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let v = report.layers.get(name);
                eprintln!("perfbench:   {name} = {v} {unit}");
                json_metric(name, v, unit)
            })
            .collect()
    } else {
        let values = [
            e.setup_s,
            e.throughput_per_s,
            e.latency.mean() * 1e3,
            e.latency.tail * 1e3,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| json_metric(name, v, unit))
            .collect()
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct(),
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists here and in BENCHMARK.json must agree name for
    /// name and unit for unit, or the JSON line would not match the file.
    #[test]
    fn metric_tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let section = |key: &str| -> Vec<(String, String)> {
            let start = text.find(&format!("\"{key}\"")).expect("section present");
            let body = &text[start..];
            let body = &body[..body.find(']').expect("section closes")];
            body.split('{')
                .skip(1)
                .map(|entry| {
                    let field = |f: &str| {
                        let at = entry.find(&format!("\"{f}\"")).expect("field present");
                        let rest = &entry[at + f.len() + 2..];
                        let rest = &rest[rest.find('"').expect("value opens") + 1..];
                        rest[..rest.find('"').expect("value closes")].to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table.iter().map(|&(n, u)| (n.into(), u.into())).collect()
        };
        assert_eq!(section("end_to_end"), own(&END_TO_END));
        assert_eq!(section("per_layer"), own(&PER_LAYER));
    }

    #[test]
    fn layers_reject_unknown_names_and_non_finite_values() {
        let mut l = Layers::default();
        l.set("fluid.add.us_p50", f64::NAN);
        assert_eq!(l.get("fluid.add.us_p50"), 0.0);
        let unknown = std::panic::catch_unwind(move || l.set("fluid.nope", 1.0));
        assert!(unknown.is_err());
    }
}
