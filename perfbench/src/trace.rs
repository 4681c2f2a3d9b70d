//! In-memory span recording, span self time and the percentile rule.
//!
//! Spans are recorded from the benchmark's own code around calls into a
//! layer's public functions; a span's name starts with the layer it
//! enters (`fluid.advance_to` belongs to `fluid`). Nothing is written
//! while a workload runs: [`Tracer::write_csv`] dumps the spans when the
//! run ends.

use std::io::Write;
use std::time::{Duration, Instant};

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Index into the tracer's name table.
    pub name: u16,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Request the span belongs to (0 when the span serves no request).
    pub request: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A span recorder. A disabled tracer records nothing and costs one
/// branch per call, which is how the untimed paths share code with the
/// traced ones.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    names: Vec<&'static str>,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self::with_origin(enabled, Instant::now())
    }

    /// A tracer whose clock starts at `origin`, so spans recorded on
    /// several threads can be merged onto one time line.
    pub fn with_origin(enabled: bool, origin: Instant) -> Self {
        Tracer {
            enabled,
            origin,
            names: Vec::new(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Pauses or resumes recording. Spans must not be opened while paused
    /// and closed after resuming, or the other way round.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn name_index(&mut self, name: &'static str) -> u16 {
        match self.names.iter().position(|&n| n == name) {
            Some(i) => i as u16,
            None => {
                self.names.push(name);
                (self.names.len() - 1) as u16
            }
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let id = self.open(name, 0);
        let out = f();
        self.close(id);
        out
    }

    /// Opens a span that encloses the spans recorded until [`Self::close`].
    pub fn open(&mut self, name: &'static str, request: u32) -> u32 {
        if !self.enabled {
            return u32::MAX;
        }
        let name = self.name_index(name);
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            request,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    pub fn close(&mut self, id: u32) {
        if !self.enabled {
            return;
        }
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(id), "spans close in LIFO order");
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Records a span measured elsewhere (on another thread, against the
    /// same origin), nested under the innermost open span.
    pub fn record(&mut self, name: &'static str, request: u32, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let name = self.name_index(name);
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            request,
            start_ns: ns(start),
            end_ns: ns(end),
        });
    }

    /// Appends the spans of `other`, a tracer with the same origin (one
    /// per thread), as roots of their own.
    pub fn absorb(&mut self, other: &Tracer) {
        let base = self.spans.len() as u32;
        for s in &other.spans {
            let name = self.name_index(other.names[s.name as usize]);
            self.spans.push(Span {
                name,
                parent: s.parent.map(|p| p + base),
                ..*s
            });
        }
    }

    /// Durations, in seconds, of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        let Some(idx) = self.names.iter().position(|&n| n == name) else {
            return Vec::new();
        };
        self.spans
            .iter()
            .filter(|s| s.name as usize == idx)
            .map(|s| s.duration_ns() as f64 * 1e-9)
            .collect()
    }

    /// Self time, in seconds, summed per layer (the span-name prefix
    /// before the first `.`), sorted by layer name.
    pub fn layer_self_times(&self) -> Vec<(&'static str, f64)> {
        let own = self_times_ns(&self.spans);
        let mut out: Vec<(&'static str, f64)> = Vec::new();
        for (span, ns) in self.spans.iter().zip(own) {
            let layer = layer_of(self.names[span.name as usize]);
            match out.iter_mut().find(|(l, _)| *l == layer) {
                Some((_, total)) => *total += ns as f64 * 1e-9,
                None => out.push((layer, ns as f64 * 1e-9)),
            }
        }
        out.sort_by(|a, b| a.0.cmp(b.0));
        out
    }

    /// Writes every span as one CSV row:
    /// `id,parent,request,name,start_ns,end_ns,self_ns`.
    pub fn write_csv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let own = self_times_ns(&self.spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id,parent,request,name,start_ns,end_ns,self_ns")?;
        for (i, (s, own)) in self.spans.iter().zip(own).enumerate() {
            let parent = s.parent.map_or(String::new(), |p| p.to_string());
            writeln!(
                out,
                "{i},{parent},{},{},{},{},{own}",
                s.request, self.names[s.name as usize], s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// The layer a span name belongs to.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Each span's self time: its duration minus the part of its interval
/// that its child spans cover (children may overlap one another when they
/// ran on several threads, so the covered part is their union).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p as usize].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// The percentiles a tail may be reported at, highest first.
const TAIL_LADDER: [f64; 4] = [99.0, 95.0, 90.0, 75.0];

/// The value at percentile `pct` (nearest rank) of sorted `xs`.
fn nearest_rank(xs: &[f64], pct: f64) -> f64 {
    let idx = ((pct / 100.0 * xs.len() as f64).ceil() as usize).clamp(1, xs.len()) - 1;
    xs[idx]
}

/// Summary of a sample: median, and the highest percentile of
/// [`TAIL_LADDER`] that has at least ten samples beyond it (the median
/// when the sample is too small for any), with the sample count.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub tail_pct: f64,
    pub tail: f64,
    pub max: f64,
    pub sum: f64,
}

impl Summary {
    pub fn mean(&self) -> f64 {
        self.sum / self.n.max(1) as f64
    }
}

pub fn summarize(xs: &[f64]) -> Summary {
    if xs.is_empty() {
        return Summary::default();
    }
    let mut xs = xs.to_vec();
    xs.sort_unstable_by(f64::total_cmp);
    let n = xs.len();
    let (tail_pct, tail) = TAIL_LADDER
        .iter()
        .map(|&p| (p, ((p / 100.0 * n as f64).ceil() as usize).max(1)))
        .find(|&(_, rank)| n - rank >= 10)
        .map_or((50.0, nearest_rank(&xs, 50.0)), |(p, rank)| {
            (p, xs[rank - 1])
        });
    Summary {
        n,
        p50: nearest_rank(&xs, 50.0),
        tail_pct,
        tail,
        max: xs[n - 1],
        sum: xs.iter().sum(),
    }
}

/// One stretch of a run: the work completed in it, how long it took
/// (seconds), and the latencies of the operations it covered (seconds).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Window {
    pub work: f64,
    pub secs: f64,
    pub ops: Vec<f64>,
}

/// Throughput and latency of a whole run: all the windows' work over all
/// their time, and the summary of every operation of every window, so a
/// slowdown of any share of the run moves the rate by that share and rare
/// slow operations reach the latency tail.
pub fn whole_run(windows: &[Window]) -> (f64, Summary) {
    let work: f64 = windows.iter().map(|w| w.work).sum();
    let secs: f64 = windows.iter().map(|w| w.secs).sum();
    let ops: Vec<f64> = windows.iter().flat_map(|w| w.ops.iter().copied()).collect();
    (work / secs, summarize(&ops))
}

/// Median of a small sample of repeated measurements.
pub fn median(xs: &[f64]) -> f64 {
    summarize(xs).p50
}

/// Seconds of a duration, as f64.
pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: 0,
            parent,
            request: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children_clipped_to_the_parent() {
        let spans = [
            span(None, 0, 100),
            span(Some(0), 10, 30),
            span(Some(0), 20, 40),  // overlaps its sibling (another thread)
            span(Some(0), 90, 120), // runs past the parent's end
            span(Some(1), 12, 18),
        ];
        // parent: 100 - |[10,40] ∪ [90,100]| = 100 - 40
        assert_eq!(self_times_ns(&spans), vec![60, 14, 20, 30, 6]);
    }

    #[test]
    fn tracer_nests_spans_and_sums_self_time_per_layer() {
        let mut t = Tracer::new(true);
        t.span("bench.root", || {
            t_busy(2);
        });
        let root = t.open("bench.loop", 0);
        t.span("fluid.advance_to", || t_busy(1));
        t.record("fluid.advance_to", 7, Instant::now(), Instant::now());
        t.close(root);
        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[3].request, 7);
        assert_eq!(t.durations("fluid.advance_to").len(), 2);
        let layers = t.layer_self_times();
        assert_eq!(
            layers.iter().map(|l| l.0).collect::<Vec<_>>(),
            ["bench", "fluid"]
        );
        let total: f64 = layers.iter().map(|l| l.1).sum();
        let roots: u64 = spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::duration_ns)
            .sum();
        // self times partition the root spans exactly
        assert!((total - roots as f64 * 1e-9).abs() < 1e-12);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let x = t.span("fluid.add", || 3);
        let id = t.open("bench.loop", 0);
        t.close(id);
        assert_eq!(x, 3);
        assert!(t.spans().is_empty());
    }

    fn t_busy(us: u64) {
        let t0 = Instant::now();
        while t0.elapsed() < Duration::from_micros(us) {}
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond_it() {
        let xs = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        // 1000 samples: rank 990 leaves exactly 10 beyond it
        let s = summarize(&xs(1000));
        assert_eq!((s.n, s.tail_pct, s.tail), (1000, 99.0, 990.0));
        // 999 samples: p99 would leave 9 beyond it, so p95 is reported
        let s = summarize(&xs(999));
        assert_eq!((s.tail_pct, s.tail), (95.0, 950.0));
        let s = summarize(&xs(200));
        assert_eq!((s.tail_pct, s.tail), (95.0, 190.0));
        let s = summarize(&xs(100));
        assert_eq!((s.tail_pct, s.tail), (90.0, 90.0));
        let s = summarize(&xs(40));
        assert_eq!((s.tail_pct, s.tail), (75.0, 30.0));
        // too small for any tail: the median stands in, flagged as p50
        let s = summarize(&xs(9));
        assert_eq!((s.tail_pct, s.tail, s.p50, s.max), (50.0, 5.0, 5.0, 9.0));
        assert_eq!(summarize(&[]).n, 0);
    }

    #[test]
    fn whole_run_takes_all_the_work_over_all_the_time_and_every_operation() {
        let w = |work: f64, secs: f64, op: f64| Window {
            work,
            secs,
            ops: vec![op; 3],
        };
        // 18 windows of 36 units/s and 2 that took twice as long
        let mut windows = vec![w(36.0, 1.0, 0.026); 18];
        windows.extend(vec![w(36.0, 2.0, 0.5); 2]);
        let (rate, lat) = whole_run(&windows);
        assert_eq!(rate, 720.0 / 22.0);
        // the latency covers all 60 operations, the slow windows' included
        assert_eq!((lat.n, lat.p50, lat.max), (60, 0.026, 0.5));
        assert_eq!(whole_run(&windows[..1]).0, 36.0);
    }

    #[test]
    fn summary_ignores_input_order() {
        let a = summarize(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!((a.p50, a.max, a.sum, a.mean()), (3.0, 5.0, 15.0, 3.0));
    }
}
