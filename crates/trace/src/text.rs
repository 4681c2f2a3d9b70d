//! Plain-text trace serialization.
//!
//! Format (one event per line, `t<rank>` prefixes):
//!
//! ```text
//! # netbw trace v1
//! tasks 4
//! t0 compute 0.5
//! t0 send 1 1048576
//! t1 recv 0 1048576
//! t2 recv any 64
//! t3 barrier
//! ```

use crate::event::{Event, Trace};
use std::fmt;

/// The largest `tasks` count [`parse_trace`] accepts. Far above any trace
/// the workload generators write, it keeps a malformed count from asking
/// for an allocation the machine cannot make.
pub const MAX_TRACE_TASKS: usize = 1 << 20;

/// Error from [`parse_trace`], with 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceParseError {
    /// 1-based line number.
    pub line: usize,
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for TraceParseError {}

/// Serializes a trace to the line format.
pub fn write_trace(trace: &Trace) -> String {
    let mut out = String::from("# netbw trace v1\n");
    out.push_str(&format!("tasks {}\n", trace.len()));
    for (rank, task) in trace.tasks.iter().enumerate() {
        for e in &task.events {
            match *e {
                Event::Compute { duration } => {
                    out.push_str(&format!("t{rank} compute {duration}\n"));
                }
                Event::Send { dst, bytes } => {
                    out.push_str(&format!("t{rank} send {} {bytes}\n", dst.0));
                }
                Event::Recv {
                    src: Some(s),
                    bytes,
                } => {
                    out.push_str(&format!("t{rank} recv {} {bytes}\n", s.0));
                }
                Event::Recv { src: None, bytes } => {
                    out.push_str(&format!("t{rank} recv any {bytes}\n"));
                }
                Event::Barrier => {
                    out.push_str(&format!("t{rank} barrier\n"));
                }
            }
        }
    }
    out
}

/// Parses the line format back into a [`Trace`].
pub fn parse_trace(input: &str) -> Result<Trace, TraceParseError> {
    let mut trace: Option<Trace> = None;
    for (i, raw) in input.lines().enumerate() {
        let lineno = i + 1;
        let err = |message: String| TraceParseError {
            line: lineno,
            message,
        };
        let line = match raw.find('#') {
            Some(p) => &raw[..p],
            None => raw,
        }
        .trim();
        if line.is_empty() {
            continue;
        }
        let mut words = line.split_whitespace();
        let head = words.next().expect("non-empty line");
        if head == "tasks" {
            let n: usize = words
                .next()
                .and_then(|w| w.parse().ok())
                .ok_or_else(|| err("tasks directive needs a count".into()))?;
            if trace.is_some() {
                return Err(err("duplicate tasks directive".into()));
            }
            if n > MAX_TRACE_TASKS {
                return Err(err(format!(
                    "tasks count {n} exceeds the limit of {MAX_TRACE_TASKS}"
                )));
            }
            trace = Some(Trace::with_tasks(n));
            continue;
        }
        let rank: usize = head
            .strip_prefix('t')
            .and_then(|r| r.parse().ok())
            .ok_or_else(|| err(format!("expected t<rank>, got {head:?}")))?;
        let tr = trace
            .as_mut()
            .ok_or_else(|| err("event before tasks directive".into()))?;
        if rank >= tr.len() {
            return Err(err(format!(
                "rank {rank} out of range (tasks {})",
                tr.len()
            )));
        }
        let verb = words
            .next()
            .ok_or_else(|| err("missing event verb".into()))?;
        match verb {
            "compute" => {
                let d: f64 = words
                    .next()
                    .and_then(|w| w.parse().ok())
                    .ok_or_else(|| err("compute needs a duration".into()))?;
                if !d.is_finite() || d < 0.0 {
                    return Err(err(format!("bad compute duration {d}")));
                }
                tr.task_mut(rank).compute(d);
            }
            "send" => {
                let dst: u32 = words
                    .next()
                    .and_then(|w| w.parse().ok())
                    .ok_or_else(|| err("send needs a destination rank".into()))?;
                let bytes: u64 = words
                    .next()
                    .and_then(|w| w.parse().ok())
                    .ok_or_else(|| err("send needs a byte count".into()))?;
                tr.task_mut(rank).send(dst, bytes);
            }
            "recv" => {
                let src = words
                    .next()
                    .ok_or_else(|| err("recv needs a source rank or `any`".into()))?;
                let bytes: u64 = words
                    .next()
                    .and_then(|w| w.parse().ok())
                    .ok_or_else(|| err("recv needs a byte count".into()))?;
                if src == "any" {
                    tr.task_mut(rank).recv_any(bytes);
                } else {
                    let s: u32 = src
                        .parse()
                        .map_err(|_| err(format!("bad recv source {src:?}")))?;
                    tr.task_mut(rank).recv(s, bytes);
                }
            }
            "barrier" => {
                tr.task_mut(rank).barrier();
            }
            other => return Err(err(format!("unknown event verb {other:?}"))),
        }
        if let Some(extra) = words.next() {
            return Err(err(format!("trailing tokens starting at {extra:?}")));
        }
    }
    trace.ok_or(TraceParseError {
        line: 0,
        message: "empty trace (no tasks directive)".into(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring_trace() -> Trace {
        let mut tr = Trace::with_tasks(3);
        for r in 0..3usize {
            tr.task_mut(r).compute(0.25);
            tr.task_mut(r).send(((r + 1) % 3) as u32, 1024);
            tr.task_mut(r).recv_any(1024);
            tr.task_mut(r).barrier();
        }
        tr
    }

    #[test]
    fn round_trip() {
        let tr = ring_trace();
        let text = write_trace(&tr);
        let back = parse_trace(&text).unwrap();
        assert_eq!(back, tr);
    }

    #[test]
    fn specific_recv_round_trips() {
        let mut tr = Trace::with_tasks(2);
        tr.task_mut(0).send(1u32, 10);
        tr.task_mut(1).recv(0u32, 10);
        assert_eq!(parse_trace(&write_trace(&tr)).unwrap(), tr);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = parse_trace("tasks 2\nt0 warp 1\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("unknown event verb"));

        let e = parse_trace("t0 compute 1\n").unwrap_err();
        assert!(e.message.contains("before tasks"));

        let e = parse_trace("tasks 1\nt3 barrier\n").unwrap_err();
        assert!(e.message.contains("out of range"));

        let e = parse_trace("tasks 1\nt0 compute -2\n").unwrap_err();
        assert!(e.message.contains("bad compute duration"));

        let e = parse_trace("tasks 1\nt0 barrier extra\n").unwrap_err();
        assert!(e.message.contains("trailing"));

        let e = parse_trace("").unwrap_err();
        assert!(e.message.contains("empty trace"));

        let e = parse_trace("tasks 1\ntasks 2\n").unwrap_err();
        assert!(e.message.contains("duplicate"));
    }

    #[test]
    fn oversized_task_counts_are_refused_not_allocated() {
        for count in [u64::MAX, 10_000_000_000, MAX_TRACE_TASKS as u64 + 1] {
            let e = parse_trace(&format!("tasks {count}\n")).unwrap_err();
            assert_eq!(e.line, 1);
            assert!(e.message.contains("exceeds the limit"), "{e}");
        }
        assert_eq!(
            parse_trace(&format!("tasks {MAX_TRACE_TASKS}\n"))
                .unwrap()
                .len(),
            MAX_TRACE_TASKS
        );
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let tr = parse_trace("# hello\n\ntasks 1\nt0 compute 1.5 # trailing\n").unwrap();
        assert_eq!(tr.len(), 1);
        assert_eq!(tr.tasks[0].events.len(), 1);
    }
}
