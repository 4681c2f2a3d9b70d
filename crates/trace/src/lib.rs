//! MPE-like event traces.
//!
//! The paper extracts application events by instrumenting MPICH's
//! MultiProcessing Environment (MPE) tracing library (§VI.D, overhead
//! ≈ 0.7 %). This crate is our stand-in: a task-ordered event format with a
//! plain-text serialization, consumed by the `netbw-sim` trace-driven
//! simulator and produced by the `netbw-workloads` generators.
//!
//! An application is "one or more … sequences of events. There are two
//! kinds of events: compute events and communication events" (§VI.A); we
//! add explicit `Recv` and `Barrier` events so MPI blocking semantics can
//! be replayed faithfully.

pub mod event;
pub mod multi;
pub mod stats;
pub mod text;

pub use event::{Event, TaskTrace, Trace};
pub use multi::{merge, AppSpan};
pub use stats::{TaskStats, TraceStats};
pub use text::{parse_trace, write_trace, TraceParseError, MAX_TRACE_TASKS};
