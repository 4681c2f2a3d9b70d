//! Long-running what-if service over a warm fluid engine.
//!
//! The paper's predictive model is cheap enough to consult *online*: a
//! scheduler holding a live view of the cluster's in-flight transfers can
//! ask "if I placed this job's communications here, how slow would they
//! run?" before committing. The batch entry points in `netbw-eval` rebuild
//! the whole world per question; this crate keeps the world *warm* and
//! answers speculative questions by forking it.
//!
//! Three layers:
//!
//! * [`WhatIfService`] — the core service. One **authoritative**
//!   [`netbw_fluid::FluidNetwork`] tracks the transfers actually admitted
//!   (through the fallible `try_add`, so malformed requests surface as
//!   typed [`ServeError`]s instead of panics). What-if queries never touch
//!   it: they run on throwaway clones (forks) of a cached **snapshot**
//!   fork, which is re-based on admission/advance and rebuilt at most
//!   once per batch — the fork-equivalence proptests in
//!   `netbw-fluid` pin that a fork diverged with speculative flows answers
//!   bit-for-bit like a rebuild-and-replay of the admission log.
//! * An [`netbw_eval::EvalSession`] underneath — query batches fan out on
//!   the work-stealing sweep executor, and per-flow slowdowns normalise by
//!   `Tref(size)` through the session's bounded, shared
//!   [`netbw_packet::TrefCache`] memo, so each distinct size is measured
//!   once per service lifetime (not per query).
//! * [`ServeHandle`] — an asynchronous front-end: requests go down an
//!   mpsc admission queue to a service thread that coalesces consecutive
//!   what-if requests into one executor batch ([`WhatIfService::spawn`]).
//!
//! The ablation baseline [`WhatIfService::what_if_batch_via_rebuild`]
//! answers the same queries by replaying the admission log from scratch;
//! `serve_smoke` (netbw-bench) guards that the fork path is at least 2×
//! faster and bitwise-identical.
//!
//! ```
//! use netbw_graph::Communication;
//! use netbw_serve::{ServeConfig, WhatIfQuery, WhatIfService};
//!
//! let service = WhatIfService::new(ServeConfig::default());
//! service.admit(Communication::new(0u32, 1u32, 1 << 20), 0.0).unwrap();
//! service.advance_to(0.001).unwrap();
//! let answer = service
//!     .what_if(&WhatIfQuery::flow(Communication::new(2u32, 1u32, 1 << 20), 0.0))
//!     .unwrap();
//! assert!(answer.flows[0].slowdown >= 1.0);
//! ```

mod frontend;
mod service;

pub use frontend::{ServeHandle, ServeRequest};
pub use service::{
    FlowAnswer, ServeConfig, ServeError, ServeStats, WhatIfAnswer, WhatIfQuery, WhatIfService,
    MAX_WHAT_IF_BYTES, MAX_WHAT_IF_OFFSET,
};
