//! Progressive (fluid) bandwidth-sharing solver — the machinery behind the
//! paper's predicted times (§IV.B methodology, Figs. 4 and 7 results).
//!
//! The penalty models of `netbw-core` are *instantaneous*: they describe how
//! the network divides bandwidth among the communications in flight right
//! now. To predict completion *times* the simulator integrates those rates
//! over time: as soon as one communication finishes, the conflict structure
//! changes and every remaining penalty is re-evaluated. The result is a
//! piecewise-constant rate trajectory per communication.
//!
//! This is exactly how the paper's predicted times arise. For MK1 (Fig. 7),
//! communications `a, b` start under penalty 3 (the `d–a–b–f` conflict
//! path), and drop to penalty 2 once `d` and `f` complete at `1.5·tref`;
//! integrating gives `2.5·tref = 0.089 s` — the published value.
//!
//! Two interfaces:
//!
//! * [`solve_scheme`] / [`FluidSolver`] — batch: all communications start
//!   together (the synthetic benchmarks);
//! * [`FluidNetwork`] — incremental: transfers arrive at arbitrary times and
//!   completions are consumed as events (used by the `netbw-sim`
//!   discrete-event engine).
//!
//! # The incremental path
//!
//! Penalties only change when the contending population changes, so the
//! engine is built around three pieces:
//!
//! * [`slab`] — in-flight transfers live in a generational stable-key
//!   slab: completions never renumber survivors, so population identity
//!   survives churn;
//! * [`cache`] — the [`PenaltyCache`] settles once per population change
//!   (every `next_event_time` probe in between is served from cache),
//!   distills the pending arrivals/departures into a positional
//!   [`netbw_core::PopulationDelta`] (simultaneous batches become chained
//!   `Mixed` deltas), and owns the model's opaque per-cache scratch;
//! * `netbw-core`'s
//!   [`penalties_with_scratch`](netbw_core::PenaltyModel::penalties_with_scratch)
//!   — the models consume that delta over state they keep alive between
//!   settles (endpoint indices for GigE/InfiniBand, union–find conflict
//!   components for Myrinet) and patch only the affected endpoints or conflict components, in O(affected)
//!   model work per event instead of a full-fabric recompute — and report
//!   back *which* positions they re-evaluated
//!   ([`netbw_core::AffectedSet`]);
//! * [`event_heap`] — the engine turns each settle's affected set into
//!   per-flow cached finish times and keeps them in a lazy min-heap
//!   ([`TimelineStats`] counts the traffic), so finding the next
//!   completion or latency-gate opening is a heap peek instead of a scan
//!   over the population: an event costs O(affected + log n) end to end.
//!
//! The default engine keeps its cache and heaps in one shard;
//! [`FluidNetwork::with_sharded`] partitions the population into
//! conflict-component [`shard`]s — each with its own cache, scratch and
//! heaps — whose settles are independent and can be dispatched onto a
//! parallel executor ([`dispatch`]), still bit-for-bit equal to the
//! single-shard engine because the penalty models are component-local
//! (the Myrinet state-set budget is decided per conflict component too).
//! The partition refines in both directions: bridging arrivals merge
//! shards and component-splitting departures carve them back apart, so a
//! long-lived churning population keeps its fine partition instead of
//! degrading toward one mega-shard.
//!
//! [`ReferenceNetwork`] is the test oracle: the §IV.B algorithm with a
//! full model query per settle and linear scans per event, sharing only
//! the re-anchor arithmetic with the engine. The
//! equivalence proptests pin both engine configurations against it bit
//! for bit.

pub mod cache;
pub mod dispatch;
pub mod event_heap;
mod kinetics;
pub mod network;
pub mod params;
pub mod reference;
pub mod shard;
pub mod slab;
pub mod solver;
pub mod timeline;

pub use cache::{CacheStats, PenaltyCache};
pub use dispatch::{SerialDispatch, SettleDispatch, SettleJob};
pub use event_heap::TimelineStats;
pub use network::{AddError, CompletedTransfer, FluidNetwork, TransferKey};
pub use params::NetworkParams;
pub use reference::ReferenceNetwork;
pub use shard::ShardStats;
pub use slab::{FlowKey, Slab};
pub use solver::{solve_scheme, FluidSolver, Phase, TransferResult};
pub use timeline::{penalty_series, utilization, StepSeries};
