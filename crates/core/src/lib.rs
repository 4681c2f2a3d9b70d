//! Predictive bandwidth-sharing penalty models — the primary contribution of
//! *Vienne, Martinasso, Vincent, Méhaut, "Predictive models for bandwidth
//! sharing in high performance clusters", IEEE Cluster 2008*.
//!
//! A **penalty** is the slowdown `P = T / Tref` a communication suffers when
//! it shares network resources with concurrent communications (`Tref` is the
//! time of the same transfer running alone). This crate turns a set of
//! concurrent communications into per-communication penalties, per network
//! technology:
//!
//! * [`GigabitEthernetModel`] — the paper's quantitative model for
//!   TCP/Gigabit Ethernet (§V.A), parameterised by `β`, `γo`, `γi`;
//! * [`MyrinetModel`] — the paper's descriptive model for Myrinet 2000's
//!   Stop & Go flow control (§V.B), built on exhaustive enumeration of
//!   communication *state sets* (maximal independent sets of the conflict
//!   graph);
//! * [`InfinibandModel`] — **our extension** (the paper leaves the
//!   InfiniBand model as future work), calibrated on the paper's Fig. 2
//!   InfiniHost III measurements;
//! * [`baseline`] — comparison models: a contention-blind LogP/LogGP-style
//!   [`baseline::LinearModel`] and the Kim & Lee max-conflict multiplier
//!   [`baseline::MaxConflictModel`].
//!
//! Models implement [`PenaltyModel`] and are *instantaneous*: they describe
//! rate sharing for a fixed set of in-flight communications. Completion
//! times for whole schemes come from the progressive solver in
//! `netbw-fluid`, which re-evaluates the model as communications finish.
//! When the population evolves by arrivals and departures, the solver uses
//! the stateful batch-delta entry point
//! [`PenaltyModel::penalties_with_scratch`]: each model keeps an opaque
//! per-cache [`scratch`] alive between settles (endpoint indices for the
//! closed-form models, union–find conflict components for Myrinet) and
//! patches only the endpoints ([`incremental`]) or conflict components the
//! change reaches — simultaneous arrival+departure batches included, as
//! chained [`PopulationDelta::Mixed`] deltas — instead of recomputing the
//! whole fabric.
//!
//! # Example
//!
//! ```
//! use netbw_core::{MyrinetModel, PenaltyModel};
//! use netbw_graph::schemes;
//!
//! let model = MyrinetModel::default();
//! let fig5 = schemes::fig5();
//! let p = model.penalties(fig5.comms());
//! // the Fig. 6 table: a,b,c = 5; d,e,f = 2.5
//! assert_eq!(p[0].value(), 5.0);
//! assert_eq!(p[3].value(), 2.5);
//! ```

#![warn(missing_docs)]

pub mod baseline;
pub mod calibrate;
pub mod components;
pub mod gige;
pub mod incremental;
pub mod infiniband;
mod intern;
pub mod model;
pub mod myrinet;
pub mod penalty;
pub mod scratch;
pub mod states;

pub use components::{ComponentChange, ComponentRemoval, ComponentRoot, ComponentTracker};
pub use gige::GigabitEthernetModel;
pub use infiniband::InfinibandModel;
pub use model::{ModelKind, PenaltyModel, PopulationDelta};
pub use myrinet::{MyrinetAnalysis, MyrinetModel};
pub use penalty::Penalty;
pub use scratch::{AffectedSet, ModelScratch, NoScratch, QueryOutcome};
pub use states::StateSetEnumeration;

/// Convenient glob-import of the most used items.
pub mod prelude {
    pub use crate::baseline::{LinearModel, MaxConflictModel};
    pub use crate::components::{ComponentChange, ComponentTracker};
    pub use crate::gige::GigabitEthernetModel;
    pub use crate::infiniband::InfinibandModel;
    pub use crate::model::{ModelKind, PenaltyModel, PopulationDelta};
    pub use crate::myrinet::MyrinetModel;
    pub use crate::penalty::Penalty;
    pub use crate::scratch::{AffectedSet, ModelScratch, QueryOutcome};
}
