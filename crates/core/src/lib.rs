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
//! the keyed entry point [`PenaltyModel::apply_delta`]: each model keeps
//! the population in an opaque per-cache [`scratch`] between settles,
//! keyed by [`FlowId`], together with what it patches from (endpoint
//! indices for the closed-form models, conflict components for Myrinet).
//! A [`PopulationDelta`] hands it only the ids that left and the flows
//! that joined, and the model answers `(id, penalty)` for exactly the
//! flows the change reaches — through the endpoints ([`incremental`]) or
//! conflict components it touches — instead of recomputing the whole
//! fabric. The stateless [`PenaltyModel::penalties`] stays the reference
//! the keyed answers equal bit for bit.
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
pub use model::{FlowId, ModelKind, PenaltyModel, PopulationDelta};
pub use myrinet::{MyrinetAnalysis, MyrinetModel};
pub use penalty::Penalty;
pub use scratch::{ModelScratch, QueryOutcome};
pub use states::StateSetEnumeration;

/// Convenient glob-import of the most used items.
pub mod prelude {
    pub use crate::baseline::{LinearModel, MaxConflictModel};
    pub use crate::components::{ComponentChange, ComponentTracker};
    pub use crate::gige::GigabitEthernetModel;
    pub use crate::infiniband::InfinibandModel;
    pub use crate::model::{FlowId, ModelKind, PenaltyModel, PopulationDelta};
    pub use crate::myrinet::MyrinetModel;
    pub use crate::penalty::Penalty;
    pub use crate::scratch::{ModelScratch, QueryOutcome};
}
