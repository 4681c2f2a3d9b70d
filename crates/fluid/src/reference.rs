//! The standalone §IV.B reference engine — the fluid engines' test oracle.
//!
//! [`ReferenceNetwork`] is the paper's progressive algorithm written as
//! directly as it can be: every settle asks the model's full
//! [`PenaltyModel::penalties`] for the whole contending population and
//! re-anchors every flow, and the next completion or latency gate is found
//! by scanning the flow list. It keeps no penalty cache, event heap,
//! shard, slab or model scratch, so a bug in any of those cannot hide in
//! it. It shares only the re-anchor arithmetic (the crate's kinetics
//! helper) with [`crate::FluidNetwork`], which is what lets the equivalence batteries
//! demand bit-for-bit equal completion times and phases.
//!
//! Flows reach the model in arrival order, where the engines use slab-slot
//! order. That is bitwise-safe because no model's penalties depend on the
//! population's order (pinned by the permutation proptests in
//! `netbw-core`'s `model_properties`).
//!
//! It is slow on purpose — a full model query per settle and O(population)
//! scans per event — and exists for the equivalence batteries, the
//! `churn_smoke` guards and the `fluid_incremental` bench.

use crate::kinetics::Kinetics;
use crate::network::{CompletedTransfer, TransferKey, TIME_EPS};
use crate::params::NetworkParams;
use netbw_core::PenaltyModel;
use netbw_graph::Communication;

/// One in-flight transfer of the reference engine.
struct Flow {
    key: TransferKey,
    comm: Communication,
    /// Time at which the flow starts contending (start + latency).
    gate: f64,
    contending: bool,
    kin: Kinetics,
}

/// The §IV.B progressive algorithm with a full model query per settle and
/// linear scans per event: the oracle [`crate::FluidNetwork`] is checked
/// against, with the same `add` / `next_event_time` / `advance_to`
/// contract.
pub struct ReferenceNetwork<M> {
    model: M,
    params: NetworkParams,
    record_phases: bool,
    time: f64,
    /// In-flight transfers, in arrival order.
    flows: Vec<Flow>,
    model_queries: u64,
}

impl<M: PenaltyModel> ReferenceNetwork<M> {
    /// Creates an idle network at time 0.
    pub fn new(model: M, params: NetworkParams) -> Self {
        ReferenceNetwork {
            model,
            params,
            record_phases: false,
            time: 0.0,
            flows: Vec::new(),
            model_queries: 0,
        }
    }

    /// Enables per-transfer penalty-phase recording.
    pub fn with_phase_recording(mut self) -> Self {
        self.record_phases = true;
        self
    }

    /// Model queries so far: one per settle, i.e. per
    /// [`Self::next_event_time`] call and per event of [`Self::advance_to`].
    pub fn model_queries(&self) -> u64 {
        self.model_queries
    }

    /// Starts a transfer at `start`.
    ///
    /// # Panics
    /// If `start` is not finite or before the current time.
    pub fn add(&mut self, key: TransferKey, comm: Communication, start: f64) {
        assert!(start.is_finite(), "start time must be finite");
        assert!(
            start >= self.time - 1e-12,
            "transfer starts at {start} but network time is already {}",
            self.time
        );
        let gate = start.max(self.time) + self.params.latency;
        self.flows.push(Flow {
            key,
            comm,
            gate,
            contending: gate <= self.time + TIME_EPS,
            kin: Kinetics::new(gate, comm.size),
        });
    }

    /// Queries the model for the whole contending population and
    /// re-anchors every contending flow at the current time.
    fn settle(&mut self) {
        let comms: Vec<Communication> = self
            .flows
            .iter()
            .filter(|f| f.contending)
            .map(|f| f.comm)
            .collect();
        let penalties = self.model.penalties(&comms);
        self.model_queries += 1;
        let contending = self.flows.iter_mut().filter(|f| f.contending);
        for (flow, penalty) in contending.zip(penalties) {
            flow.kin
                .resync(&self.params, self.record_phases, self.time, penalty);
        }
    }

    /// The earliest cached finish of a contending flow or gate of a waiting
    /// one, by scanning.
    fn next_event(&self) -> Option<f64> {
        self.flows
            .iter()
            .map(|f| if f.contending { f.kin.finish } else { f.gate })
            .min_by(f64::total_cmp)
    }

    /// The next instant at which the network state changes (a gate opens or
    /// a transfer completes), or `None` when idle.
    pub fn next_event_time(&mut self) -> Option<f64> {
        if self.flows.is_empty() {
            return None;
        }
        self.settle();
        self.next_event()
    }

    /// Advances the clock to `t`, returning every transfer that completed
    /// in `(current time, t]`, each instant's batch sorted by key.
    ///
    /// # Panics
    /// If `t` is before the current time.
    pub fn advance_to(&mut self, t: f64) -> Vec<CompletedTransfer> {
        assert!(
            t >= self.time - 1e-12,
            "cannot advance backwards ({} -> {t})",
            self.time
        );
        let mut done = Vec::new();
        loop {
            self.settle();
            let event = self.next_event().filter(|&e| e <= t);
            self.time = self.time.max(event.unwrap_or(t));
            let now = self.time;
            for flow in &mut self.flows {
                if !flow.contending && flow.gate <= now + TIME_EPS {
                    flow.contending = true;
                }
            }
            let batch_start = done.len();
            let record_phases = self.record_phases;
            self.flows.retain_mut(|flow| {
                let due = flow.contending && flow.kin.finish <= now;
                if due {
                    done.push(CompletedTransfer {
                        key: flow.key,
                        completion: now,
                        phases: flow.kin.complete(record_phases, now),
                    });
                }
                !due
            });
            done[batch_start..].sort_by_key(|c| c.key);
            if event.is_none() {
                return done;
            }
        }
    }

    /// Drains the network: advances until every transfer completes.
    pub fn run_to_completion(&mut self) -> Vec<CompletedTransfer> {
        let mut done = Vec::new();
        while let Some(t) = self.next_event_time() {
            done.extend(self.advance_to(t));
        }
        done
    }
}
