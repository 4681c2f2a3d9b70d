//! Anchored transfer kinetics: the re-anchor arithmetic every fluid
//! engine shares.
//!
//! Between rate changes a flow drains linearly, so `remaining` (bytes
//! left *at* `anchor`) plus `rate` determine its whole future — including
//! the cached absolute `finish` time. Progress is materialized only when
//! the rate actually changes (a re-anchor), never per time step. Both
//! [`crate::FluidNetwork`] and [`crate::ReferenceNetwork`] go through this
//! one piece of arithmetic, which is why their completion times can be
//! compared bit for bit.

use crate::params::NetworkParams;
use crate::solver::Phase;
use netbw_core::Penalty;

/// Relative epsilon under which a transfer's remaining bytes count as zero.
const REL_EPS: f64 = 1e-9;

/// One transfer's anchored kinetics and (optional) penalty history.
#[derive(Debug, Clone)]
pub(crate) struct Kinetics {
    /// Time of the last rate change; `remaining` is measured here.
    anchor: f64,
    /// Bytes left at `anchor`.
    remaining: f64,
    /// Current drain rate (bandwidth × 1/penalty); 0 until the first
    /// settle after the gate opens.
    rate: f64,
    /// Current penalty value (recorded into phases on re-anchor).
    penalty: f64,
    /// Cached absolute finish time at the current rate; `INFINITY` until
    /// the flow is first anchored.
    pub(crate) finish: f64,
    eps: f64,
    phases: Vec<Phase>,
}

impl Kinetics {
    /// A `size`-byte transfer that starts draining at `gate`.
    pub(crate) fn new(gate: f64, size: u64) -> Self {
        let size = size as f64;
        Kinetics {
            anchor: gate,
            remaining: size,
            rate: 0.0,
            penalty: 1.0,
            finish: f64::INFINITY,
            eps: (size * REL_EPS).max(1e-9),
            phases: Vec::new(),
        }
    }

    /// Re-anchors at `now` under `penalty`: if the rate changed,
    /// materializes progress since the previous anchor, records the closed
    /// phase and refreshes the cached finish time, returning it. A
    /// bitwise-unchanged rate leaves the flow untouched (`None`) — its
    /// cached finish is still exact, which is why engines may skip the
    /// flows a model reports as unaffected.
    pub(crate) fn resync(
        &mut self,
        params: &NetworkParams,
        record_phases: bool,
        now: f64,
        penalty: Penalty,
    ) -> Option<f64> {
        let new_rate = params.bandwidth * penalty.rate();
        if self.rate == new_rate {
            return None;
        }
        if record_phases && self.rate > 0.0 && now > self.anchor {
            push_phase(&mut self.phases, self.anchor, now, self.penalty);
        }
        self.remaining -= self.rate * (now - self.anchor);
        self.anchor = now;
        self.rate = new_rate;
        self.penalty = penalty.value();
        self.finish = clamped_finish(now, self.remaining, new_rate, self.eps);
        Some(self.finish)
    }

    /// Completes the transfer at `now`, closing its last phase, and hands
    /// back the penalty history (empty unless `record_phases`).
    pub(crate) fn complete(&mut self, record_phases: bool, now: f64) -> Vec<Phase> {
        if record_phases && self.rate > 0.0 && now > self.anchor {
            push_phase(&mut self.phases, self.anchor, now, self.penalty);
        }
        debug_assert!(
            self.remaining - self.rate * (now - self.anchor) <= self.eps,
            "transfer completed at {now} with bytes left"
        );
        std::mem::take(&mut self.phases)
    }
}

/// A flow's cached absolute finish time, clamped so it can never point
/// into the past: degenerate inputs (zero-size transfers, float drift
/// driving `remaining` slightly negative, or a NaN escaping the division)
/// all collapse to "finishes now".
pub(crate) fn clamped_finish(now: f64, remaining: f64, rate: f64, eps: f64) -> f64 {
    let finish = if remaining <= eps {
        now
    } else {
        now + remaining / rate
    };
    // `!(finish >= now)` also catches NaN.
    if finish >= now {
        finish
    } else {
        now
    }
}

/// Appends a phase, merging with the previous one when the penalty is
/// unchanged (keeps histories compact across artificial event boundaries).
fn push_phase(phases: &mut Vec<Phase>, t0: f64, t1: f64, penalty: f64) {
    if let Some(last) = phases.last_mut() {
        if (last.penalty - penalty).abs() < 1e-12 && (last.t1 - t0).abs() < 1e-12 {
            last.t1 = t1;
            return;
        }
    }
    phases.push(Phase { t0, t1, penalty });
}
