//! Opaque, caller-owned model scratch state.
//!
//! The penalty models themselves are shared across threads (`PenaltyModel:
//! Send + Sync`), so they cannot accumulate per-population state — but the
//! incremental patch machinery wants exactly that: GigE and InfiniBand keep
//! an endpoint index alive across settles, Myrinet its union–find conflict
//! components. The solution
//! is to move the state *out* of the model and into whoever issues the
//! queries: a [`ModelScratch`] is created once per penalty cache by
//! [`PenaltyModel::new_scratch`](crate::PenaltyModel::new_scratch), handed
//! back on every
//! [`penalties_with_scratch`](crate::PenaltyModel::penalties_with_scratch)
//! call, and downcast by the owning model to its concrete scratch type.
//! A model must treat an unexpected scratch type as empty — correctness
//! can never depend on what the scratch holds, only speed can.
//!
//! Every query also reports a [`QueryOutcome`], which is how patch
//! behaviour becomes observable: the fluid engine's `CacheStats`
//! distinguishes deltas *offered* from patches *performed*, and counts
//! scratch rebuilds and Myrinet budget fallbacks from these flags.

use std::any::Any;

/// Opaque per-cache scratch state, owned by the query issuer (the fluid
/// engine's `PenaltyCache`) and interpreted only by the model that created
/// it. The blanket impl makes any `Any + Send + Sync + Clone` type usable
/// as a scratch; every scratch is plain data, and `Sync` lets an engine
/// holding one be shared read-only across threads.
pub trait ModelScratch: Any + Send + Sync {
    /// Upcast for downcasting to the concrete scratch type.
    fn as_any(&self) -> &dyn Any;
    /// Mutable upcast for downcasting to the concrete scratch type.
    fn as_any_mut(&mut self) -> &mut dyn Any;
    /// An independent deep copy of the scratch, behaviourally identical to
    /// the original: a copied cache must answer the exact same queries
    /// with the exact same bits. This is what lets a warm `FluidNetwork`
    /// be copied for speculative what-if queries without a rebuild.
    fn clone_box(&self) -> Box<dyn ModelScratch>;
    /// [`clone_box`](Self::clone_box) into an existing scratch, reusing
    /// its allocations. Returns `false`, leaving `target` untouched, when
    /// `target` holds a different concrete type.
    fn clone_into(&self, target: &mut dyn ModelScratch) -> bool;
}

impl<T: Any + Send + Sync + Clone> ModelScratch for T {
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
    fn clone_box(&self) -> Box<dyn ModelScratch> {
        Box::new(self.clone())
    }
    fn clone_into(&self, target: &mut dyn ModelScratch) -> bool {
        match target.as_any_mut().downcast_mut::<T>() {
            Some(t) => {
                t.clone_from(self);
                true
            }
            None => false,
        }
    }
}

// Calls go through `**` throughout: with `Sync` on the trait, the blanket
// impl above also covers `Box<dyn ModelScratch>` and references to it, so
// a method call on the box itself would copy the box, not its contents.
impl Clone for Box<dyn ModelScratch> {
    fn clone(&self) -> Self {
        (**self).clone_box()
    }

    /// Clones in place when `self` holds the same concrete type as
    /// `source`, and falls back to a fresh [`ModelScratch::clone_box`]
    /// otherwise.
    fn clone_from(&mut self, source: &Self) {
        if !(**source).clone_into(&mut **self) {
            *self = (**source).clone_box();
        }
    }
}

/// The scratch of models that keep no state between queries (the
/// baselines, and the default trait implementations).
#[derive(Debug, Default, Clone, Copy)]
pub struct NoScratch;

/// Which positions of the *answered* population may hold a penalty that
/// differs from the flow's previously settled value.
///
/// Patching models report exactly the positions they re-evaluated (every
/// arrival plus the survivors the change's reach touched); all other
/// survivors kept their previous penalty **verbatim** — bitwise, not just
/// numerically — so a caller tracking per-flow derived state (the fluid
/// engine's cached finish times) can skip them entirely. `All` is the
/// conservative answer of full recomputes: any position may have moved.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum AffectedSet {
    /// Any penalty may differ from its previous value (full recompute,
    /// rebuild, or a model without patch support).
    #[default]
    All,
    /// Only these positions (strictly increasing, indexing the new
    /// population) were re-evaluated; every other survivor's penalty is
    /// bitwise identical to its previous settle.
    Positions(Vec<usize>),
}

impl AffectedSet {
    /// The number of re-evaluated positions, or `None` for [`Self::All`].
    pub fn len(&self) -> Option<usize> {
        match self {
            AffectedSet::All => None,
            AffectedSet::Positions(p) => Some(p.len()),
        }
    }

    /// True when the set is `Positions` and names no position at all.
    pub fn is_empty(&self) -> bool {
        matches!(self, AffectedSet::Positions(p) if p.is_empty())
    }
}

/// How a scratch-backed query was answered — the observability half of the
/// scratch machinery.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct QueryOutcome {
    /// The penalties were *patched* in O(affected) from the previous
    /// settle (survivors outside the change's reach kept their values
    /// verbatim). `false` means a full recompute answered the query.
    pub patched: bool,
    /// The model rebuilt (or first built, or re-seeded from the `previous`
    /// hint) its scratch state with a full O(n) pass this query.
    pub scratch_rebuilt: bool,
    /// Some conflict component's state-set enumeration hit its budget
    /// this query and got the max-conflict approximation (Myrinet only;
    /// always `false` for the closed-form models).
    pub budget_fallback: bool,
    /// The positions whose penalty may differ from the previous settle;
    /// everything else was copied bitwise. Drives the fluid engine's
    /// event-timeline re-anchoring, so a patch touching 3 flows re-pushes
    /// 3 heap entries instead of rescanning the population.
    pub affected: AffectedSet,
}

impl QueryOutcome {
    /// An O(affected) patch over warm scratch state: exactly `affected`
    /// positions (strictly increasing, into the new population) were
    /// re-evaluated.
    pub fn patch(affected: Vec<usize>) -> Self {
        QueryOutcome {
            patched: true,
            affected: AffectedSet::Positions(affected),
            ..QueryOutcome::default()
        }
    }

    /// A full recompute that also rebuilt the scratch.
    pub fn rebuild() -> Self {
        QueryOutcome {
            scratch_rebuilt: true,
            affected: AffectedSet::All,
            ..QueryOutcome::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn any_send_type_is_a_scratch() {
        // Downcasting must go through `&dyn ModelScratch` (as the models
        // do) — calling `as_any` on the `Box` itself would upcast the box,
        // not its contents.
        let mut boxed: Box<dyn ModelScratch> = Box::new(42usize);
        assert_eq!(*(*boxed).as_any().downcast_ref::<usize>().unwrap(), 42);
        *(*boxed).as_any_mut().downcast_mut::<usize>().unwrap() += 1;
        assert_eq!(*(*boxed).as_any().downcast_ref::<usize>().unwrap(), 43);
        assert!((*boxed).as_any().downcast_ref::<NoScratch>().is_none());
    }

    #[test]
    fn fork_deep_copies_the_scratch() {
        let boxed: Box<dyn ModelScratch> = Box::new(vec![1u64, 2, 3]);
        let mut copy = boxed.clone();
        (*copy)
            .as_any_mut()
            .downcast_mut::<Vec<u64>>()
            .unwrap()
            .push(4);
        assert_eq!(
            (*boxed).as_any().downcast_ref::<Vec<u64>>().unwrap().len(),
            3,
            "mutating the copy must not touch the original"
        );
        assert_eq!(
            (*copy).as_any().downcast_ref::<Vec<u64>>().unwrap().len(),
            4
        );
    }

    #[test]
    fn clone_into_reuses_on_type_match_and_refuses_on_mismatch() {
        let src: Box<dyn ModelScratch> = Box::new(vec![7u64, 8, 9]);
        let mut tgt: Box<dyn ModelScratch> = Box::new(vec![0u64; 16]);
        assert!(
            (*src).clone_into(&mut *tgt),
            "same concrete type must clone into"
        );
        assert_eq!(
            (*tgt).as_any().downcast_ref::<Vec<u64>>().unwrap(),
            &vec![7u64, 8, 9]
        );
        let mut wrong: Box<dyn ModelScratch> = Box::new(NoScratch);
        assert!(
            !(*src).clone_into(&mut *wrong),
            "a type mismatch must report failure, not panic"
        );
        // `clone_from` falls back to a fresh copy on the mismatch.
        wrong.clone_from(&src);
        assert_eq!(
            (*wrong).as_any().downcast_ref::<Vec<u64>>().unwrap(),
            &vec![7u64, 8, 9]
        );
    }

    #[test]
    fn outcome_constructors() {
        let patch = QueryOutcome::patch(vec![0, 2]);
        assert!(patch.patched);
        assert!(!patch.scratch_rebuilt);
        assert_eq!(patch.affected, AffectedSet::Positions(vec![0, 2]));
        assert!(QueryOutcome::rebuild().scratch_rebuilt);
        assert!(!QueryOutcome::rebuild().patched);
        assert_eq!(QueryOutcome::rebuild().affected, AffectedSet::All);
        assert!(!QueryOutcome::default().budget_fallback);
        assert_eq!(QueryOutcome::default().affected, AffectedSet::All);
    }

    #[test]
    fn affected_set_reports_size_and_emptiness() {
        assert_eq!(AffectedSet::All.len(), None);
        assert!(!AffectedSet::All.is_empty());
        assert_eq!(AffectedSet::Positions(vec![1, 4]).len(), Some(2));
        assert!(AffectedSet::Positions(Vec::new()).is_empty());
    }
}
