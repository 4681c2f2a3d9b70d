//! Opaque, caller-owned model scratch state.
//!
//! The penalty models themselves are shared across threads (`PenaltyModel:
//! Send + Sync`), so they cannot accumulate per-population state — but the
//! keyed entry point wants exactly that: each model keeps the population
//! it answers for, keyed by flow id, plus what it patches from (an
//! endpoint index for GigE and InfiniBand, conflict components for
//! Myrinet). The solution is to move the state *out* of the model and into
//! whoever issues the queries: a [`ModelScratch`] is created once per
//! penalty cache by
//! [`PenaltyModel::new_scratch`](crate::PenaltyModel::new_scratch), handed
//! back on every
//! [`apply_delta`](crate::PenaltyModel::apply_delta) call, and downcast by
//! the owning model to its concrete scratch type. The scratch *is* the
//! population, so handing a model a scratch it did not create is a caller
//! bug, and panics.
//!
//! Every query also reports a [`QueryOutcome`], which is how patch
//! behaviour becomes observable: the fluid engine's `CacheStats`
//! distinguishes warm deltas *offered* from patches *performed*, and
//! counts scratch rebuilds and Myrinet budget fallbacks from these flags.

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

/// How a keyed query was answered — the observability half of the scratch
/// machinery.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueryOutcome {
    /// The penalties were *patched* in O(changed + reach) from the
    /// previous settle: only the flows the change reaches were answered.
    /// `false` means every member was answered.
    pub patched: bool,
    /// The model (re)built its scratch state with a full O(n) pass this
    /// query — a fresh settle.
    pub scratch_rebuilt: bool,
    /// Some conflict component's state-set enumeration hit its budget
    /// this query and got the max-conflict approximation (Myrinet only;
    /// always `false` for the closed-form models).
    pub budget_fallback: bool,
}

impl QueryOutcome {
    /// An O(changed + reach) patch over warm scratch state.
    pub fn patch() -> Self {
        QueryOutcome {
            patched: true,
            ..QueryOutcome::default()
        }
    }

    /// A full evaluation that (re)built the scratch.
    pub fn rebuild() -> Self {
        QueryOutcome {
            scratch_rebuilt: true,
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
        assert!((*boxed).as_any().downcast_ref::<()>().is_none());
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
        let mut wrong: Box<dyn ModelScratch> = Box::new(());
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
        let patch = QueryOutcome::patch();
        assert!(patch.patched);
        assert!(!patch.scratch_rebuilt);
        assert!(QueryOutcome::rebuild().scratch_rebuilt);
        assert!(!QueryOutcome::rebuild().patched);
        assert!(!QueryOutcome::default().budget_fallback);
    }
}
