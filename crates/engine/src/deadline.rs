//! Request deadlines: a cooperative time budget threaded through the
//! pipeline.
//!
//! A [`Deadline`] is an absolute point in time after which a request's
//! caller no longer wants the answer. The engine does not preempt work —
//! an extraction that has started runs to completion (and still populates
//! the template cache, so the time is not wasted) — but every stage
//! boundary *checks* the budget and fails fast with
//! [`EngineError::DeadlineExceeded`] instead of starting work whose result
//! nobody will read. Crucially, a coalesced waiter parked on another
//! thread's in-flight compilation waits **at most** until its deadline and
//! then detaches ([`crate::SingleFlight::run`]), so a slow
//! leader can never hold a bounded request hostage.
//!
//! `Deadline` is `Copy` and absolute, so one value can be handed to every
//! stage (and every bind of a sweep) without re-arithmetic: the budget is
//! shared, not per-stage.

use std::time::Duration;

use crate::error::EngineError;
use crate::sync::Instant;

/// An absolute time budget for one request. [`Deadline::none`] (the
/// default) never expires; every undated engine entry point uses it.
///
/// # Examples
///
/// ```
/// use std::time::Duration;
/// use quclear_engine::Deadline;
///
/// let unbounded = Deadline::none();
/// assert!(!unbounded.expired());
/// assert!(unbounded.check().is_ok());
///
/// let tight = Deadline::within(Duration::ZERO);
/// assert!(tight.expired());
/// assert!(tight.check().is_err());
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Deadline {
    at: Option<Instant>,
}

impl Deadline {
    /// A deadline that never expires.
    #[must_use]
    pub const fn none() -> Self {
        Deadline { at: None }
    }

    /// A deadline `budget` from now. A budget that reaches past the last
    /// representable instant (e.g. [`Duration::MAX`]) never expires, like
    /// [`Deadline::none`].
    #[must_use]
    pub fn within(budget: Duration) -> Self {
        Deadline {
            at: Instant::now().checked_add(budget),
        }
    }

    /// A deadline at an absolute instant (e.g. one computed when a request
    /// frame arrived, shared across its pipeline stages).
    #[must_use]
    pub const fn at(instant: Instant) -> Self {
        Deadline { at: Some(instant) }
    }

    /// The absolute expiry instant, or `None` for an unbounded deadline.
    #[must_use]
    pub const fn instant(&self) -> Option<Instant> {
        self.at
    }

    /// Whether the budget is spent. An unbounded deadline never expires.
    #[must_use]
    pub fn expired(&self) -> bool {
        self.at.is_some_and(|at| Instant::now() >= at)
    }

    /// The cooperative stage-boundary check: `Ok` while budget remains,
    /// [`EngineError::DeadlineExceeded`] once it is spent.
    ///
    /// # Errors
    ///
    /// [`EngineError::DeadlineExceeded`] when the deadline has passed.
    pub fn check(&self) -> Result<(), EngineError> {
        if self.expired() {
            Err(EngineError::DeadlineExceeded)
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_never_expires() {
        let d = Deadline::none();
        assert!(!d.expired());
        assert_eq!(d.instant(), None);
        d.check().unwrap();
        assert_eq!(Deadline::default(), Deadline::none());
    }

    #[test]
    fn zero_budget_expires_immediately() {
        let d = Deadline::within(Duration::ZERO);
        assert!(d.expired());
        assert_eq!(d.check(), Err(EngineError::DeadlineExceeded));
    }

    #[test]
    fn generous_budget_has_time_remaining() {
        let d = Deadline::within(Duration::from_secs(3600));
        assert!(!d.expired());
        let left = d
            .instant()
            .unwrap()
            .saturating_duration_since(Instant::now());
        assert!(left > Duration::from_secs(3500));
        d.check().unwrap();
    }

    #[test]
    fn unrepresentable_budget_never_expires() {
        let d = Deadline::within(Duration::MAX);
        assert!(!d.expired());
        assert_eq!(d, Deadline::none());
        d.check().unwrap();
    }

    #[test]
    fn absolute_deadlines_are_shared_state() {
        let at = Instant::now() + Duration::from_secs(10);
        let a = Deadline::at(at);
        let b = a; // Copy: one budget, many stages
        assert_eq!(a.instant(), b.instant());
    }
}
