//! Cooperative cancellation: a cheap, cloneable token threaded from the
//! service layer down through branch-and-bound and the simplex pivot
//! loops.
//!
//! A [`Cancel`] is a shared flag plus an optional wall-clock deadline.
//! Long-running loops *poll* it at amortized points ([`Cancel::is_set`] is
//! one relaxed atomic load; [`Cancel::cancelled`] adds a clock read and
//! should be called every few dozen iterations, not per iteration) and
//! unwind cooperatively: solvers return their best incumbent with
//! `proven_optimal: false` instead of failing, the engine keeps its
//! scratch reusable, and the service layer turns the expiry into a typed
//! `timeout` response.
//!
//! The token never expires by default ([`Cancel::new`]), so call sites can
//! thread it unconditionally. For deterministic interruption in tests
//! there is a poll-countdown mode ([`Cancel::after_polls`]) that trips
//! after a fixed number of [`Cancel::cancelled`] observations, independent
//! of wall time.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Debug)]
struct Inner {
    flag: AtomicBool,
    deadline: Option<Instant>,
    /// Remaining [`Cancel::cancelled`] polls before the token trips on its
    /// own; `u64::MAX` disables the countdown (the normal mode).
    polls_left: AtomicU64,
}

/// A shared cancellation token: explicit flag + optional deadline.
///
/// Clones share one underlying state — cancelling any clone cancels them
/// all. The default token never cancels.
///
/// ```
/// use rs_lp::Cancel;
///
/// let c = Cancel::new();
/// assert!(!c.cancelled());
/// c.cancel();
/// assert!(c.is_set() && c.cancelled());
/// ```
#[derive(Clone, Debug)]
pub struct Cancel {
    inner: Arc<Inner>,
}

impl Default for Cancel {
    fn default() -> Self {
        Self::new()
    }
}

impl Cancel {
    fn with_inner(deadline: Option<Instant>, polls: u64) -> Self {
        Cancel {
            inner: Arc::new(Inner {
                flag: AtomicBool::new(false),
                deadline,
                polls_left: AtomicU64::new(polls),
            }),
        }
    }

    /// A token that never cancels on its own (it can still be
    /// [`Cancel::cancel`]led explicitly).
    pub fn new() -> Self {
        Self::with_inner(None, u64::MAX)
    }

    /// A token that trips once the wall clock passes `deadline`.
    pub fn with_deadline(deadline: Instant) -> Self {
        Self::with_inner(Some(deadline), u64::MAX)
    }

    /// A token that trips `timeout` from now.
    pub fn after(timeout: Duration) -> Self {
        Self::with_deadline(Instant::now() + timeout)
    }

    /// A token that trips after `polls` calls to [`Cancel::cancelled`] —
    /// deterministic interruption for tests and the fault-injection
    /// harness, independent of machine speed.
    pub fn after_polls(polls: u64) -> Self {
        Self::with_inner(None, polls)
    }

    /// Trips the token explicitly (idempotent).
    pub fn cancel(&self) {
        self.inner.flag.store(true, Ordering::Relaxed);
    }

    /// The wall-clock deadline, when one was set.
    pub fn deadline(&self) -> Option<Instant> {
        self.inner.deadline
    }

    /// Whether the token has been *observed* tripped: set explicitly, or
    /// latched by an earlier poll that saw the deadline pass. One relaxed
    /// atomic load — safe in per-iteration hot loops.
    pub fn is_set(&self) -> bool {
        self.inner.flag.load(Ordering::Relaxed)
    }

    /// Flag or deadline, without counting a poll: the in-loop sample of
    /// the simplex pivot loops. A passed deadline latches the flag, as in
    /// [`Cancel::cancelled`]; the [`Cancel::after_polls`] countdown is left
    /// to the round-boundary polls, so its trip points do not depend on how
    /// many pivots a round takes.
    pub(crate) fn expired(&self) -> bool {
        if self.is_set() {
            return true;
        }
        if self.inner.deadline.is_some_and(|dl| Instant::now() >= dl) {
            self.cancel();
            return true;
        }
        false
    }

    /// Full poll: flag, deadline, and the test-mode poll countdown. Once
    /// any source trips, the flag latches so later [`Cancel::is_set`]
    /// checks observe it without re-reading the clock.
    pub fn cancelled(&self) -> bool {
        if self.expired() {
            return true;
        }
        let polls = &self.inner.polls_left;
        if polls.load(Ordering::Relaxed) != u64::MAX {
            // Count the poll down; the transition 1 -> 0 trips the token.
            let prev = polls.fetch_sub(1, Ordering::Relaxed);
            if prev <= 1 {
                polls.store(0, Ordering::Relaxed);
                self.cancel();
                return true;
            }
        }
        false
    }
}

/// The earlier of two optional deadlines — how callers merge a request
/// deadline with a solver-local time limit.
pub fn min_deadline(a: Option<Instant>, b: Option<Instant>) -> Option<Instant> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (x, None) | (None, x) => x,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_token_never_cancels() {
        let c = Cancel::new();
        for _ in 0..1000 {
            assert!(!c.cancelled());
        }
        assert!(!c.is_set());
    }

    #[test]
    fn explicit_cancel_is_shared_across_clones() {
        let c = Cancel::new();
        let c2 = c.clone();
        c2.cancel();
        assert!(c.is_set());
        assert!(c.cancelled());
    }

    #[test]
    fn expired_deadline_latches_the_flag() {
        let c = Cancel::with_deadline(Instant::now() - Duration::from_millis(1));
        assert!(!c.is_set(), "deadline alone does not set the flag");
        assert!(c.cancelled());
        assert!(c.is_set(), "a cancelled() observation latches");
    }

    #[test]
    fn expired_sees_the_deadline_but_leaves_the_countdown() {
        let c = Cancel::with_deadline(Instant::now() - Duration::from_millis(1));
        assert!(c.expired());
        assert!(c.is_set(), "an expired() observation latches");

        let c = Cancel::after_polls(1);
        for _ in 0..10 {
            assert!(!c.expired(), "expired() never counts a poll");
        }
        assert!(c.cancelled(), "the first full poll still trips");
    }

    #[test]
    fn poll_countdown_trips_deterministically() {
        let c = Cancel::after_polls(3);
        assert!(!c.cancelled());
        assert!(!c.cancelled());
        assert!(c.cancelled(), "third poll trips");
        assert!(c.cancelled(), "stays tripped");
        assert!(c.is_set());
    }

    #[test]
    fn zero_polls_trips_immediately() {
        let c = Cancel::after_polls(0);
        assert!(c.cancelled());
    }

    #[test]
    fn min_deadline_picks_the_earlier() {
        let now = Instant::now();
        let a = now + Duration::from_secs(1);
        let b = now + Duration::from_secs(2);
        assert_eq!(min_deadline(Some(a), Some(b)), Some(a));
        assert_eq!(min_deadline(None, Some(b)), Some(b));
        assert_eq!(min_deadline(None, None), None);
    }
}
