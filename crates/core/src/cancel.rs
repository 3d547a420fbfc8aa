//! Cooperative cancellation for long-running solves.
//!
//! Resilience is NP-hard outside the tractable classes, so an exact search
//! can run essentially forever on hostile inputs. A [`CancelToken`] is a
//! cheap shared flag (atomic + optional wall-clock deadline) that the
//! solve paths poll at bounded intervals — the exact branch-and-bound loop,
//! witness enumeration, every flow construction's network build and
//! Dinic's augmentation loop (cold solves, warm session re-solves and the
//! Section 8 special flows alike) and the batch dispatchers all check it —
//! and abort with
//! [`SolveError::Cancelled`](crate::engine::SolveError::Cancelled), carrying
//! whatever anytime bounds the search had established.
//!
//! ```
//! use resilience_core::cancel::CancelToken;
//! use std::time::Duration;
//!
//! let token = CancelToken::with_deadline(Duration::from_millis(250));
//! assert!(!token.is_cancelled());
//! token.cancel();
//! assert!(token.is_cancelled());
//! ```

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Debug)]
struct Inner {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
}

/// A shared cancellation flag with an optional deadline.
///
/// Cloning shares the flag: cancelling any clone cancels them all. Polling
/// is one relaxed atomic load plus (when a deadline is set) one clock read,
/// so callers poll at bounded intervals — e.g. every 1024 branch-and-bound
/// nodes — to keep the happy-path overhead negligible.
///
/// Tokens compare by *identity* (two tokens are equal iff they share the
/// same flag), which keeps `SolveOptions` comparable: a session replays a
/// cached report only when the options — including the token — are the very
/// same, so a fresh per-request deadline never replays a stale result.
#[derive(Clone, Debug)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl CancelToken {
    /// A token with no deadline: cancels only via [`CancelToken::cancel`].
    pub fn new() -> Self {
        CancelToken {
            inner: Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                deadline: None,
            }),
        }
    }

    /// A token that auto-cancels once `timeout` has elapsed (measured from
    /// this call). [`CancelToken::cancel`] still works before the deadline.
    pub fn with_deadline(timeout: Duration) -> Self {
        CancelToken {
            inner: Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                deadline: Some(Instant::now() + timeout),
            }),
        }
    }

    /// Requests cancellation. Idempotent; visible to every clone.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Relaxed);
    }

    /// Whether the token has been cancelled or its deadline has passed.
    pub fn is_cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::Relaxed)
            || self
                .inner
                .deadline
                .is_some_and(|deadline| Instant::now() >= deadline)
    }

    /// The deadline, when one was set at construction.
    pub fn deadline(&self) -> Option<Instant> {
        self.inner.deadline
    }
}

impl Default for CancelToken {
    fn default() -> Self {
        Self::new()
    }
}

impl PartialEq for CancelToken {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }
}

impl Eq for CancelToken {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cancel_is_shared_across_clones() {
        let a = CancelToken::new();
        let b = a.clone();
        assert!(!b.is_cancelled());
        a.cancel();
        assert!(b.is_cancelled());
    }

    #[test]
    fn deadline_expires() {
        let t = CancelToken::with_deadline(Duration::from_millis(0));
        assert!(t.is_cancelled());
        let far = CancelToken::with_deadline(Duration::from_secs(3600));
        assert!(!far.is_cancelled());
        assert!(far.deadline().is_some());
    }

    #[test]
    fn tokens_compare_by_identity() {
        let a = CancelToken::new();
        let b = a.clone();
        let c = CancelToken::new();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
