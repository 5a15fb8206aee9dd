//! Per-cell retry with exponential backoff.
//!
//! Long sweeps run dozens of independent cells; one poisoned cell (a
//! model panic, an MPI deadlock teardown) should not abort the figure. A
//! [`RetryPolicy`] re-runs a failing cell a bounded number of times
//! with exponential host-time backoff, and the sweep records a
//! [`CellOutcome`] row — either the value or a typed
//! [`CellOutcome::Failed`] diagnostic — instead of unwinding.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

/// Ceiling on any single retry backoff. Geometric growth with an
/// aggressive factor can otherwise reach minutes within a handful of
/// attempts; no transient host condition is worth waiting longer than
/// this for (`GD003` lints configurations that dodge the cap).
pub const BACKOFF_CAP_MS: u64 = 10_000;

/// Bounded retry with exponential backoff.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts (first try included). `1` means no retry.
    pub max_attempts: u32,
    /// Host-time sleep before the second attempt.
    pub base_backoff_ms: u64,
    /// Backoff multiplier per further attempt.
    pub factor: u32,
}

impl Default for RetryPolicy {
    /// Three attempts, 50 ms then 200 ms between them — enough to ride
    /// out transient host contention without stretching a sweep.
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 3,
            base_backoff_ms: 50,
            factor: 4,
        }
    }
}

impl RetryPolicy {
    /// A single attempt, no backoff: resilient bookkeeping without
    /// retry semantics (used by tests and `--no-retry` style callers).
    pub fn once() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            base_backoff_ms: 0,
            factor: 1,
        }
    }

    /// Backoff slept *after* failed attempt `attempt` (1-based).
    pub fn backoff_after(&self, attempt: u32) -> Duration {
        if attempt >= self.max_attempts {
            return Duration::ZERO; // no further attempt follows
        }
        let mult = self.factor.saturating_pow(attempt.saturating_sub(1)) as u64;
        Duration::from_millis(
            self.base_backoff_ms
                .saturating_mul(mult)
                .min(BACKOFF_CAP_MS),
        )
    }

    /// Run `cell`, retrying on panic. Panics are contained with
    /// `catch_unwind` and rendered into the failure diagnostic; the
    /// value and the number of attempts used are returned on success.
    ///
    /// The closure must be re-runnable from scratch — cells in this
    /// workspace rebuild their whole `Soc`/`MpiWorld` per call, so a
    /// retry observes no state from the failed attempt.
    pub fn run<T>(&self, mut cell: impl FnMut() -> T) -> CellOutcome<T> {
        let attempts = self.max_attempts.max(1);
        let mut last_diag = String::new();
        for attempt in 1..=attempts {
            match catch_unwind(AssertUnwindSafe(&mut cell)) {
                Ok(value) => {
                    return CellOutcome::Ok {
                        value,
                        attempts: attempt,
                    }
                }
                Err(payload) => {
                    last_diag = panic_message(payload.as_ref());
                    let backoff = self.backoff_after(attempt);
                    if !backoff.is_zero() {
                        std::thread::sleep(backoff);
                    }
                }
            }
        }
        CellOutcome::Failed {
            diag: last_diag,
            attempts,
        }
    }
}

/// Render a panic payload the way the runtime would print it.
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        String::from("non-string panic payload")
    }
}

/// What a resilient sweep records for one cell.
#[derive(Clone, Debug, PartialEq)]
pub enum CellOutcome<T> {
    /// The cell produced a value (possibly after retries).
    Ok {
        /// The cell's result.
        value: T,
        /// Attempts consumed, `1` = first try succeeded.
        attempts: u32,
    },
    /// Every attempt failed; the sweep degrades instead of aborting.
    Failed {
        /// Diagnostic from the last attempt (panic message or stall
        /// report rendering).
        diag: String,
        /// Attempts consumed.
        attempts: u32,
    },
}

impl<T> CellOutcome<T> {
    pub fn is_ok(&self) -> bool {
        matches!(self, CellOutcome::Ok { .. })
    }

    /// Attempts beyond the first, i.e. what `host.resilience.retries`
    /// counts.
    pub fn retries(&self) -> u32 {
        match self {
            CellOutcome::Ok { attempts, .. } | CellOutcome::Failed { attempts, .. } => {
                attempts.saturating_sub(1)
            }
        }
    }

    /// Borrow the value if the cell succeeded.
    pub fn value(&self) -> Option<&T> {
        match self {
            CellOutcome::Ok { value, .. } => Some(value),
            CellOutcome::Failed { .. } => None,
        }
    }

    /// Consume into the value if the cell succeeded.
    pub fn into_value(self) -> Option<T> {
        match self {
            CellOutcome::Ok { value, .. } => Some(value),
            CellOutcome::Failed { .. } => None,
        }
    }

    /// Borrow the diagnostic if the cell failed.
    pub fn diag(&self) -> Option<&str> {
        match self {
            CellOutcome::Failed { diag, .. } => Some(diag),
            CellOutcome::Ok { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    #[test]
    fn first_try_success_uses_one_attempt() {
        let out = RetryPolicy::default().run(|| 42u64);
        assert_eq!(
            out,
            CellOutcome::Ok {
                value: 42,
                attempts: 1
            }
        );
        assert_eq!(out.retries(), 0);
        assert_eq!(out.value(), Some(&42));
    }

    #[test]
    fn transient_panic_is_retried_to_success() {
        let calls = AtomicU32::new(0);
        let policy = RetryPolicy {
            max_attempts: 3,
            base_backoff_ms: 0,
            factor: 1,
        };
        let out = policy.run(|| {
            if calls.fetch_add(1, Ordering::Relaxed) < 2 {
                panic!("transient host hiccup");
            }
            7u64
        });
        assert_eq!(
            out,
            CellOutcome::Ok {
                value: 7,
                attempts: 3
            }
        );
        assert_eq!(out.retries(), 2);
    }

    #[test]
    fn persistent_panic_degrades_to_failed_with_diag() {
        let policy = RetryPolicy {
            max_attempts: 2,
            base_backoff_ms: 0,
            factor: 1,
        };
        let out: CellOutcome<u64> = policy.run(|| panic!("cell poisoned at cycle {}", 99));
        match &out {
            CellOutcome::Failed { diag, attempts } => {
                assert_eq!(*attempts, 2);
                assert!(diag.contains("cell poisoned at cycle 99"));
            }
            other => panic!("expected Failed, got {other:?}"),
        }
        assert_eq!(out.retries(), 1);
        assert!(out.value().is_none());
        assert!(out.diag().unwrap().contains("poisoned"));
    }

    #[test]
    fn backoff_grows_geometrically_and_stops_at_the_last_attempt() {
        let policy = RetryPolicy {
            max_attempts: 4,
            base_backoff_ms: 10,
            factor: 3,
        };
        assert_eq!(policy.backoff_after(1), Duration::from_millis(10));
        assert_eq!(policy.backoff_after(2), Duration::from_millis(30));
        assert_eq!(policy.backoff_after(3), Duration::from_millis(90));
        assert_eq!(policy.backoff_after(4), Duration::ZERO);
        assert_eq!(RetryPolicy::once().backoff_after(1), Duration::ZERO);
        // Runaway growth clamps at the cap instead of sleeping minutes.
        let runaway = RetryPolicy {
            max_attempts: 10,
            base_backoff_ms: 1000,
            factor: 100,
        };
        assert_eq!(
            runaway.backoff_after(5),
            Duration::from_millis(BACKOFF_CAP_MS)
        );
    }
}
