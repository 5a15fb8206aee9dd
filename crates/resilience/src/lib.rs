//! # bsim-resilience — runtime robustness for long simulations
//!
//! The paper's FireSim experiments are multi-hour runs where one crashed
//! cell or one corrupted result loses the experiment. `bsim-check`
//! (static analysis) catches misconfigurations *before* cycle 0; this
//! crate defends a run *at runtime*:
//!
//! * [`fault`] — a deterministic, seeded [`FaultPlan`] of link faults the
//!   MPI layer applies to its `NetConfig`, plus the fault vocabulary of
//!   the `bsim faults` survival matrix.
//! * [`snapshot`] — the [`Snapshot`] trait (serde-`Value`-based
//!   save/restore) models and reports implement so runs can be
//!   checkpointed.
//! * [`ckpt`] — the versioned on-disk [`CkptStore`] behind
//!   `bsim fig --resume <ckpt>`.
//! * [`digest`] — the canonical FNV-1a [`content_hash`] that keys both
//!   checkpoint entries and the svc result store.
//! * [`retry`] — [`RetryPolicy`] with exponential backoff and the
//!   [`CellOutcome`] rows resilient sweeps record instead of aborting.
//! * [`guard`] — bsim-guard hardening primitives: the [`crc32`] the
//!   dist wire protocol and svc result store stamp over payloads,
//!   seeded-jittered [`Backoff`], and the per-rank circuit [`Breaker`]
//!   the dist launcher arms against flapping ranks.
//! * [`peers`] — the [`PeerWatchdog`] host-time liveness view the dist
//!   launcher keeps over its worker processes.
//!
//! It holds data types and policies only — the executable fault
//! campaign lives in `bsim-core::campaign`.

pub mod ckpt;
pub mod digest;
pub mod fault;
pub mod guard;
pub mod peers;
pub mod retry;
pub mod snapshot;

pub use ckpt::{CkptStore, CKPT_VERSION};
pub use digest::content_hash;
pub use fault::{FaultEvent, FaultKind, FaultPlan};
pub use guard::{crc32, Backoff, Breaker, BreakerState};
pub use peers::PeerWatchdog;
pub use retry::{CellOutcome, RetryPolicy};
pub use snapshot::{CkptError, Snapshot};
