//! # bsim-dist — multi-process scale-out
//!
//! Fans the independent cells of a figure or sweep grid across OS
//! processes and survives losing them: `bsim dist --figs` produces the
//! same bytes as the in-process figure path, with kill/respawn,
//! backoff, per-rank circuit breakers and CRC-checked frames on the
//! way.
//!
//! * [`frame`] — the length-prefixed, CRC32-checked binary wire protocol,
//! * [`cells`] — [`cells::WireCell`], the serializable unit of sweep
//!   work a worker process executes,
//! * [`plan`] — the sweep plan a coordinator distributes,
//! * [`launcher`] — spawns workers, distributes the plan, collects
//!   results, and — via [`bsim_resilience::PeerWatchdog`] and the
//!   checkpoint store — respawns and re-plans when a worker process
//!   dies,
//! * [`worker`] — the worker-process entry point (`bsim dist-worker`),
//! * [`faults`] — the process-kill, wire-bitflip and slow-peer survival
//!   scenarios the `bsim faults` matrix appends to the in-process
//!   campaign.

pub mod cells;
pub mod faults;
pub mod frame;
pub mod launcher;
pub mod plan;
pub mod worker;

pub use cells::WireCell;
pub use frame::{Frame, FrameError};
pub use launcher::{LaunchOpts, WorkerSpawn};
pub use plan::PlanSpec;
