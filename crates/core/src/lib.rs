#![warn(missing_docs)]

//! The paper's contribution as a reusable library: scheduling mechanisms
//! that eliminate receive livelock in interrupt-driven systems.
//!
//! Mogul & Ramakrishnan (USENIX 1996) avoid livelock by:
//!
//! - **using interrupts only to initiate polling** — the [`gate`] module's
//!   [`gate::IntrGate`] tracks every reason input is inhibited and
//!   decides when device interrupts may be re-enabled;
//! - **round-robin polling with packet quotas** — [`poller`] implements the
//!   fair scheduler the kernel's polling thread runs, alternating between
//!   receive and transmit work across all registered devices;
//! - **queue-state feedback** — [`feedback`] is the hysteresis controller
//!   that inhibits input when a downstream queue (e.g. to `screend`) passes
//!   its high-water mark and resumes at the low-water mark, with the paper's
//!   one-clock-tick timeout as a safety net;
//! - **explicit CPU-cycle limits** — [`cycle_limit`] measures the fraction
//!   of each period spent processing packets and inhibits input past a
//!   threshold, guaranteeing progress for user-level processes (paper §7);
//! - **interrupt rate limiting** — [`rate_limit`] implements §5.1's
//!   "limiting the interrupt arrival rate" as a token bucket (kept
//!   separate because, as the paper stresses, it bounds saturation but
//!   cannot by itself guarantee progress);
//! - **analysis** — [`analysis`] computes the Maximum Loss Free Receive
//!   Rate (MLFRR) and detects livelock in rate-sweep results.
//!
//! The library is simulation-agnostic: it contains no clocks, no I/O, and no
//! device model. The `livelock-kernel` crate assembles the mechanisms into
//! the paper's polling protocol (`kernel::router::polled`) and drives them
//! from a simulated kernel; [`watchdog::GateWatchdog`] un-wedges the shared
//! gate when fault injection kills a mechanism mid-inhibit.

pub mod analysis;
pub mod cycle_limit;
pub mod feedback;
pub mod gate;
pub mod poller;
pub mod rate_limit;
pub mod watchdog;

pub use analysis::{mlfrr, LivelockVerdict, SweepPoint};
pub use cycle_limit::{CycleLimiter, LimiterDecision};
pub use feedback::{FeedbackSignal, WatermarkFeedback};
pub use gate::{InhibitReason, IntrGate};
pub use poller::{PollAction, PollDirection, Poller, Quota, SourceId};
pub use rate_limit::IntrRateLimiter;
pub use watchdog::GateWatchdog;
