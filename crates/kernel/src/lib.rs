#![warn(missing_docs)]

//! The simulated router kernel: the paper's system-under-test.
//!
//! This crate wires the machine model (`livelock-machine`), the network
//! substrate (`livelock-net`) and the livelock-avoidance library
//! (`livelock-core`) into the two kernels the paper measures:
//!
//! - the **unmodified 4.2BSD path** (Figure 6-2): receive interrupts at
//!   `SPLIMP` with batching, a bounded `ipintrq`, the IP forwarding layer in
//!   a network software interrupt at `SPLNET`, bounded per-interface output
//!   queues, and transmit-completion interrupts — the design that livelocks;
//! - the **modified path** (§6.4): interrupt stubs that only schedule a
//!   kernel polling thread, round-robin callbacks with packet quotas,
//!   process-to-completion (no `ipintrq`), queue-state feedback around the
//!   screend queue, and the §7 CPU-cycle limiter.
//!
//! Both kernels can route through the user-mode `screend` packet-filter
//! process, and both can host a compute-bound user process for the
//! Figure 7-1 experiment. [`experiment`] runs the paper's trials: flood the
//! router with minimum-size UDP packets at a nominal rate, count packets
//! transmitted on the output wire, and report averaged rates.
//!
//! # Examples
//!
//! ```
//! use livelock_kernel::config::KernelConfig;
//! use livelock_kernel::experiment::{run_trial, TrialSpec};
//!
//! // A light load on the unmodified kernel: no loss, delivery == offer.
//! let spec = TrialSpec {
//!     rate_pps: 500.0,
//!     n_packets: 500,
//!     ..TrialSpec::new(KernelConfig::builder().build())
//! };
//! let r = run_trial(&spec);
//! assert!(r.delivered_pps > 450.0);
//! ```

pub mod config;
pub mod experiment;
pub mod flows;
pub mod par;
pub mod router;
pub mod stats;
pub mod telemetry;

pub use config::{
    ClassifyConfig, FeedbackConfig, KernelConfig, KernelConfigBuilder, Mode, PolledConfig,
    ScreendConfig, Topology,
};
pub use experiment::{
    run_chaos_trial, run_trial, run_trial_traced, sweep, ChaosReport, ClassSummary, CpuStats,
    SweepResult, TrialResult, TrialSpec,
};
pub use flows::{FlowRegistry, FlowStats};
pub use par::{default_jobs, par_map, Parallelism};
pub use router::{tag_label, RouterKernel};
pub use stats::{
    ClassCounters, ClassStats, DropReason, DropStats, FaultStats, KernelStats, LatencyStats, Stage,
};
pub use telemetry::{
    LivelockDetector, ObsEvent, ObsEventKind, ObserveConfig, QueueDepths, TelemetryConfig,
    Timeline, Totals,
};
