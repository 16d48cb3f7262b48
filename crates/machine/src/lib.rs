#![warn(missing_docs)]

//! A deterministic machine model with interrupt priority levels: one
//! preemptive CPU by default, N of them when clustered.
//!
//! Receive livelock is a *scheduling* pathology: it needs nothing more than
//! a finite CPU, fixed interrupt priorities, preemption, and queues. This
//! crate models exactly that, in the 4.2BSD shape the paper describes:
//!
//! - [`ipl`] — interrupt priority levels (`SPLIMP`, `SPLNET`, ...): device
//!   interrupts preempt software interrupts preempt threads.
//! - [`intr`] — the interrupt controller: per-source IPL, enable flags and
//!   pending latches, "take the highest-priority pending interrupt above the
//!   current IPL".
//! - [`thread`] — a priority scheduler with round-robin and quantum for the
//!   kernel's polling thread and user processes (screend, compute-bound).
//! - [`cost`] — the cycle cost model, with a preset calibrated so the
//!   simulated router reproduces the paper's measured rates.
//! - [`nic`] — a LANCE-style network interface: bounded receive/transmit
//!   descriptor rings, autonomous (DMA) receive into the ring, interrupt
//!   enable flags, interrupt batching left to the driver.
//! - [`wire`] — Ethernet serialization (67.2 µs per minimum frame at
//!   10 Mbit/s, the paper's 14,880 pkts/s ceiling).
//! - [`cpu`] — the preemptive executor: kernel code runs as *chunks* of
//!   cycles issued by a [`cpu::Workload`]; higher-IPL interrupts arriving
//!   mid-chunk preempt it and resume it afterwards, nested arbitrarily
//!   deep, with full cycle accounting per context.
//! - [`cluster`] — the deterministic SMP interleaver: N per-CPU engines
//!   advanced in fixed round-robin time slices, with cross-CPU signals
//!   delivered only at slice boundaries so results stay bit-identical.
//! - [`ledger`] — the conserved CPU-cycle ledger: every executed cycle
//!   attributed to exactly one [`ledger::CpuClass`], with class totals
//!   summing exactly to elapsed time.
//! - [`fold`] — the `(cpu, class, stage)` fold of the same cycle book,
//!   rendered as `inferno`-compatible collapsed stacks for flamegraphs
//!   of simulated cycles.
//! - [`chrome`] — Chrome-trace / Perfetto JSON export of [`trace`]
//!   records, so an interleaving can be inspected visually.
//! - [`fault`] — deterministic, seeded fault-injection plans (lost and
//!   spurious interrupts, ring corruption, overrun storms, clock jitter,
//!   link flaps, packet mutation, consumer stalls/crashes), scheduled on
//!   virtual time so chaos runs replay exactly.
//!
//! The `livelock-kernel` crate implements the paper's unmodified and
//! modified kernels as [`cpu::Workload`]s on top of this machine.

pub mod chrome;
pub mod cluster;
pub mod cost;
pub mod cpu;
pub mod fault;
pub mod fold;
pub mod intr;
pub mod ipl;
pub mod ledger;
pub mod nic;
pub mod thread;
pub mod trace;
pub mod wire;

pub use chrome::{chrome_trace_json, json_escape};
pub use cluster::Cluster;
pub use cost::CostModel;
pub use fault::{FaultEvent, FaultKind, FaultPlan};
pub use fold::CycleFold;
pub use cpu::{
    ArrivalSource, Chunk, CpuId, CtxKind, Engine, Env, SchedulerKind, UsageReport, Workload,
};
pub use intr::{IntrController, IntrSrc};
pub use ipl::Ipl;
pub use ledger::{CpuClass, CycleLedger};
pub use nic::{rss_hash, rss_queue, Nic, NicConfig};
pub use thread::{Priority, Scheduler, ThreadId};
pub use trace::{Trace, TraceEvent, TraceRecord};
pub use wire::Wire;
