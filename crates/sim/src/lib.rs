#![warn(missing_docs)]

//! Deterministic discrete-event simulation primitives.
//!
//! `livelock-sim` is the foundation of the receive-livelock reproduction: a
//! virtual clock measured in CPU cycles, a stable event queue, a seedable
//! pseudo-random number generator, and the statistics containers used by the
//! experiment harness.
//!
//! Everything in this crate is deterministic: there is no wall-clock access,
//! no global state, and no threads. Two runs with the same seed produce
//! bit-identical results, which the integration tests rely on.
//!
//! # Examples
//!
//! ```
//! use livelock_sim::{Cycles, EventQueue, Freq};
//!
//! let freq = Freq::mhz(100);
//! let mut q: EventQueue<&str> = EventQueue::new();
//! q.schedule(freq.cycles_from_micros(10), "second");
//! q.schedule(freq.cycles_from_micros(5), "first");
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!(ev, "first");
//! assert_eq!(t, Cycles::new(500));
//! ```

pub mod calendar;
pub mod event;
pub mod rng;
pub mod sched;
pub mod stats;
pub mod time;

pub use calendar::CalendarQueue;
pub use event::EventQueue;
pub use sched::Scheduler;
pub use rng::Rng;
pub use stats::{Counter, HdrHistogram, MeanVar, RateWindow};
pub use time::{Cycles, Freq, Nanos};
