//! # dmm-sim — discrete-event simulation kernel
//!
//! A small, deterministic discrete-event simulation (DES) substrate used by
//! the distributed-memory-management reproduction. It provides:
//!
//! * [`SimTime`] / [`SimDuration`] — integer-nanosecond simulated time, so the
//!   event queue is free of floating-point drift and runs are bit-reproducible.
//! * [`Engine`] — a generic event loop: the application defines an event
//!   payload type and a [`Handler`] that consumes events and schedules new
//!   ones through the [`Scheduler`].
//! * [`Facility`] — a first-come-first-served single resource (CPU, disk arm,
//!   shared network medium) that serializes usage and tracks utilization.
//! * [`dist`] — the stochastic inputs the ICDE'99 evaluation needs:
//!   exponential interarrival times and Zipf-distributed page identities.
//! * [`stats`] — online statistics (Welford mean/variance, windowed means,
//!   normal-approximation confidence intervals).
//! * [`prefetch()`] — a cache-prefetch hint for per-page state a later
//!   protocol step reads.
//!
//! The kernel is logically sequential: the simulated systems in the paper
//! (buffer managers, coordinators, disks) share state freely inside one
//! `Handler` implementation, which keeps the model faithful and simple.

pub mod arena;
pub mod dist;
pub mod engine;
pub mod facility;
pub mod prefetch;
pub mod rng;
pub mod stats;
pub mod time;
pub mod wheel;

pub use arena::{SlotArena, SlotKey};
pub use engine::{Engine, ExecMode, Handler, SchedStats, Scheduler, SimParams};
pub use facility::Facility;
pub use prefetch::prefetch;
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
