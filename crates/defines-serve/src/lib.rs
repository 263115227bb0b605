//! Scheduling-as-a-service for DeFiNES.
//!
//! This crate turns the repo's analytical scheduler into a long-lived
//! daemon: a `std::net` TCP server that accepts line-delimited JSON
//! schedule requests, coalesces whatever arrives concurrently into one
//! flattened [`defines_core::run_batch`] engine run, and answers from a
//! warm [`defines_mapping::MappingCache`] that can be persisted to disk
//! ([`defines_mapping::CacheStore`]) and reloaded across restarts.
//!
//! The signature invariant of the repo carries through the wire: a daemon
//! response is **bit-identical** to a standalone `best_schedule` run of the
//! same request — cold, warm, or after a restart from the persisted cache.
//! See [`protocol`] for the wire format and [`server`] for the daemon
//! lifecycle; the `serve` and `defines-request` binaries in `defines-cli`
//! are thin shells over these modules.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod protocol;
pub mod server;

pub use protocol::{render_error, render_outcome, ScheduleRequest};
pub use server::{send_line, Resolver, ServeError, Server, ServerConfig};
