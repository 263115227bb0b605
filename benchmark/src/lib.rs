//! The DeFiNES benchmark ladder: five workloads, end-to-end metrics taken
//! with tracing off, and per-layer self-times, counts and probes taken from
//! outside the program. See `README.md` for the why of every workload and
//! metric; `BENCHMARK.json` at the repository root is the contract.

#![forbid(unsafe_code)]

pub mod clock;
pub mod host;
pub mod inputs;
pub mod metrics;
pub mod probes;
pub mod report;
pub mod rng;
pub mod runner;
pub mod sample;
pub mod spans;
pub mod spec;
pub mod workloads;
