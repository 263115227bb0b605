//! Placeholder library target for the `integration-tests` package.
//!
//! The actual integration tests live in the repository-root `tests/`
//! directory and are wired in through `[[test]]` entries in this package's
//! `Cargo.toml` so that they can span all workspace crates.
