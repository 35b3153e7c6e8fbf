//! # `q100-hostbench`: the host-time benchmark of the Q100 simulator
//!
//! Four workloads ([`spec`]) run through the public functions of
//! `q100-tpch`, `q100-core`, `q100-experiments` and `q100-serve`
//! ([`runner`]). An untraced run reports the end-to-end metrics, a
//! traced run the per-layer ones from spans recorded around each call
//! into a layer ([`spans`]); both check every output ([`pins`]) and
//! print one JSON result line ([`report`]). [`compare`] judges a change
//! against its parent from interleaved runs.

pub mod compare;
pub mod pins;
pub mod report;
pub mod runner;
pub mod spans;
pub mod spec;
pub mod stats;
pub mod sys;
