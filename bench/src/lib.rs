//! `ledger`: one seeded benchmark for the paper path (`optimize_circuit`
//! on large circuits) and the serving path (`popqc serve`), with
//! per-layer numbers measured from outside. See `README.md` beside the
//! manifest for the glossary and `spec.rs` for every name.

pub mod checks;
pub mod cli;
pub mod corpus;
pub mod http;
pub mod layers;
pub mod probes;
pub mod proc;
pub mod report;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod worker;
pub mod workloads;
