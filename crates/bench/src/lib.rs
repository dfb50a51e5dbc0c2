//! # popqc-bench — the experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation (Section 7
//! and Appendix A). Each experiment is a function over a shared
//! [`Opts`] bundle; the `experiments` binary dispatches subcommands
//! (`table1` … `table4`, `fig3` … `fig9`, `all`).
//!
//! Absolute numbers differ from the paper (different machine, generated
//! rather than downloaded benchmark circuits, re-implemented oracles); the
//! *shapes* — who wins, how speedups scale with size and cores, where
//! quality lands — are the reproduction target.

pub mod experiments;
pub mod harness;

pub use harness::{instances, Instance, Opts};
