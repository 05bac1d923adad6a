//! Experiment harness: builders for the three systems under test and one
//! function per paper figure/table.
//!
//! Every experiment here regenerates a figure or in-text measurement from
//! §6 of the paper (see DESIGN.md's per-experiment index). Absolute
//! numbers depend on the host; the *shapes* — who wins, by what factor,
//! where the crossovers fall — are the reproduction targets, recorded in
//! EXPERIMENTS.md.
//!
//! Scale: `ExpParams::scaled` shrinks key counts and op counts uniformly
//! so the whole suite runs in CI time; `--paper` selects the paper's
//! 20 M-key / 8 M-op configuration.

pub mod experiments;
pub mod json;
pub mod plot;
pub mod systems;

pub use experiments::ExpParams;
