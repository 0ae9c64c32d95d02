//! Experiment harness for the CCAM reproduction.
//!
//! One binary per table/figure of the paper's evaluation (§4):
//!
//! | binary | artifact |
//! |--------|----------|
//! | `fig5_crr_vs_blocksize`   | Figure 5 — CRR vs disk block size |
//! | `table5_operation_costs`  | Table 5 — I/O cost per network operation, actual vs predicted |
//! | `fig6_route_eval`         | Figure 6 — route-evaluation I/O vs route length |
//! | `fig7_reorg_policies`     | Figure 7 — reorganization policies: I/O cost and CRR under insertion |
//! | `ablation_partitioners`   | extra — CRR per partitioning heuristic (+ m-way refinement) |
//! | `ablation_buffer`         | extra — route-evaluation I/O vs buffer size |
//! | `validate_costmodel`      | extra — §3.2 cost-model predictions vs observed I/O per operation class |
//!
//! The library part hosts the shared plumbing: building every access
//! method over the benchmark road map, per-operation I/O measurement,
//! plain-text table rendering and the serving benches' seeded request
//! stream ([`harness`]), plus the flag parser, JSON report writer and
//! gate list of the gated benches ([`report`]).

pub mod harness;
pub mod report;

pub use harness::*;
