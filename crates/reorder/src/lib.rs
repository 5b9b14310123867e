//! # nonstrict-reorder
//!
//! First-use procedure reordering and class-file restructuring (§4 and
//! §7.3 of the ASPLOS '98 paper):
//!
//! * [`scg`] — **static first-use estimation**: a modified depth-first
//!   traversal of the interprocedural control-flow graph that prioritizes
//!   paths with more static loops and defers loop-exit edges until a
//!   loop's blocks are exhausted (§4.1).
//! * [`order`] — the [`order::FirstUseOrder`] type and profile-guided
//!   ordering (§4.2), with static fallback for unexecuted methods.
//! * [`restructure`](mod@restructure) — rewrites class files so methods appear in
//!   predicted first-use order, the layout non-strict transfer exploits.
//! * [`partition`] — global-data partitioning: classifies every
//!   constant-pool entry as *needed first*, *method-level* (GMD), or
//!   *unused* (Table 9), and sizes the per-method `GlobalMethodData`
//!   chunks (§7.3).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod order;
pub mod partition;
pub mod restructure;
pub mod scg;

pub use order::FirstUseOrder;
pub use partition::{partition_app, partition_class, ClassPartition, PartitionSummary};
pub use restructure::{restructure, ClassLayout, RestructuredApp};
pub use scg::{static_first_use, static_first_use_plain};
