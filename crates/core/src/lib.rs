//! # tussle-core — the paper's design principles as a library
//!
//! Everything in the other crates is substrate; this crate is the paper's
//! actual contribution, made executable:
//!
//! * [`stakeholder`] — the §I cast of characters (users, commercial ISPs,
//!   private networks, governments, rights holders, content providers) and
//!   their interests, with the conflict structure that defines tussle.
//! * [`space`] — tussle spaces (§V: economics, trust, openness) and their
//!   boundaries.
//! * [`mechanism`] — the catalog of technical mechanisms the paper names
//!   as tussle moves, with the counter-relation between them (tunnel
//!   counters value pricing; detection counters tunnels; ...).
//! * [`escalation`] — move/counter-move ladders played to quiescence:
//!   "different parties adapt a mix of mechanisms to try to achieve their
//!   conflicting goals, and others respond by adapting the mechanisms to
//!   push back" (§I).
//! * [`principles`] — the design principles as *analyzers*: the choice
//!   index (design for choice, §IV.B), the visibility index (§IV.C), the
//!   tussle-isolation/spillover measure (modularize along tussle
//!   boundaries, §IV.A), and value-flow completeness (§IV.C).
//! * [`report`] — experiment tables: paper prediction vs. measured value,
//!   rendered as markdown and JSON for `EXPERIMENTS.md`.
//! * [`scoreboard`] — the per-stakeholder tussle scoreboard: who spent a
//!   run's virtual time and who won, folded per run and merged across
//!   campaigns (digest-excluded, like wall time).
//!
//! ## Example
//!
//! ```
//! use tussle_core::{EscalationLadder, Mechanism};
//!
//! // §VI.A: port-keyed QoS invites encryption, blocking, steganography
//! let ladder = EscalationLadder::play_to_the_end(Mechanism::QosPortBased, 10);
//! assert_eq!(ladder.final_mechanism(), Mechanism::Steganography);
//! // §IV.A: the well-modularized design gives opponents nothing to counter
//! assert!(Mechanism::QosTosBits.is_terminal());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod escalation;
pub mod guidelines;
pub mod mechanism;
pub mod principles;
pub mod report;
pub mod scoreboard;
pub mod space;
pub mod stakeholder;

pub use escalation::{EscalationLadder, LadderStep};
pub use guidelines::{AppDesign, Violation};
pub use mechanism::Mechanism;
pub use principles::{choice_index, spillover, value_flow_completeness, visibility_index};
pub use report::{
    CellStats, ChaosReport, ExperimentReport, ExperimentSweep, FirstFailure, IntensityStats,
    MarginStats, Row, RunCost, SweepReport, Table,
};
pub use scoreboard::Scoreboard;
pub use space::{TussleSpace, TussleSpaceKind};
pub use stakeholder::{Interest, Stakeholder, StakeholderKind};
