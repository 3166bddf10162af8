//! The t-resilient synchronous message-passing model and the layering
//! `S^t`, per Section 6 of Moses & Rajsbaum, PODC 1998.
//!
//! The headline result reproduced here is the Dolev–Strong lower bound
//! (Corollary 6.3): every t-resilient consensus protocol has a run deciding
//! no earlier than round `t + 1` — proved in the paper by the same
//! bivalence machinery as the asynchronous impossibility results, and
//! executed here by:
//!
//! * [`lemma_6_1_chain`] — constructing a bivalent `S^t`-execution of
//!   `t − f − 1` layers from any bivalent state with `f` failures;
//! * [`lemma_6_2_witness`] — finding, after any bivalent state, a successor
//!   with an undecided non-failed process (two more rounds needed);
//! * [`check_lemma_6_4`] — univalence after a failure-free round in fast
//!   protocols;
//! * the [consensus checker](layered_core::check_consensus), which passes
//!   FloodMin at deadline `t + 1` (the bound is tight) and exhibits the
//!   violation of every `t`-round candidate.
//!
//! # Example
//!
//! ```
//! use layered_core::check_consensus;
//! use layered_protocols::FloodMin;
//! use layered_sync_crash::CrashModel;
//!
//! // n = 3, t = 1: two rounds suffice...
//! let m = CrashModel::new(3, 1, FloodMin::new(2));
//! assert!(check_consensus(&m, 2, 1).passed());
//! // ...and one round cannot (Corollary 6.3).
//! let m = CrashModel::new(3, 1, FloodMin::new(1));
//! assert!(!check_consensus(&m, 1, 1).passed());
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod lemmas;
mod model;
mod sim;
mod state;

pub use lemmas::{check_display_below_budget, check_lemma_6_4, lemma_6_1_chain, lemma_6_2_witness};
pub use model::{CrashLayering, CrashModel};
pub use sim::CrashMove;
pub use state::CrashState;

/// Stable key identifying this model in certificate stores and query URLs.
pub const MODEL_KEY: &str = "sync-crash";

/// Claims the certificate registry can compute and verify for this model:
/// the Lemma 6.1 bivalent `S^t`-execution (consensus is solvable here, so
/// no impossibility witness exists — the lower-bound chain is the
/// artifact).
pub const CLAIM_KEYS: &[&str] = &["lemma_6_1"];
