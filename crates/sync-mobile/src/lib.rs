//! The single-mobile-failure synchronous model `M^mf` (Santoro–Widmayer)
//! and its prefix layering `S₁`, per Section 5 of Moses & Rajsbaum,
//! PODC 1998.
//!
//! In every round the environment picks a pair `(j, G)` and loses all
//! messages from process `j` to the processes in `G`; the offender may
//! change between rounds (the failure is *mobile*). The layering `S₁`
//! restricts `G` to prefixes `[k] = {1, …, k}`.
//!
//! The crate reproduces, executably:
//!
//! * Lemma 5.1 — `S₁` is a layering of `M^mf`; it displays an arbitrary
//!   crash failure; every layer `S₁(x)` is similarity (hence valence)
//!   connected;
//! * Corollary 5.2 — no protocol solves consensus under a single mobile
//!   failure: for each candidate protocol the engine exhibits a bivalent
//!   run or a concrete requirement violation.
//!
//! # Example
//!
//! ```
//! use layered_core::{build_bivalent_run, ValenceSolver};
//! use layered_protocols::FloodMin;
//! use layered_sync_mobile::MobileModel;
//!
//! let m = MobileModel::new(3, FloodMin::new(2));
//! let mut solver = ValenceSolver::new(&m, 2);
//! let run = build_bivalent_run(&mut solver, 1);
//! // A bivalent initial state exists (Lemma 3.6) and stays bivalent for a
//! // layer (Lemma 4.1): consensus cannot have been reached.
//! assert!(run.chain.is_some());
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod model;
mod sim;
mod state;

pub use model::{MobileLayering, MobileModel};
pub use sim::MobileMove;
pub use state::MobileState;

/// Stable key identifying this model in certificate stores and query URLs.
pub const MODEL_KEY: &str = "sync-mobile";

/// Claims the certificate registry can compute and verify for this model:
/// the Lemma 5.1 layer-scan verdict (with its embedded ever-bivalent
/// witness) and the Theorem 4.2 impossibility witness.
pub const CLAIM_KEYS: &[&str] = &["lemma_5_1", "theorem_4_2"];
