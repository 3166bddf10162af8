//! The asynchronous single-writer/multi-reader shared-memory model `M^rw`
//! and the *synchronic layering* `S^rw`, per Section 5.1 of Moses &
//! Rajsbaum, PODC 1998.
//!
//! The crate has two levels:
//!
//! * the **base model** — an interpreter over atomic `write_i` /
//!   `read_i(V_j)` steps obeying the local-phase discipline
//!   ([`replay`], [`SmOp`]);
//! * the **layered submodel** — virtual `W₁ R₁ W₂ R₂` rounds driven by the
//!   environment actions `(j, k)` and `(j, A)` ([`SmModel`], [`SmAction`]).
//!
//! [`layer_action_is_legal_schedule`] ties them together: every layer action
//! replays as a legal atomic schedule, which is the executable content of
//! "`S^rw` generates a layering of `R(A, M^rw)`" (Lemma 5.3(i)). The bridge
//! argument of Lemma 5.3(iii) — `x(j,n) ∼_v x(j,A)` via the common
//! modulo-`j` pair `x(j,n)(j,A)` and `x(j,A)(j,0)` — is
//! [`SmModel::bridge_agrees`]. Corollary 5.4 (impossibility of 1-resilient
//! consensus in `M^rw`, Loui–Abu-Amara) is reproduced by running the
//! [checker](layered_core::check_consensus) and the
//! [bivalent-run engine](layered_core::build_bivalent_run) against any
//! candidate protocol.
//!
//! # Example
//!
//! ```
//! use layered_core::{build_bivalent_run, ValenceSolver};
//! use layered_protocols::SmFloodMin;
//! use layered_async_sm::SmModel;
//!
//! let m = SmModel::new(3, SmFloodMin::new(2));
//! let mut solver = ValenceSolver::new(&m, 2);
//! let run = build_bivalent_run(&mut solver, 1);
//! assert!(run.chain.is_some()); // a bivalent initial state exists
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod interp;
mod model;
mod sim;
mod state;

pub use interp::{layer_action_is_legal_schedule, replay, schedule_for, ScheduleError, SmOp};
pub use model::{SmAction, SmLayering, SmModel};
pub use state::SmState;

/// Stable key identifying this model in certificate stores and query URLs.
pub const MODEL_KEY: &str = "async-sm";

/// Claims the certificate registry can compute and verify for this model:
/// the Theorem 4.2 impossibility witness (Corollary 5.4, Loui–Abu-Amara).
pub const CLAIM_KEYS: &[&str] = &["theorem_4_2"];
