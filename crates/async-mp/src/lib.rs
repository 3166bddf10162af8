//! The asynchronous message-passing model and the *permutation layering*
//! `S^per`, per Section 5.1 of Moses & Rajsbaum, PODC 1998 — the
//! message-passing analogue of immediate-snapshot executions.
//!
//! A local phase is send-then-receive: a process emits at most one message
//! per destination (computed from its state at the start of the phase) and
//! then absorbs everything outstanding for it. Layers are driven by
//! permutation-shaped environment actions: full `[p₁…pₙ]`, drop-last
//! `[p₁…p_{n−1}]`, and adjacent-concurrent `[p₁…{p_k,p_{k+1}}…pₙ]`.
//!
//! # Representation note
//!
//! The paper's extended abstract describes a phase as deliver-then-send; we
//! implement the immediate-snapshot-faithful send-then-receive order, under
//! which the paper's structural claims hold as *exact state-level* facts
//! (checked in tests and experiments): adjacent-transposition states agree
//! modulo one process, the two-layer diamond is a state equality, and full
//! vs. drop-last states are *not* similar. With deliver-then-send, a
//! process's post-receive sends differ between the transposed schedules and
//! contaminate every downstream process within the layer, so the claimed
//! similarity chain fails at the state level; the send-then-receive order
//! is the reading under which "it is easy to check" is true. Undelivered
//! messages live in receiver-attributed mailboxes (see
//! [`MpState`]) rather than in an anonymous environment pool, which is the
//! bookkeeping the similarity claims need; runs and reachable protocol
//! behaviors are unaffected by this choice.
//!
//! A second layering is provided in [`MpSyncModel`]: the *synchronic*
//! layering transferred to message passing (`Send₁ Recv₁ Send₂ Recv₂`
//! virtual rounds), per the paper's remark that the shared-memory proof
//! carries over unchanged and yields a submodel "even closer to the
//! synchronous models".
//!
//! # Example
//!
//! ```
//! use layered_core::{build_bivalent_run, ValenceSolver};
//! use layered_protocols::MpFloodMin;
//! use layered_async_mp::MpModel;
//!
//! let m = MpModel::new(3, MpFloodMin::new(2));
//! let mut solver = ValenceSolver::new(&m, 2);
//! let run = build_bivalent_run(&mut solver, 1);
//! assert!(run.chain.is_some()); // a bivalent initial state exists (FLP)
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod model;
mod perm;
mod sim;
mod state;
mod synchronic;

pub use model::{MpAction, MpModel};
pub use perm::{drop_last_arrangements, permutations, transposition_path};
pub use state::MpState;
pub use synchronic::{MpSyncAction, MpSyncModel};

/// Stable key identifying this model in certificate stores and query URLs.
pub const MODEL_KEY: &str = "async-mp";

/// Claims the certificate registry can compute and verify for this model:
/// the Theorem 4.2 impossibility witness (the FLP analogue under `S^per`).
pub const CLAIM_KEYS: &[&str] = &["theorem_4_2"];
