//! # layered-cert
//!
//! A content-addressed **certificate store** over the proof artifacts the
//! layered-consensus engines produce.
//!
//! Every headline result in the workspace is backed by a concrete,
//! re-checkable artifact: a Theorem 4.2 ever-bivalent chain, a Lemma 6.1
//! bivalent `S^t`-run, a Lemma 5.1 layer-scan verdict, or a recorded
//! violating schedule from the simulator. This crate makes those artifacts
//! durable and re-verifiable:
//!
//! * [`Certificate`] — one canonical-JSON wire object per artifact,
//!   addressed by the SHA-256 of its exact bytes ([`cert`]);
//! * [`CertStore`] — one file per address plus an append-only index,
//!   deduplicating by content and re-hashing on every read ([`store`]);
//! * [`registry`] — computes certificates from scratch for the claims the
//!   engines can decide, and re-verifies every certificate (replay always,
//!   full semantic tier at small `n`).
//!
//! The flow end to end: the experiment harness runs with `--store <dir>`
//! and persists what it proves; reading a certificate back re-hashes its
//! bytes, and [`registry::verify`] re-checks it against the model.
//! Telemetry rides the `layered-core` observer bus under the
//! `cert.store.*` and `cert.verify.*` names.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod cert;
pub mod hash;
pub mod registry;
pub mod store;

pub use cert::{CertError, CertKind, CertMeta, Certificate, WIRE_VERSION};
pub use hash::{is_hash, sha256, sha256_hex};
pub use registry::RegistryError;
pub use store::{CertStore, IndexEntry, StoreError};
