//! E-cert: the certificate store round trip. One certificate of every
//! kind the registry can compute is persisted to a fresh content-addressed
//! store, the store is reopened from disk, and the reloaded artifact must
//! be byte-identical to the original and still pass its own verifier.
//!
//! This is the storage twin of the query-server acceptance test: it proves
//! the `--store` directory written by the other experiment modes can be
//! trusted cold — across process restarts, with nothing but the bytes on
//! disk and the index to go on.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use layered_cert::{registry, CertStore, Certificate};
use layered_core::report::{yes_no, Table};
use layered_core::telemetry::Observer;

use crate::{Experiment, Scope};

/// Store directory under the system temp dir, scoped to the process and
/// the run, so neither concurrent test binaries nor concurrent runs in one
/// process (test threads) wipe each other's store. Wiped before and after
/// the run so repeated invocations see identical fresh-put behaviour.
fn store_dir() -> PathBuf {
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    let run = RUNS.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "layered-bench-certstore-{}-{run}",
        std::process::id()
    ))
}

/// One round trip: compute, persist, then (against the reopened store)
/// reload by hash, compare the encodings byte for byte, and re-verify.
fn round_trip_row(
    stored: Option<&(Certificate, String, String)>,
    reopened: Option<&CertStore>,
    obs: &dyn Observer,
) -> (bool, bool, bool) {
    let Some((cert, encoded, hash)) = stored else {
        return (false, false, false);
    };
    let reloaded = reopened.and_then(|store| store.get(hash, obs).ok().flatten());
    let identical = reloaded
        .as_ref()
        .is_some_and(|back| back == cert && back.encode() == *encoded);
    let verified = reloaded
        .as_ref()
        .is_some_and(|back| registry::verify(back, obs).is_ok());
    (true, identical, verified)
}

/// E-cert: every certificate kind survives `put → reopen → get → verify`
/// with byte-identical encoding (see the module docs).
pub fn cert_store(scope: Scope) -> Experiment {
    crate::measured(
        "E-cert",
        "Certificate store round trip (put → reopen → get, byte-identical, re-verified)",
        |obs| {
            let mut table = Table::new(
                "Certificate store — persist, reload and re-verify every kind",
                &[
                    "model", "n", "claim", "kind", "stored", "reloaded", "verified",
                ],
            );
            // One case per registry claim; Full adds the larger instances
            // the store serves in CI (covering witness, run and scan-verdict
            // kinds — schedule certificates are exercised by `--sim`).
            let cases: &[(&str, usize, &str)] = match scope {
                Scope::Quick => &[
                    ("sync-mobile", 3, "lemma_5_1"),
                    ("sync-crash", 3, "lemma_6_1"),
                    ("async-sm", 2, "theorem_4_2"),
                    ("async-mp", 2, "theorem_4_2"),
                ],
                Scope::Full => &[
                    ("sync-mobile", 3, "lemma_5_1"),
                    ("sync-mobile", 3, "theorem_4_2"),
                    ("sync-crash", 4, "lemma_6_1"),
                    ("async-sm", 3, "theorem_4_2"),
                    ("async-mp", 3, "theorem_4_2"),
                ],
            };
            let dir = store_dir();
            let _ = std::fs::remove_dir_all(&dir);

            // Phase 1: compute each certificate and persist it.
            let mut stored: Vec<Option<(Certificate, String, String)>> = Vec::new();
            match CertStore::open(&dir) {
                Ok(mut store) => {
                    for &(model, n, claim) in cases {
                        let entry = registry::compute(model, n, claim, obs)
                            .ok()
                            .and_then(|cert| {
                                let encoded = cert.encode();
                                store
                                    .put(&cert, obs)
                                    .ok()
                                    .filter(|(_, fresh)| *fresh)
                                    .map(|(hash, _)| (cert, encoded, hash))
                            });
                        stored.push(entry);
                    }
                }
                Err(_) => stored.resize_with(cases.len(), || None),
            }

            // Phase 2: a cold reopen — only the bytes on disk survive.
            let reopened = CertStore::open(&dir).ok();
            let mut ok = true;
            for (&(model, n, claim), entry) in cases.iter().zip(&stored) {
                let (put, identical, verified) =
                    round_trip_row(entry.as_ref(), reopened.as_ref(), obs);
                ok &= put && identical && verified;
                table.row_owned(vec![
                    model.to_string(),
                    n.to_string(),
                    claim.to_string(),
                    entry
                        .as_ref()
                        .map_or("-".to_string(), |(c, _, _)| c.kind.key().to_string()),
                    yes_no(put).to_string(),
                    if identical {
                        "byte-identical"
                    } else {
                        "MISMATCH"
                    }
                    .to_string(),
                    yes_no(verified).to_string(),
                ]);
            }
            let _ = std::fs::remove_dir_all(&dir);
            (table, ok)
        },
    )
}
