//! The certificate read path on untrusted bytes: forged sizes, a damaged
//! store index, and a deterministic byte-mutation sweep. Every input must
//! come back from `CertStore::open`, `Certificate::decode` and
//! `registry::verify` as `Ok` or `Err` — never as a panic, an abort, or a
//! hang.

use std::panic::{catch_unwind, AssertUnwindSafe};

use layered_cert::{registry, CertStore, Certificate, RegistryError};
use layered_core::telemetry::json::{Json, MAX_DEPTH};
use layered_core::telemetry::NoopObserver;
use layered_protocols::FloodMin;
use layered_sim::{RandomAdversary, SimConfig, Simulator};
use layered_sync_crash::CrashModel;

/// Fixed seed and case count: the same mutants every run.
const SEED: u64 = 0x6d75_7461_6e74_7321;
const CASES: usize = 3_000;

/// splitmix64, the generator the vendored proptest stub uses too.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (`bound > 0`).
    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }
}

/// `cert` with its encoded `"n"` replaced, read back through the decoder.
fn with_n(cert: &Certificate, n: usize) -> Certificate {
    let mut forged = cert.clone();
    forged.meta.n = n;
    Certificate::decode(forged.encode().as_bytes()).expect("forged bytes decode")
}

/// `cert` with the top-level body member `key` set to `value`, read back
/// through the decoder.
fn with_body_field(cert: &Certificate, key: &str, value: u64) -> Certificate {
    let mut forged = cert.clone();
    let Json::Object(members) = &mut forged.body else {
        panic!("certificate bodies are objects");
    };
    for (k, v) in members.iter_mut() {
        if k == key {
            *v = Json::from(value);
        }
    }
    Certificate::decode(forged.encode().as_bytes()).expect("forged bytes decode")
}

fn assert_rejected(cert: &Certificate) {
    assert!(
        matches!(
            registry::verify(cert, &NoopObserver),
            Err(RegistryError::VerifyFailed(_))
        ),
        "forged certificate accepted: {}",
        cert.encode()
    );
}

/// A sync-crash schedule certificate at n = 3, t = 1 (its body records `t`).
fn crash_schedule() -> Certificate {
    let model = CrashModel::new(3, 1, FloodMin::new(2));
    let run = Simulator::new(&model)
        .run_many(&SimConfig::new(7, 1, 3), || RandomAdversary)
        .remove(0);
    registry::schedule_certificate(
        layered_sync_crash::MODEL_KEY,
        &model,
        2,
        Some(1),
        run.outcome.class(),
        &run.schedule,
    )
    .expect("schedule packages")
}

/// A forged `n` below each model constructor's minimum, one row per
/// model and kind.
#[test]
fn forged_n_below_the_model_minimum_is_an_err() {
    let cases: [(&str, &str, usize, &[usize]); 5] = [
        ("sync-mobile", "theorem_4_2", 2, &[0, 1]),
        ("sync-mobile", "lemma_5_1", 2, &[0, 1]),
        ("async-sm", "theorem_4_2", 2, &[0, 1]),
        ("async-mp", "theorem_4_2", 2, &[0, 1]),
        ("sync-crash", "lemma_6_1", 3, &[0, 1, 2]),
    ];
    for (model, claim, n, forged) in cases {
        let cert = registry::compute(model, n, claim, &NoopObserver).expect("computes");
        registry::verify(&cert, &NoopObserver).expect("genuine certificate verifies");
        for &bad in forged {
            assert_rejected(&with_n(&cert, bad));
        }
    }
}

/// A sync-crash schedule whose recorded `n` or `t` breaks
/// `1 <= t <= n - 2`.
#[test]
fn forged_crash_schedule_n_or_t_is_an_err() {
    let schedule = crash_schedule();
    registry::verify(&schedule, &NoopObserver).expect("genuine schedule verifies");
    assert_rejected(&with_n(&schedule, 2));
    for t in [0, 2, 1 << 40] {
        assert_rejected(&with_body_field(&schedule, "t", t));
    }
}

/// A witness whose recorded horizon asks the semantic tier to explore
/// past its bound (far past it, the valence recursion overflowed the
/// stack).
#[test]
fn forged_horizon_is_an_err() {
    let cert = registry::compute("async-mp", 2, "theorem_4_2", &NoopObserver).expect("computes");
    for horizon in [registry::FULL_VERIFY_MAX_HORIZON as u64 + 1, 1 << 20] {
        assert_rejected(&with_body_field(&cert, "horizon", horizon));
    }
}

/// `CertStore::open` skips unparsable index lines — here garbage and
/// nesting past `MAX_DEPTH` — and keeps the genuine entry.
#[test]
fn store_open_skips_garbage_and_too_deep_index_lines() {
    let dir = std::env::temp_dir().join(format!(
        "layered-cert-untrusted-{}-index",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let cert = registry::compute("sync-mobile", 2, "theorem_4_2", &NoopObserver).expect("computes");
    {
        let mut store = CertStore::open(&dir).expect("store opens");
        store.put(&cert, &NoopObserver).expect("put succeeds");
    }
    let index = dir.join("v1").join("index.jsonl");
    let mut text = std::fs::read_to_string(&index).expect("index readable");
    text.push_str("not json at all\n");
    text.push_str(&"[".repeat(MAX_DEPTH + 1));
    text.push('\n');
    text.push_str(&"[".repeat(100_000));
    text.push('\n');
    std::fs::write(&index, text).expect("index written");
    let store = CertStore::open(&dir).expect("store opens past damaged lines");
    assert_eq!(store.len(), 1, "only the genuine entry survives");
    assert_eq!(store.entries()[0].hash, cert.hash());
    let back = store
        .get(&cert.hash(), &NoopObserver)
        .expect("get succeeds")
        .expect("object exists");
    assert_eq!(back, cert);
    let _ = std::fs::remove_dir_all(&dir);
}

fn corpus() -> Vec<Vec<u8>> {
    let mut certs = Vec::new();
    for &model in registry::MODEL_KEYS {
        for claim in registry::claims_for(model) {
            for n in [2usize, 3] {
                if let Ok(cert) = registry::compute(model, n, claim, &NoopObserver) {
                    certs.push(cert);
                }
            }
        }
    }
    certs.push(crash_schedule());
    certs.into_iter().map(|c| c.encode().into_bytes()).collect()
}

/// Byte ranges of the numeric JSON values in `bytes`: digit runs that
/// directly follow a `:`, `[` or `,` (digits inside strings are skipped).
fn numeric_fields(bytes: &[u8]) -> Vec<(usize, usize)> {
    let mut fields = Vec::new();
    let mut i = 1;
    while i < bytes.len() {
        if bytes[i].is_ascii_digit() && matches!(bytes[i - 1], b':' | b'[' | b',') {
            let start = i;
            while i < bytes.len() && bytes[i].is_ascii_digit() {
                i += 1;
            }
            fields.push((start, i));
        } else {
            i += 1;
        }
    }
    fields
}

fn mutate(rng: &mut Rng, corpus: &[Vec<u8>]) -> Vec<u8> {
    let mut bytes = corpus[rng.below(corpus.len())].clone();
    match rng.below(4) {
        0 => {
            for _ in 0..=rng.below(3) {
                let at = rng.below(bytes.len());
                bytes[at] ^= 1 << rng.below(8);
            }
        }
        1 => bytes.truncate(rng.below(bytes.len())),
        2 => {
            let donor = &corpus[rng.below(corpus.len())];
            let from = rng.below(donor.len());
            let to = from + rng.below(donor.len() - from + 1);
            let at = rng.below(bytes.len());
            let end = at + rng.below(bytes.len() - at + 1);
            bytes.splice(at..end, donor[from..to].iter().copied());
        }
        _ => {
            let fields = numeric_fields(&bytes);
            let (start, end) = fields[rng.below(fields.len())];
            let digits: Vec<u8> = match rng.below(4) {
                0 => b"0".to_vec(),
                1 => b"1".to_vec(),
                2 => bytes[start..end].repeat(2 + rng.below(6)),
                _ => (0..=rng.below(20))
                    .map(|_| b'0' + rng.below(10) as u8)
                    .collect(),
            };
            bytes.splice(start..end, digits);
        }
    }
    bytes
}

/// The byte-mutation sweep. The corpus is every certificate
/// `registry::compute` yields at n = 2 and n = 3 plus one recorded
/// schedule; the mutations are bit flips, truncations, splices of one
/// certificate into another, and rewrites of numeric fields (zero, one,
/// digit inflation, random digit strings).
#[test]
fn mutated_certificates_are_ok_or_err_never_a_panic() {
    let corpus = corpus();
    assert!(
        corpus.len() >= 9,
        "corpus has {} certificates",
        corpus.len()
    );
    let mut rng = Rng(SEED);
    let mut decoded = 0usize;
    let mut panics = Vec::new();
    for case in 0..CASES {
        let bytes = mutate(&mut rng, &corpus);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            Certificate::decode(&bytes)
                .ok()
                .map(|cert| registry::verify(&cert, &NoopObserver).is_ok())
        }));
        match outcome {
            Ok(Some(_)) => decoded += 1,
            Ok(None) => {}
            Err(_) => panics.push(format!("case {case}: {}", String::from_utf8_lossy(&bytes))),
        }
    }
    assert!(
        panics.is_empty(),
        "{} of {CASES} mutants panicked:\n{}",
        panics.len(),
        panics.join("\n")
    );
    // The mutants must reach the verifier, not just bounce off the parser.
    assert!(
        decoded >= CASES / 4,
        "only {decoded} of {CASES} mutants decoded"
    );
}
