//! The certificate wire format: one canonical JSON object per artifact.
//!
//! A [`Certificate`] wraps one proof artifact — an impossibility witness, a
//! bivalent run, a violating schedule, or a scan verdict — together with
//! the metadata that identifies it (model, `n`, layering, claim). Its
//! canonical encoding is produced by `Json::canonicalize`, so equal
//! certificates are byte-identical, and its address is the SHA-256 of
//! exactly those bytes ([`Certificate::hash`]). The store persists the
//! encoding verbatim; any re-encoding round-trips to the same bytes and
//! therefore the same address.

use layered_core::telemetry::json::Json;

use crate::hash::sha256_hex;

/// The wire-format version this crate reads and writes.
pub const WIRE_VERSION: u64 = 1;

/// What kind of proof artifact a certificate carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CertKind {
    /// A Theorem 4.2 impossibility witness (ever-bivalent chain plus
    /// undecided counts), re-verifiable from scratch.
    Witness,
    /// A bivalent execution (e.g. the Lemma 6.1 chain in the t-resilient
    /// model): the same chain shape, without the impossibility claim.
    Run,
    /// A recorded adversary schedule whose replay exhibits the claimed
    /// outcome class (typically a ddmin-shrunk safety violation).
    Schedule,
    /// A layer-scan verdict (Lemma 5.1 style): layers checked, states
    /// seen, connectivity verdict, with the supporting witness embedded.
    ScanVerdict,
}

impl CertKind {
    /// The stable string form used on the wire.
    #[must_use]
    pub fn key(self) -> &'static str {
        match self {
            CertKind::Witness => "witness",
            CertKind::Run => "run",
            CertKind::Schedule => "schedule",
            CertKind::ScanVerdict => "scan_verdict",
        }
    }

    /// Parses the wire form back.
    #[must_use]
    pub fn from_key(key: &str) -> Option<Self> {
        match key {
            "witness" => Some(CertKind::Witness),
            "run" => Some(CertKind::Run),
            "schedule" => Some(CertKind::Schedule),
            "scan_verdict" => Some(CertKind::ScanVerdict),
            _ => None,
        }
    }
}

/// The coordinates of a certificate: which claim, about which model
/// instance, it certifies.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CertMeta {
    /// Model registry key (`sync-mobile`, `sync-crash`, `async-sm`,
    /// `async-mp`).
    pub model: String,
    /// Number of processes of the instance.
    pub n: usize,
    /// Layering key (`s1`, `full`, `s_t`, `s_rw`, `s_per`).
    pub layering: String,
    /// Claim key (`lemma_5_1`, `theorem_4_2`, `lemma_6_1`,
    /// `sim_violation`).
    pub claim: String,
}

/// Why decoding a certificate failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CertError {
    /// The bytes are not valid JSON.
    NotJson,
    /// A required field is missing or has the wrong JSON type.
    Malformed(&'static str),
    /// The `v` field names a version this crate does not read.
    BadVersion,
    /// The `kind` field is not a known [`CertKind`].
    UnknownKind,
}

impl std::fmt::Display for CertError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CertError::NotJson => write!(f, "certificate bytes are not valid JSON"),
            CertError::Malformed(what) => write!(f, "malformed certificate: {what}"),
            CertError::BadVersion => write!(f, "unsupported certificate wire version"),
            CertError::UnknownKind => write!(f, "unknown certificate kind"),
        }
    }
}

impl std::error::Error for CertError {}

/// One stored proof artifact (see the [module docs](self)).
#[derive(Clone, Debug, PartialEq)]
pub struct Certificate {
    /// Coordinates: model, `n`, layering, claim.
    pub meta: CertMeta,
    /// Artifact kind.
    pub kind: CertKind,
    /// Kind-specific payload (canonicalized at construction).
    pub body: Json,
}

impl Certificate {
    /// Packages a body under its metadata, canonicalizing the payload so
    /// [`hash`](Self::hash) is independent of member ordering at the call
    /// site.
    #[must_use]
    pub fn new(meta: CertMeta, kind: CertKind, body: Json) -> Self {
        Certificate {
            meta,
            kind,
            body: body.canonicalize(),
        }
    }

    /// The certificate as canonical JSON:
    /// `{"v":1,"kind":…,"model":…,"n":…,"layering":…,"claim":…,"body":…}`
    /// with keys recursively sorted.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::Object(vec![
            ("v".into(), Json::from(WIRE_VERSION)),
            ("kind".into(), Json::from(self.kind.key())),
            ("model".into(), Json::from(self.meta.model.as_str())),
            ("n".into(), Json::from(self.meta.n as u64)),
            ("layering".into(), Json::from(self.meta.layering.as_str())),
            ("claim".into(), Json::from(self.meta.claim.as_str())),
            ("body".into(), self.body.clone()),
        ])
        .canonicalize()
    }

    /// The canonical encoding: the single-line rendering of
    /// [`to_json`](Self::to_json), no trailing newline. These are the exact
    /// bytes the store persists.
    #[must_use]
    pub fn encode(&self) -> String {
        self.to_json().to_string()
    }

    /// The content address: SHA-256 of [`encode`](Self::encode), as 64 hex
    /// characters.
    #[must_use]
    pub fn hash(&self) -> String {
        sha256_hex(self.encode().as_bytes())
    }

    /// Decodes a certificate from its JSON form.
    ///
    /// # Errors
    ///
    /// Any [`CertError`] variant describing what is wrong with the shape.
    pub fn from_json(json: &Json) -> Result<Self, CertError> {
        let version = json
            .get("v")
            .and_then(Json::as_u64)
            .ok_or(CertError::Malformed("missing v"))?;
        if version != WIRE_VERSION {
            return Err(CertError::BadVersion);
        }
        let kind = CertKind::from_key(
            json.get("kind")
                .and_then(Json::as_str)
                .ok_or(CertError::Malformed("missing kind"))?,
        )
        .ok_or(CertError::UnknownKind)?;
        let text = |field: &'static str| -> Result<String, CertError> {
            json.get(field)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or(CertError::Malformed(field))
        };
        let meta = CertMeta {
            model: text("model")?,
            n: json
                .get("n")
                .and_then(Json::as_u64)
                .and_then(|n| usize::try_from(n).ok())
                .ok_or(CertError::Malformed("missing n"))?,
            layering: text("layering")?,
            claim: text("claim")?,
        };
        let body = json
            .get("body")
            .ok_or(CertError::Malformed("missing body"))?
            .clone()
            .canonicalize();
        Ok(Certificate { meta, kind, body })
    }

    /// Decodes a certificate from raw bytes (parse + [`from_json`]).
    ///
    /// This does *not* check a content hash — integrity is the store's job,
    /// which re-hashes file bytes against the address on every read.
    ///
    /// # Errors
    ///
    /// [`CertError::NotJson`] for unparsable bytes, else as
    /// [`from_json`](Self::from_json).
    pub fn decode(bytes: &[u8]) -> Result<Self, CertError> {
        let text = std::str::from_utf8(bytes).map_err(|_| CertError::NotJson)?;
        let json = Json::parse(text).map_err(|_| CertError::NotJson)?;
        Self::from_json(&json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Certificate {
        Certificate::new(
            CertMeta {
                model: "sync-mobile".into(),
                n: 3,
                layering: "s1".into(),
                claim: "theorem_4_2".into(),
            },
            CertKind::Witness,
            Json::Object(vec![
                ("path".into(), Json::Array(vec![Json::from(1u64)])),
                ("horizon".into(), Json::from(2u64)),
            ]),
        )
    }

    #[test]
    fn encode_decode_round_trips() {
        let cert = sample();
        let bytes = cert.encode();
        let back = Certificate::decode(bytes.as_bytes()).expect("decodable");
        assert_eq!(back, cert);
        assert_eq!(back.encode(), bytes, "re-encoding is byte-identical");
        assert_eq!(back.hash(), cert.hash());
    }

    #[test]
    fn hash_is_order_independent() {
        // Same body members in a different order: canonicalization makes
        // the address identical.
        let a = sample();
        let b = Certificate::new(
            a.meta.clone(),
            a.kind,
            Json::Object(vec![
                ("horizon".into(), Json::from(2u64)),
                ("path".into(), Json::Array(vec![Json::from(1u64)])),
            ]),
        );
        assert_eq!(a.hash(), b.hash());
    }

    #[test]
    fn hash_changes_with_content() {
        let a = sample();
        let mut b = a.clone();
        b.meta.n = 4;
        assert_ne!(a.hash(), b.hash());
    }

    #[test]
    fn bad_shapes_are_rejected() {
        assert_eq!(Certificate::decode(b"not json"), Err(CertError::NotJson));
        let no_kind = r#"{"v":1,"model":"m","n":3,"layering":"l","claim":"c","body":{}}"#;
        assert_eq!(
            Certificate::decode(no_kind.as_bytes()),
            Err(CertError::Malformed("missing kind"))
        );
        let bad_version =
            r#"{"v":9,"kind":"witness","model":"m","n":3,"layering":"l","claim":"c","body":{}}"#;
        assert_eq!(
            Certificate::decode(bad_version.as_bytes()),
            Err(CertError::BadVersion)
        );
        let bad_kind =
            r#"{"v":1,"kind":"oracle","model":"m","n":3,"layering":"l","claim":"c","body":{}}"#;
        assert_eq!(
            Certificate::decode(bad_kind.as_bytes()),
            Err(CertError::UnknownKind)
        );
    }

    #[test]
    fn kind_keys_round_trip() {
        for kind in [
            CertKind::Witness,
            CertKind::Run,
            CertKind::Schedule,
            CertKind::ScanVerdict,
        ] {
            assert_eq!(CertKind::from_key(kind.key()), Some(kind));
        }
        assert_eq!(CertKind::from_key("zkp"), None);
    }
}
