//! Simulation batches for the experiment harness (`experiments --sim`).
//!
//! Complements the exhaustive experiments: where those enumerate every run
//! on tiny instances, a simulation batch executes seeded adversary-vs-
//! protocol games over all four model families at sizes the enumerator
//! cannot reach, classifies each run with the checker's own predicate, and
//! emits one JSON record per run — the machine-readable stream behind the
//! printed summary table.

use layered_async_mp::MpModel;
use layered_async_sm::SmModel;
use layered_cert::{registry, Certificate};
use layered_core::report::Table;
use layered_core::telemetry::json::Json;
use layered_core::telemetry::{MetricsRegistry, Observer, NOOP};
use layered_core::SimModel;
use layered_protocols::{FloodMin, MpFloodMin, MpProtocol, SmFloodMin, SmProtocol, SyncProtocol};
use layered_sim::{
    classify, run_record, shrink, Adversary, MessageDropper, MobileRoamer, RandomAdversary,
    RoundRobinAdversary, SimConfig, Simulator,
};
use layered_sync_crash::CrashModel;
use layered_sync_mobile::MobileModel;

/// Configuration of one `--sim` invocation.
#[derive(Clone, Debug)]
pub struct SimBatchConfig {
    /// Master seed (`--seed`).
    pub seed: u64,
    /// Runs per model family (`--runs`).
    pub runs: usize,
    /// Number of processes (`--n`).
    pub n: usize,
    /// Layers per run (`--horizon`).
    pub horizon: usize,
    /// Adversary strategy name (`--adversary`): `random`, `round-robin`,
    /// `roamer`, or `dropper`.
    pub adversary: String,
}

impl Default for SimBatchConfig {
    fn default() -> Self {
        SimBatchConfig {
            seed: 0xc0ffee,
            runs: 25,
            n: 4,
            horizon: 8,
            adversary: "random".to_string(),
        }
    }
}

/// The result of a simulation batch: the summary table and one JSON record
/// per run, in run order.
#[derive(Clone, Debug)]
pub struct SimBatch {
    /// Per-model-family outcome summary.
    pub table: Table,
    /// One record per simulated run, plus one `"experiment": "sim-shrink"`
    /// record per violating run with its ddmin-minimized schedule (the
    /// `--json` stream, canonicalized).
    pub records: Vec<Json>,
    /// One schedule certificate per violating run (the ddmin-shrunk
    /// reproduction), ready for a `--store` directory.
    pub certificates: Vec<Certificate>,
    /// Whether every shrunk schedule re-verified: replay reproduces the
    /// original violation class and, at enumerable sizes, the replayed
    /// trace validates as a genuine `S`-execution. `false` is a harness
    /// bug, not a model finding — the `--sim` mode exits nonzero on it.
    pub verified: bool,
    /// Total faults injected across the batch.
    pub faults: u64,
    /// Telemetry counters recorded by the runtime.
    pub metrics: layered_core::telemetry::MetricsSnapshot,
}

/// Naming and reconstruction parameters of one model family in the batch:
/// the short name used in sim records, the certificate-store model key,
/// and what it takes to rebuild the model when re-verifying (protocol
/// deadline, crash resilience).
struct FamilyIdentity<'a> {
    sim_name: &'static str,
    cert_model: &'static str,
    protocol: &'a str,
    deadline: u16,
    resilience: Option<usize>,
}

/// Tallies of one family's batch.
struct FamilyTally {
    decided: usize,
    undecided: usize,
    agreement: usize,
    validity: usize,
    faults: usize,
}

/// Everything a family batch feeds back into the harness besides its
/// tally: the `--json` records, the shrunk-schedule certificates, and the
/// re-verification verdict.
struct FamilyOutput<'a> {
    records: &'a mut Vec<Json>,
    certificates: &'a mut Vec<Certificate>,
    verified: &'a mut bool,
}

fn run_family<M, A>(
    model: &M,
    family: &FamilyIdentity<'_>,
    observer: &dyn Observer,
    cfg: &SimBatchConfig,
    make_adversary: impl FnMut() -> A,
    out: &mut FamilyOutput<'_>,
) -> FamilyTally
where
    M: SimModel,
    A: Adversary<M>,
{
    let sim = Simulator::with_observer(model, observer);
    let config = SimConfig::new(cfg.seed, cfg.runs, cfg.horizon);
    let mut tally = FamilyTally {
        decided: 0,
        undecided: 0,
        agreement: 0,
        validity: 0,
        faults: 0,
    };
    let mut make_adversary = make_adversary;
    let adversary_name = make_adversary().name();
    for run in sim.run_many(&config, &mut make_adversary) {
        match run.outcome.class() {
            "decided" => tally.decided += 1,
            "undecided" => tally.undecided += 1,
            "agreement" => tally.agreement += 1,
            _ => tally.validity += 1,
        }
        tally.faults += run.faults;
        out.records.push(run_record(
            model,
            &run,
            family.sim_name,
            family.protocol,
            &adversary_name,
        ));
        if !run.outcome.is_violation() {
            continue;
        }
        // Satellite: every violation ships with its ddmin-shrunk
        // reproduction — as a canonicalized `--json` record (the same
        // stream as the runs) and as a storable schedule certificate.
        let class = run.outcome.class();
        let small = shrink(model, &run.schedule, class);
        let replayed = small.replay(model);
        let replays_ok = classify(model, replayed.states()).class() == class;
        out.records.push(
            Json::Object(vec![
                ("experiment".to_string(), Json::from("sim-shrink")),
                ("model".to_string(), Json::from(family.sim_name)),
                ("n".to_string(), Json::from(model.num_processes() as u64)),
                ("run".to_string(), Json::from(run.index as u64)),
                ("outcome".to_string(), Json::from(class)),
                (
                    "original_len".to_string(),
                    Json::from(run.schedule.len() as u64),
                ),
                ("shrunk_len".to_string(), Json::from(small.len() as u64)),
                ("schedule".to_string(), small.to_json_full(model)),
            ])
            .canonicalize(),
        );
        match registry::schedule_certificate(
            family.cert_model,
            model,
            family.deadline,
            family.resilience,
            class,
            &small,
        ) {
            Ok(cert) => {
                // Re-verify through the same path a stored read uses:
                // replay class match, plus trace validation at enumerable
                // sizes. A failure here is a harness bug and fails the
                // batch.
                if !replays_ok || registry::verify(&cert, &NOOP).is_err() {
                    *out.verified = false;
                }
                out.certificates.push(cert);
            }
            Err(_) => *out.verified = false,
        }
    }
    tally
}

/// Runs `cfg.runs` seeded simulations in each of the four model families
/// and summarizes the outcome classes.
///
/// Every record is a pure function of `(cfg.seed, run index)`; re-invoking
/// with the same configuration reproduces the batch byte-for-byte.
#[must_use]
pub fn sim_batch(cfg: &SimBatchConfig) -> SimBatch {
    let registry = MetricsRegistry::new();
    let mut records = Vec::new();
    let mut table = Table::new(
        &format!(
            "Simulation: {} runs/model, n = {}, horizon = {}, seed = {}, adversary = {}",
            cfg.runs, cfg.n, cfg.horizon, cfg.seed, cfg.adversary
        ),
        &[
            "model",
            "protocol",
            "decided",
            "undecided",
            "agreement",
            "validity",
            "faults",
        ],
    );
    let n = cfg.n;
    let deadline = u16::try_from(cfg.horizon).unwrap_or(u16::MAX).max(1);
    let mut certificates = Vec::new();
    let mut verified = true;

    let mut families: Vec<(&str, String, FamilyTally)> = Vec::new();

    {
        let protocol = FloodMin::new(deadline);
        let name = SyncProtocol::name(&protocol);
        let model = MobileModel::new(n, protocol);
        let identity = FamilyIdentity {
            sim_name: "mobile",
            cert_model: layered_sync_mobile::MODEL_KEY,
            protocol: &name,
            deadline,
            resilience: None,
        };
        let mut out = FamilyOutput {
            records: &mut records,
            certificates: &mut certificates,
            verified: &mut verified,
        };
        let tally = dispatch(&model, &identity, &registry, cfg, &mut out);
        families.push(("mobile (S1)", name, tally));
    }
    {
        let protocol = FloodMin::new(deadline);
        let name = SyncProtocol::name(&protocol);
        // CrashModel requires 1 <= t <= n - 2 (so n >= 3).
        let t = (n / 2).clamp(1, n - 2);
        let model = CrashModel::new(n, t, protocol);
        let identity = FamilyIdentity {
            sim_name: "crash",
            cert_model: layered_sync_crash::MODEL_KEY,
            protocol: &name,
            deadline,
            resilience: Some(t),
        };
        let mut out = FamilyOutput {
            records: &mut records,
            certificates: &mut certificates,
            verified: &mut verified,
        };
        let tally = dispatch(&model, &identity, &registry, cfg, &mut out);
        families.push(("crash (S^t)", name, tally));
    }
    {
        let protocol = SmFloodMin::new(deadline);
        let name = SmProtocol::name(&protocol);
        let model = SmModel::new(n, protocol);
        let identity = FamilyIdentity {
            sim_name: "sm",
            cert_model: layered_async_sm::MODEL_KEY,
            protocol: &name,
            deadline,
            resilience: None,
        };
        let mut out = FamilyOutput {
            records: &mut records,
            certificates: &mut certificates,
            verified: &mut verified,
        };
        let tally = dispatch(&model, &identity, &registry, cfg, &mut out);
        families.push(("shared memory (S^rw)", name, tally));
    }
    {
        let protocol = MpFloodMin::new(deadline);
        let name = MpProtocol::name(&protocol);
        let model = MpModel::new(n, protocol);
        let identity = FamilyIdentity {
            sim_name: "mp",
            cert_model: layered_async_mp::MODEL_KEY,
            protocol: &name,
            deadline,
            resilience: None,
        };
        let mut out = FamilyOutput {
            records: &mut records,
            certificates: &mut certificates,
            verified: &mut verified,
        };
        let tally = dispatch(&model, &identity, &registry, cfg, &mut out);
        families.push(("message passing (S^per)", name, tally));
    }

    let mut faults = 0u64;
    for (family, protocol, tally) in &families {
        faults += tally.faults as u64;
        table.row_owned(vec![
            (*family).to_string(),
            protocol.clone(),
            tally.decided.to_string(),
            tally.undecided.to_string(),
            tally.agreement.to_string(),
            tally.validity.to_string(),
            tally.faults.to_string(),
        ]);
    }

    SimBatch {
        table,
        records,
        certificates,
        verified,
        faults,
        metrics: registry.snapshot(),
    }
}

/// Runs one family under the adversary named in `cfg`.
fn dispatch<M: SimModel>(
    model: &M,
    family: &FamilyIdentity<'_>,
    observer: &dyn Observer,
    cfg: &SimBatchConfig,
    out: &mut FamilyOutput<'_>,
) -> FamilyTally {
    match cfg.adversary.as_str() {
        "round-robin" => run_family(
            model,
            family,
            observer,
            cfg,
            || RoundRobinAdversary::new(2),
            out,
        ),
        "roamer" => run_family(model, family, observer, cfg, MobileRoamer::default, out),
        "dropper" => run_family(
            model,
            family,
            observer,
            cfg,
            || MessageDropper::new(300),
            out,
        ),
        _ => run_family(model, family, observer, cfg, || RandomAdversary, out),
    }
}

/// Whether `name` is a recognized `--adversary` value.
#[must_use]
pub fn known_adversary(name: &str) -> bool {
    matches!(name, "random" | "round-robin" | "roamer" | "dropper")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_is_reproducible() {
        let cfg = SimBatchConfig {
            runs: 3,
            n: 3,
            horizon: 3,
            ..SimBatchConfig::default()
        };
        let a = sim_batch(&cfg);
        let b = sim_batch(&cfg);
        let sim_records = a
            .records
            .iter()
            .filter(|r| r.get("experiment").and_then(Json::as_str) == Some("sim"))
            .count();
        assert_eq!(sim_records, 4 * 3);
        let render = |batch: &SimBatch| {
            batch
                .records
                .iter()
                .map(Json::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(render(&a), render(&b));
        assert_eq!(a.faults, b.faults);
    }

    #[test]
    fn telemetry_counts_runs_and_steps() {
        let cfg = SimBatchConfig {
            runs: 2,
            n: 3,
            horizon: 2,
            ..SimBatchConfig::default()
        };
        let batch = sim_batch(&cfg);
        assert_eq!(batch.metrics.counter("sim.runs"), 4 * 2);
        assert!(batch.metrics.counter("sim.steps") <= 4 * 2 * 2);
        assert!(batch.metrics.counter("sim.steps") > 0);
    }

    #[test]
    fn adversary_names_validate() {
        assert!(known_adversary("random"));
        assert!(known_adversary("dropper"));
        assert!(!known_adversary("omniscient"));
    }
}
