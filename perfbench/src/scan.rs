//! `scan-sym` and `resume-warm`: the Lemma 5.1 scan family.
//!
//! Untraced passes call the public scan experiments (`interned_scan`,
//! `quotient_scan`, `quotient_scan_certified`). Traced passes mirror
//! their bodies over [`Timed`] models and rebuild the same tables, which
//! must equal the untraced ones.

use std::path::{Path, PathBuf};
use std::time::Instant;

use layered_bench::{
    interned_scan, quotient_scan, quotient_scan_certified, ScanConfig, QUOTIENT_SNAPSHOT_FILE,
};
use layered_cert::{registry, CertStore};
use layered_core::report::Table;
use layered_core::telemetry::{Observer, NOOP};
use layered_core::{
    load_quotient, save_quotient, scan_layer_valence_connectivity,
    scan_layer_valence_connectivity_parallel, scan_layer_valence_connectivity_quotient,
    scan_layer_valence_connectivity_quotient_parallel, ArenaMeta, ImpossibilityWitness,
    QuotientSolver, ValenceSolver,
};
use layered_protocols::FloodMin;
use layered_sync_mobile::{MobileLayering, MobileModel, MODEL_KEY};

use crate::check::{normalize, row, seeded_order, Checks};
use crate::probe::{count, time, Count, Op, Timed};
use crate::Workload;

/// One scan instance: the interned scan (`E-scan`) or the quotient scan
/// (`E-sym`) at `n` processes.
#[derive(Clone, Copy, Debug)]
struct Instance {
    quotient: bool,
    n: usize,
    depth: usize,
}

impl Instance {
    fn label(self) -> String {
        let id = if self.quotient { "E-sym" } else { "E-scan" };
        format!("{id}.n{}", self.n)
    }

    fn config(self, threads: usize) -> ScanConfig {
        ScanConfig {
            n: self.n,
            depth: self.depth,
            threads,
            quotient: self.quotient,
            ..ScanConfig::default()
        }
    }
}

/// The instances `bench regress` covers, in canonical order.
const SCAN_SYM: [Instance; 4] = [
    Instance {
        quotient: false,
        n: 4,
        depth: 1,
    },
    Instance {
        quotient: true,
        n: 4,
        depth: 1,
    },
    Instance {
        quotient: true,
        n: 5,
        depth: 1,
    },
    Instance {
        quotient: true,
        n: 6,
        depth: 1,
    },
];

/// The resumed instance: E-sym at n = 6, depth 2.
const RESUMED: Instance = Instance {
    quotient: true,
    n: 6,
    depth: 2,
};

/// The per-check verdicts a scan table carries: seq ≡ par, quotient ≡
/// full (quotient scans at n ≤ 5 only) and the witness re-verification.
fn table_checks(label: &str, quotient: bool, n: usize, table: &str, checks: &mut Checks) {
    let cross = row(table, "cross-check").unwrap_or_default();
    if quotient {
        let seq = row(table, "quotient (seq)");
        let par = row(table, "quotient (par)").map(|r| r.replace("(par)", "(seq)"));
        checks.check(seq.is_some() && seq == par.as_deref(), || {
            format!("{label}: sequential and parallel quotient scans differ")
        });
        if n <= 5 {
            checks.check(cross.contains("verdicts agree"), || {
                format!("{label}: quotient and full verdicts differ")
            });
        }
    } else {
        checks.check(cross.contains("identical"), || {
            format!("{label}: sequential and parallel scans differ")
        });
    }
    checks.check(cross.contains("witness ok"), || {
        format!("{label}: witness does not verify")
    });
}

pub struct ScanSym {
    threads: usize,
    order: Vec<usize>,
    reference: Vec<String>,
}

impl ScanSym {
    pub fn new(seed: u64, threads: usize) -> Self {
        ScanSym {
            threads,
            order: seeded_order(SCAN_SYM.len(), seed),
            reference: Vec::new(),
        }
    }

    fn run(&self, inst: Instance) -> (bool, String) {
        let cfg = inst.config(self.threads);
        let exp = if inst.quotient {
            quotient_scan(&cfg)
        } else {
            interned_scan(&cfg)
        };
        (exp.ok, normalize(&exp.table))
    }
}

impl Workload for ScanSym {
    fn setup(&mut self, checks: &mut Checks) {
        for inst in SCAN_SYM {
            let (ok, table) = self.run(inst);
            let label = inst.label();
            checks.check(ok, || format!("{label}: verdict is not ok"));
            table_checks(&label, inst.quotient, inst.n, &table, checks);
            self.reference.push(table);
        }
    }

    fn pass(&mut self, checks: &mut Checks) -> Vec<(String, f64)> {
        let mut times = Vec::new();
        for &i in &self.order {
            let inst = SCAN_SYM[i];
            let label = inst.label();
            let start = Instant::now();
            let (ok, table) = self.run(inst);
            times.push((label.clone(), start.elapsed().as_secs_f64()));
            checks.check(ok, || format!("{label}: verdict is not ok"));
            table_checks(&label, inst.quotient, inst.n, &table, checks);
            checks.check(table == self.reference[i], || {
                format!("{label}: table differs from the reference pass")
            });
        }
        times
    }

    fn mirror(&mut self, obs: &dyn Observer, checks: &mut Checks, _full: bool) {
        for &i in &self.order {
            let inst = SCAN_SYM[i];
            let label = inst.label();
            let table = if inst.quotient {
                normalize(&sym_mirror(inst, self.threads, None, obs).0)
            } else {
                normalize(&scan_mirror(inst, self.threads, obs))
            };
            table_checks(&label, inst.quotient, inst.n, &table, checks);
            checks.check(table == self.reference[i], || {
                format!("{label}: mirrored table differs from the untraced one")
            });
        }
    }
}

pub struct ResumeWarm {
    threads: usize,
    arena: PathBuf,
    store: PathBuf,
    /// Normalized table of the cold scan that wrote the snapshot.
    cold: String,
    /// Normalized table of the first warm pass.
    reference: String,
    /// Address of the cold scan's certificate in the store.
    cold_hash: String,
}

impl ResumeWarm {
    pub fn new(threads: usize, work: &Path) -> Self {
        ResumeWarm {
            threads,
            arena: work.join("arena"),
            store: work.join("certs"),
            cold: String::new(),
            reference: String::new(),
            cold_hash: String::new(),
        }
    }

    fn config(&self, warm: bool) -> ScanConfig {
        let dir = Some(self.arena.to_string_lossy().into_owned());
        let mut cfg = RESUMED.config(self.threads);
        if warm {
            cfg.resume_dir = dir;
        } else {
            cfg.snapshot_dir = dir;
        }
        cfg
    }

    /// Reads every stored certificate back and re-verifies it.
    fn read_back(&self, obs: &dyn Observer, checks: &mut Checks) {
        let store = CertStore::open(&self.store);
        checks.check(store.is_ok(), || "certificate store does not open".into());
        let Ok(store) = store else { return };
        let hashes: Vec<String> = store.entries().iter().map(|e| e.hash.clone()).collect();
        checks.check(!hashes.is_empty(), || "certificate store is empty".into());
        for hash in hashes {
            let cert = time(Op::CertGet, || store.get(&hash, obs));
            let Ok(Some(cert)) = cert else {
                checks.check(false, || format!("certificate {hash} cannot be read back"));
                continue;
            };
            let verified = time(Op::CertVerify, || registry::verify(&cert, obs));
            checks.check(verified.is_ok(), || {
                format!("certificate {hash} fails re-verification: {verified:?}")
            });
        }
    }

    fn snapshot_bytes(&self, checks: &mut Checks) -> Vec<u8> {
        let bytes = std::fs::read(self.arena.join(QUOTIENT_SNAPSHOT_FILE));
        checks.check(bytes.is_ok(), || "snapshot cannot be read".into());
        bytes.unwrap_or_default()
    }

    /// One warm resume through the public experiment: returns its
    /// normalized table after checking its verdicts and that its
    /// certificate is byte-identical to the cold scan's.
    fn warm(&self, checks: &mut Checks) -> String {
        let (exp, cert) = quotient_scan_certified(&self.config(true), &NOOP);
        let label = "E-sym.n6 (resumed)";
        checks.check(exp.ok, || format!("{label}: verdict is not ok"));
        let table = normalize(&exp.table);
        table_checks(label, true, RESUMED.n, &table, checks);
        checks.check(cert.is_some_and(|c| c.hash() == self.cold_hash), || {
            format!("{label}: certificate differs from the cold scan's")
        });
        table
    }
}

impl Workload for ResumeWarm {
    fn setup(&mut self, checks: &mut Checks) {
        let _ = std::fs::remove_dir_all(&self.arena);
        let _ = std::fs::remove_dir_all(&self.store);
        let (exp, cert) = quotient_scan_certified(&self.config(false), &NOOP);
        let label = "E-sym.n6 (cold)";
        checks.check(exp.ok, || format!("{label}: verdict is not ok"));
        self.cold = normalize(&exp.table);
        table_checks(label, true, RESUMED.n, &self.cold, checks);
        let stored = cert.ok_or("no certificate").and_then(|cert| {
            let mut store = CertStore::open(&self.store).map_err(|_| "store does not open")?;
            store
                .put(&cert, &NOOP)
                .map(|(hash, _)| hash)
                .map_err(|_| "certificate cannot be stored")
        });
        checks.check(stored.is_ok(), || format!("{label}: {stored:?}"));
        self.cold_hash = stored.unwrap_or_default();
        self.reference = self.warm(checks);
    }

    fn pass(&mut self, checks: &mut Checks) -> Vec<(String, f64)> {
        let start = Instant::now();
        let table = self.warm(checks);
        let wall = start.elapsed().as_secs_f64();
        checks.check(table == self.reference, || {
            "E-sym.n6 (resumed): table differs from the reference pass".into()
        });
        self.read_back(&NOOP, checks);
        vec![("E-sym.n6-resume".to_string(), wall)]
    }

    fn mirror(&mut self, obs: &dyn Observer, checks: &mut Checks, _full: bool) {
        let bytes = self.snapshot_bytes(checks);
        let (resumed, without_note) = sym_mirror(RESUMED, self.threads, Some(&bytes), obs);
        let table = normalize(&resumed);
        table_checks(
            "E-sym.n6 (mirrored resume)",
            true,
            RESUMED.n,
            &table,
            checks,
        );
        checks.check(table == self.reference, || {
            "E-sym.n6 (resumed): mirrored table differs from the untraced one".into()
        });
        checks.check(normalize(&without_note) == self.cold, || {
            "E-sym.n6 (resumed): mirrored resume differs from the cold scan".into()
        });
        self.read_back(obs, checks);
    }

    fn setup_layers(&mut self, obs: &dyn Observer, checks: &mut Checks) {
        let horizon = RESUMED.depth + 1;
        let m = Timed(mobile_full(RESUMED.n, horizon));
        let mut solver = QuotientSolver::with_observer(&m, horizon, obs);
        time(Op::LayeringScan, || {
            scan_layer_valence_connectivity_quotient(&mut solver, RESUMED.depth, true)
        });
        let meta = ArenaMeta {
            model: MODEL_KEY.to_string(),
            protocol: "floodmin".to_string(),
            n: RESUMED.n as u64,
            horizon: horizon as u64,
            depth: RESUMED.depth as u64,
            layering: "full".to_string(),
        };
        let (bytes, _) = time(Op::SnapshotSave, || {
            save_quotient(solver.space(), &meta, obs)
        });
        let written = self.snapshot_bytes(checks);
        checks.check(bytes == written, || {
            "mirrored cold scan writes a different snapshot than the program".into()
        });
    }
}

fn mobile_full(n: usize, horizon: usize) -> MobileModel<FloodMin> {
    MobileModel::new(n, FloodMin::new(horizon as u16)).with_layering(MobileLayering::Full)
}

fn scan_row(model: &str, n: usize, path: &str, scan: (usize, usize, bool)) -> Vec<String> {
    let (layers, states, connected) = scan;
    vec![
        model.to_string(),
        n.to_string(),
        path.to_string(),
        layers.to_string(),
        states.to_string(),
        if connected { "yes" } else { "no" }.to_string(),
        "0.0".to_string(),
    ]
}

fn witness_cell(verified: bool) -> String {
    if verified {
        "witness ok"
    } else {
        "witness BAD"
    }
    .to_string()
}

/// Mirror of `interned_scan` (no snapshot, no resume).
fn scan_mirror(inst: Instance, threads: usize, obs: &dyn Observer) -> Table {
    let mut table = Table::new(
        "Interned layer scan — sequential vs. parallel expansion",
        &[
            "model",
            "n",
            "path",
            "layers checked",
            "states seen",
            "all val-conn",
            "wall ms",
        ],
    );
    let (n, depth) = (inst.n, inst.depth);
    let horizon = depth + 1;
    let m = Timed(MobileModel::new(n, FloodMin::new(horizon as u16)));
    let mut solver = ValenceSolver::with_observer(&m, horizon, obs);
    let seq = time(Op::LayeringScan, || {
        scan_layer_valence_connectivity(&mut solver, depth, true)
    });
    let mut par_solver = ValenceSolver::with_observer(&m, horizon, obs);
    let par = time(Op::LayeringScan, || {
        scan_layer_valence_connectivity_parallel(&mut par_solver, depth, true, threads)
    });
    count(
        Count::States,
        (solver.space().len() + par_solver.space().len()) as u64,
    );
    count(
        Count::LayersScanned,
        (seq.layers_checked + par.layers_checked) as u64,
    );
    let witness = time(Op::WitnessBuild, || {
        ImpossibilityWitness::build(&m, horizon, depth)
    });
    let verified = witness
        .as_ref()
        .is_some_and(|w| time(Op::WitnessVerify, || w.verify(&m).is_ok()));
    let label = "M^mf (S₁)";
    for (path, scan) in [("sequential", &seq), ("parallel", &par)] {
        let cells = (scan.layers_checked, scan.states_seen, scan.all_connected());
        table.row_owned(scan_row(label, n, path, cells));
    }
    table.row_owned(vec![
        label.to_string(),
        n.to_string(),
        "cross-check".to_string(),
        "-".to_string(),
        "-".to_string(),
        if seq == par { "identical" } else { "DIVERGED" }.to_string(),
        witness_cell(verified),
    ]);
    table
}

/// Mirror of `quotient_scan`, resuming from `resume` snapshot bytes when
/// given. Returns the table and the same table without its resume row.
fn sym_mirror(
    inst: Instance,
    threads: usize,
    resume: Option<&[u8]>,
    obs: &dyn Observer,
) -> (Table, Table) {
    let (n, depth) = (inst.n, inst.depth);
    let horizon = depth + 1;
    let m = Timed(mobile_full(n, horizon));
    let label = "M^mf (Full)";

    let mut note = None;
    let mut spaces = (None, None);
    if let Some(bytes) = resume {
        count(Count::SnapshotBytes, 2 * bytes.len() as u64);
        let a = time(Op::SnapshotLoad, || load_quotient(&m, bytes, obs));
        let b = time(Op::SnapshotLoad, || load_quotient(&m, bytes, obs));
        match (a, b) {
            (Ok((a, meta, _)), Ok((b, _, _))) => {
                note = Some(if meta.horizon == horizon as u64 {
                    format!(
                        "resumed: {} orbits, {} edges reused",
                        a.len(),
                        a.edge_count()
                    )
                } else {
                    format!("snapshot horizon {} is not {horizon}", meta.horizon)
                });
                spaces = (Some(a), Some(b));
            }
            _ => note = Some("snapshot ERROR".to_string()),
        }
    }

    let solver_for = |space| match space {
        Some(space) => QuotientSolver::with_space(&m, horizon, space, obs),
        None => QuotientSolver::with_observer(&m, horizon, obs),
    };
    let mut solver = solver_for(spaces.0);
    let before = solver.space().len();
    let quot = time(Op::LayeringScan, || {
        scan_layer_valence_connectivity_quotient(&mut solver, depth, true)
    });
    let orbits = solver.space().len();
    let covered = solver.space().covered_states();
    let mut par_solver = solver_for(spaces.1);
    let par_before = par_solver.space().len();
    let par = time(Op::LayeringScan, || {
        scan_layer_valence_connectivity_quotient_parallel(&mut par_solver, depth, true, threads)
    });
    let par_orbits = par_solver.space().len();
    // Quotient arenas count dedup hits but not new orbits; count those here.
    count(
        Count::InternMisses,
        (orbits - before + par_orbits - par_before) as u64,
    );
    count(Count::States, (orbits + par_orbits) as u64);

    let full = (n <= 5).then(|| {
        let mut solver = ValenceSolver::with_observer(&m, horizon, obs);
        let scan = time(Op::LayeringScan, || {
            scan_layer_valence_connectivity(&mut solver, depth, true)
        });
        count(Count::States, solver.space().len() as u64);
        count(Count::LayersScanned, scan.layers_checked as u64);
        scan
    });
    count(
        Count::LayersScanned,
        (quot.layers_checked + par.layers_checked) as u64,
    );

    let witness = time(Op::WitnessBuild, || {
        ImpossibilityWitness::build_quotient(&m, horizon, depth)
    });
    let verified = witness
        .as_ref()
        .is_some_and(|w| time(Op::WitnessVerify, || w.verify(&m).is_ok()));

    let mut rows = Vec::new();
    if let Some(scan) = &full {
        let cells = (scan.layers_checked, scan.states_seen, scan.all_connected());
        rows.push(scan_row(label, n, "full", cells));
    }
    for (space, scan) in [("quotient (seq)", &quot), ("quotient (par)", &par)] {
        let cells = (scan.layers_checked, scan.states_seen, scan.all_connected());
        rows.push(scan_row(label, n, space, cells));
    }
    let parity = full
        .as_ref()
        .is_none_or(|scan| scan.violation.is_none() == quot.violation.is_none());
    let factor = if n >= 5 { 10 } else { 3 };
    let reduced = n < 4
        || full
            .as_ref()
            .is_none_or(|scan| scan.states_seen >= factor * quot.states_seen);
    rows.push(vec![
        label.to_string(),
        n.to_string(),
        "cross-check".to_string(),
        format!("{orbits} orbits"),
        format!("{covered} covered"),
        match (&full, parity, reduced) {
            (None, _, _) => "quotient only".to_string(),
            (Some(_), true, true) => "verdicts agree".to_string(),
            (Some(_), false, _) => "verdict DIVERGED".to_string(),
            (Some(_), _, false) => format!("reduction < {factor}x"),
        },
        witness_cell(verified),
    ]);

    let new_table = || {
        Table::new(
            "Symmetry-reduced layer scan — canonical orbits vs. the full space",
            &[
                "model",
                "n",
                "space",
                "layers checked",
                "states seen",
                "all val-conn",
                "wall ms",
            ],
        )
    };
    let mut without_note = new_table();
    for r in &rows {
        without_note.row_owned(r.clone());
    }
    if let Some(note) = note {
        rows.push(vec![
            label.to_string(),
            n.to_string(),
            "resume".to_string(),
            "-".to_string(),
            "-".to_string(),
            note,
            "-".to_string(),
        ]);
    }
    let mut table = new_table();
    for r in rows {
        table.row_owned(r);
    }
    (table, without_note)
}
