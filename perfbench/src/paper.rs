//! `paper-full`: one pass runs the 19 paper experiments at full scope.
//!
//! The untraced pass calls each public experiment function. The traced
//! pass replaces the heaviest experiments (E-3.6, E-4.2, E-6.3, E-7.3,
//! E-profile) with mirrors: the same layer calls on the same instances,
//! made from here over [`Timed`] models so every layer boundary is timed.
//! A mirror rebuilds its experiment's table, which must equal the
//! untraced one.

use std::time::Instant;

use layered_async_mp::MpModel;
use layered_async_sm::SmModel;
use layered_bench::{
    bivalence_profile, census, cert_store, covering_sanity, diameter, early_stopping, iis,
    lemma_3_1, lemma_3_6, lemma_6_4, lemma_7_1, lemma_7_4, lemmas_6_1_6_2, lower_bound,
    message_passing, mobile, shared_memory, task_solvability, theorem_4_2, Experiment, Scope,
};
use layered_core::report::{yes_no, Table};
use layered_core::telemetry::Observer;
use layered_core::{
    build_bivalent_run, check_consensus_with, explore_with, scan_layer_valence_connectivity,
    scan_layer_valence_connectivity_parallel, similarity_report_with, valence_report, LayeredModel,
    Valence, ValenceSolver,
};
use layered_protocols::{
    EarlyFloodMin, Eig, FloodMin, MpCollectMin, MpFloodMin, MpIdentity, SmFloodMin,
};
use layered_sync_crash::CrashModel;
use layered_sync_mobile::MobileModel;
use layered_topology::{check_task, tasks};

use crate::check::{normalize, seeded_order, Checks};
use crate::probe::{count, time, Count, Op, Timed};
use crate::Workload;

type ExperimentFn = fn(Scope) -> Experiment;

/// The experiments of `all_experiments(Scope::Full)`, in paper order.
const EXPERIMENTS: [ExperimentFn; 19] = [
    lemma_3_1,
    lemma_3_6,
    theorem_4_2,
    census,
    mobile,
    shared_memory,
    message_passing,
    iis,
    lower_bound,
    lemmas_6_1_6_2,
    lemma_6_4,
    early_stopping,
    task_solvability,
    lemma_7_1,
    lemma_7_4,
    bivalence_profile,
    covering_sanity,
    diameter,
    cert_store,
];

type MirrorFn = fn(&dyn Observer) -> Table;

fn mirror_of(id: &str) -> Option<MirrorFn> {
    match id {
        "E-3.6" => Some(lemma_3_6_mirror),
        "E-4.2" => Some(theorem_4_2_mirror),
        "E-6.3" => Some(lower_bound_mirror),
        "E-7.3" => Some(task_solvability_mirror),
        "E-profile" => Some(bivalence_profile_mirror),
        _ => None,
    }
}

pub struct PaperFull {
    order: Vec<usize>,
    /// Experiment id and normalized table of each experiment, from the
    /// reference pass (paper order, indexed like [`EXPERIMENTS`]).
    reference: Vec<(&'static str, String)>,
}

impl PaperFull {
    pub fn new(seed: u64) -> Self {
        PaperFull {
            order: seeded_order(EXPERIMENTS.len(), seed),
            reference: Vec::new(),
        }
    }

    fn compare(&self, i: usize, table: &Table, how: &str, checks: &mut Checks) {
        let (id, reference) = &self.reference[i];
        checks.check(normalize(table) == *reference, || {
            format!("{id}: {how} table differs from the reference pass")
        });
    }
}

impl Workload for PaperFull {
    fn setup(&mut self, checks: &mut Checks) {
        for f in EXPERIMENTS {
            let exp = f(Scope::Full);
            checks.check(exp.ok, || format!("{}: verdict is not ok", exp.id));
            self.reference.push((exp.id, normalize(&exp.table)));
        }
    }

    fn pass(&mut self, checks: &mut Checks) -> Vec<(String, f64)> {
        let mut times = Vec::new();
        for &i in &self.order {
            let start = Instant::now();
            let exp = EXPERIMENTS[i](Scope::Full);
            times.push((exp.id.to_string(), start.elapsed().as_secs_f64()));
            checks.check(exp.ok, || format!("{}: verdict is not ok", exp.id));
            self.compare(i, &exp.table, "pass", checks);
        }
        times
    }

    fn mirror(&mut self, obs: &dyn Observer, checks: &mut Checks, full: bool) {
        for &i in &self.order {
            let id = self.reference[i].0;
            match mirror_of(id) {
                Some(mirror) => {
                    let table = mirror(obs);
                    self.compare(i, &table, "mirrored", checks);
                }
                None if full => {
                    let exp = EXPERIMENTS[i](Scope::Full);
                    checks.check(exp.ok, || format!("{id}: verdict is not ok"));
                    self.compare(i, &exp.table, "pass", checks);
                }
                None => {}
            }
        }
    }
}

// The mirrors below repeat the experiment bodies of crates/bench with each
// layer call wrapped; captions, headers and cells must match the originals.

fn lemma_3_6_row<M: LayeredModel>(
    model: &M,
    name: &str,
    horizon: usize,
    table: &mut Table,
    obs: &dyn Observer,
) {
    let inits = model.initial_states();
    let sim = time(Op::ConnectivityReport, || {
        similarity_report_with(model, &inits, obs)
    });
    let mut solver = ValenceSolver::with_observer(model, horizon, obs);
    let val = time(Op::ConnectivityReport, || {
        valence_report(model, &mut solver, &inits)
    });
    let bivalent = inits
        .iter()
        .filter(|x| time(Op::ValenceClassify, || solver.valence(x)) == Valence::Bivalent)
        .count();
    count(Count::States, solver.space().len() as u64);
    table.row_owned(vec![
        name.to_string(),
        model.num_processes().to_string(),
        inits.len().to_string(),
        yes_no(sim.connected).to_string(),
        sim.diameter.map_or("-".into(), |d| d.to_string()),
        yes_no(val.connected).to_string(),
        bivalent.to_string(),
    ]);
}

fn lemma_3_6_mirror(obs: &dyn Observer) -> Table {
    let mut table = Table::new(
        "Lemma 3.6 — Con₀ connectivity and bivalent initial states",
        &[
            "model",
            "n",
            "|Con₀|",
            "sim-conn",
            "s-diam",
            "val-conn",
            "#bivalent",
        ],
    );
    for n in [2, 3, 4] {
        let m = Timed(MobileModel::new(n, FloodMin::new(2)));
        lemma_3_6_row(&m, "M^mf (S₁)", 2, &mut table, obs);
        let m = Timed(SmModel::new(n, SmFloodMin::new(2)));
        lemma_3_6_row(&m, "M^rw (S^rw)", 2, &mut table, obs);
        if n <= 3 {
            let m = Timed(MpModel::new(n, MpFloodMin::new(2)));
            lemma_3_6_row(&m, "MP (S^per)", 2, &mut table, obs);
        }
        if n >= 3 {
            let m = Timed(CrashModel::new(n, 1, FloodMin::new(2)));
            lemma_3_6_row(&m, "sync t=1 (S^t)", 2, &mut table, obs);
        }
    }
    table
}

fn theorem_4_2_row<M>(m: &M, name: &str, table: &mut Table, obs: &dyn Observer)
where
    M: LayeredModel + Sync,
    M::State: Send + Sync,
{
    let depth = 2;
    let horizon = depth + 1;
    let mut solver = ValenceSolver::with_observer(m, horizon, obs);
    let scan = time(Op::LayeringScan, || {
        scan_layer_valence_connectivity(&mut solver, depth, true)
    });
    // The experiment hard-codes four workers for this cross-check.
    let mut par_solver = ValenceSolver::with_observer(m, horizon, obs);
    let par_scan = time(Op::LayeringScan, || {
        scan_layer_valence_connectivity_parallel(&mut par_solver, depth, true, 4)
    });
    let run = time(Op::BivalentRun, || build_bivalent_run(&mut solver, depth));
    count(
        Count::LayersScanned,
        (scan.layers_checked + par_scan.layers_checked) as u64,
    );
    count(
        Count::States,
        (solver.space().len() + par_solver.space().len()) as u64,
    );
    let reached = run.reached_target();
    let len = run.chain.as_ref().map_or(0, |c| c.steps());
    table.row_owned(vec![
        name.to_string(),
        "3".to_string(),
        scan.layers_checked.to_string(),
        yes_no(scan.all_connected() && scan == par_scan).to_string(),
        len.to_string(),
        yes_no(reached).to_string(),
    ]);
}

fn theorem_4_2_mirror(obs: &dyn Observer) -> Table {
    let mut table = Table::new(
        "Theorem 4.2 — layer valence connectivity and bivalent runs",
        &[
            "model",
            "n",
            "layers checked",
            "all val-conn",
            "run len",
            "reached",
        ],
    );
    let horizon = 3;
    let m = Timed(MobileModel::new(3, FloodMin::new(horizon)));
    theorem_4_2_row(&m, "M^mf (S₁)", &mut table, obs);
    let m = Timed(SmModel::new(3, SmFloodMin::new(horizon)));
    theorem_4_2_row(&m, "M^rw (S^rw)", &mut table, obs);
    let m = Timed(MpModel::new(3, MpFloodMin::new(horizon)));
    theorem_4_2_row(&m, "MP (S^per)", &mut table, obs);
    table
}

fn lower_bound_mirror(obs: &dyn Observer) -> Table {
    let mut table = Table::new(
        "Corollary 6.3 — the t+1-round lower bound (and tightness)",
        &["n", "t", "protocol", "states", "verdict", "as expected"],
    );
    let mut check = |m: &dyn Fn() -> (usize, Option<String>),
                     n: usize,
                     t: usize,
                     protocol: String,
                     expect_pass: bool| {
        let (states, violation) = time(Op::CheckerCheck, m);
        count(Count::CheckerStates, states as u64);
        let expected = violation.is_none() == expect_pass;
        table.row_owned(vec![
            n.to_string(),
            t.to_string(),
            protocol,
            states.to_string(),
            violation.unwrap_or_else(|| "passed".into()),
            yes_no(expected).to_string(),
        ]);
    };
    for (n, t) in [(3, 1), (4, 1), (4, 2)] {
        let fast = t as u16;
        let tight = (t + 1) as u16;
        let m = Timed(CrashModel::new(n, t, FloodMin::new(fast)));
        check(
            &|| consensus(&m, t, obs),
            n,
            t,
            format!("FloodMin({t})"),
            false,
        );
        let m = Timed(CrashModel::new(n, t, FloodMin::new(tight)));
        check(
            &|| consensus(&m, t + 1, obs),
            n,
            t,
            format!("FloodMin({tight})"),
            true,
        );
        let m = Timed(CrashModel::new(n, t, Eig::new(tight)));
        check(
            &|| consensus(&m, t + 1, obs),
            n,
            t,
            format!("EIG({tight})"),
            true,
        );
        let m = Timed(CrashModel::new(n, t, EarlyFloodMin::new(tight)));
        check(
            &|| consensus(&m, t + 1, obs),
            n,
            t,
            format!("EarlyFloodMin({tight})"),
            true,
        );
    }
    table
}

/// States explored and the first violation's kind.
fn consensus<M: LayeredModel>(
    m: &M,
    horizon: usize,
    obs: &dyn Observer,
) -> (usize, Option<String>) {
    let report = check_consensus_with(m, horizon, 1, obs);
    let violation = report.violations.first().map(|v| v.kind().to_string());
    (report.states_explored, violation)
}

fn task_solvability_mirror(_obs: &dyn Observer) -> Table {
    let mut table = Table::new(
        "Thm 7.2 / Cor 7.3 — 1-thick-connectivity vs. 1-resilient solvability (MP)",
        &[
            "task",
            "n",
            "1-thick-conn",
            "protocol",
            "verdict",
            "consistent",
        ],
    );
    let n = 3usize;
    let mut row = |task: &layered_topology::DecisionTask,
                   protocol: &str,
                   solve: &dyn Fn() -> Option<String>,
                   solvable: bool| {
        let conn = time(Op::TopologySolve, || task.is_k_thick_connected(1));
        let violation = time(Op::TopologySolve, solve);
        let consistent = conn == solvable && violation.is_none() == solvable;
        table.row_owned(vec![
            task.name().into(),
            n.to_string(),
            yes_no(conn).into(),
            protocol.into(),
            violation.unwrap_or_else(|| "solves".into()),
            yes_no(consistent).into(),
        ]);
    };
    let task = tasks::consensus(n);
    let m = Timed(MpModel::new(n, MpFloodMin::new(2)));
    row(&task, "MpFloodMin(2)", &|| solve(&m, &task, 2), false);
    let task = tasks::k_set_agreement(n, 2);
    let m = Timed(MpModel::new(n, MpCollectMin::new(n - 1)).with_obligation(2));
    row(&task, "MpCollectMin(n−1)", &|| solve(&m, &task, 2), true);
    let task = tasks::identity(n);
    let m = Timed(MpModel::new(n, MpIdentity).with_obligation(1));
    row(&task, "MpIdentity", &|| solve(&m, &task, 1), true);
    let task = tasks::pseudo_consensus(n);
    row(&task, "MpIdentity", &|| solve(&m, &task, 1), true);

    let task = tasks::k_set_agreement(n, 1);
    let conn = time(Op::TopologySolve, || task.is_k_thick_connected(1));
    table.row_owned(vec![
        task.name().into(),
        n.to_string(),
        yes_no(conn).into(),
        "-".into(),
        "unsolvable (≡ consensus)".into(),
        yes_no(!conn).into(),
    ]);
    table
}

/// The first violation's kind of a task check, if any.
fn solve<M: LayeredModel>(
    m: &M,
    task: &layered_topology::DecisionTask,
    horizon: usize,
) -> Option<String> {
    let report = check_task(m, task, horizon, 1);
    report.violations.first().map(|v| v.kind().to_string())
}

fn profile_rows<M: LayeredModel>(m: &M, name: &str, table: &mut Table, obs: &dyn Observer) {
    let depth = 2;
    let horizon = depth + 1;
    let mut solver = ValenceSolver::with_observer(m, horizon, obs);
    let exp = explore_with(m, &m.initial_states(), depth, obs);
    count(Count::States, exp.total_states as u64);
    for (d, level) in exp.levels.iter().enumerate() {
        let (mut biv, mut uni, mut none) = (0usize, 0usize, 0usize);
        for x in level {
            match time(Op::ValenceClassify, || solver.valence(x)) {
                Valence::Bivalent => biv += 1,
                Valence::Univalent(_) => uni += 1,
                Valence::NoValence => none += 1,
            }
        }
        table.row_owned(vec![
            name.to_string(),
            d.to_string(),
            level.len().to_string(),
            biv.to_string(),
            uni.to_string(),
            none.to_string(),
        ]);
    }
    count(Count::States, solver.space().len() as u64);
}

fn bivalence_profile_mirror(obs: &dyn Observer) -> Table {
    let mut table = Table::new(
        "Bivalence profile — bivalent states per depth",
        &[
            "model",
            "depth",
            "states",
            "bivalent",
            "univalent",
            "novalence",
        ],
    );
    let horizon = 3;
    let m = Timed(MobileModel::new(3, FloodMin::new(horizon)));
    profile_rows(&m, "M^mf (S₁)", &mut table, obs);
    let m = Timed(SmModel::new(3, SmFloodMin::new(horizon)));
    profile_rows(&m, "M^rw (S^rw)", &mut table, obs);
    let m = Timed(MpModel::new(3, MpFloodMin::new(horizon)));
    profile_rows(&m, "MP (S^per)", &mut table, obs);
    let m = Timed(CrashModel::new(3, 1, FloodMin::new(horizon)));
    profile_rows(&m, "sync t=1 (S^t)", &mut table, obs);
    table
}
