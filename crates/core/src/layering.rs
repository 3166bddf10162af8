//! The layering engine (Section 4 of the paper).
//!
//! Lemma 4.1: if `x` is bivalent and `S(x)` is valence connected, then
//! `S(x)` contains a bivalent state. Theorem 4.2 iterates this from a
//! bivalent initial state (supplied by Lemma 3.6) into an ever-bivalent run,
//! contradicting *Decision* — the unified impossibility argument.
//!
//! This module mechanizes both steps: [`bivalent_successor`] is Lemma 4.1
//! for one layer, [`build_bivalent_run`] is the Theorem 4.2 loop, and
//! [`scan_layer_valence_connectivity`] verifies the theorem's premise (iii)
//! — valence connectivity of every layer — over the reachable graph.
//!
//! # Horizon soundness
//!
//! Valence is computed within a finite horizon and therefore
//! *under-approximates* the paper's notion (see [`crate::valence`]): every
//! state reported bivalent is genuinely bivalent, so every chain produced
//! here is a sound impossibility witness. When the chain cannot be extended,
//! the outcome records why — typically because the protocol under analysis
//! already violates Decision/Agreement/Validity at the horizon, which the
//! [checker](crate::checker) surfaces separately.

use std::ops::ControlFlow;

use crate::connectivity::{valence_report_ids, ConnectivityReport};
use crate::model::ExecutionTrace;
use crate::space::{sweep, Arena, Canonicalization, StateId};
use crate::sym::Symmetric;
use crate::telemetry::Span;
use crate::valence::{undecided_non_failed, QuotientSolver, Solver, Valence};
use crate::{LayeredModel, ValenceSolver};

/// Lemma 4.1, executed: a bivalent state in `S(x)`, if any.
///
/// Picks the first bivalent successor in the model's successor order, which
/// keeps runs deterministic and reproducible. Thin wrapper over
/// [`bivalent_successor_id`].
pub fn bivalent_successor<M: LayeredModel>(
    solver: &mut ValenceSolver<'_, M>,
    x: &M::State,
) -> Option<M::State> {
    let id = solver.intern(x);
    let y = bivalent_successor_id(solver, id)?;
    Some(solver.space().resolve(y))
}

/// Id-typed twin of [`bivalent_successor`]: walks the interned successor
/// list of `x` (cached in the solver's arena) without cloning states. Over
/// orbits this is the first bivalent orbit of the collapsed layer, in edge
/// order.
pub fn bivalent_successor_id<M: LayeredModel, C: Canonicalization<M>>(
    solver: &mut Solver<'_, M, C>,
    x: StateId,
) -> Option<StateId> {
    let obs = solver.observer();
    solver.successor_ids(x).into_iter().find(|&y| {
        obs.counter("layering.candidates_tested", 1);
        solver.is_bivalent_id(y)
    })
}

/// Why a bivalent run stopped before reaching its target length.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Stuck {
    /// No initial state is bivalent. By Lemma 3.6, a protocol satisfying
    /// Decision and Validity (with arbitrary-crash display on `Con₀`) must
    /// have one, so this certifies a violation of one of those requirements
    /// within the horizon.
    NoBivalentInitialState,
    /// The chain reached a bivalent state whose layer contains no bivalent
    /// state. If the layer is valence connected, Lemma 4.1 says this is
    /// impossible for a decision-satisfying protocol; the attached report
    /// shows which premise broke.
    NoBivalentSuccessor {
        /// Depth at which the chain stalled.
        depth: usize,
        /// Valence connectivity of the stalling layer.
        layer_report: ConnectivityReport,
    },
}

/// Result of the Theorem 4.2 construction.
#[derive(Clone, Debug)]
pub struct BivalentRunOutcome<S> {
    /// The constructed chain of bivalent states (always starts at an initial
    /// state when one bivalent initial state exists).
    pub chain: Option<ExecutionTrace<S>>,
    /// Why construction stopped early, if it did.
    pub stuck: Option<Stuck>,
    /// For each chain state, the number of non-failed undecided processes —
    /// the quantity Lemma 3.1 lower-bounds by `n − t`.
    pub undecided_per_state: Vec<usize>,
}

impl<S> BivalentRunOutcome<S> {
    /// Whether a chain of the requested length was built.
    #[must_use]
    pub fn reached_target(&self) -> bool {
        self.stuck.is_none() && self.chain.is_some()
    }
}

/// Id-typed result of the Theorem 4.2 construction: the chain is a path of
/// [`StateId`]s into the solver's arena, materialized into full states only
/// at the API boundary (see [`InternedRun::materialize`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InternedRun {
    /// The constructed chain of bivalent state ids (empty when no bivalent
    /// initial state exists).
    pub chain: Vec<StateId>,
    /// Why construction stopped early, if it did.
    pub stuck: Option<Stuck>,
    /// Non-failed undecided process counts along the chain (Lemma 3.1).
    pub undecided_per_state: Vec<usize>,
}

impl InternedRun {
    /// Whether a chain of the requested length was built.
    #[must_use]
    pub fn reached_target(&self) -> bool {
        self.stuck.is_none() && !self.chain.is_empty()
    }

    /// Maps the chain back out of `space` into the state-typed outcome the
    /// public wrappers return ([`Arena::resolve_path`]): the interned states
    /// themselves, or — over orbits — a *genuine execution* of the model
    /// reconstructed from the per-edge witnessing permutations.
    ///
    /// # Panics
    ///
    /// Panics if the chain ids are not connected by cached edges (they
    /// always are for runs built on the same arena).
    #[must_use]
    pub fn materialize<M: LayeredModel, C: Canonicalization<M>>(
        &self,
        model: &M,
        space: &Arena<M, C>,
    ) -> BivalentRunOutcome<M::State> {
        BivalentRunOutcome {
            chain: if self.chain.is_empty() {
                None
            } else {
                let states = space
                    .resolve_path(model, &self.chain)
                    .expect("run chains follow cached edges");
                Some(ExecutionTrace::new(states))
            },
            stuck: self.stuck.clone(),
            undecided_per_state: self.undecided_per_state.clone(),
        }
    }
}

/// The Theorem 4.2 loop: find a bivalent initial state and extend it through
/// `steps` layers, keeping every state bivalent.
///
/// The solver's horizon bounds the lookahead used for valence; callers
/// normally set it to the protocol's claimed decision deadline and request
/// `steps <= horizon`. Over orbits ([`QuotientSolver`]) the loop walks the
/// quotient graph and the returned chain is de-quotiented into a genuine
/// execution.
pub fn build_bivalent_run<M: LayeredModel, C: Canonicalization<M>>(
    solver: &mut Solver<'_, M, C>,
    steps: usize,
) -> BivalentRunOutcome<M::State> {
    let run = build_bivalent_run_interned(solver, steps);
    run.materialize(solver.model(), solver.space())
}

/// Id-typed twin of [`build_bivalent_run`]: the whole Theorem 4.2 loop runs
/// on dense ids; only the returned [`InternedRun`] needs materializing.
///
/// Over orbits the recorded undecided counts are taken on the
/// representatives, which is sound: the number of undecided non-failed
/// processes is invariant under renaming (`decision` and `failed_at`
/// transport along the permutation), so every member of the orbit has the
/// same count.
pub fn build_bivalent_run_interned<M: LayeredModel, C: Canonicalization<M>>(
    solver: &mut Solver<'_, M, C>,
    steps: usize,
) -> InternedRun {
    let Some(x0) = solver.bivalent_initial_id() else {
        let obs = solver.observer();
        obs.counter("layering.stuck", 1);
        obs.event("layering.stuck", "no_bivalent_initial_state");
        return InternedRun {
            chain: Vec::new(),
            stuck: Some(Stuck::NoBivalentInitialState),
            undecided_per_state: Vec::new(),
        };
    };
    extend_bivalent_run_interned(solver, x0, steps)
}

/// The Theorem 4.2 loop from a given bivalent starting state.
///
/// # Panics
///
/// Panics if `start` is not bivalent under the solver's horizon.
pub fn extend_bivalent_run<M: LayeredModel>(
    solver: &mut ValenceSolver<'_, M>,
    start: M::State,
    steps: usize,
) -> BivalentRunOutcome<M::State> {
    let id = solver.intern(&start);
    let run = extend_bivalent_run_interned(solver, id, steps);
    run.materialize(solver.model(), solver.space())
}

/// Id-typed twin of [`extend_bivalent_run`].
///
/// # Panics
///
/// Panics if `start` is not bivalent under the solver's horizon.
pub fn extend_bivalent_run_interned<M: LayeredModel, C: Canonicalization<M>>(
    solver: &mut Solver<'_, M, C>,
    start: StateId,
    steps: usize,
) -> InternedRun {
    assert!(
        solver.is_bivalent_id(start),
        "extend_bivalent_run requires a bivalent starting state"
    );
    let model = solver.model();
    let obs = solver.observer();
    let _span = Span::enter(obs, "layering.bivalent_run");
    let mut chain = vec![start];
    let mut undecided = vec![undecided_non_failed(model, &solver.space().resolve(start)).len()];
    for _ in 0..steps {
        let x = *chain.last().expect("chain is non-empty");
        match bivalent_successor_id(solver, x) {
            Some(y) => {
                obs.counter("layering.extensions", 1);
                undecided.push(undecided_non_failed(model, &solver.space().resolve(y)).len());
                chain.push(y);
                obs.gauge("layering.run_length", (chain.len() - 1) as u64);
            }
            None => {
                let layer = solver.successor_ids(x);
                let report = valence_report_ids(solver, &layer);
                let depth = model.depth(&solver.space().resolve(x));
                obs.counter("layering.stuck", 1);
                obs.event(
                    "layering.stuck",
                    &format!(
                        "no_bivalent_successor depth={depth} layer_{}={} components={}",
                        C::UNIT,
                        report.states,
                        report.components
                    ),
                );
                return InternedRun {
                    chain,
                    stuck: Some(Stuck::NoBivalentSuccessor {
                        depth,
                        layer_report: report,
                    }),
                    undecided_per_state: undecided,
                };
            }
        }
    }
    InternedRun {
        chain,
        stuck: None,
        undecided_per_state: undecided,
    }
}

/// Result of sweeping layer valence connectivity over the reachable graph —
/// premise (iii) of Theorem 4.2.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LayerScan<S> {
    /// Number of states whose layer was checked.
    pub layers_checked: usize,
    /// Total states enumerated.
    pub states_seen: usize,
    /// First state whose layer `S(x)` is not valence connected, with its
    /// report, if any.
    pub violation: Option<(S, ConnectivityReport)>,
}

impl<S> LayerScan<S> {
    /// Whether every checked layer was valence connected.
    #[must_use]
    pub fn all_connected(&self) -> bool {
        self.violation.is_none()
    }
}

/// Checks that `S(x)` is valence connected for every state `x` reachable
/// within `depth_limit` layers of the initial states.
///
/// `only_bivalent` restricts the sweep to bivalent states — the only ones
/// Lemma 4.1 is ever applied to — which is both cheaper and avoids vacuous
/// failures on univalent states near the horizon (whose layers can contain
/// `NoValence` successors purely due to lookahead truncation).
///
/// Over orbits ([`QuotientSolver`]) the sweep visits one representative per
/// reachable orbit and checks each representative's *orbit-collapsed*
/// layer. Soundness: over an equivariant layering the quotient BFS visits
/// exactly the orbits of the full BFS's states (bivalence is
/// orbit-invariant, so the `only_bivalent` filter selects the same orbits),
/// and a collapsed layer's `connected` verdict equals the full layer's (see
/// [`valence_report_ids`]). `layers_checked` / `states_seen` then count
/// *orbits* and are smaller than the full scan's — that reduction is the
/// point.
pub fn scan_layer_valence_connectivity<M: LayeredModel, C: Canonicalization<M>>(
    solver: &mut Solver<'_, M, C>,
    depth_limit: usize,
    only_bivalent: bool,
) -> LayerScan<M::State> {
    let model = solver.model();
    let obs = solver.observer();
    let _span = Span::enter(obs, "layering.layer_scan");
    let roots = solver
        .space_mut()
        .intern_all(model, &model.initial_states(), obs);
    let mut states_seen = 0;
    let mut layers_checked = 0;
    let violation = sweep(roots, obs, |depth, level, next| {
        states_seen += level.len();
        for &id in level {
            obs.counter("engine.states_visited", 1);
            let _check_span =
                Span::enter_with(obs, "layering.check_layer", &[("state", id.index() as u64)]);
            if only_bivalent {
                let bivalent = {
                    let _classify_span = Span::enter(obs, "valence.classify");
                    solver.is_bivalent_id(id)
                };
                if !bivalent {
                    continue;
                }
            }
            let layer = solver.successor_ids(id);
            let report = valence_report_ids(solver, &layer);
            layers_checked += 1;
            obs.counter("layering.layers_scanned", 1);
            if !report.connected {
                obs.event(
                    "layering.scan_violation",
                    &format!(
                        "disconnected layer: {} {} in {} components",
                        report.states,
                        C::UNIT,
                        report.components
                    ),
                );
                return ControlFlow::Break((solver.space().resolve(id), report));
            }
            if depth < depth_limit {
                next.extend(layer);
            }
        }
        ControlFlow::Continue(())
    })
    .break_value();
    LayerScan {
        layers_checked,
        states_seen,
        violation,
    }
}

/// [`scan_layer_valence_connectivity`] with the successor computation (and
/// canonicalization, over orbits) fanned out across up to `threads` scoped
/// workers.
///
/// The reachable region is first expanded in parallel into the solver's
/// arena ([`Arena::expand_layers_parallel`], which is bit-identical to
/// sequential expansion); the scan itself then runs over fully cached
/// adjacency. The returned [`LayerScan`] — layers checked, states seen, and
/// any violation — is therefore identical to the sequential path's.
pub fn scan_layer_valence_connectivity_parallel<M, C>(
    solver: &mut Solver<'_, M, C>,
    depth_limit: usize,
    only_bivalent: bool,
    threads: usize,
) -> LayerScan<M::State>
where
    M: LayeredModel + Sync,
    M::State: Send + Sync,
    C: Canonicalization<M>,
{
    let model = solver.model();
    let obs = solver.observer();
    let roots = model.initial_states();
    // Valence lookahead reaches the horizon; the scan itself needs layers of
    // states down to `depth_limit`. Expanding to the max covers both, so the
    // scan below finds every successor list already cached.
    let expand_to = solver.horizon().max(depth_limit + 1);
    solver
        .space_mut()
        .expand_layers_parallel(model, &roots, expand_to, threads, obs);
    scan_layer_valence_connectivity(solver, depth_limit, only_bivalent)
}

/// [`scan_layer_valence_connectivity`] over a [`QuotientSolver`] — a
/// one-line wrapper kept for the repository benchmark (`perfbench/`).
pub fn scan_layer_valence_connectivity_quotient<M: Symmetric>(
    solver: &mut QuotientSolver<'_, M>,
    depth_limit: usize,
    only_bivalent: bool,
) -> LayerScan<M::State> {
    scan_layer_valence_connectivity(solver, depth_limit, only_bivalent)
}

/// [`scan_layer_valence_connectivity_parallel`] over a [`QuotientSolver`]
/// — a one-line wrapper kept for the repository benchmark (`perfbench/`).
pub fn scan_layer_valence_connectivity_quotient_parallel<M>(
    solver: &mut QuotientSolver<'_, M>,
    depth_limit: usize,
    only_bivalent: bool,
    threads: usize,
) -> LayerScan<M::State>
where
    M: Symmetric + Sync,
    M::State: Send + Sync,
{
    scan_layer_valence_connectivity_parallel(solver, depth_limit, only_bivalent, threads)
}

/// Lemma 3.1, checked exhaustively: every bivalent state reachable within
/// `depth_limit` layers has at least `n − t` non-failed undecided processes.
///
/// Returns the first violating state, if any.
pub fn check_lemma_3_1<M: LayeredModel>(
    solver: &mut ValenceSolver<'_, M>,
    depth_limit: usize,
) -> Option<M::State> {
    let model = solver.model();
    let t = model.max_failures();
    let n = model.num_processes();
    lemma_sweep(solver, depth_limit, n - t, |_, _| {})
}

/// Lemma 3.2, checked exhaustively for systems displaying *no finite
/// failure*: no process has decided at any bivalent state reachable within
/// `depth_limit` layers. Returns the first violating state, if any.
///
/// # Panics
///
/// Panics if the model records a failed process anywhere in the scanned
/// region (such a model does not display "no finite failure", and the lemma
/// does not apply).
pub fn check_lemma_3_2<M: LayeredModel>(
    solver: &mut ValenceSolver<'_, M>,
    depth_limit: usize,
) -> Option<M::State> {
    let model = solver.model();
    let n = model.num_processes();
    lemma_sweep(solver, depth_limit, n, |m, x| {
        assert!(
            (0..n).all(|i| !m.failed_at(x, crate::Pid::new(i))),
            "Lemma 3.2 applies only to systems displaying no finite failure"
        );
    })
}

/// Shared interned BFS behind the Lemma 3.1/3.2 checkers: returns the first
/// bivalent state within `depth_limit` layers whose non-failed undecided
/// count drops below `min_undecided`, running `precheck` on every visited
/// state first.
fn lemma_sweep<M: LayeredModel>(
    solver: &mut ValenceSolver<'_, M>,
    depth_limit: usize,
    min_undecided: usize,
    precheck: impl Fn(&M, &M::State),
) -> Option<M::State> {
    let model = solver.model();
    let obs = solver.observer();
    let roots = solver
        .space_mut()
        .intern_all(model, &model.initial_states(), obs);
    sweep(roots, obs, |depth, level, next| {
        for &id in level {
            obs.counter("engine.states_visited", 1);
            let x = solver.space().resolve(id);
            precheck(model, &x);
            if solver.valence_id(id) == Valence::Bivalent
                && undecided_non_failed(model, &x).len() < min_undecided
            {
                return ControlFlow::Break(x);
            }
            if depth < depth_limit {
                next.extend(solver.successor_ids(id));
            }
        }
        ControlFlow::Continue(())
    })
    .break_value()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{bivalent_spine, flp_diamond, ScriptedModelBuilder};
    use crate::Value;

    #[test]
    fn bivalent_successor_finds_spine() {
        let m = bivalent_spine(3);
        let mut solver = ValenceSolver::new(&m, 4);
        let y = bivalent_successor(&mut solver, &0).expect("spine continues");
        assert_eq!(y, 1);
    }

    #[test]
    fn build_bivalent_run_walks_the_spine() {
        let m = bivalent_spine(3);
        let mut solver = ValenceSolver::new(&m, 4);
        let out = build_bivalent_run(&mut solver, 3);
        assert!(out.reached_target());
        let chain = out.chain.expect("chain built");
        assert_eq!(chain.states(), &[0, 1, 2, 3]);
        assert!(chain.verify(&m).is_ok());
        // Lemma 3.2 flavor: nobody decided along the chain (n = 2 undecided).
        assert!(out.undecided_per_state.iter().all(|&u| u == 2));
    }

    #[test]
    fn run_reports_stuck_when_spine_ends() {
        let m = bivalent_spine(2);
        let mut solver = ValenceSolver::new(&m, 3);
        let out = build_bivalent_run(&mut solver, 10);
        assert!(!out.reached_target());
        match out.stuck {
            Some(Stuck::NoBivalentSuccessor { depth, .. }) => assert_eq!(depth, 2),
            other => panic!("unexpected outcome: {other:?}"),
        }
    }

    #[test]
    fn no_bivalent_initial_state_is_reported() {
        // Single initial state that decides 0 immediately: univalent.
        let m = ScriptedModelBuilder::new(2, 1)
            .initial(&[Value::ZERO, Value::ZERO], 0)
            .decision(0, 0, Value::ZERO)
            .depth(0, 0)
            .build();
        let mut solver = ValenceSolver::new(&m, 0);
        let out = build_bivalent_run(&mut solver, 1);
        assert_eq!(out.stuck, Some(Stuck::NoBivalentInitialState));
    }

    #[test]
    fn layer_scan_flags_disconnected_layer() {
        // The diamond's root layer {1, 2} is NOT valence connected (0- and
        // 1-univalent with no bridge), so the scan over bivalent states
        // reports it.
        let m = flp_diamond();
        let mut solver = ValenceSolver::new(&m, 2);
        let scan = scan_layer_valence_connectivity(&mut solver, 1, true);
        assert!(!scan.all_connected());
        let (state, report) = scan.violation.expect("diamond layer disconnects");
        assert_eq!(state, 0);
        assert_eq!(report.components, 2);
    }

    #[test]
    fn layer_scan_passes_on_spine() {
        let m = bivalent_spine(2);
        let mut solver = ValenceSolver::new(&m, 3);
        let scan = scan_layer_valence_connectivity(&mut solver, 1, true);
        assert!(scan.all_connected(), "violation: {:?}", scan.violation);
        assert!(scan.layers_checked >= 2);
    }

    #[test]
    fn lemma_3_1_holds_on_spine() {
        let m = bivalent_spine(3);
        let mut solver = ValenceSolver::new(&m, 4);
        assert_eq!(check_lemma_3_1(&mut solver, 3), None);
        assert_eq!(check_lemma_3_2(&mut solver, 3), None);
    }

    #[test]
    fn lemma_3_1_detects_violation_in_corrupt_model() {
        // A bivalent state where a process has already decided while both
        // completions remain reachable — violates agreement, and Lemma 3.1's
        // conclusion fails (n - t = 1 undecided required... craft 0 undecided).
        let m = ScriptedModelBuilder::new(2, 1)
            .initial(&[Value::ZERO, Value::ONE], 0)
            .decision(0, 0, Value::ZERO)
            .decision(0, 1, Value::ONE) // both decided at a bivalent state
            .depth(0, 0)
            .build();
        let mut solver = ValenceSolver::new(&m, 0);
        assert_eq!(check_lemma_3_1(&mut solver, 0), Some(0));
    }

    #[test]
    #[should_panic(expected = "no finite failure")]
    fn lemma_3_2_rejects_models_with_finite_failures() {
        let m = ScriptedModelBuilder::new(2, 1)
            .initial(&[Value::ZERO, Value::ONE], 0)
            .failed(0, 1)
            .depth(0, 0)
            .build();
        let mut solver = ValenceSolver::new(&m, 0);
        let _ = check_lemma_3_2(&mut solver, 0);
    }
}
