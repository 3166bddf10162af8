//! Executable forms of the Section 6 lemmas.
//!
//! These functions *construct the objects the lemmas assert to exist* (or
//! search exhaustively for counterexamples), so every claim of Section 6 is
//! reproduced as a checkable artifact rather than re-proved on paper.

use std::ops::ControlFlow;

use layered_core::checker::find_in_levels;
use layered_core::space::sweep;
use layered_core::telemetry::NOOP;
use layered_core::{
    extend_bivalent_run, undecided_non_failed, BivalentRunOutcome, LayeredModel, Pid, ValenceSolver,
};
use layered_protocols::SyncProtocol;

use crate::model::CrashModel;
use crate::state::CrashState;

/// Lemma 6.1, executed: from a bivalent state `x0` in which `f` processes
/// are failed, construct a bivalent `S^t`-execution
/// `x⁰, x¹, …, x^{t−f−1}`.
///
/// Returns the engine outcome; `reached_target()` means the execution of
/// the promised length was built, and the chain's last state has at most
/// `t − 1` failed processes, as the lemma states.
///
/// # Panics
///
/// Panics if `x0` is not bivalent under the solver's horizon.
pub fn lemma_6_1_chain<P: SyncProtocol>(
    model: &CrashModel<P>,
    solver: &mut ValenceSolver<'_, CrashModel<P>>,
    x0: CrashState<P::LocalState>,
) -> BivalentRunOutcome<CrashState<P::LocalState>> {
    let f = x0.failure_count();
    let t = model.resilience();
    let steps = t.saturating_sub(f + 1);
    extend_bivalent_run(solver, x0, steps)
}

/// Lemma 6.2, executed: given a bivalent state `x̂`, find a successor
/// `y ∈ S^t(x̂)` in which at least one non-failed process has not decided.
///
/// The lemma guarantees existence for any protocol satisfying agreement on
/// these runs; `None` therefore witnesses an agreement violation nearby
/// (which [`layered_core::check_consensus`] will localize).
pub fn lemma_6_2_witness<P: SyncProtocol>(
    model: &CrashModel<P>,
    x: &CrashState<P::LocalState>,
) -> Option<(CrashState<P::LocalState>, Vec<Pid>)> {
    model.layer(x).into_iter().find_map(|y| {
        let undecided = undecided_non_failed(model, &y);
        (!undecided.is_empty()).then_some((y, undecided))
    })
}

/// Lemma 6.4, checked exhaustively: for a *fast* protocol (always decides
/// within `t + 1` rounds), every state reached by an execution with at most
/// `k` failures in its first `k` rounds followed by a failure-free round is
/// univalent.
///
/// Scans all `S^t`-executions with `depth ≤ limit`; returns the first
/// violating state (a bivalent `x^{k+1}` after a failure-free round with
/// `≤ k` failures by round `k`), or `None` if the lemma holds.
pub fn check_lemma_6_4<P: SyncProtocol>(
    model: &CrashModel<P>,
    solver: &mut ValenceSolver<'_, CrashModel<P>>,
    limit: usize,
) -> Option<CrashState<P::LocalState>> {
    let obs = solver.observer();
    let roots = solver
        .space_mut()
        .intern_all(model, &model.initial_states(), obs);
    sweep(roots, obs, |k, level, next| {
        // Level `limit` is reached but not checked.
        if k == limit {
            return ControlFlow::Continue(());
        }
        for &id in level {
            obs.counter("engine.states_visited", 1);
            let x = solver.space().resolve(id);
            // Only executions with at most k failures by round k qualify.
            if x.failure_count() <= k {
                let y = model.apply(&x, None); // failure-free round k+1
                let yid = solver.intern(&y);
                if solver.is_bivalent_id(yid) {
                    return ControlFlow::Break(solver.space().resolve(yid));
                }
            }
            next.extend(solver.successor_ids(id));
        }
        ControlFlow::Continue(())
    })
    .break_value()
}

/// The arbitrary-crash display property, checked in its inductive form on
/// the region where Section 6 claims it: pairs of reachable states that
/// agree modulo some `j` and have **fewer than `t` failures**. (With the
/// budget exhausted, the display property genuinely fails — the environment
/// can no longer crash the distinguishing process — which is exactly why
/// Lemma 6.1 stops at `t − 1` failures.)
///
/// Returns the first violating pair.
#[allow(clippy::type_complexity)]
pub fn check_display_below_budget<P: SyncProtocol>(
    model: &CrashModel<P>,
    depth_limit: usize,
) -> Option<(CrashState<P::LocalState>, CrashState<P::LocalState>, Pid)> {
    let n = model.num_processes();
    let t = model.resilience();
    find_in_levels(model, depth_limit, &NOOP, |_, level, _| {
        let below: Vec<_> = level.iter().filter(|x| x.failure_count() < t).collect();
        for (ai, &x) in below.iter().enumerate() {
            for &y in &below[ai..] {
                for j in Pid::all(n) {
                    if !model.agree_modulo(x, y, j) {
                        continue;
                    }
                    let cx = model.crash_step(x, j);
                    let cy = model.crash_step(y, j);
                    if !model.agree_modulo(&cx, &cy, j) {
                        return Some((x.clone(), y.clone(), j));
                    }
                }
            }
        }
        None
    })
}

#[cfg(test)]
mod tests {
    use layered_core::{check_lemma_3_1, LayeredModel, Valence, Value};
    use layered_protocols::FloodMin;

    use super::*;

    #[test]
    fn lemma_6_1_builds_chain_for_t_2() {
        // n = 4, t = 2: from a bivalent initial state (f = 0) the chain must
        // extend t - f - 1 = 1 layer, ending with <= t - 1 failures.
        let m = CrashModel::new(4, 2, FloodMin::new(3));
        let mut solver = ValenceSolver::new(&m, 3);
        let x0 = solver
            .bivalent_initial_state()
            .expect("Lemma 3.6: a bivalent initial state exists");
        let out = lemma_6_1_chain(&m, &mut solver, x0);
        assert!(out.reached_target(), "stuck: {:?}", out.stuck);
        let chain = out.chain.expect("chain");
        assert_eq!(chain.steps(), 1);
        assert!(chain.last().failure_count() <= 1);
    }

    #[test]
    fn lemma_6_2_finds_undecided_successor() {
        let m = CrashModel::new(3, 1, FloodMin::new(2));
        let mut solver = ValenceSolver::new(&m, 2);
        let x0 = solver.bivalent_initial_state().expect("bivalent initial");
        // x0 is bivalent: some successor keeps a non-failed process
        // undecided, so one round cannot suffice from here.
        let (y, undecided) = lemma_6_2_witness(&m, &x0).expect("Lemma 6.2 witness");
        assert!(!undecided.is_empty());
        assert_eq!(m.depth(&y), 1);
    }

    #[test]
    fn lemma_6_4_holds_for_fast_floodmin() {
        // FloodMin(t+1) is fast; after a failure-free round following <= k
        // failures in k rounds, the state must be univalent.
        let m = CrashModel::new(3, 1, FloodMin::new(2));
        let mut solver = ValenceSolver::new(&m, 3);
        assert_eq!(check_lemma_6_4(&m, &mut solver, 2), None);
    }

    #[test]
    fn lemma_3_1_bound_holds() {
        let m = CrashModel::new(3, 1, FloodMin::new(2));
        let mut solver = ValenceSolver::new(&m, 2);
        assert_eq!(check_lemma_3_1(&mut solver, 2), None);
    }

    #[test]
    fn display_holds_below_budget() {
        let m = CrashModel::new(4, 2, FloodMin::new(2));
        assert_eq!(check_display_below_budget(&m, 1), None);
    }

    #[test]
    fn bivalence_dies_at_budget_exhaustion() {
        // A state with t failures has a unique infinite S^t-extension, so it
        // must be univalent (first observation in Lemma 6.2's proof).
        let m = CrashModel::new(3, 1, FloodMin::new(3));
        let mut solver = ValenceSolver::new(&m, 3);
        let x = m.initial_state(&[Value::ZERO, Value::ONE, Value::ONE]);
        let y = m.apply(&x, Some((Pid::new(0), 3)));
        assert_eq!(y.failure_count(), 1);
        assert_ne!(solver.valence(&y), Valence::Bivalent);
    }
}
