//! Exhaustive checking of the consensus requirements and of the abstract
//! failure-model properties of Section 2.
//!
//! * [`check_consensus`] sweeps every `S`-execution up to a horizon and
//!   reports *Agreement*, *Validity*, and *Decision* violations with explicit
//!   state witnesses. Combined with the impossibility engine in
//!   [`crate::layering`], this is the workhorse of all the paper's
//!   experiments: the paper proves no protocol can pass; the checker finds
//!   the concrete violation for each candidate protocol.
//! * [`check_crash_display`] verifies the *arbitrary crash failure* display
//!   property (Section 2) in its inductive form over the reachable graph.
//! * [`check_fault_independence`] verifies the *fault independence* property
//!   in its inductive form: every state has a successor introducing no new
//!   failures.
//! * [`check_graded`] validates the state-graph contract every model must
//!   satisfy (see [`crate::model`]).

use std::collections::{HashMap, HashSet};
use std::ops::ControlFlow;

use crate::space::{sweep, StateSpace};
use crate::telemetry::{Observer, Span, NOOP};
use crate::{LayeredModel, Pid, Value};

/// A violation of one of the three consensus requirements, with its witness
/// state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation<S> {
    /// Two non-failed processes decided differently in the same state.
    Agreement {
        /// Witness state.
        state: S,
        /// First decided process and its value.
        p: (Pid, Value),
        /// Second decided process and its conflicting value.
        q: (Pid, Value),
    },
    /// A non-failed process decided a value that is nobody's input.
    Validity {
        /// Witness state.
        state: S,
        /// The deciding process.
        p: Pid,
        /// The invalid decided value.
        v: Value,
        /// The run's input assignment.
        inputs: Vec<Value>,
    },
    /// An execution reached the horizon with obligated processes undecided.
    Decision {
        /// Witness state at the horizon.
        state: S,
        /// Obligated processes that have not decided.
        undecided: Vec<Pid>,
    },
}

impl<S> Violation<S> {
    /// Short tag for reporting.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Violation::Agreement { .. } => "agreement",
            Violation::Validity { .. } => "validity",
            Violation::Decision { .. } => "decision",
        }
    }
}

/// Result of an exhaustive consensus sweep.
#[derive(Clone, Debug)]
pub struct ConsensusReport<S> {
    /// Number of distinct states visited.
    pub states_explored: usize,
    /// The horizon used (layers from the initial states).
    pub horizon: usize,
    /// All violations found, capped by the `max_violations` argument.
    pub violations: Vec<Violation<S>>,
}

impl<S> ConsensusReport<S> {
    /// Whether the protocol passed the sweep.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// Violations of a particular kind.
    pub fn of_kind<'a>(&'a self, kind: &'a str) -> impl Iterator<Item = &'a Violation<S>> + 'a {
        self.violations.iter().filter(move |v| v.kind() == kind)
    }
}

/// Checks Agreement and Validity at a single state; used by the sweep and
/// exposed for targeted tests.
pub fn state_violations<M: LayeredModel>(model: &M, x: &M::State) -> Vec<Violation<M::State>> {
    let n = model.num_processes();
    let mut out = Vec::new();
    let inputs = model.inputs_of(x);
    let decided: Vec<(Pid, Value)> = Pid::all(n)
        .filter(|&i| !model.failed_at(x, i))
        .filter_map(|i| model.decision(x, i).map(|v| (i, v)))
        .collect();
    for (idx, &(p, vp)) in decided.iter().enumerate() {
        if !inputs.contains(&vp) {
            out.push(Violation::Validity {
                state: x.clone(),
                p,
                v: vp,
                inputs: inputs.clone(),
            });
        }
        let later = decided
            .get(idx + 1..)
            .expect("idx comes from enumerate, so idx + 1 <= decided.len()");
        for &(q, vq) in later {
            if vp != vq {
                out.push(Violation::Agreement {
                    state: x.clone(),
                    p: (p, vp),
                    q: (q, vq),
                });
            }
        }
    }
    out
}

/// Exhaustively checks the three consensus requirements over all
/// `S`-executions of up to `horizon` layers.
///
/// *Decision* is checked at horizon states via
/// [`LayeredModel::obligated`]; *Agreement* and *Validity* at every state.
/// Exploration stops early once `max_violations` have been collected.
pub fn check_consensus<M: LayeredModel>(
    model: &M,
    horizon: usize,
    max_violations: usize,
) -> ConsensusReport<M::State> {
    check_consensus_with(model, horizon, max_violations, &NOOP)
}

/// [`check_consensus`] with telemetry: states visited, frontier dedup hits,
/// frontier widths and violations found are reported to `obs`.
pub fn check_consensus_with<M: LayeredModel>(
    model: &M,
    horizon: usize,
    max_violations: usize,
    obs: &dyn Observer,
) -> ConsensusReport<M::State> {
    let _span = Span::enter(obs, "checker.sweep");
    let roots = model.initial_states();
    let (states_explored, violations) =
        check_requirements(model, &roots, horizon, max_violations, obs, |x, due| {
            let mut found = state_violations(model, x);
            found.extend(due.map(|undecided| Violation::Decision {
                state: x.clone(),
                undecided,
            }));
            found
        });
    ConsensusReport {
        states_explored,
        horizon,
        violations,
    }
}

/// The sweep behind [`check_consensus`] and `layered-topology`'s task
/// checker: collects `violations_at(x, due)` over every state within
/// `horizon` layers of `roots`, where `due` lists a horizon state's
/// obligated processes that have not decided (`None` if there are none or
/// `x` is above the horizon), until `max_violations` are found. Returns the
/// number of states visited and the violations.
pub fn check_requirements<M: LayeredModel, V>(
    model: &M,
    roots: &[M::State],
    horizon: usize,
    max_violations: usize,
    obs: &dyn Observer,
    mut violations_at: impl FnMut(&M::State, Option<Vec<Pid>>) -> Vec<V>,
) -> (usize, Vec<V>) {
    let mut space: StateSpace<M> = StateSpace::new_boxed(model);
    let root_ids = space.intern_all(model, roots, obs);
    let mut explored = 0;
    let mut violations = Vec::new();
    let _ = sweep(root_ids, obs, |depth, level, next| {
        for &id in level {
            explored += 1;
            obs.counter("engine.states_visited", 1);
            let x = space.resolve(id);
            let due = (depth == horizon)
                .then(|| {
                    model
                        .obligated(&x)
                        .into_iter()
                        .filter(|&i| model.decision(&x, i).is_none())
                        .collect::<Vec<Pid>>()
                })
                .filter(|u| !u.is_empty());
            for v in violations_at(&x, due) {
                if violations.len() < max_violations {
                    obs.counter("checker.violations", 1);
                    violations.push(v);
                }
            }
            if depth < horizon {
                next.extend(space.successor_ids(model, id, obs));
            }
            if violations.len() >= max_violations {
                return ControlFlow::Break(());
            }
        }
        ControlFlow::Continue(())
    });
    (explored, violations)
}

/// Reconstructs an execution from an initial state to `target`, if `target`
/// is reachable within `max_depth` layers.
///
/// Breadth-first with parent tracking; the result is a legal
/// [`ExecutionTrace`](crate::ExecutionTrace) (verified by construction) that
/// can be attached to a [`Violation`] as a full run witness.
pub fn trace_to<M: LayeredModel>(
    model: &M,
    target: &M::State,
    max_depth: usize,
) -> Option<crate::ExecutionTrace<M::State>> {
    // The first parent recorded is a breadth-first one; roots have none.
    let mut parent: HashMap<M::State, M::State> = HashMap::new();
    find_in_levels(model, max_depth, &NOOP, |_, level, layers| {
        for (x, layer) in level.iter().zip(layers) {
            for y in layer {
                parent.entry(y.clone()).or_insert_with(|| x.clone());
            }
        }
        level.contains(target).then_some(())
    })?;
    let mut states = vec![target.clone()];
    while let Some(p) = parent.get(states.last().expect("non-empty")) {
        states.push(p.clone());
    }
    states.reverse();
    Some(crate::ExecutionTrace::new(states))
}

/// The state-typed sweep behind the structural checks, the census and the
/// s-diameter table: `check(depth, level, layers)` sees the states of each
/// level reachable within `depth_limit` layers and, below `depth_limit`,
/// each state's successor list (`layers` is empty at the last level and
/// past a dead end, where `level` is empty too). Returns the first `Some`.
pub fn find_in_levels<M: LayeredModel, T>(
    model: &M,
    depth_limit: usize,
    obs: &dyn Observer,
    mut check: impl FnMut(usize, &[M::State], &[Vec<M::State>]) -> Option<T>,
) -> Option<T> {
    // The arena only numbers states: each is expanded once, so successor
    // lists go uncached, and the states of the next level are kept as
    // their ids are first pushed.
    let mut space: StateSpace<M> = StateSpace::new_boxed(model);
    let roots = space.intern_all(model, &model.initial_states(), &NOOP);
    let (mut reached, mut kept) = (0, Vec::new());
    sweep(roots, obs, |depth, level, next| {
        reached = depth + 1;
        let states = match depth {
            0 => space.materialize(level),
            _ => std::mem::take(&mut kept),
        };
        let mut layers = Vec::new();
        if depth < depth_limit {
            for x in &states {
                let layer = model.successors(x);
                for y in &layer {
                    let width = next.len();
                    next.push(space.intern(model, y).0);
                    if next.len() > width {
                        kept.push(y.clone());
                    }
                }
                layers.push(layer);
            }
        }
        check(depth, &states, &layers).map_or(ControlFlow::Continue(()), ControlFlow::Break)
    })
    .break_value()
    .or_else(|| (reached..=depth_limit).find_map(|d| check(d, &[], &[])))
}

fn failed_set<M: LayeredModel>(model: &M, x: &M::State) -> Vec<Pid> {
    Pid::all(model.num_processes())
        .filter(|&i| model.failed_at(x, i))
        .collect()
}

/// Verifies the inductive form of the *arbitrary crash failure* display
/// property up to `depth_limit`: for every reachable pair `x, y` at equal
/// depth that agree modulo `j`,
///
/// 1. `crash_step(x, j)` and `crash_step(y, j)` again agree modulo `j`, and
/// 2. every process `i ≠ j` non-failed in both `x` and `y` remains
///    non-failed in both crash successors, and
/// 3. each crash successor is a member of its layer.
///
/// Unrolling the induction yields exactly the paired runs `r^x, r^y` of the
/// paper's definition. Returns the first violating triple `(x, y, j)`.
#[allow(clippy::type_complexity)]
pub fn check_crash_display<M: LayeredModel>(
    model: &M,
    depth_limit: usize,
) -> Option<(M::State, M::State, Pid)> {
    let n = model.num_processes();
    find_in_levels(model, depth_limit, &NOOP, |_, level, _| {
        for (ai, x) in level.iter().enumerate() {
            for y in &level[ai..] {
                for j in Pid::all(n) {
                    if !model.agree_modulo(x, y, j) {
                        continue;
                    }
                    let cx = model.crash_step(x, j);
                    let cy = model.crash_step(y, j);
                    let members =
                        model.successors(x).contains(&cx) && model.successors(y).contains(&cy);
                    let agrees = model.agree_modulo(&cx, &cy, j);
                    let preserves = Pid::all(n).all(|i| {
                        i == j
                            || model.failed_at(x, i)
                            || model.failed_at(y, i)
                            || (!model.failed_at(&cx, i) && !model.failed_at(&cy, i))
                    });
                    if !(members && agrees && preserves) {
                        return Some((x.clone(), y.clone(), j));
                    }
                }
            }
        }
        None
    })
}

/// Verifies the inductive form of *fault independence* up to `depth_limit`:
/// every reachable state has a successor whose failed set is exactly its
/// own (no new failures). Iterating that successor choice produces the run
/// `r^x` of the paper's definition. Returns the first violating state.
pub fn check_fault_independence<M: LayeredModel>(
    model: &M,
    depth_limit: usize,
) -> Option<M::State> {
    find_in_levels(model, depth_limit, &NOOP, |_, level, _| {
        level
            .iter()
            .find(|x| {
                let fx = failed_set(model, x);
                !model
                    .successors(x)
                    .iter()
                    .any(|y| failed_set(model, y) == fx)
            })
            .cloned()
    })
}

/// Validates the grading contract up to `depth_limit`: all initial states
/// have depth 0, every successor is one layer deeper, layers are non-empty
/// and duplicate-free, and failed sets only grow along edges.
///
/// Returns a description of the first contract breach.
///
/// Unlike every other sweep, this one walks raw `successors` instead of
/// [`sweep`]: it validates the duplicate-free, depth-graded successor
/// contract that the arena and the sweep driver rely on.
pub fn check_graded<M: LayeredModel>(model: &M, depth_limit: usize) -> Option<String> {
    let mut frontier = model.initial_states();
    for x in &frontier {
        if model.depth(x) != 0 {
            return Some(format!("initial state at depth {}: {x:?}", model.depth(x)));
        }
    }
    for _ in 0..depth_limit {
        let mut seen = HashSet::new();
        let mut next = Vec::new();
        for x in &frontier {
            let succ = model.successors(x);
            if succ.is_empty() {
                return Some(format!("empty layer at {x:?}"));
            }
            let mut dedup = HashSet::new();
            for y in &succ {
                if !dedup.insert(y.clone()) {
                    return Some(format!("duplicate successor {y:?} of {x:?}"));
                }
                if model.depth(y) != model.depth(x) + 1 {
                    return Some(format!(
                        "depth jump {} -> {} at {y:?}",
                        model.depth(x),
                        model.depth(y)
                    ));
                }
                let fx: HashSet<_> = failed_set(model, x).into_iter().collect();
                let fy: HashSet<_> = failed_set(model, y).into_iter().collect();
                if !fx.is_subset(&fy) {
                    return Some(format!("failed set shrank along edge {x:?} -> {y:?}"));
                }
                if seen.insert(y.clone()) {
                    next.push(y.clone());
                }
            }
        }
        frontier = next;
        if frontier.is_empty() {
            break;
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{flp_diamond, CounterModel, ScriptedModelBuilder};

    #[test]
    fn diamond_fails_decision_at_short_horizon() {
        let m = flp_diamond();
        // At horizon 1 nothing has decided: both processes undecided.
        let report = check_consensus(&m, 1, 10);
        assert!(!report.passed());
        assert!(report.of_kind("decision").next().is_some());
        assert!(report.of_kind("agreement").next().is_none());
    }

    #[test]
    fn diamond_passes_at_full_horizon() {
        // At horizon 2 every leaf has p1 decided; p2 is obligated but
        // undecided in this toy — so decision still fails for p2.
        let m = flp_diamond();
        let report = check_consensus(&m, 2, 10);
        let decision_violations: Vec<_> = report.of_kind("decision").collect();
        assert!(!decision_violations.is_empty());
    }

    #[test]
    fn agreement_violation_detected() {
        let m = ScriptedModelBuilder::new(2, 1)
            .initial(&[Value::ZERO, Value::ONE], 0)
            .decision(0, 0, Value::ZERO)
            .decision(0, 1, Value::ONE)
            .depth(0, 0)
            .build();
        let vs = state_violations(&m, &0);
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].kind(), "agreement");
    }

    #[test]
    fn validity_violation_detected() {
        let m = ScriptedModelBuilder::new(2, 1)
            .initial(&[Value::ZERO, Value::ZERO], 0)
            .decision(0, 0, Value::ONE) // 1 is nobody's input
            .depth(0, 0)
            .build();
        let vs = state_violations(&m, &0);
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].kind(), "validity");
        match &vs[0] {
            Violation::Validity { v, inputs, .. } => {
                assert_eq!(*v, Value::ONE);
                assert_eq!(inputs, &vec![Value::ZERO, Value::ZERO]);
            }
            other => panic!("wrong violation {other:?}"),
        }
    }

    #[test]
    fn failed_process_decisions_are_exempt() {
        let m = ScriptedModelBuilder::new(2, 1)
            .initial(&[Value::ZERO, Value::ZERO], 0)
            .decision(0, 0, Value::ONE)
            .failed(0, 0)
            .depth(0, 0)
            .build();
        assert!(state_violations(&m, &0).is_empty());
    }

    #[test]
    fn violation_cap_respected() {
        let m = flp_diamond();
        let report = check_consensus(&m, 1, 1);
        assert_eq!(report.violations.len(), 1);
    }

    #[test]
    fn trace_to_reconstructs_witness_runs() {
        let m = flp_diamond();
        // State 4 ("decided 1") is reachable in 2 layers via 0 -> 2 -> 4.
        let trace = trace_to(&m, &4u32, 2).expect("reachable");
        assert_eq!(trace.states(), &[0, 2, 4]);
        assert!(trace.verify(&m).is_ok());
        // An unreachable state yields None.
        assert!(trace_to(&m, &99u32, 5).is_none());
        // Depth limits are respected.
        assert!(trace_to(&m, &4u32, 1).is_none());
        // An initial state traces to itself.
        let trivial = trace_to(&m, &0u32, 0).expect("initial");
        assert_eq!(trivial.states(), &[0]);
    }

    #[test]
    fn violations_can_be_traced() {
        // Combine the checker and the tracer: find a violation, then
        // reconstruct the full run that exhibits it.
        let m = flp_diamond();
        let report = check_consensus(&m, 2, 10);
        let v = report
            .violations
            .first()
            .expect("diamond violates decision");
        let state = match v {
            Violation::Decision { state, .. } => state,
            Violation::Agreement { state, .. } => state,
            Violation::Validity { state, .. } => state,
        };
        let trace = trace_to(&m, state, 2).expect("witness reachable");
        assert!(trace.verify(&m).is_ok());
        assert_eq!(trace.first(), &0);
    }

    #[test]
    fn counter_model_satisfies_structural_properties() {
        let m = CounterModel::new(3, 3);
        assert_eq!(check_graded(&m, 2), None);
        assert_eq!(check_fault_independence(&m, 2), None);
        assert_eq!(check_crash_display(&m, 1), None);
    }

    #[test]
    fn graded_check_catches_depth_jump() {
        let m = ScriptedModelBuilder::new(2, 1)
            .initial(&[Value::ZERO, Value::ZERO], 0)
            .edge(0, 1)
            .depth(0, 0)
            .depth(1, 5) // wrong
            .build();
        let err = check_graded(&m, 1).expect("depth jump");
        assert!(err.contains("depth jump"), "{err}");
    }

    #[test]
    fn fault_independence_catches_forced_failures() {
        // Every successor of 0 adds a failure: fault independence fails.
        let m = ScriptedModelBuilder::new(2, 1)
            .initial(&[Value::ZERO, Value::ZERO], 0)
            .edge(0, 1)
            .depth(0, 0)
            .depth(1, 1)
            .failed(1, 0)
            .build();
        assert_eq!(check_fault_independence(&m, 1), Some(0));
    }
}
