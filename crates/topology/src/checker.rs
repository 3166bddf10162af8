//! Exhaustive checking of general decision problems against a layered
//! model — the Section 7 generalization of the consensus checker.
//!
//! The paper's two requirements for a decision problem `D = ⟨I, O, Δ⟩`:
//! *Decision* (every nonfaulty process eventually decides) and *Validity*
//! (the decisions of a run with input simplex `s` form a simplex in
//! `Δ(s)`). [`check_task`] sweeps all `S`-executions to a horizon and
//! reports violations of either, with state witnesses. Together with the
//! k-thick-connectivity verdicts on the task's output structure, this
//! reproduces the Corollary 7.3 classification experimentally: tasks whose
//! spans are 1-thick-connected have passing protocols, and tasks whose
//! spans are not (consensus) fail for every candidate.

use layered_core::checker::check_requirements;
use layered_core::telemetry::NOOP;
use layered_core::{LayeredModel, Pid};

use crate::covering::decided_simplex;
use crate::simplex::Simplex;
use crate::task::DecisionTask;

/// A violation of a decision problem's requirements.
#[derive(Clone, Debug)]
pub enum TaskViolation<S> {
    /// The decisions at a state do not form a simplex of `Δ(inputs)`.
    Validity {
        /// Witness state.
        state: S,
        /// The offending decision simplex.
        decisions: Simplex,
    },
    /// An execution reached the horizon with obligated processes undecided.
    Decision {
        /// Witness state at the horizon.
        state: S,
        /// Obligated processes that have not decided.
        undecided: Vec<Pid>,
    },
}

impl<S> TaskViolation<S> {
    /// Short tag for reporting.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            TaskViolation::Validity { .. } => "validity",
            TaskViolation::Decision { .. } => "decision",
        }
    }
}

/// Result of an exhaustive task sweep.
#[derive(Clone, Debug)]
pub struct TaskReport<S> {
    /// Number of distinct states visited.
    pub states_explored: usize,
    /// The horizon used.
    pub horizon: usize,
    /// Violations found (capped).
    pub violations: Vec<TaskViolation<S>>,
}

impl<S> TaskReport<S> {
    /// Whether the protocol solves the task over the explored executions.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Exhaustively checks a protocol (embodied in `model`) against a decision
/// problem over all `S`-executions of up to `horizon` layers.
pub fn check_task<M: LayeredModel>(
    model: &M,
    task: &DecisionTask,
    horizon: usize,
    max_violations: usize,
) -> TaskReport<M::State> {
    assert_eq!(
        model.num_processes(),
        task.num_processes(),
        "model and task must agree on n"
    );
    let roots: Vec<_> = task
        .inputs()
        .iter()
        .map(|v| model.initial_state(v))
        .collect();
    let (states_explored, violations) =
        check_requirements(model, &roots, horizon, max_violations, &NOOP, |x, due| {
            let decisions = decided_simplex(model, x);
            let invalid = !task.decision_allowed(&model.inputs_of(x), &decisions);
            let validity = invalid.then(|| TaskViolation::Validity {
                state: x.clone(),
                decisions,
            });
            let decision = due.map(|undecided| TaskViolation::Decision {
                state: x.clone(),
                undecided,
            });
            validity.into_iter().chain(decision).collect()
        });
    TaskReport {
        states_explored,
        horizon,
        violations,
    }
}

#[cfg(test)]
mod tests {
    use layered_core::testkit::ScriptedModelBuilder;
    use layered_core::Value;

    use super::*;
    use crate::task::tasks;

    #[test]
    fn consensus_task_flags_split_decisions() {
        let m = ScriptedModelBuilder::new(2, 1)
            .initial(&[Value::ZERO, Value::ZERO], 0)
            .initial(&[Value::ZERO, Value::ONE], 1)
            .initial(&[Value::ONE, Value::ZERO], 2)
            .initial(&[Value::ONE, Value::ONE], 3)
            .decision(1, 0, Value::ZERO)
            .decision(1, 1, Value::ONE) // split decision on mixed inputs
            .depth(0, 0)
            .depth(1, 0)
            .depth(2, 0)
            .depth(3, 0)
            .build();
        let task = tasks::consensus(2);
        let report = check_task(&m, &task, 0, 10);
        assert!(!report.passed());
        assert!(report.violations.iter().any(|v| v.kind() == "validity"));
    }

    #[test]
    fn identity_task_accepts_own_input_decisions() {
        let mut b = ScriptedModelBuilder::new(2, 1);
        for (id, inputs) in layered_core::binary_input_vectors(2).iter().enumerate() {
            let id = id as u32;
            b = b.initial(inputs, id).depth(id, 0);
            for (p, &v) in inputs.iter().enumerate() {
                b = b.decision(id, p, v);
            }
        }
        let m = b.build();
        let task = tasks::identity(2);
        let report = check_task(&m, &task, 0, 10);
        assert!(report.passed(), "{:?}", report.violations);
        // The same decisions violate the constant-0 task on non-zero inputs.
        let report = check_task(&m, &tasks::constant(2, Value::ZERO), 0, 10);
        assert!(!report.passed());
    }

    #[test]
    fn decision_violation_reported_at_horizon() {
        let mut b = ScriptedModelBuilder::new(2, 1);
        for (id, inputs) in layered_core::binary_input_vectors(2).iter().enumerate() {
            b = b.initial(inputs, id as u32).depth(id as u32, 0);
        }
        let m = b.build();
        let report = check_task(&m, &tasks::consensus(2), 0, 10);
        assert!(!report.passed());
        assert!(report.violations.iter().all(|v| v.kind() == "decision"));
    }

    #[test]
    #[should_panic(expected = "agree on n")]
    fn mismatched_n_rejected() {
        let m = ScriptedModelBuilder::new(2, 1)
            .initial(&[Value::ZERO, Value::ZERO], 0)
            .build();
        let _ = check_task(&m, &tasks::consensus(3), 0, 1);
    }
}
