//! Property tests for the symmetry machinery: the permutation group laws,
//! the canonicalization contract, and full-vs-quotient expansion parity on
//! the testkit's equivariant `CounterModel`.

use proptest::prelude::*;

use layered_core::testkit::{CounterModel, CounterState};
use layered_core::{orbit_size, ExecutionTrace};
use layered_core::{LayeredModel, PidPerm, QuotientSpace, StateSpace, Symmetric, Value};

fn arb_inputs(n: usize) -> impl Strategy<Value = Vec<Value>> {
    proptest::collection::vec(0u32..2, n).prop_map(|v| v.into_iter().map(Value::new).collect())
}

/// A permutation of degree `n`, drawn by index into the full enumeration.
fn perm_of(n: usize, seed: usize) -> PidPerm {
    let all = PidPerm::all(n);
    all[seed % all.len()].clone()
}

proptest! {
    /// Group laws: `π ∘ π⁻¹ = id` and `(π ∘ τ)·v = π·(τ·v)`.
    #[test]
    fn perm_group_laws(n in 2usize..5, p in 0usize..120, q in 0usize..120) {
        let pi = perm_of(n, p);
        let tau = perm_of(n, q);
        prop_assert!(pi.compose(&pi.inverse()).is_identity());
        prop_assert!(pi.inverse().compose(&pi).is_identity());
        let v: Vec<usize> = (0..n).collect();
        prop_assert_eq!(
            pi.compose(&tau).permute_vec(&v),
            pi.permute_vec(&tau.permute_vec(&v))
        );
    }

    /// The canonicalization contract: the returned permutation witnesses
    /// the representative, the representative is a fixed point, and every
    /// orbit member canonicalizes to the same representative.
    #[test]
    fn canonicalize_contract(inputs in arb_inputs(3), p in 0usize..6) {
        let m = CounterModel::new(3, 2);
        let x = m.initial_state(&inputs);
        let (rep, pi) = m.canonicalize(&x);
        prop_assert_eq!(&m.permute_state(&x, &pi), &rep);
        prop_assert_eq!(&m.canonicalize(&rep).0, &rep);
        let y = m.permute_state(&x, &perm_of(3, p));
        prop_assert_eq!(&m.canonicalize(&y).0, &rep);
        prop_assert_eq!(orbit_size(&m, &x), orbit_size(&m, &rep));
    }

    /// Expansion parity: per level, the quotient's orbits cover exactly the
    /// full space's states (orbit sizes sum to the full level count), and
    /// every full-space state canonicalizes to an interned representative.
    #[test]
    fn quotient_expansion_covers_full_space(n in 2usize..4, branch in 1u8..3) {
        let m = CounterModel::new(n, branch);
        let roots = m.initial_states();

        let mut full = StateSpace::new_boxed(&m);
        let full_levels = full.expand_layers(&m, &roots, 2, &layered_core::NoopObserver);

        let mut quot = QuotientSpace::new(&m);
        let quot_levels = quot.expand_layers(&m, &roots, 2, &layered_core::NoopObserver);

        prop_assert_eq!(full_levels.len(), quot_levels.len());
        for (fl, ql) in full_levels.iter().zip(&quot_levels) {
            let covered: u64 = ql.iter().map(|&id| quot.orbit_size_of(id)).sum();
            prop_assert_eq!(covered, fl.len() as u64);
            for &id in fl {
                let x = full.resolve(id);
                let (rep, _) = m.canonicalize(&x);
                prop_assert!(quot.get(&m, &rep).is_some(), "missing orbit of {x:?}");
            }
        }
    }

    /// De-quotiented paths are genuine executions: walking quotient edges
    /// and materializing through the stored permutations yields a chain
    /// that `ExecutionTrace::validate` accepts.
    #[test]
    fn dequotiented_paths_validate(n in 2usize..4, steps in 1usize..3) {
        let m = CounterModel::new(n, 2);
        let mut quot = QuotientSpace::new(&m);
        let roots = m.initial_states();
        let levels = quot.expand_layers(&m, &roots, steps, &layered_core::NoopObserver);

        // Greedy path: first root, then the last cached successor each step.
        let mut path = vec![levels[0][0]];
        for _ in 0..steps {
            let succs = quot
                .cached_successors(*path.last().unwrap())
                .expect("expanded");
            path.push(*succs.last().expect("CounterModel always branches"));
        }
        let states: Vec<CounterState> =
            quot.dequotient_path(&m, &path).expect("edges are cached");
        prop_assert_eq!(states.len(), path.len());
        let trace = ExecutionTrace::new(states);
        prop_assert!(trace.validate(&m).is_ok());
    }
}
