//! Property tests for the hash-consing state arena: interning round-trips,
//! id density, and sequential/parallel expansion equivalence under random
//! model shapes and interning orders.

use proptest::prelude::*;

use std::collections::BTreeSet;

use layered_core::testkit::{
    flp_diamond, naive_levels, reachable_space, CounterModel, ScriptedModel, ScriptedModelBuilder,
};
use layered_core::{binary_input_vectors, explore, LayeredModel, NoopObserver, StateSpace};

/// Every distinct state reachable in 3 layers of a 3-way branching model —
/// the pool random interning orders draw from.
fn pool() -> Vec<<CounterModel as LayeredModel>::State> {
    let m = CounterModel::new(3, 3);
    let (space, levels) = reachable_space(&m, 3);
    levels
        .into_iter()
        .flatten()
        .map(|id| space.resolve(id))
        .collect()
}

/// A layered DAG on a grid of width 4: the four initial states are nodes
/// 0..4, and each `(d, i, j)` adds the edge from node `i` of layer `d` to
/// node `j` of layer `d + 1` (node `4d + i`), so parents often share
/// children.
fn dag(edges: &[(u32, u32, u32)]) -> ScriptedModel {
    let mut b = ScriptedModelBuilder::new(2, 1);
    for (id, inputs) in binary_input_vectors(2).iter().enumerate() {
        b = b.initial(inputs, id as u32);
    }
    let edges: BTreeSet<(u32, u32, u32)> = edges.iter().copied().collect();
    for (d, i, j) in edges {
        b = b
            .edge(4 * d + i, 4 * (d + 1) + j)
            .depth(4 * (d + 1) + j, d as usize + 1);
    }
    b.build()
}

fn arb_picks() -> impl Strategy<Value = Vec<usize>> {
    let len = pool().len();
    proptest::collection::vec(0..len, 1..64)
}

proptest! {
    /// `resolve(intern(s)) == s`, double-interning returns the same id, and
    /// ids stay dense in first-seen order — for arbitrary interning orders.
    #[test]
    fn intern_round_trips_under_random_orders(picks in arb_picks()) {
        let states = pool();
        let m = CounterModel::new(3, 3);
        let mut space: StateSpace<CounterModel> = StateSpace::new_boxed(&m);
        let mut first_id = std::collections::HashMap::new();
        for &k in &picks {
            let s = &states[k];
            let (id, ()) = space.intern(&m, s);
            prop_assert_eq!(&space.resolve(id), s);
            let prior = *first_id.entry(k).or_insert(id);
            prop_assert_eq!(prior, id, "double-intern must return the first id");
            prop_assert_eq!(space.get(&m, s), Some(id));
        }
        // One arena slot per distinct state presented.
        prop_assert_eq!(space.len(), first_id.len());
        // Ids are dense and assigned in first-seen order.
        let mut seen = std::collections::HashSet::new();
        let mut next = 0usize;
        for &k in &picks {
            if seen.insert(k) {
                prop_assert_eq!(first_id[&k].index(), next);
                next += 1;
            }
        }
    }

    /// Parallel expansion is bit-identical to sequential for arbitrary
    /// branching factors, horizons, and thread counts.
    #[test]
    fn parallel_expansion_matches_sequential(
        branch in 1u8..4,
        horizon in 0usize..4,
        threads in 1usize..9,
    ) {
        let m = CounterModel::new(3, branch);
        let roots = m.initial_states();
        let mut seq: StateSpace<CounterModel> = StateSpace::new_boxed(&m);
        let a = seq.expand_layers(&m, &roots, horizon, &NoopObserver);
        let mut par: StateSpace<CounterModel> = StateSpace::new_boxed(&m);
        let b = par.expand_layers_parallel(&m, &roots, horizon, threads, &NoopObserver);
        prop_assert_eq!(a, b);
        prop_assert_eq!(seq.len(), par.len());
        prop_assert_eq!(seq.edge_count(), par.edge_count());
    }

    /// `explore` levels equal the naive raw-state BFS of the testkit on
    /// models whose successors merge: the FLP diamond and random DAGs.
    #[test]
    fn explore_matches_naive_bfs(
        edges in proptest::collection::vec((0u32..3, 0u32..4, 0u32..4), 0..24),
        horizon in 0usize..5,
    ) {
        for m in [flp_diamond(), dag(&edges)] {
            let roots = m.initial_states();
            let levels = explore(&m, &roots, horizon).levels;
            let oracle = naive_levels(&m, &roots, horizon);
            prop_assert_eq!(levels.len(), oracle.len());
            for (level, want) in levels.iter().zip(&oracle) {
                let got: BTreeSet<u32> = level.iter().copied().collect();
                prop_assert_eq!(got.len(), level.len(), "a level repeats a state");
                prop_assert_eq!(&got, want);
            }
        }
    }
}
