//! Interned-space conformance for the iterated-immediate-snapshot model:
//! parallel layer expansion must be bit-identical to sequential and the
//! layer scan must agree across both paths.

use layered_core::{
    scan_layer_valence_connectivity, scan_layer_valence_connectivity_parallel, LayeredModel,
    NoopObserver, StateSpace, ValenceSolver,
};
use layered_iis::IisModel;
use layered_protocols::SmFloodMin;

#[test]
fn parallel_expansion_is_bit_identical_at_n3() {
    let m = IisModel::new(3, SmFloodMin::new(2));
    let roots = m.initial_states();
    let mut seq: StateSpace<IisModel<SmFloodMin>> = StateSpace::new_boxed(&m);
    let seq_levels = seq.expand_layers(&m, &roots, 2, &NoopObserver);
    for threads in [2, 8] {
        let mut par: StateSpace<IisModel<SmFloodMin>> = StateSpace::new_boxed(&m);
        let par_levels = par.expand_layers_parallel(&m, &roots, 2, threads, &NoopObserver);
        assert_eq!(seq_levels, par_levels, "threads={threads}");
        assert_eq!(seq.len(), par.len());
    }
}

#[test]
fn parallel_scan_matches_sequential_at_n3() {
    let m = IisModel::new(3, SmFloodMin::new(2));
    let mut seq = ValenceSolver::new(&m, 2);
    let a = scan_layer_valence_connectivity(&mut seq, 1, true);
    let mut par = ValenceSolver::new(&m, 2);
    let b = scan_layer_valence_connectivity_parallel(&mut par, 1, true, 4);
    assert_eq!(a, b);
}
