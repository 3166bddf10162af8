//! Interned-space conformance for the message-passing model: parallel layer
//! expansion must be bit-identical to sequential, the layer scan must agree
//! across both paths, and witnesses built through the interned engines must
//! re-verify from scratch.

use layered_async_mp::MpModel;
use layered_core::{
    scan_layer_valence_connectivity, scan_layer_valence_connectivity_parallel,
    ImpossibilityWitness, LayeredModel, NoopObserver, StateSpace, ValenceSolver,
};
use layered_protocols::MpFloodMin;

#[test]
fn parallel_expansion_is_bit_identical_at_n3() {
    let m = MpModel::new(3, MpFloodMin::new(2));
    let roots = m.initial_states();
    let mut seq: StateSpace<MpModel<MpFloodMin>> = StateSpace::new_boxed(&m);
    let seq_levels = seq.expand_layers(&m, &roots, 2, &NoopObserver);
    for threads in [2, 8] {
        let mut par: StateSpace<MpModel<MpFloodMin>> = StateSpace::new_boxed(&m);
        let par_levels = par.expand_layers_parallel(&m, &roots, 2, threads, &NoopObserver);
        assert_eq!(seq_levels, par_levels, "threads={threads}");
        assert_eq!(seq.len(), par.len());
    }
}

#[test]
fn parallel_scan_matches_sequential_at_n3() {
    let m = MpModel::new(3, MpFloodMin::new(2));
    let mut seq = ValenceSolver::new(&m, 2);
    let a = scan_layer_valence_connectivity(&mut seq, 1, true);
    let mut par = ValenceSolver::new(&m, 2);
    let b = scan_layer_valence_connectivity_parallel(&mut par, 1, true, 4);
    assert_eq!(a, b);
    assert!(a.all_connected());
}

#[test]
fn interned_witness_verifies() {
    let m = MpModel::new(3, MpFloodMin::new(2));
    let w = ImpossibilityWitness::build(&m, 2, 1).expect("S^per keeps a bivalent run alive");
    assert!(w.verify(&m).is_ok());
}
