//! Canonicalization strategies: what an [`Arena`] interns in place of each
//! raw state — the state itself ([`Identity`]) or its process-renaming
//! orbit's canonical member ([`OrbitMin`]). See the [`space`](super) module
//! docs for how one arena, solver and scan loop serve both.

use std::borrow::Cow;

use super::snapshot::{decode_perm, encode_perm, ArenaMeta, SnapshotError, SnapshotReader};
use super::{Arena, DiffReport, StateId};
use crate::sym::{PidPerm, Symmetric};
use crate::telemetry::{MemoryBreakdown, Observer, Span};
use crate::LayeredModel;

mod sealed {
    pub trait Sealed {}
    impl Sealed for super::Identity {}
    impl Sealed for super::OrbitMin {}
}

/// How an [`Arena`] canonicalizes states before interning them. Implemented
/// by [`Identity`] (every [`LayeredModel`]) and [`OrbitMin`] ([`Symmetric`]
/// models with an equivariant layering); the trait is sealed.
pub trait Canonicalization<M: LayeredModel>: sealed::Sealed + Sized {
    /// Per-edge witness relating a raw successor to the stored target.
    type Witness: Clone + Send + Sync;
    /// Per-state orbit size.
    type Orbit: Copy + Send + Sync;
    /// The snapshot header's `kind` field.
    const KIND: &'static str;
    /// What scan and run messages call an interned item.
    const UNIT: &'static str;
    /// What a differential refresh calls a re-expanded row.
    const ROW_UNIT: &'static str;
    /// Whether distinct raw successors can share a representative. When
    /// `false` the arena skips deduplicating successor rows: a layer is
    /// duplicate-free ([`LayeredModel::successors`]), so its ids are too.
    const COLLAPSES: bool;

    /// Panics if `model` cannot be canonicalized soundly under this
    /// strategy.
    fn check_model(model: &M);

    /// The representative of `x`, the witness `π` with `π · x` = the
    /// representative, and the orbit size. Borrows `x` when it is its own
    /// representative, so the identity path never clones.
    fn canonicalize<'x>(
        model: &M,
        x: &'x M::State,
    ) -> (Cow<'x, M::State>, Self::Witness, Self::Orbit);

    /// [`canonicalize`](Self::canonicalize) for a state interned directly
    /// (not as a successor), under the strategy's span if it has one.
    fn canonicalize_traced<'x>(
        model: &M,
        x: &'x M::State,
        _obs: &dyn Observer,
    ) -> (Cow<'x, M::State>, Self::Witness, Self::Orbit) {
        Self::canonicalize(model, x)
    }

    /// Maps an id path along cached edges back to model states: the
    /// interned states themselves, or a de-quotiented execution. `None` if
    /// the path leaves the cached edges (strategies that need them).
    fn resolve_path(space: &Arena<M, Self>, model: &M, path: &[StateId]) -> Option<Vec<M::State>>;

    /// Reports `hits` intern probes that found their state.
    fn count_hits(obs: &dyn Observer, hits: u64);

    /// Reports one direct probe's equality comparisons.
    fn count_probe(_obs: &dyn Observer, _compared: u64) {}

    /// Reports newly interned states: `misses` of them, with orbit sizes
    /// `new`.
    fn count_new(obs: &dyn Observer, misses: u64, new: &[Self::Orbit]);

    /// Reports gauges derived from every interned orbit size.
    fn report_orbits(_obs: &dyn Observer, _orbits: &[Self::Orbit]) {}

    /// Reports a differential refresh's reused / recomputed counters.
    fn report_refresh(obs: &dyn Observer, report: &DiffReport);

    /// Adds the strategy's own arrays to a memory breakdown.
    fn extra_footprint(_space: &Arena<M, Self>, _b: &mut MemoryBreakdown) {}

    /// Rejects a snapshot whose provenance cannot load under `model`.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Malformed`] naming the mismatch.
    fn check_meta(_model: &M, _meta: &ArenaMeta) -> Result<(), SnapshotError> {
        Ok(())
    }

    /// Appends the strategy's snapshot sections (after the fingerprints).
    fn encode_extra(_space: &Arena<M, Self>, _out: &mut Vec<u8>) {}

    /// Decodes the strategy's snapshot sections for `states` states and
    /// `edges` edges.
    ///
    /// # Errors
    ///
    /// Any structural defect of the sections.
    #[allow(clippy::type_complexity)]
    fn decode_extra(
        r: &mut SnapshotReader<'_>,
        states: usize,
        edges: usize,
        meta: &ArenaMeta,
    ) -> Result<(Vec<Self::Orbit>, Vec<Self::Witness>), SnapshotError>;
}

/// The identity strategy: the arena interns states as they are.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Identity;

impl<M: LayeredModel> Canonicalization<M> for Identity {
    type Witness = ();
    type Orbit = ();
    const KIND: &'static str = "state";
    const UNIT: &'static str = "states";
    const ROW_UNIT: &'static str = "rows";
    const COLLAPSES: bool = false;

    fn check_model(_model: &M) {}

    fn canonicalize<'x>(_model: &M, x: &'x M::State) -> (Cow<'x, M::State>, (), ()) {
        (Cow::Borrowed(x), (), ())
    }

    fn resolve_path(space: &Arena<M, Self>, _model: &M, path: &[StateId]) -> Option<Vec<M::State>> {
        Some(space.materialize(path))
    }

    fn count_hits(obs: &dyn Observer, hits: u64) {
        obs.counter("space.intern.hits", hits);
    }

    fn count_probe(obs: &dyn Observer, compared: u64) {
        obs.histogram("space.intern.probe_len", compared);
    }

    fn count_new(obs: &dyn Observer, misses: u64, _new: &[()]) {
        obs.counter("space.intern.misses", misses);
    }

    fn report_refresh(obs: &dyn Observer, report: &DiffReport) {
        obs.counter("space.resume.rows_reused", report.reused as u64);
        obs.counter("space.resume.rows_recomputed", report.recomputed as u64);
    }

    fn decode_extra(
        _r: &mut SnapshotReader<'_>,
        states: usize,
        edges: usize,
        _meta: &ArenaMeta,
    ) -> Result<(Vec<()>, Vec<()>), SnapshotError> {
        Ok((vec![(); states], vec![(); edges]))
    }
}

/// The orbit strategy: the arena interns one canonical representative per
/// process-renaming orbit of a [`Symmetric`] model.
///
/// Sound only over an equivariant layering (`S(π·x) = π·S(x)`), so arenas
/// and snapshot loads under this strategy panic unless
/// [`Symmetric::symmetric_layering`] holds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OrbitMin;

impl<M: Symmetric> Canonicalization<M> for OrbitMin {
    type Witness = PidPerm;
    type Orbit = u64;
    const KIND: &'static str = "quotient";
    const UNIT: &'static str = "orbits";
    const ROW_UNIT: &'static str = "orbits";
    const COLLAPSES: bool = true;

    fn check_model(model: &M) {
        assert!(
            model.symmetric_layering(),
            "QuotientSpace requires an equivariant layering \
             (use the model's full/symmetric layering variant)"
        );
    }

    fn canonicalize<'x>(model: &M, x: &'x M::State) -> (Cow<'x, M::State>, PidPerm, u64) {
        let (rep, perm, orbit) = model.canonicalize_with_orbit(x);
        (Cow::Owned(rep), perm, orbit)
    }

    fn canonicalize_traced<'x>(
        model: &M,
        x: &'x M::State,
        obs: &dyn Observer,
    ) -> (Cow<'x, M::State>, PidPerm, u64) {
        let _span = Span::enter(obs, "space.canonicalize");
        <Self as Canonicalization<M>>::canonicalize(model, x)
    }

    fn resolve_path(space: &Arena<M, Self>, model: &M, path: &[StateId]) -> Option<Vec<M::State>> {
        space.dequotient_path(model, path)
    }

    fn count_hits(obs: &dyn Observer, hits: u64) {
        obs.counter("space.canon.hits", hits);
    }

    fn count_new(obs: &dyn Observer, _misses: u64, new: &[u64]) {
        obs.counter("space.canon.orbit_states", new.iter().sum());
    }

    fn report_orbits(obs: &dyn Observer, orbits: &[u64]) {
        // Mean orbit size in fixed-point thousandths (a reading of 5920
        // means each interned representative stands for 5.92 full-space
        // states on average) — see the units table in `telemetry::names`.
        if !orbits.is_empty() {
            obs.gauge(
                "space.quotient.mean_orbit_x1000",
                orbits.iter().sum::<u64>() * 1000 / orbits.len() as u64,
            );
        }
    }

    fn report_refresh(obs: &dyn Observer, report: &DiffReport) {
        obs.counter("space.resume.orbits_reused", report.reused as u64);
        obs.counter("space.resume.orbits_recomputed", report.recomputed as u64);
    }

    fn extra_footprint(space: &Arena<M, Self>, b: &mut MemoryBreakdown) {
        b.push(
            "mem.space.orbits_bytes",
            space.orbits.capacity() as u64 * std::mem::size_of::<u64>() as u64,
        );
        let perm_maps: u64 = space.witnesses.iter().map(|p| p.degree() as u64).sum();
        b.push(
            "mem.space.perms_bytes",
            space.witnesses.capacity() as u64 * std::mem::size_of::<PidPerm>() as u64 + perm_maps,
        );
    }

    fn check_meta(model: &M, meta: &ArenaMeta) -> Result<(), SnapshotError> {
        if meta.n == model.num_processes() as u64 {
            Ok(())
        } else {
            Err(SnapshotError::Malformed("snapshot n does not match model"))
        }
    }

    fn encode_extra(space: &Arena<M, Self>, out: &mut Vec<u8>) {
        for orbit in &space.orbits {
            out.extend_from_slice(&orbit.to_le_bytes());
        }
        for perm in &space.witnesses {
            encode_perm(perm, out);
        }
    }

    fn decode_extra(
        r: &mut SnapshotReader<'_>,
        states: usize,
        edges: usize,
        meta: &ArenaMeta,
    ) -> Result<(Vec<u64>, Vec<PidPerm>), SnapshotError> {
        let mut orbits = Vec::with_capacity(states.min(r.remaining() / 8));
        for _ in 0..states {
            let orbit = r.u64()?;
            if orbit == 0 {
                return Err(SnapshotError::Malformed("orbit size zero"));
            }
            orbits.push(orbit);
        }
        let mut perms = Vec::with_capacity(edges.min(r.remaining()));
        for _ in 0..edges {
            perms.push(decode_perm(r, meta.n)?);
        }
        Ok((orbits, perms))
    }
}
