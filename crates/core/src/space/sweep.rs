//! The one breadth-first frontier loop: every level-by-level engine (arena
//! expansion, the checkers, the census, the layer scans and lemma sweeps)
//! runs on [`sweep`], which owns the two figures they all report:
//!
//! * `engine.dedup_hits` — each successor id dropped because it was
//!   already pushed into the same level (duplicate roots are not counted);
//! * `engine.frontier_width` — the width of every level the sweep visits,
//!   gauged once before `visit` sees it.

use std::ops::ControlFlow;

use fxhash::FxHashSet;

use super::StateId;
use crate::telemetry::Observer;

/// The next level of a [`sweep`]: ids pushed here are deduplicated as they
/// arrive, keeping first-seen order.
#[derive(Default)]
pub struct NextLevel {
    ids: Vec<StateId>,
    seen: FxHashSet<StateId>,
    /// Duplicates dropped since the last report.
    hits: u64,
}

impl NextLevel {
    /// Adds `id` unless the level already holds it (then counts a hit).
    pub fn push(&mut self, id: StateId) {
        if self.seen.insert(id) {
            self.ids.push(id);
        } else {
            self.hits += 1;
        }
    }

    /// [`NextLevel::push`] for each of `ids`, in order.
    pub fn extend(&mut self, ids: impl IntoIterator<Item = StateId>) {
        for id in ids {
            self.push(id);
        }
    }
}

/// The ids pushed so far, in first-seen order.
impl std::ops::Deref for NextLevel {
    type Target = [StateId];

    fn deref(&self) -> &[StateId] {
        &self.ids
    }
}

/// Breadth-first sweep: level 0 is `roots` deduplicated (first occurrence
/// wins); for each level the driver gauges its width and calls
/// `visit(depth, level, &mut next)`, whose pushes into `next` form level
/// `depth + 1`. Ends on [`ControlFlow::Break`], whose value it returns, or
/// on an empty level. Dedup happens at push time, so a sweep that breaks
/// mid-level has counted exactly the duplicates it produced.
pub fn sweep<B>(
    roots: impl IntoIterator<Item = StateId>,
    obs: &dyn Observer,
    mut visit: impl FnMut(usize, &[StateId], &mut NextLevel) -> ControlFlow<B>,
) -> ControlFlow<B> {
    let mut next = NextLevel::default();
    next.extend(roots);
    let mut level = Vec::new();
    for depth in 0.. {
        std::mem::swap(&mut level, &mut next.ids);
        if level.is_empty() {
            break;
        }
        next.ids.clear();
        next.seen.clear();
        next.hits = 0;
        obs.gauge("engine.frontier_width", level.len() as u64);
        let flow = visit(depth, &level, &mut next);
        if next.hits > 0 {
            obs.counter("engine.dedup_hits", next.hits);
        }
        flow?;
    }
    ControlFlow::Continue(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::StateSpace;
    use crate::telemetry::{MetricsRegistry, NOOP};
    use crate::testkit::{flp_diamond, ScriptedModel};
    use crate::LayeredModel;

    fn ids(raw: &[u32]) -> Vec<StateId> {
        raw.iter().map(|&k| StateId(k)).collect()
    }

    /// Sweeps from `roots`, pushing `pushes[d]` at level `d` and breaking
    /// after level `stop`: the levels visited and the dedup hits reported.
    fn levels(roots: &[u32], pushes: &[&[u32]], stop: usize) -> (Vec<Vec<StateId>>, u64) {
        let reg = MetricsRegistry::new();
        let mut seen = Vec::new();
        let _ = sweep(ids(roots), &reg, |depth, level, next| {
            seen.push(level.to_vec());
            next.extend(ids(pushes.get(depth).copied().unwrap_or_default()));
            if depth == stop {
                return ControlFlow::Break(());
            }
            ControlFlow::Continue(())
        });
        (seen, reg.snapshot().counter("engine.dedup_hits"))
    }

    #[test]
    fn roots_are_deduped_in_first_seen_order() {
        let (seen, hits) = levels(&[3, 1, 3, 0, 1], &[], 9);
        assert_eq!(seen, vec![ids(&[3, 1, 0])]);
        assert_eq!(hits, 0, "duplicate roots are not counted");
    }

    #[test]
    fn next_level_keeps_first_seen_order() {
        let (seen, _) = levels(&[0], &[&[5, 2, 5, 7, 2, 0]], 9);
        assert_eq!(seen, vec![ids(&[0]), ids(&[5, 2, 7, 0])]);
    }

    #[test]
    fn dedup_hits_count_each_dropped_id() {
        // Level 0 pushes two duplicate 4s. Level 1 pushes a duplicate 9 (an
        // id of an earlier level may come back) and breaks: it still counts.
        let (seen, hits) = levels(&[0, 1], &[&[4, 4, 6, 4], &[0, 9, 9]], 1);
        assert_eq!(seen.len(), 2);
        assert_eq!(hits, 3);
    }

    #[test]
    fn break_computes_no_successors_of_the_next_level() {
        let m = flp_diamond();
        let mut space: StateSpace<ScriptedModel> = StateSpace::new_boxed(&m);
        let roots = space.intern_all(&m, &m.initial_states(), &NOOP);
        // Expand levels 0 = {0} and 1 = {1, 2}, then stop.
        let flow = sweep(roots, &NOOP, |depth, level, next| {
            for &id in level {
                next.extend(space.successor_ids(&m, id, &NOOP));
            }
            if depth == 1 {
                ControlFlow::Break(next.len())
            } else {
                ControlFlow::Continue(())
            }
        });
        assert_eq!(flow, ControlFlow::Break(2));
        // The arena caches every successor list it computes: levels 0 and 1
        // have one, level 2 = {3, 4} has none.
        let cached = |x| {
            space
                .cached_successors(space.get(&m, &x).expect("interned"))
                .is_some()
        };
        assert_eq!(
            [0, 1, 2, 3, 4].map(cached),
            [true, true, true, false, false]
        );
    }
}
