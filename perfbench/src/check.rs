//! Correctness bookkeeping shared by every pass: a check counter, the
//! table normalization that makes two passes comparable, and the seeded
//! order in which a pass runs its items.

use layered_core::report::Table;

/// Checks attempted and failed in this process.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Checks {
    /// Counts one check; a failed one is reported on stderr and kept (the
    /// first few) for the result line.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            let what = what();
            eprintln!("perfbench: check failed: {what}");
            if self.failures.len() < 8 {
                self.failures.push(what);
            }
        }
    }
}

/// The rendered table with its timing column blanked: every cell of the
/// `wall ms` column that reads as a number becomes `#`, and the rule line
/// (whose length follows that column's width) is dropped. Verdict cells
/// that share the column (`witness ok`) are kept.
pub fn normalize(table: &Table) -> String {
    let text = table.to_string();
    let mut lines = text.lines();
    let caption = lines.next().unwrap_or_default();
    let header = lines.next().unwrap_or_default();
    let col = header
        .find("wall ms")
        .map(|byte| header[..byte].chars().count());
    let mut out = vec![caption.to_string(), header.trim_end().to_string()];
    for line in lines {
        if !line.is_empty() && line.chars().all(|c| c == '-') {
            continue;
        }
        let line = match col {
            Some(col) => {
                let head: String = line.chars().take(col).collect();
                let tail: String = line.chars().skip(col).collect();
                if tail.trim().parse::<f64>().is_ok() {
                    format!("{head}#")
                } else {
                    line.to_string()
                }
            }
            None => line.to_string(),
        };
        out.push(line.trim_end().to_string());
    }
    out.join("\n")
}

/// The row of a normalized table whose cells include `label`.
pub fn row<'a>(normalized: &'a str, label: &str) -> Option<&'a str> {
    normalized.lines().find(|l| l.contains(label))
}

/// splitmix64: the seed's only consumer, so a seed names one order.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A Fisher–Yates permutation of `0..len` determined by `seed`.
pub fn seeded_order(len: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..len).collect();
    let mut state = seed;
    for i in (1..len).rev() {
        let j = (splitmix(&mut state) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}
