//! Answer quality against the exact HHH set of the stream (or window) the
//! answer covers, computed off the clock with `ExactHhh`.

use std::collections::{HashMap, HashSet};

use hhh_core::{ExactHhh, HeavyHitter, RhhhConfig};
use hhh_counters::IntHashBuilder;
use hhh_eval::{accuracy_error_ratio, coverage_error_ratio};
use hhh_hierarchy::{Lattice, Prefix};

/// How the final answer compares with the exact θ-HHH set.
#[derive(Default)]
pub struct Quality {
    /// Share of the exact θ-HHH set missing from the answer.
    pub coverage_error: f64,
    /// Share of reported prefixes whose upper estimate is off by more than
    /// `εN`, with `ε = ε_a + ε_s`.
    pub accuracy_error: f64,
    /// Size of the exact θ-HHH set.
    pub exact_size: usize,
    /// Coverage violations (Figure 3's metric) over the exact set size.
    pub violations: f64,
}

/// Builds the exact structure over `keys` and scores `answer` against it.
///
/// Exact counts do not depend on arrival order, so the keys are tallied
/// first and each distinct key is then inserted as one run of repeats,
/// which keeps the 25 per-node maps hot in cache.
pub fn score(
    lattice: &Lattice<u64>,
    keys: impl IntoIterator<Item = u64>,
    answer: &[HeavyHitter<u64>],
    config: &RhhhConfig,
    theta: f64,
) -> Quality {
    let mut tally: HashMap<u64, u64, IntHashBuilder> = HashMap::default();
    for k in keys {
        *tally.entry(k).or_insert(0) += 1;
    }
    let mut exact = ExactHhh::new(lattice.clone());
    for (k, count) in tally {
        for _ in 0..count {
            exact.insert(k);
        }
    }
    let truth = exact.hhh(theta);
    let reported: HashSet<Prefix<u64>> = answer.iter().map(|h| h.prefix).collect();
    let missing = truth.iter().filter(|p| !reported.contains(p)).count();
    Quality {
        coverage_error: missing as f64 / truth.len().max(1) as f64,
        accuracy_error: accuracy_error_ratio(answer, &exact, config.epsilon()),
        exact_size: truth.len(),
        violations: coverage_error_ratio(answer, &exact, theta),
    }
}
