//! Seeded inputs: compilation draws and the serve-fleet schedule.
//!
//! Everything a workload feeds the program is derived here from the
//! `--seed` argument, so the same seed gives the same inputs on every
//! host and commit. The draws are built so that the amount of work
//! hardly depends on the seed: runs made with different seeds are
//! compared with each other, so a seed must change the inputs, not the
//! cost.

use flit_toolchain::compilation::{mfem_matrix, Compilation};

/// SplitMix64: tiny, seedable and stable across platforms.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and a stream name, so two draws from the
    /// same seed stay independent.
    pub fn new(seed: u64, stream: &str) -> Self {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in stream.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        Rng(seed ^ h)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }

    /// `k` distinct indices below `n`, in ascending order.
    pub fn sample(&mut self, n: usize, k: usize) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..n).collect();
        self.shuffle(&mut idx);
        idx.truncate(k.min(n));
        idx.sort_unstable();
        idx
    }
}

/// `k` compilations of the 244-compilation MFEM matrix, in a seeded
/// order.
///
/// The set is a stratified draw by (compiler, optimization level) —
/// each stratum shuffled, one compilation taken from each in turn — made
/// with a fixed stream seed, so it is the same for every `--seed`; the
/// seed orders it. Search costs are heavy-tailed (coefficient of
/// variation about 1.1 per variable row on the full MFEM workflow) and a
/// journaled pass costs about the square of its appends: over 2,000
/// simulated seeds, a set drawn afresh per seed gave the journaled
/// pass's cost proxy (executions squared) a quartile spread of 19% of
/// its median. A seeded order of a fixed set changes the program's row
/// order, journal order and fan-out interleaving but not its work.
pub fn mfem_compilations(seed: u64, stream: &str, k: usize) -> Vec<Compilation> {
    let mut fixed = Rng::new(0, stream);
    let mut strata: Vec<Vec<Compilation>> = Vec::new();
    for comp in mfem_matrix() {
        match strata
            .iter_mut()
            .find(|s| (s[0].compiler, s[0].opt) == (comp.compiler, comp.opt))
        {
            Some(stratum) => stratum.push(comp),
            None => strata.push(vec![comp]),
        }
    }
    for stratum in &mut strata {
        fixed.shuffle(stratum);
    }
    let rounds = strata.iter().map(Vec::len).max().unwrap_or(0);
    let mut set: Vec<Compilation> = (0..rounds)
        .flat_map(|r| strata.iter().filter_map(move |s| s.get(r).cloned()))
        .take(k)
        .collect();
    Rng::new(seed, stream).shuffle(&mut set);
    set
}

/// One serve-fleet submission.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Submission {
    /// Bundled application.
    pub app: &'static str,
    /// Bisection cap.
    pub cap: usize,
}

/// Submissions per client and round, by application: weighted toward
/// the cheap apps, with enough `mfem` that the p90 latency falls inside
/// the `mfem` cluster and the median inside the `lulesh` one.
pub const FLEET_MIX: [(&str, usize); 3] = [("laghos", 22), ("lulesh", 38), ("mfem", 15)];

/// Bisection caps a submission may carry.
pub const FLEET_CAPS: [usize; 3] = [1, 2, 3];

/// Closed-loop clients (one tenant each).
pub const FLEET_CLIENTS: usize = 2;

/// The per-client submission sequences for one round. Every client
/// sends the same number of each app, with caps spread evenly over
/// [`FLEET_CAPS`] (so the work per round hardly depends on the seed),
/// in a seeded order. With three caps per app, both clients repeat their
/// own (app, cap) pairs (same-tenant repeats, replayed from the tenant
/// journal) and each other's (cross-tenant repeats, shared through the
/// fleet ledger).
pub fn fleet_schedule(seed: u64) -> Vec<Vec<Submission>> {
    (0..FLEET_CLIENTS)
        .map(|client| {
            let mut rng = Rng::new(seed, &format!("fleet-client-{client}"));
            let mut seq: Vec<Submission> = FLEET_MIX
                .iter()
                .flat_map(|&(app, n)| std::iter::repeat_n(app, n))
                .map(|app| Submission { app, cap: 0 })
                .collect();
            // Caps cycle through FLEET_CAPS within each app, starting at
            // a seeded offset, so every seed sends each (app, cap) pair
            // about equally often; the seed then orders the sequence.
            for &(app, _) in &FLEET_MIX {
                let offset = rng.below(FLEET_CAPS.len());
                for (k, s) in seq.iter_mut().filter(|s| s.app == app).enumerate() {
                    s.cap = FLEET_CAPS[(offset + k) % FLEET_CAPS.len()];
                }
            }
            rng.shuffle(&mut seq);
            seq
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_draw_and_schedule() {
        assert_eq!(mfem_compilations(7, "x", 40), mfem_compilations(7, "x", 40));
        assert_eq!(fleet_schedule(7), fleet_schedule(7));
    }

    #[test]
    fn different_seeds_differ() {
        assert_ne!(mfem_compilations(7, "x", 40), mfem_compilations(8, "x", 40));
        assert_ne!(fleet_schedule(7), fleet_schedule(8));
    }

    #[test]
    fn draws_are_a_seeded_order_of_one_stratified_set() {
        let a = mfem_compilations(3, "x", 48);
        let b = mfem_compilations(4, "x", 48);
        assert_eq!(a.len(), 48);
        let set = |v: &[Compilation]| -> std::collections::BTreeSet<String> {
            v.iter().map(Compilation::label).collect()
        };
        assert_eq!(set(&a).len(), 48, "distinct compilations");
        assert_eq!(set(&a), set(&b), "the set does not depend on the seed");
        // 3 compilers x 4 levels: every stratum gets 4.
        let mut per_stratum = std::collections::BTreeMap::new();
        for c in &a {
            *per_stratum.entry((c.compiler, c.opt)).or_insert(0) += 1;
        }
        assert_eq!(per_stratum.len(), 12);
        assert!(per_stratum.values().all(|&n| n == 4), "{per_stratum:?}");
    }

    #[test]
    fn schedule_has_a_fixed_mix_and_both_kinds_of_repeat() {
        let schedule = fleet_schedule(11);
        assert_eq!(schedule.len(), FLEET_CLIENTS);
        for seq in &schedule {
            for (app, n) in FLEET_MIX {
                assert_eq!(seq.iter().filter(|s| s.app == app).count(), n);
            }
            let distinct: std::collections::BTreeSet<&Submission> = seq.iter().collect();
            assert!(distinct.len() < seq.len(), "same-tenant repeats");
        }
        let a: std::collections::BTreeSet<&Submission> = schedule[0].iter().collect();
        assert!(
            schedule[1].iter().any(|s| a.contains(s)),
            "cross-tenant repeats"
        );
    }
}
