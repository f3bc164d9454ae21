//! Certified closed-form lower bounds on the social optima.
//!
//! Three relaxation arguments, each valid for *every* pure assignment, so
//! their maxima are certified lower bounds on `OPT1`/`OPT2`:
//!
//! * **Singleton (fractional) bound.** Dropping all congestion, user `i`
//!   pays at least `sᵢ = min_ℓ (tₗ + wᵢ)/cᵢℓ` wherever it routes — the cost
//!   of being alone on its best link. Hence `OPT1 ≥ Σᵢ sᵢ` and
//!   `OPT2 ≥ maxᵢ sᵢ`.
//! * **Volume bound (capacity-allocation DP + τ-feasibility bisection).**
//!   In any assignment with max latency `τ`, every link obeys
//!   `Lₗ ≤ τ · min_{i∈Sₗ} cᵢℓ`, and a group of `kₗ` users can push its
//!   column minimum no higher than the `kₗ`-th largest capacity in column
//!   `ℓ`. Summing over links, `W ≤ τ · Σₗ colcapₗ(kₗ)` for the actual
//!   group sizes, so `OPT2 ≥ W / max{Σₗ colcapₗ(kₗ) : Σₗ kₗ = n}` — the
//!   maximum computed exactly by an `O(n²m)` allocation DP over the column
//!   order statistics (greedy is unsound: the order statistics need not
//!   have concave differences, and the bound must dominate every real
//!   assignment). The fractional-relaxation refinement then bisects on
//!   `τ`: at a candidate `τ`, user `i` can only sit on links with
//!   `(tₗ + wᵢ)/cᵢℓ ≤ τ` (its own latency already exceeds `τ` anywhere
//!   else), so the DP runs over *filtered* columns; if even then
//!   `τ · max Σ < W`, no assignment achieves `τ` and `OPT2 > τ`. This is
//!   what keeps the `OPT2` bracket tight when `n/m` is large: with many
//!   users per link the attainable minima sit well below `c_max`, heavy
//!   users are barred from their slow links, and the DP knows both.
//!   The bisection shares one memoised DP ([`VolumeDp`]): each column is
//!   sorted once, a step's filtered columns are masks of that order, and a
//!   column's filtered count fixes its contents. So each step keeps the DP
//!   rows of the links before the first one whose count changed, restarts
//!   from there, and costs nothing when no count changed. The bounds are
//!   bit-identical to running every step's DP from scratch.
//! * **Interaction bound (size-partition DP).** Splitting user `i`'s
//!   latency as `(tₗ + wᵢ)/cᵢℓ + (Lₗ − wᵢ)/cᵢℓ` and relaxing the second
//!   term's capacity to `c_max` gives
//!   `SC1(σ) ≥ Σᵢ sᵢ + (Σₗ kₗ·Lₗ − W)/c_max`, where `kₗ = |Sₗ|`. The
//!   congestion mass `Σₗ kₗ·Lₗ` is minimised, over **all** assignments, by
//!   putting the heaviest users into the smallest groups (an exchange
//!   argument), so its minimum is computable by a small dynamic program
//!   over blocks of the weight sequence sorted in decreasing order —
//!   `O(n²m)`, independent of `mⁿ`. This is the term that keeps the `OPT1`
//!   bracket tight at `n = 512`, where congestion (not solo latency)
//!   dominates the optimum.
//!
//! Finally `OPT1 ≥ OPT2` always (the sum dominates the max of the same
//! assignment), so the `OPT1` bound also takes the max with the `OPT2`
//! bound.

use crate::error::Result;
use crate::model::EffectiveGame;
use crate::numeric::stable_sum;
use crate::opt::engine::{OptCheckpoint, OptConfig, OptEstimate, OptEstimator, OptMethod};
use crate::solvers::engine::Applicability;
use crate::strategy::LinkLoads;

/// `sᵢ = min_ℓ (tₗ + wᵢ)/cᵢℓ`: the latency user `i` pays when alone on its
/// best link — a per-user lower bound in every assignment.
fn singleton_costs(game: &EffectiveGame, initial: &LinkLoads) -> Vec<f64> {
    (0..game.users())
        .map(|i| {
            let w = game.weight(i);
            (0..game.links())
                .map(|l| (initial.load(l) + w) / game.capacity(i, l))
                .fold(f64::INFINITY, f64::min)
        })
        .collect()
}

/// The minimum possible congestion mass `Σₗ kₗ·Lₗ` over all assignments of
/// the users into at most `m` groups (`kₗ` = group size, `Lₗ` = group
/// weight).
///
/// For a fixed multiset of group sizes the mass is minimised by filling the
/// smallest groups with the heaviest users (exchange argument), so the
/// optimum partitions the weights, sorted in decreasing order, into at most
/// `m` contiguous blocks — a textbook interval-partition DP over prefix
/// sums. Relaxing the block order (the DP does not force sizes to be
/// non-decreasing) only enlarges the search space, so the DP value is a
/// certified lower bound on the mass of every real assignment.
fn min_congestion_mass(game: &EffectiveGame) -> f64 {
    let n = game.users();
    let m = game.links();
    let mut weights: Vec<f64> = game.weights().to_vec();
    weights.sort_by(|a, b| b.partial_cmp(a).expect("finite weights"));
    let mut prefix = vec![0.0f64; n + 1];
    for (i, &w) in weights.iter().enumerate() {
        prefix[i + 1] = prefix[i] + w;
    }
    let sizes: Vec<f64> = (1..=n).map(|size| size as f64).collect();
    // dp[r] = min mass covering the first r (heaviest) users with the
    // blocks allowed so far; one more block per outer round.
    let mut dp = vec![f64::INFINITY; n + 1];
    dp[0] = 0.0;
    let mut next = dp.clone();
    for _block in 0..m.min(n) {
        next.copy_from_slice(&dp);
        for r in 0..n {
            let base = dp[r];
            if !base.is_finite() {
                continue;
            }
            let start = prefix[r];
            // Block r..end for every end > r, as one zipped pass over the
            // slots, prefixes and sizes so the loop vectorises.
            let slots = next[r + 1..].iter_mut().zip(&prefix[r + 1..]);
            for ((slot, &end), &size) in slots.zip(&sizes) {
                let mass = base + size * (end - start);
                *slot = if mass < *slot { mass } else { *slot };
            }
        }
        std::mem::swap(&mut dp, &mut next);
    }
    dp[n]
}

/// One link's side of the volume DP.
struct LinkColumn {
    /// The link's capacities over all users, in decreasing order.
    sorted: Vec<f64>,
    /// Each of those users' solo latency `(tₗ + wᵢ)/cᵢℓ` on the link, in
    /// the same order.
    solo: Vec<f64>,
    /// The capacities of the users whose solo latency fits under the last
    /// evaluated `τ`, in decreasing order.
    column: Vec<f64>,
}

/// The allocation DP of the volume bound, memoised across the steps of the
/// `τ`-bisection.
///
/// [`VolumeDp::value`] returns the largest value `Σₗ colcapₗ(kₗ)` can take
/// over all ways of placing the `n` users onto the links (`colcapₗ(k)` =
/// `k`-th largest capacity in column `ℓ`; empty links contribute nothing),
/// where column `ℓ` only keeps the capacities of users whose *solo* latency
/// on `ℓ` fits under `τ` — anyone else cannot sit there in an assignment
/// with `SC2 ≤ τ`. It is `None` when the columns cannot host all `n` users
/// at once.
///
/// A column's filtered set `{i : (tₗ + wᵢ)/cᵢℓ ≤ τ}` only grows with `τ`,
/// so two values of `τ` with the same count on a link give the same column,
/// and the DP rows before the first link whose count changed are the
/// previous evaluation's rows. Each evaluation therefore masks the
/// once-sorted capacities, restarts the DP at the first changed link, and
/// returns the previous value outright when no count changed. Every sum and
/// comparison is the one a from-scratch DP makes, so the values are
/// bit-identical to it.
struct VolumeDp {
    links: Vec<LinkColumn>,
    /// `rows[ℓ]` is the DP row before link `ℓ`: `rows[ℓ][p]` = the best
    /// value placing `p` users on links `0..ℓ` (`-∞` when impossible).
    rows: Vec<Vec<f64>>,
    /// The last evaluation's value; `None` before the first evaluation.
    last: Option<Option<f64>>,
    /// The link each evaluation restarted the DP at (`links` for a reuse).
    #[cfg(test)]
    starts: Vec<usize>,
}

impl VolumeDp {
    fn new(game: &EffectiveGame, initial: &LinkLoads) -> Self {
        let n = game.users();
        let links = (0..game.links())
            .map(|link| {
                let mut order: Vec<usize> = (0..n).collect();
                order.sort_by(|&a, &b| game.capacity(b, link).total_cmp(&game.capacity(a, link)));
                LinkColumn {
                    sorted: order.iter().map(|&i| game.capacity(i, link)).collect(),
                    solo: order
                        .iter()
                        .map(|&i| (initial.load(link) + game.weight(i)) / game.capacity(i, link))
                        .collect(),
                    column: Vec::with_capacity(n),
                }
            })
            .collect();
        let mut empty = vec![f64::NEG_INFINITY; n + 1];
        empty[0] = 0.0;
        VolumeDp {
            links,
            rows: vec![empty; game.links()],
            last: None,
            #[cfg(test)]
            starts: Vec::new(),
        }
    }

    /// The DP value with every user placeable everywhere (`τ = ∞`: solo
    /// latencies of a validated game are never NaN) — a validated game
    /// always admits this allocation.
    fn unfiltered(&mut self) -> f64 {
        self.value(f64::INFINITY)
            .expect("unfiltered columns host every user")
    }

    /// The DP value over the columns filtered at `tau` (see the type docs).
    fn value(&mut self, tau: f64) -> Option<f64> {
        let m = self.links.len();
        let mut start = if self.last.is_some() { m } else { 0 };
        for (l, link) in self.links.iter_mut().enumerate() {
            let count = link.solo.iter().filter(|&&solo| solo <= tau).count();
            if count != link.column.len() {
                link.column.clear();
                link.column.extend(
                    link.sorted
                        .iter()
                        .zip(&link.solo)
                        .filter(|&(_, &solo)| solo <= tau)
                        .map(|(&capacity, _)| capacity),
                );
                start = start.min(l);
            }
        }
        #[cfg(test)]
        self.starts.push(start);
        if start == m {
            return self.last.expect("only an evaluated DP skips every link");
        }
        for l in start..m - 1 {
            let (done, rest) = self.rows.split_at_mut(l + 1);
            allocation_pass(&done[l], &self.links[l].column, &mut rest[0]);
        }
        let best = allocation_target(&self.rows[m - 1], &self.links[m - 1].column);
        let value = best.is_finite().then_some(best);
        self.last = Some(value);
        value
    }
}

/// One link of the allocation DP: `next[p]` = the best of leaving the link
/// empty (`prev[p]`) and putting `k ≥ 1` users on it
/// (`prev[p − k] + column[k − 1]`).
fn allocation_pass(prev: &[f64], column: &[f64], next: &mut [f64]) {
    let n = prev.len() - 1;
    next.copy_from_slice(prev);
    for (placed, &base) in prev[..n].iter().enumerate() {
        if !base.is_finite() {
            continue;
        }
        let reach = column.len().min(n - placed);
        let slots = &mut next[placed + 1..placed + 1 + reach];
        for (slot, &capacity) in slots.iter_mut().zip(&column[..reach]) {
            let value = base + capacity;
            *slot = if value > *slot { value } else { *slot };
        }
    }
}

/// [`allocation_pass`] on the last link, where only `next[n]` is needed.
fn allocation_target(prev: &[f64], column: &[f64]) -> f64 {
    let n = prev.len() - 1;
    let reach = column.len().min(n);
    let mut best = prev[n];
    for (&base, &capacity) in prev[n - reach..n].iter().rev().zip(&column[..reach]) {
        if base.is_finite() {
            let value = base + capacity;
            if value > best {
                best = value;
            }
        }
    }
    best
}

/// The bisected volume bound on `OPT2`: the largest `τ` (within a fixed
/// bisection depth) at which the filtered allocation DP proves that no
/// assignment can keep every latency at or below `τ`.
fn volume_bound(dp: &mut VolumeDp, total: f64, check: OptCheckpoint<'_>) -> f64 {
    let base = total / dp.unfiltered();
    // `base` is already certified infeasible (see below), so an expired
    // deadline can stop before — or between — the filtered DPs and still
    // return a valid bound.
    if check.expired() {
        return base;
    }
    let mut infeasible = |tau: f64| match dp.value(tau) {
        None => true,
        Some(value) => tau * value < total,
    };
    // `h(τ) = τ·maxΣ(τ)` is nondecreasing, so infeasibility is downward
    // closed and bisection applies. `base` is infeasible by construction
    // (`base·maxΣ(base) ≤ base·maxΣ(∞) = W`); widen upward from there.
    // Each step re-runs the DP only from the first link whose filtered
    // count changed, and the loop stops as soon as the interval is
    // resolved to 0.1% — the returned `lo` is infeasible at any stopping
    // point, so the bound stays certified and a fired deadline merely
    // leaves the interval wider.
    let mut lo = base;
    let mut hi = base * 8.0;
    if infeasible(hi) {
        return hi;
    }
    for _ in 0..30 {
        if hi - lo <= 1e-3 * lo || check.expired() {
            break;
        }
        let mid = 0.5 * (lo + hi);
        if infeasible(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

/// The certified lower bounds `(opt1_lower, opt2_lower)` described in the
/// [module docs](self).
pub fn lower_bounds(game: &EffectiveGame, initial: &LinkLoads) -> (f64, f64) {
    lower_bounds_under(game, initial, OptCheckpoint::never())
}

/// As [`lower_bounds`], under a cooperative deadline. The singleton bound
/// is always computed (one cheap O(nm) pass); the volume bisection stops
/// between DP iterations and the interaction DP is skipped entirely when
/// the checkpoint has fired — every phase only ever *tightens* the bounds,
/// so stopping early keeps them certified.
pub fn lower_bounds_under(
    game: &EffectiveGame,
    initial: &LinkLoads,
    check: OptCheckpoint<'_>,
) -> (f64, f64) {
    let singles = singleton_costs(game, initial);
    let singleton_sum = stable_sum(&singles);
    let singleton_max = singles.iter().cloned().fold(0.0f64, f64::max);

    let total: f64 = game.total_traffic();
    let c_max = game.capacities().max();
    let volume2 = volume_bound(&mut VolumeDp::new(game, initial), total, check);
    let opt2 = singleton_max.max(volume2);

    let interaction = if check.expired() {
        0.0
    } else {
        (min_congestion_mass(game) - total).max(0.0) / c_max
    };
    let opt1 = (singleton_sum + interaction).max(opt2);
    (opt1, opt2)
}

/// The relaxation lower-bound backend (see the [module docs](self)).
#[derive(Debug, Clone, Copy, Default)]
pub struct Relaxation;

impl OptEstimator for Relaxation {
    fn method(&self) -> OptMethod {
        OptMethod::Relaxation
    }

    fn applicability(
        &self,
        _game: &EffectiveGame,
        _initial: &LinkLoads,
        _config: &OptConfig,
    ) -> Applicability {
        // Closed forms always apply, but a bound never settles exactness.
        Applicability::Heuristic
    }

    fn estimate_under(
        &self,
        game: &EffectiveGame,
        initial: &LinkLoads,
        _config: &OptConfig,
        check: OptCheckpoint<'_>,
    ) -> Result<OptEstimate> {
        let (opt1, opt2) = lower_bounds_under(game, initial, check);
        Ok(OptEstimate {
            opt1_lower: Some(opt1),
            opt2_lower: Some(opt2),
            ..OptEstimate::default()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opt::exhaustive::social_optimum;
    use proptest::prelude::*;
    use std::cell::Cell;

    fn mild_game() -> EffectiveGame {
        EffectiveGame::from_rows(
            vec![1.0, 1.5, 2.0],
            vec![vec![2.0, 2.2], vec![2.1, 1.9], vec![2.0, 2.0]],
        )
        .unwrap()
    }

    #[test]
    fn bounds_are_positive_and_below_the_exact_optimum() {
        let g = mild_game();
        let t = LinkLoads::zero(2);
        let (lb1, lb2) = lower_bounds(&g, &t);
        let exact = social_optimum(&g, &t, 1_000_000).unwrap();
        assert!(lb1 > 0.0 && lb2 > 0.0);
        assert!(lb1 <= exact.opt1 + 1e-12, "lb1 {lb1} > OPT1 {}", exact.opt1);
        assert!(lb2 <= exact.opt2 + 1e-12, "lb2 {lb2} > OPT2 {}", exact.opt2);
        assert!(lb1 >= lb2, "OPT1 dominates OPT2, so must the bounds");
    }

    #[test]
    fn singleton_bound_is_tight_when_users_fit_alone() {
        // Two users, two links, opposed preferences: the optimum puts each
        // user alone on its fast link, which is exactly the singleton bound.
        let g = EffectiveGame::from_rows(vec![1.0, 1.0], vec![vec![10.0, 1.0], vec![1.0, 10.0]])
            .unwrap();
        let t = LinkLoads::zero(2);
        let (lb1, lb2) = lower_bounds(&g, &t);
        let exact = social_optimum(&g, &t, 1_000).unwrap();
        assert!((lb1 - exact.opt1).abs() < 1e-12);
        assert!((lb2 - exact.opt2).abs() < 1e-12);
    }

    #[test]
    fn congestion_mass_dp_matches_hand_computation() {
        // Weights {3, 1} into ≤ 2 groups: splitting gives 1·3 + 1·1 = 4,
        // sharing gives 2·4 = 8 — the DP must pick 4.
        let g =
            EffectiveGame::from_rows(vec![3.0, 1.0], vec![vec![1.0, 1.0], vec![1.0, 1.0]]).unwrap();
        assert!((min_congestion_mass(&g) - 4.0).abs() < 1e-12);

        // Three identical users on two links: best split is {2, 1} with
        // mass 2·2 + 1·1 = 5.
        let g3 = EffectiveGame::from_rows(
            vec![1.0, 1.0, 1.0],
            vec![vec![1.0, 1.0], vec![1.0, 1.0], vec![1.0, 1.0]],
        )
        .unwrap();
        assert!((min_congestion_mass(&g3) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn the_allocation_dp_is_exact_on_the_opposed_game() {
        // Two users, two links, caps 10 on the own-fast link: the best
        // split puts one user per link at its cap-10 link, so the DP's
        // maximum is 20 and the volume bound hits the true OPT2 = 0.2/?…
        // here exactly (each user alone: latency 1/10).
        let g = EffectiveGame::from_rows(vec![1.0, 1.0], vec![vec![10.0, 1.0], vec![1.0, 10.0]])
            .unwrap();
        let t = LinkLoads::zero(2);
        assert!((VolumeDp::new(&g, &t).unfiltered() - 20.0).abs() < 1e-12);
        let (_, lb2) = lower_bounds(&g, &t);
        let exact = social_optimum(&g, &t, 1_000).unwrap();
        assert!((lb2 - exact.opt2).abs() < 1e-12, "lb2 {lb2}");
    }

    #[test]
    fn the_allocation_dp_beats_the_global_cmax_volume_bound() {
        // 8 users on 2 links: a group of 4 cannot keep its column minimum
        // at c_max, so the DP denominator is strictly below m·c_max and the
        // bound strictly tighter.
        let rows: Vec<Vec<f64>> = (0..8)
            .map(|i| vec![2.0 - 0.1 * i as f64, 1.0 + 0.1 * i as f64])
            .collect();
        let g = EffectiveGame::from_rows(vec![1.0; 8], rows).unwrap();
        let t = LinkLoads::zero(2);
        let denominator = VolumeDp::new(&g, &t).unfiltered();
        let c_max = g.capacities().max();
        assert!(denominator < 2.0 * c_max - 1e-9, "DP {denominator}");
        let (_, lb2) = lower_bounds(&g, &t);
        assert!(lb2 > g.total_traffic() / (2.0 * c_max) + 1e-12);
        let exact = social_optimum(&g, &t, 1_000_000).unwrap();
        assert!(lb2 <= exact.opt2 + 1e-12);
    }

    #[test]
    fn an_expired_checkpoint_yields_looser_but_certified_bounds() {
        let g = mild_game();
        let t = LinkLoads::zero(2);
        let (full1, full2) = lower_bounds(&g, &t);
        let expired = || true;
        let (cut1, cut2) = lower_bounds_under(&g, &t, OptCheckpoint::new(&expired));
        // The singleton pass and the base volume bound always run, so the
        // interrupted bounds are positive — and never tighter than the full
        // computation.
        assert!(cut1 > 0.0 && cut2 > 0.0);
        assert!(cut1 <= full1 + 1e-12 && cut2 <= full2 + 1e-12);
        let exact = social_optimum(&g, &t, 1_000_000).unwrap();
        assert!(cut1 <= exact.opt1 + 1e-12);
        assert!(cut2 <= exact.opt2 + 1e-12);
    }

    #[test]
    fn initial_traffic_raises_the_singleton_bound() {
        let g =
            EffectiveGame::from_rows(vec![1.0, 1.0], vec![vec![1.0, 1.0], vec![1.0, 1.0]]).unwrap();
        let idle = LinkLoads::zero(2);
        let busy = LinkLoads::new(vec![5.0, 5.0]).unwrap();
        let (idle1, idle2) = lower_bounds(&g, &idle);
        let (busy1, busy2) = lower_bounds(&g, &busy);
        assert!(busy1 > idle1);
        assert!(busy2 > idle2);
    }

    /// The from-scratch allocation DP that [`VolumeDp`] memoises: every
    /// column re-filtered (`None`: unfiltered) and re-sorted, every link's
    /// pass run in full.
    fn reference_allocation_value(
        game: &EffectiveGame,
        initial: &LinkLoads,
        tau: Option<f64>,
    ) -> Option<f64> {
        let n = game.users();
        let mut dp = vec![f64::NEG_INFINITY; n + 1];
        dp[0] = 0.0;
        for link in 0..game.links() {
            let mut column: Vec<f64> = (0..n)
                .filter(|&i| {
                    tau.is_none_or(|tau| {
                        (initial.load(link) + game.weight(i)) / game.capacity(i, link) <= tau
                    })
                })
                .map(|i| game.capacity(i, link))
                .collect();
            column.sort_by(|a, b| b.partial_cmp(a).expect("finite capacities"));
            let mut next = dp.clone();
            for placed in 0..n {
                if !dp[placed].is_finite() {
                    continue;
                }
                for k in 1..=column.len().min(n - placed) {
                    let value = dp[placed] + column[k - 1];
                    if value > next[placed + k] {
                        next[placed + k] = value;
                    }
                }
            }
            dp = next;
        }
        dp[n].is_finite().then_some(dp[n])
    }

    /// [`volume_bound`] over the from-scratch DP.
    fn reference_volume_bound(
        game: &EffectiveGame,
        initial: &LinkLoads,
        total: f64,
        check: OptCheckpoint<'_>,
    ) -> f64 {
        let base = total / reference_allocation_value(game, initial, None).unwrap();
        if check.expired() {
            return base;
        }
        let infeasible = |tau: f64| match reference_allocation_value(game, initial, Some(tau)) {
            None => true,
            Some(value) => tau * value < total,
        };
        let mut lo = base;
        let mut hi = base * 8.0;
        if infeasible(hi) {
            return hi;
        }
        for _ in 0..30 {
            if hi - lo <= 1e-3 * lo || check.expired() {
                break;
            }
            let mid = 0.5 * (lo + hi);
            if infeasible(mid) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// [`min_congestion_mass`] as scalar loops.
    fn reference_congestion_mass(game: &EffectiveGame) -> f64 {
        let n = game.users();
        let mut weights: Vec<f64> = game.weights().to_vec();
        weights.sort_by(|a, b| b.partial_cmp(a).unwrap());
        let mut prefix = vec![0.0f64; n + 1];
        for (i, &w) in weights.iter().enumerate() {
            prefix[i + 1] = prefix[i] + w;
        }
        let mut dp = vec![f64::INFINITY; n + 1];
        dp[0] = 0.0;
        for _block in 0..game.links().min(n) {
            let mut next = dp.clone();
            for r in 0..n {
                if !dp[r].is_finite() {
                    continue;
                }
                for end in (r + 1)..=n {
                    let mass = dp[r] + (end - r) as f64 * (prefix[end] - prefix[r]);
                    if mass < next[end] {
                        next[end] = mass;
                    }
                }
            }
            dp = next;
        }
        dp[n]
    }

    /// [`lower_bounds_under`] over the reference pieces.
    fn reference_lower_bounds(
        game: &EffectiveGame,
        initial: &LinkLoads,
        check: OptCheckpoint<'_>,
    ) -> (f64, f64) {
        let singles = singleton_costs(game, initial);
        let total = game.total_traffic();
        let volume2 = reference_volume_bound(game, initial, total, check);
        let opt2 = singles.iter().cloned().fold(0.0f64, f64::max).max(volume2);
        let interaction = if check.expired() {
            0.0
        } else {
            (reference_congestion_mass(game) - total).max(0.0) / game.capacities().max()
        };
        ((stable_sum(&singles) + interaction).max(opt2), opt2)
    }

    /// A deadline that fires from its `limit + 1`-th poll on.
    struct PollLimit {
        limit: usize,
        polls: Cell<usize>,
    }

    impl PollLimit {
        fn new(limit: usize) -> Self {
            PollLimit {
                limit,
                polls: Cell::new(0),
            }
        }

        fn poll(&self) -> bool {
            self.polls.set(self.polls.get() + 1);
            self.polls.get() > self.limit
        }

        fn fired(&self) -> bool {
            self.polls.get() > self.limit
        }
    }

    /// Random games whose weights span 64× and whose links carry nonzero
    /// initial loads, so the solo-latency filter drops different users on
    /// different links as `τ` moves; plus a poll limit for the deadline
    /// (the bisection polls at most 32 times, so larger limits never fire).
    fn memo_case() -> impl Strategy<Value = (EffectiveGame, LinkLoads, usize)> {
        (2usize..=40, 2usize..=7)
            .prop_flat_map(|(n, m)| {
                (
                    collection::vec(0.0f64..6.0, n),
                    collection::vec(0.5f64..8.0, n * m),
                    collection::vec(0.0f64..20.0, m),
                    0usize..48,
                )
            })
            .prop_map(|(exponents, capacities, loads, limit)| {
                let weights: Vec<f64> = exponents.iter().map(|&e| e.exp2()).collect();
                let m = loads.len();
                let rows = capacities.chunks(m).map(<[f64]>::to_vec).collect();
                let game = EffectiveGame::from_rows(weights, rows).unwrap();
                (game, LinkLoads::new(loads).unwrap(), limit)
            })
    }

    /// Asserts that the memoised bounds are bit-identical to the reference
    /// under the same deadline; returns the links each DP evaluation
    /// restarted at and whether the deadline fired inside the volume bound.
    fn assert_memo_matches_reference(
        game: &EffectiveGame,
        initial: &LinkLoads,
        limit: usize,
    ) -> (Vec<usize>, bool) {
        let total = game.total_traffic();
        let (memo, reference) = (PollLimit::new(limit), PollLimit::new(limit));
        let (memo_poll, reference_poll) = (|| memo.poll(), || reference.poll());
        let mut dp = VolumeDp::new(game, initial);
        let got = volume_bound(&mut dp, total, OptCheckpoint::new(&memo_poll));
        let want =
            reference_volume_bound(game, initial, total, OptCheckpoint::new(&reference_poll));
        assert_eq!(got.to_bits(), want.to_bits(), "volume {got} vs {want}");
        assert_eq!(memo.polls.get(), reference.polls.get());
        let volume_expired = memo.fired();

        let (memo, reference) = (PollLimit::new(limit), PollLimit::new(limit));
        let (memo_poll, reference_poll) = (|| memo.poll(), || reference.poll());
        let (got1, got2) = lower_bounds_under(game, initial, OptCheckpoint::new(&memo_poll));
        let (want1, want2) =
            reference_lower_bounds(game, initial, OptCheckpoint::new(&reference_poll));
        assert_eq!(got1.to_bits(), want1.to_bits(), "OPT1 {got1} vs {want1}");
        assert_eq!(got2.to_bits(), want2.to_bits(), "OPT2 {got2} vs {want2}");
        (dp.starts, volume_expired)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn the_memoised_dp_is_bit_identical_to_the_from_scratch_dp(
            (game, initial, limit) in memo_case()
        ) {
            assert_memo_matches_reference(&game, &initial, limit);
        }
    }

    #[test]
    fn the_oracle_cases_exercise_every_memo_path() {
        let (mut partial, mut reuse, mut expired) = (false, false, false);
        for seed in 0..64 {
            let (game, initial, limit) = memo_case().new_value(&mut TestRng::new(seed));
            let m = game.links();
            let (starts, fired) = assert_memo_matches_reference(&game, &initial, limit);
            partial |= starts.iter().any(|&s| (1..m - 1).contains(&s));
            reuse |= starts.contains(&m);
            expired |= fired;
        }
        assert!(partial, "no evaluation restarted at a middle link");
        assert!(reuse, "no evaluation reused the previous value");
        assert!(expired, "no case hit an expired checkpoint");
    }
}
