//! Seeded multi-restart objective descent: tight upper bounds on `OPT1` and
//! `OPT2` for games far beyond the exhaustive wall.
//!
//! Structurally a sibling of [`local_search`](crate::solvers::local_search),
//! but descending on the *social* objectives instead of chasing Nash
//! stability:
//!
//! * **`SC1` descent.** With per-link aggregates `Lₗ` (initial plus user
//!   load) and `Dₗ = Σ_{i∈Sₗ} 1/cᵢℓ`, the total cost is `Σₗ Lₗ·Dₗ` and the
//!   effect of moving one user is an `O(1)` delta — a steepest-descent pass
//!   over all users costs `O(nm)`. Aggregates are rebuilt from the profile
//!   at every pass, bounding floating-point drift to a single pass.
//! * **`SC2` descent.** The max latency only responds to moves of critical
//!   users, so pure steepest descent stalls on plateaus; the pass therefore
//!   orders candidates **lexicographically by `(SC2, SC1)`** — a move that
//!   keeps the max latency while draining the sum still reshapes the
//!   profile toward balance and unlocks the next max-reducing move.
//! * **Restart portfolio.** The same smart starts as `LocalSearch` (LPT
//!   greedy, index greedy, load-balanced, spread) followed by seeded
//!   perturbations of the LPT start drawn from a `SplitMix64` stream
//!   keyed by [`OptConfig::opt_seed`] — fully deterministic, so brackets
//!   are bit-identical across threads and shards.
//!
//! Every reported bound is the [`pure_sc1`]/[`pure_sc2`] cost of an actual
//! assignment, evaluated by the same canonical functions the exhaustive
//! reference uses — an upper bound by construction, never an estimate.

use crate::error::Result;
use crate::model::EffectiveGame;
use crate::numeric::Tolerance;
use crate::opt::engine::{OptCheckpoint, OptConfig, OptEstimate, OptEstimator, OptMethod};
use crate::opt::greedy;
use crate::social_cost::{pure_sc1, pure_sc2};
use crate::solvers::engine::Applicability;
use crate::solvers::kernel::SoAView;
use crate::solvers::local_search::SplitMix64;
use crate::strategy::{LinkLoads, PureProfile};

/// Per-link aggregates of a profile: total load (initial plus users),
/// `Σ 1/cᵢℓ` over assigned users, and the user count.
///
/// Reciprocals come from the SoA view's precomputed `1/cᵢℓ` rows — the same
/// bits the legacy `1.0 / game.capacity(user, link)` produced, so every
/// aggregate (and therefore every descent path) is unchanged. Buffers are
/// reused across passes and restarts.
#[derive(Default)]
struct Aggregates {
    loads: Vec<f64>,
    inv_caps: Vec<f64>,
    counts: Vec<usize>,
}

impl Aggregates {
    fn rebuild(&mut self, view: SoAView<'_>, initial: &LinkLoads, profile: &PureProfile) {
        let m = view.links;
        self.loads.clear();
        self.loads.extend_from_slice(initial.as_slice());
        self.inv_caps.clear();
        self.inv_caps.resize(m, 0.0);
        self.counts.clear();
        self.counts.resize(m, 0);
        for (user, &link) in profile.choices().iter().enumerate() {
            self.loads[link] += view.weights[user];
            self.inv_caps[link] += view.inv_row(user)[link];
            self.counts[link] += 1;
        }
    }

    /// `SC1` delta of moving `user` from `from` to `to` under `view`.
    fn sc1_delta(&self, view: SoAView<'_>, user: usize, from: usize, to: usize) -> f64 {
        let w = view.weights[user];
        let inv = view.inv_row(user);
        let new_from = (self.loads[from] - w) * (self.inv_caps[from] - inv[from]);
        let new_to = (self.loads[to] + w) * (self.inv_caps[to] + inv[to]);
        new_from + new_to
            - self.loads[from] * self.inv_caps[from]
            - self.loads[to] * self.inv_caps[to]
    }

    fn apply(&mut self, view: SoAView<'_>, user: usize, from: usize, to: usize) {
        let w = view.weights[user];
        let inv = view.inv_row(user);
        self.loads[from] -= w;
        self.inv_caps[from] -= inv[from];
        self.counts[from] -= 1;
        self.loads[to] += w;
        self.inv_caps[to] += inv[to];
        self.counts[to] += 1;
    }
}

/// Reusable buffers of the descent passes: aggregates plus the `SC2` pass's
/// per-link minimum capacities and peak latencies.
#[derive(Default)]
struct DescentScratch {
    agg: Aggregates,
    minc: Vec<f64>,
    peaks: Vec<f64>,
}

/// Steepest-descent on `SC1` (mutating `profile`); returns moves made.
fn descend_sc1(
    view: SoAView<'_>,
    initial: &LinkLoads,
    profile: &mut PureProfile,
    tol: Tolerance,
    budget: u64,
    scratch: &mut DescentScratch,
) -> u64 {
    let n = view.users;
    let m = view.links;
    let agg = &mut scratch.agg;
    let mut moves = 0u64;
    loop {
        agg.rebuild(view, initial, profile);
        let mut moved_in_pass = false;
        for user in 0..n {
            let from = profile.link(user);
            let mut best_to = from;
            let mut best_delta = 0.0f64;
            for to in 0..m {
                if to == from {
                    continue;
                }
                let delta = agg.sc1_delta(view, user, from, to);
                if delta < best_delta {
                    best_delta = delta;
                    best_to = to;
                }
            }
            // Scale-aware strict improvement: each accepted move lowers the
            // objective by a real margin, so the descent cannot cycle.
            let scale = 1.0_f64.max(agg.loads[from].abs() * agg.inv_caps[from]);
            if best_to == from || best_delta >= -tol.eps() * scale {
                continue;
            }
            agg.apply(view, user, from, best_to);
            profile.apply_move(user, best_to);
            moves += 1;
            moved_in_pass = true;
            if moves >= budget {
                return moves;
            }
        }
        if !moved_in_pass {
            return moves;
        }
    }
}

/// The per-user minimum capacity on each link, excluding `skip` (`None` to
/// include everyone); `+∞` on links with no assigned user.
fn min_caps(view: SoAView<'_>, profile: &PureProfile, link: usize, skip: Option<usize>) -> f64 {
    let mut min = f64::INFINITY;
    for (user, &choice) in profile.choices().iter().enumerate() {
        if Some(user) == skip || choice != link {
            continue;
        }
        min = min.min(view.cap_row(user)[link]);
    }
    min
}

/// The per-link minimum assigned-user capacities (`+∞` on empty links),
/// rebuilt into `mins`.
fn all_min_caps(view: SoAView<'_>, profile: &PureProfile, mins: &mut Vec<f64>) {
    mins.clear();
    mins.resize(view.links, f64::INFINITY);
    for (user, &link) in profile.choices().iter().enumerate() {
        mins[link] = mins[link].min(view.cap_row(user)[link]);
    }
}

/// The per-link max-latency contributions `Fₗ = Lₗ / min_{i∈Sₗ} cᵢℓ`
/// (`0` on links with no users — initial traffic alone costs nobody),
/// rebuilt into `peaks`.
fn link_peaks(agg: &Aggregates, minc: &[f64], peaks: &mut Vec<f64>) {
    peaks.clear();
    peaks.extend((0..minc.len()).map(|l| {
        if agg.counts[l] == 0 {
            0.0
        } else {
            agg.loads[l] / minc[l]
        }
    }));
}

/// Lexicographic `(SC2, SC1)` descent (mutating `profile`); returns moves.
fn descend_sc2(
    view: SoAView<'_>,
    initial: &LinkLoads,
    profile: &mut PureProfile,
    tol: Tolerance,
    budget: u64,
    scratch: &mut DescentScratch,
) -> u64 {
    let n = view.users;
    let m = view.links;
    let DescentScratch { agg, minc, peaks } = scratch;
    let mut moves = 0u64;
    loop {
        agg.rebuild(view, initial, profile);
        all_min_caps(view, profile, minc);
        link_peaks(agg, minc, peaks);
        let mut moved_in_pass = false;
        for user in 0..n {
            let from = profile.link(user);
            let w = view.weights[user];
            let caps = view.cap_row(user);
            let from_min_wo = min_caps(view, profile, from, Some(user));
            let new_from_peak = if agg.counts[from] == 1 {
                0.0
            } else {
                (agg.loads[from] - w) / from_min_wo
            };
            let current_sc2 = peaks.iter().cloned().fold(0.0f64, f64::max);
            let mut best: Option<(usize, f64, f64)> = None; // (to, new_sc2, sc1 delta)
            #[allow(clippy::needless_range_loop)] // `to` indexes minc, loads and caps alike
            for to in 0..m {
                if to == from {
                    continue;
                }
                let new_to_peak = (agg.loads[to] + w) / minc[to].min(caps[to]);
                let others = peaks
                    .iter()
                    .enumerate()
                    .filter(|&(l, _)| l != from && l != to)
                    .map(|(_, &f)| f)
                    .fold(0.0f64, f64::max);
                let new_sc2 = others.max(new_from_peak).max(new_to_peak);
                let delta1 = agg.sc1_delta(view, user, from, to);
                let better = match best {
                    None => true,
                    Some((_, sc2, d1)) => {
                        new_sc2 < sc2 - tol.eps() * 1.0_f64.max(sc2)
                            || (new_sc2 <= sc2 && delta1 < d1)
                    }
                };
                if better {
                    best = Some((to, new_sc2, delta1));
                }
            }
            let Some((to, new_sc2, delta1)) = best else {
                continue;
            };
            let scale = 1.0_f64.max(current_sc2);
            let improves_max = new_sc2 < current_sc2 - tol.eps() * scale;
            let improves_sum = new_sc2 <= current_sc2 && delta1 < -tol.eps() * scale;
            if !(improves_max || improves_sum) {
                continue;
            }
            agg.apply(view, user, from, to);
            profile.apply_move(user, to);
            minc[from] = from_min_wo;
            minc[to] = minc[to].min(caps[to]);
            peaks[from] = new_from_peak;
            peaks[to] = agg.loads[to] / minc[to];
            moves += 1;
            moved_in_pass = true;
            if moves >= budget {
                return moves;
            }
        }
        if !moved_in_pass {
            return moves;
        }
    }
}

/// The start profile of restart `r`: the shared smart-start portfolio
/// (built once per estimate — `portfolio[0]` is the LPT start), then
/// seeded perturbations of the LPT start.
fn start_profile(
    portfolio: &[PureProfile],
    links: usize,
    restart: usize,
    seed: u64,
) -> PureProfile {
    if restart < portfolio.len() {
        return portfolio[restart].clone();
    }
    let mut profile = portfolio[0].clone();
    let mut rng = SplitMix64::new(seed ^ (restart as u64).wrapping_mul(0xD1B5_4A32_D192_ED03));
    let n = profile.choices().len();
    for _ in 0..(n / 4).max(1) {
        let user = rng.next_below(n);
        profile.apply_move(user, rng.next_below(links));
    }
    profile
}

/// The multi-restart descent upper-bound backend (see the
/// [module docs](self)).
#[derive(Debug, Clone, Copy, Default)]
pub struct Descent;

impl OptEstimator for Descent {
    fn method(&self) -> OptMethod {
        OptMethod::Descent
    }

    fn applicability(
        &self,
        _game: &EffectiveGame,
        _initial: &LinkLoads,
        _config: &OptConfig,
    ) -> Applicability {
        Applicability::Heuristic
    }

    // The deadline is polled between restarts and between the two descent
    // phases inside one. The first restart always evaluates its start
    // profile (one cheap O(n + m) load pass), so even an instantly-expired
    // checkpoint returns certified finite upper bounds — every bound here
    // is a real profile's cost.
    fn estimate_under(
        &self,
        game: &EffectiveGame,
        initial: &LinkLoads,
        config: &OptConfig,
        check: OptCheckpoint<'_>,
    ) -> Result<OptEstimate> {
        let budget = config.max_moves;
        let restarts = config.restarts.max(1);
        let per_restart = (budget / restarts as u64).max(1);
        // The game's rows and one scratch serve every restart and pass.
        let view = SoAView::from_game(game);
        let mut scratch = DescentScratch::default();
        let portfolio = greedy::portfolio(game, initial);
        let mut upper1 = f64::INFINITY;
        let mut upper2 = f64::INFINITY;
        let mut total_moves = 0u64;
        for restart in 0..restarts {
            if total_moves >= budget && restart > 0 {
                break;
            }
            if upper1.is_finite() && check.expired() {
                break;
            }
            let mut profile = start_profile(&portfolio, game.links(), restart, config.opt_seed);
            upper1 = upper1.min(pure_sc1(game, &profile, initial));
            upper2 = upper2.min(pure_sc2(game, &profile, initial));
            if check.expired() {
                break;
            }
            let slice = per_restart.min(budget.saturating_sub(total_moves).max(1));
            total_moves +=
                descend_sc1(view, initial, &mut profile, config.tol, slice, &mut scratch);
            upper1 = upper1.min(pure_sc1(game, &profile, initial));
            upper2 = upper2.min(pure_sc2(game, &profile, initial));
            if check.expired() {
                break;
            }
            // Refine the balanced profile for the max objective.
            let slice = per_restart.min(budget.saturating_sub(total_moves).max(1));
            total_moves +=
                descend_sc2(view, initial, &mut profile, config.tol, slice, &mut scratch);
            upper1 = upper1.min(pure_sc1(game, &profile, initial));
            upper2 = upper2.min(pure_sc2(game, &profile, initial));
        }
        Ok(OptEstimate {
            opt1_upper: Some(upper1),
            opt2_upper: Some(upper2),
            iterations: Some(total_moves),
            ..OptEstimate::default()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opt::exhaustive::social_optimum;
    use crate::opt::relaxation::lower_bounds;

    use crate::opt::test_util::random_game;

    #[test]
    fn descent_matches_the_exact_optimum_on_small_instances() {
        for seed in [3u64, 17, 99] {
            let game = random_game(5, 3, seed);
            let initial = LinkLoads::zero(3);
            let estimate = Descent
                .estimate(&game, &initial, &OptConfig::default())
                .unwrap();
            let exact = social_optimum(&game, &initial, 1_000_000).unwrap();
            let u1 = estimate.opt1_upper.unwrap();
            let u2 = estimate.opt2_upper.unwrap();
            assert!(u1 >= exact.opt1 - 1e-12);
            assert!(u2 >= exact.opt2 - 1e-12);
            // The descent should land near the optimum at this size (the
            // engine routes tiny instances to the exact backends anyway).
            assert!(u1 <= exact.opt1 * 1.15, "u1 {u1} vs OPT1 {}", exact.opt1);
            assert!(u2 <= exact.opt2 * 1.15, "u2 {u2} vs OPT2 {}", exact.opt2);
        }
    }

    #[test]
    fn descent_is_deterministic() {
        let game = random_game(40, 6, 7);
        let initial = LinkLoads::zero(6);
        let config = OptConfig::default();
        let a = Descent.estimate(&game, &initial, &config).unwrap();
        let b = Descent.estimate(&game, &initial, &config).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn huge_instances_get_a_tight_bracket() {
        // The acceptance regime of the PoA-at-scale experiment: the upper
        // bounds from descent and the relaxation lower bounds must bracket
        // within a modest multiplicative width.
        let game = random_game(512, 16, 11);
        let initial = LinkLoads::zero(16);
        let estimate = Descent
            .estimate(&game, &initial, &OptConfig::default())
            .unwrap();
        let (lb1, lb2) = lower_bounds(&game, &initial);
        let width1 = estimate.opt1_upper.unwrap() / lb1;
        let width2 = estimate.opt2_upper.unwrap() / lb2;
        assert!(width1 >= 1.0 && width2 >= 1.0);
        assert!(width1 <= 1.5, "OPT1 bracket too loose: {width1}");
        assert!(width2 <= 1.5, "OPT2 bracket too loose: {width2}");
    }

    #[test]
    fn an_expired_checkpoint_still_returns_finite_certified_uppers() {
        let game = random_game(64, 6, 21);
        let initial = LinkLoads::zero(6);
        let expired = || true;
        let estimate = Descent
            .estimate_under(
                &game,
                &initial,
                &OptConfig::default(),
                OptCheckpoint::new(&expired),
            )
            .unwrap();
        // The first restart's start-profile evaluation always happens, so
        // the uppers are finite real-profile costs even with no descent.
        let full = Descent
            .estimate(&game, &initial, &OptConfig::default())
            .unwrap();
        let u1 = estimate.opt1_upper.unwrap();
        let u2 = estimate.opt2_upper.unwrap();
        assert!(u1.is_finite() && u2.is_finite());
        assert!(u1 >= full.opt1_upper.unwrap() - 1e-12);
        assert!(u2 >= full.opt2_upper.unwrap() - 1e-12);
        assert_eq!(
            estimate.iterations,
            Some(0),
            "no moves under an expired deadline"
        );
    }

    #[test]
    fn a_tiny_budget_still_returns_certified_start_costs() {
        let game = random_game(30, 4, 5);
        let initial = LinkLoads::zero(4);
        let config = OptConfig {
            max_moves: 0,
            ..OptConfig::default()
        };
        let estimate = Descent.estimate(&game, &initial, &config).unwrap();
        // Bounds are the best start-portfolio costs — still real profiles.
        assert!(estimate.opt1_upper.unwrap().is_finite());
        assert!(estimate.opt2_upper.unwrap().is_finite());
    }

    #[test]
    fn greedy_and_descent_bounds_keep_their_recorded_bits() {
        use crate::opt::greedy::LptGreedy;
        // (n, m, seed, loaded) → the LptGreedy and Descent upper bounds as
        // f64 bits, recorded when `pure_sc1`/`pure_sc2` still summed each
        // user's load by a scan over all users. The one-pass costs must
        // reproduce every bound bit for bit, with and without initial
        // traffic.
        let pins: [(usize, usize, u64, bool, [u64; 4]); 4] = [
            (
                64,
                8,
                1,
                false,
                [
                    0x4084e23c6d401748,
                    0x402edcb44e3eefd8,
                    0x4084013720de6359,
                    0x4027a717f5e94ced,
                ],
            ),
            (
                64,
                8,
                2,
                true,
                [
                    0x4085875d9b5956ef,
                    0x4030d6343eb1a1f6,
                    0x4084b3709b5c2237,
                    0x40297975187e2797,
                ],
            ),
            (
                512,
                16,
                3,
                false,
                [
                    0x40d3b2b18cca2fb9,
                    0x404ce59659659658,
                    0x40d32329919771d8,
                    0x4046dfffffffffff,
                ],
            ),
            (
                512,
                16,
                4,
                true,
                [
                    0x40d3835b32bbeed8,
                    0x4049d0d3a5bd1504,
                    0x40d2e77e6c5ce78a,
                    0x404691f64a6ffad4,
                ],
            ),
        ];
        for (n, m, seed, loaded, bits) in pins {
            let game = random_game(n, m, seed);
            let initial = if loaded {
                LinkLoads::new((0..m).map(|l| (l % 3) as f64 * 1.5).collect()).unwrap()
            } else {
                LinkLoads::zero(m)
            };
            let config = OptConfig::default();
            let lpt = LptGreedy.estimate(&game, &initial, &config).unwrap();
            let descent = Descent.estimate(&game, &initial, &config).unwrap();
            let got = [
                lpt.opt1_upper.unwrap().to_bits(),
                lpt.opt2_upper.unwrap().to_bits(),
                descent.opt1_upper.unwrap().to_bits(),
                descent.opt2_upper.unwrap().to_bits(),
            ];
            assert_eq!(got, bits, "n={n} m={m} seed={seed} loaded={loaded}");
        }
    }
}
