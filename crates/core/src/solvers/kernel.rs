//! Structure-of-arrays solve kernels: the raw-speed floor under every hot
//! solver loop.
//!
//! The accessor-shaped hot paths (`game.capacity(user, link)` plus an f64
//! divide per candidate link) hide the flat `n × m` structure the model
//! actually has. This module lets every pass run on that structure:
//!
//! * [`SoAView`] — a borrowed flat view of an [`EffectiveGame`]: the weight
//!   vector, the row-major capacity matrix, the row-major matrix of
//!   **precomputed reciprocals** (so cost evaluation is a multiply, not a
//!   divide), and the decreasing-weight user order. All four rows live in
//!   the game itself; there is no pack. The game derives the reciprocals
//!   and the order once, on first kernel use, and its in-place
//!   [`edit`](EffectiveGame::edit) patches them. Building a view copies
//!   nothing.
//! * [`KernelScratch`] — per-worker scratch (`loads`, improving-link lists)
//!   reused across restarts, passes and lockstep runs, so the steady state
//!   allocates nothing.
//! * [`LocalSearchRun`] / [`BestResponseRun`] — pass-resumable solver state
//!   machines, and the [`Attempt::Run`](crate::solvers::engine::Attempt)
//!   that the `LocalSearch` and `BestResponse` solvers hand the engine. A
//!   single solve loops one run to completion; the engine's deadlines and
//!   races step runs pass by pass. Both paths execute the same code on the
//!   same state, so their results are bit-identical **by construction**.
//! * The start builders — the local-search portfolio (LPT greedy,
//!   index-order greedy, load-balanced, spread) written into a caller
//!   buffer. They are the only multiply-by-reciprocal copy of the
//!   portfolio; `opt::greedy` keeps the only divide-form one, because OPT
//!   bounds (and the goldens recorded from them) must keep their bits.
//!
//! # Kernel contract: certification, not bit parity
//!
//! Multiplying by a precomputed reciprocal is not bit-equal to dividing, so
//! a kernel descent may take a different path than a divide-form one near
//! tolerance boundaries. Kernel answers are therefore certified the same
//! way every solver's are: each returned profile must pass the canonical
//! [`is_pure_nash`] predicate, and the differential
//! [`oracle`](crate::solvers::oracle) contract (soundness, no phantom
//! equilibria, conclusive completeness) runs against the kernels. A pass
//! that finds no improving move ends in the deviation scan behind
//! [`is_pure_nash`]: the run converges only if that certifies, and on a
//! disagreement (a reciprocal-rounding artefact) it takes the first
//! defector's best move and keeps descending.

use crate::equilibrium::{best_deviations, is_pure_nash};
use crate::model::{EffectiveGame, GameEdit};
use crate::numeric::Tolerance;
use crate::solvers::engine::{SolverConfig, SolverDetail};
use crate::solvers::local_search::SplitMix64;
use crate::strategy::{LinkLoads, PureProfile};

/// A borrowed flat view of one game: what every kernel loop consumes.
///
/// `caps` are the game's exact capacity bits (so exact-arithmetic consumers
/// like the opt aggregates stay bit-identical), while `inv_caps` carries
/// the precomputed reciprocals the hot loops multiply by. `Copy`, so passes
/// can take it by value without borrow gymnastics.
#[derive(Debug, Clone, Copy)]
pub struct SoAView<'a> {
    /// Number of users `n`.
    pub users: usize,
    /// Number of links `m`.
    pub links: usize,
    /// Traffic vector `w` (`n` entries).
    pub weights: &'a [f64],
    /// Row-major effective capacities (`n × m`).
    pub caps: &'a [f64],
    /// Row-major reciprocals `1/cᵢℓ` (`n × m`).
    pub inv_caps: &'a [f64],
    /// Users in decreasing weight order, ties by index.
    pub order: &'a [usize],
}

/// Another name for [`SoAView`]: `SoAGame::from_game(&game)` builds the
/// view of `game`'s rows.
pub type SoAGame<'a> = SoAView<'a>;

impl<'a> SoAView<'a> {
    /// The view of `game`'s rows. Derives the game's reciprocals and
    /// weight order on the first call (`O(nm)` plus one `O(n log n)` sort);
    /// every later call copies nothing.
    pub fn from_game(game: &'a EffectiveGame) -> Self {
        SoAView {
            users: game.users(),
            links: game.links(),
            weights: game.weights(),
            caps: game.capacities().as_slice(),
            inv_caps: game.inv_caps(),
            order: game.weight_order(),
        }
    }

    /// User `user`'s reciprocal row (`m` entries, one slice borrow —
    /// no per-link bounds check in the loops that iterate it).
    #[inline]
    pub fn inv_row(&self, user: usize) -> &'a [f64] {
        &self.inv_caps[user * self.links..(user + 1) * self.links]
    }

    /// User `user`'s capacity row (`m` entries).
    #[inline]
    pub fn cap_row(&self, user: usize) -> &'a [f64] {
        &self.caps[user * self.links..(user + 1) * self.links]
    }

    /// Traffic of `user`.
    #[inline]
    pub fn weight(&self, user: usize) -> f64 {
        self.weights[user]
    }
}

/// Per-worker scratch buffers reused across restarts, passes and lockstep
/// runs. Runs rebuild `loads` from their profile at the start of every
/// pass, so nothing here persists between `step` calls — one scratch serves
/// any number of interleaved runs.
#[derive(Debug, Default)]
pub struct KernelScratch {
    loads: Vec<f64>,
    improving: Vec<usize>,
}

impl KernelScratch {
    /// An empty scratch; buffers grow on first use and are reused after.
    pub fn new() -> Self {
        KernelScratch::default()
    }

    /// The load buffer, resized to `m` (contents unspecified).
    fn loads(&mut self, links: usize) -> &mut Vec<f64> {
        self.loads.clear();
        self.loads.resize(links, 0.0);
        &mut self.loads
    }
}

/// Rebuilds `loads` (length `m`) from `initial` plus the profile's users.
#[inline]
fn rebuild_loads(view: SoAView<'_>, initial: &[f64], choices: &[usize], loads: &mut [f64]) {
    loads.copy_from_slice(initial);
    for (user, &link) in choices.iter().enumerate() {
        loads[link] += view.weights[user];
    }
}

// ---------------------------------------------------------------------------
// Kernel start builders
// ---------------------------------------------------------------------------
//
// The `local_search` start portfolio, writing into a caller buffer instead
// of allocating. Costs are evaluated multiply-by-reciprocal, so at exact
// cost ties these can differ from the divide-form `opt::greedy` portfolio —
// the runs certify the final profile either way.

/// The latency-minimal link for traffic `w` under `loads` (first wins).
#[inline]
fn cheapest_link(loads: &[f64], w: f64, inv: &[f64]) -> usize {
    let mut best = 0usize;
    let mut best_cost = f64::INFINITY;
    for (link, (&load, &inv_c)) in loads.iter().zip(inv).enumerate() {
        let cost = (load + w) * inv_c;
        if cost < best_cost {
            best_cost = cost;
            best = link;
        }
    }
    best
}

/// LPT-style greedy start (decreasing weight order, latency-minimal link).
pub(crate) fn lpt_greedy_into(
    view: SoAView<'_>,
    initial: &[f64],
    choices: &mut [usize],
    scratch: &mut KernelScratch,
) {
    let loads = scratch.loads(view.links);
    loads.copy_from_slice(initial);
    for &user in view.order {
        let w = view.weights[user];
        let best = cheapest_link(loads, w, view.inv_row(user));
        choices[user] = best;
        loads[best] += w;
    }
}

/// Index-order greedy start (each user on its currently cheapest link).
pub(crate) fn greedy_into(
    view: SoAView<'_>,
    initial: &[f64],
    choices: &mut [usize],
    scratch: &mut KernelScratch,
) {
    let loads = scratch.loads(view.links);
    loads.copy_from_slice(initial);
    for (user, choice) in choices.iter_mut().enumerate().take(view.users) {
        let w = view.weights[user];
        let best = cheapest_link(loads, w, view.inv_row(user));
        *choice = best;
        loads[best] += w;
    }
}

/// Load-balanced start (decreasing weight order, least-loaded link,
/// capacity-blind).
pub(crate) fn load_balanced_into(
    view: SoAView<'_>,
    initial: &[f64],
    choices: &mut [usize],
    scratch: &mut KernelScratch,
) {
    let loads = scratch.loads(view.links);
    loads.copy_from_slice(initial);
    for &user in view.order {
        let mut best = 0usize;
        for link in 1..loads.len() {
            if loads[link] < loads[best] {
                best = link;
            }
        }
        choices[user] = best;
        loads[best] += view.weights[user];
    }
}

/// Uniform spread start (`user i → link i mod m`).
pub(crate) fn spread_into(view: SoAView<'_>, choices: &mut [usize]) {
    for (user, choice) in choices.iter_mut().enumerate() {
        *choice = user % view.links;
    }
}

/// Maps a profile certified on a pre-edit game onto the edited game — the
/// warm start of an equilibrium repair.
///
/// The carried assignment is perturbed only where the edit displaced it, and
/// the link loads it induces are updated incrementally (`O(m)` per edit,
/// from `prev_loads`) rather than rebuilt from the full profile:
///
/// * capacity change — no user is displaced; the assignment carries over
///   unchanged (only latencies moved, the descent fixes any new defectors);
/// * leave — the departing user's choice is dropped and later users shift
///   down one index (their link choices are untouched);
/// * join — the appended user is placed by the greedy portfolio step, i.e.
///   on its latency-minimal link under the carried loads (`O(m)`).
///
/// `view` must be the SoA form of the **edited** game and `prev_loads` the
/// loads `prev` induces on the pre-edit game (initial traffic included).
/// The seed is a valid profile of the edited game, not an equilibrium —
/// seeding a [`LocalSearchRun`] with it and re-certifying via the canonical
/// [`is_pure_nash`] is what turns it into one.
pub fn repair_seed(
    view: SoAView<'_>,
    prev: &PureProfile,
    prev_loads: &[f64],
    edit: &GameEdit,
) -> PureProfile {
    match edit {
        GameEdit::CapacityChange { .. } => prev.clone(),
        GameEdit::UserLeaves { user } => {
            let mut choices = prev.choices().to_vec();
            choices.remove(*user);
            PureProfile::new(choices)
        }
        GameEdit::UserJoins { .. } => {
            let mut choices = prev.choices().to_vec();
            let user = view.users - 1;
            choices.push(cheapest_link(
                prev_loads,
                view.weight(user),
                view.inv_row(user),
            ));
            PureProfile::new(choices)
        }
    }
}

// ---------------------------------------------------------------------------
// Pass-resumable runs
// ---------------------------------------------------------------------------

/// A pass-resumable kernel solver: `step` advances one bounded pass and
/// returns the finished [`SolverDetail`] when done.
///
/// Runs own their per-game state (profile, RNG, budget counters) and borrow
/// everything transient from the [`KernelScratch`] handed to each step, so
/// K interleaved runs share one scratch. Stepping a run to completion in a
/// loop is exactly the single-solve path — there is no separate stepped
/// implementation to diverge from.
pub trait KernelRun {
    /// Advances one pass; `Some` when the solve has finished.
    fn step(&mut self, scratch: &mut KernelScratch) -> Option<SolverDetail>;
}

/// Drives `run` to completion with `scratch` — the single-solve loop.
pub fn run_to_completion(run: &mut dyn KernelRun, scratch: &mut KernelScratch) -> SolverDetail {
    loop {
        if let Some(detail) = run.step(scratch) {
            return detail;
        }
    }
}

/// Shared tail of a kernel pass that found no improving move: the canonical
/// deviation scan over `loads`, refilled from `profile` (runs rebuild their
/// loads every step). `None` certifies the profile, exactly when
/// [`is_pure_nash`] holds; else the first defector and its best link.
fn canonical_move(
    game: &EffectiveGame,
    initial: &LinkLoads,
    profile: &PureProfile,
    loads: &mut Vec<f64>,
    tol: Tolerance,
) -> Option<(usize, usize)> {
    profile.link_loads_into(game, initial, loads);
    best_deviations(game, profile, loads, tol)
        .next()
        .map(|d| (d.user, d.to))
}

/// Phase of a [`LocalSearchRun`].
enum LsPhase {
    /// Set up the next restart (or finish, if the portfolio is exhausted).
    NextRestart,
    /// Mid-descent on the current restart.
    Descending,
}

/// Pass-resumable state machine of the multi-restart
/// [`LocalSearch`](crate::solvers::local_search::LocalSearch) solver,
/// running entirely on SoA rows.
pub struct LocalSearchRun<'a> {
    game: &'a EffectiveGame,
    initial: &'a LinkLoads,
    view: SoAView<'a>,
    tol: Tolerance,
    ls_seed: u64,
    budget: u64,
    restarts: usize,
    per_restart: u64,
    profile: PureProfile,
    rng: SplitMix64,
    anneal_moves: u64,
    restart: usize,
    restarts_used: u64,
    total_moves: u64,
    slice_budget: u64,
    slice_moves: u64,
    phase: LsPhase,
    /// Warm-start profile consumed by restart 0 when present (repair path);
    /// later restarts fall back into the regular start portfolio.
    seed: Option<PureProfile>,
    /// Whether this run was seeded — the seeded restart descends without an
    /// annealed phase (randomising a certified-adjacent start would discard
    /// exactly the structure the repair carries over).
    warm: bool,
}

impl<'a> LocalSearchRun<'a> {
    /// A run over `game`'s rows under `config`'s budgets.
    pub fn new(game: &'a EffectiveGame, initial: &'a LinkLoads, config: &SolverConfig) -> Self {
        let view = SoAView::from_game(game);
        let budget = config.max_steps as u64;
        let restarts = config.restarts.max(1);
        LocalSearchRun {
            game,
            initial,
            view,
            tol: config.tol,
            ls_seed: config.ls_seed,
            budget,
            restarts,
            // Each restart gets an equal slice of the shared move budget
            // (at least one move), so a cycling restart cannot starve the
            // rest of the portfolio.
            per_restart: (budget / restarts as u64).max(1),
            profile: PureProfile::new(vec![0; view.users]),
            rng: SplitMix64::new(config.ls_seed),
            anneal_moves: 0,
            restart: 0,
            restarts_used: 0,
            total_moves: 0,
            slice_budget: 0,
            slice_moves: 0,
            phase: LsPhase::NextRestart,
            seed: None,
            warm: false,
        }
    }

    /// A run whose restart 0 starts from `seed` — a valid profile of `game`
    /// (e.g. a [`repair_seed`] carried over from a pre-edit equilibrium) —
    /// instead of the LPT greedy start. The seeded restart descends without
    /// annealing; if its budget slice runs out the remaining restarts fall
    /// back into the regular start portfolio, so a warm run can never do
    /// worse than losing one portfolio slot.
    pub fn with_seed(
        game: &'a EffectiveGame,
        initial: &'a LinkLoads,
        config: &SolverConfig,
        seed: PureProfile,
    ) -> Self {
        debug_assert_eq!(seed.users(), game.users(), "seed must fit the game");
        let mut run = LocalSearchRun::new(game, initial, config);
        run.seed = Some(seed);
        run.warm = true;
        run
    }

    /// The start profile of restart `r`, written into `self.profile`: the
    /// warm seed when one is pending, then the four smart starts, then
    /// seeded perturbations of the LPT start.
    fn build_start(&mut self, restart: usize, scratch: &mut KernelScratch) {
        if restart == 0 {
            if let Some(seed) = self.seed.take() {
                self.profile = seed;
                return;
            }
        }
        let view = self.view;
        let initial = self.initial.as_slice();
        let choices = self.profile.choices_mut();
        match restart {
            0 => lpt_greedy_into(view, initial, choices, scratch),
            1 => greedy_into(view, initial, choices, scratch),
            2 => load_balanced_into(view, initial, choices, scratch),
            3 => spread_into(view, choices),
            r => {
                lpt_greedy_into(view, initial, choices, scratch);
                let mut rng =
                    SplitMix64::new(self.ls_seed ^ (r as u64).wrapping_mul(0xA24B_AED4_963E_E407));
                let n = view.users;
                let m = view.links;
                for _ in 0..(n / 4).max(1) {
                    let user = rng.next_below(n);
                    choices[user] = rng.next_below(m);
                }
            }
        }
    }

    fn finish(&self, solution: bool) -> SolverDetail {
        SolverDetail {
            solution: solution.then(|| crate::algorithms::PureNashSolution {
                profile: self.profile.clone(),
                method: crate::algorithms::PureNashMethod::LocalSearch,
            }),
            iterations: Some(self.total_moves),
            restarts: Some(self.restarts_used),
        }
    }

    /// One incremental descent pass over all users. Returns the run's
    /// verdict for this pass.
    fn pass(&mut self, scratch: &mut KernelScratch) -> PassVerdict {
        let view = self.view;
        let n = view.users;
        // Split the scratch: `loads` and `improving` are distinct fields, so
        // both can be borrowed at once.
        scratch.loads.clear();
        scratch.loads.resize(view.links, 0.0);
        let loads = &mut scratch.loads;
        let improving = &mut scratch.improving;
        rebuild_loads(view, self.initial.as_slice(), self.profile.choices(), loads);
        let mut moved_in_pass = false;
        for user in 0..n {
            let w = view.weights[user];
            let inv = view.inv_row(user);
            let current_link = self.profile.link(user);
            let current = loads[current_link] * inv[current_link];
            let mut best = current_link;
            let mut best_latency = current;
            improving.clear();
            for (link, (&load, &inv_c)) in loads.iter().zip(inv).enumerate() {
                if link == current_link {
                    continue;
                }
                let latency = (load + w) * inv_c;
                if self.tol.lt(latency, current) {
                    improving.push(link);
                    if latency < best_latency {
                        best_latency = latency;
                        best = link;
                    }
                }
            }
            if improving.is_empty() {
                continue;
            }
            let target = if self.slice_moves < self.anneal_moves {
                improving[self.rng.next_below(improving.len())]
            } else {
                best
            };
            loads[current_link] -= w;
            loads[target] += w;
            self.profile.apply_move(user, target);
            self.slice_moves += 1;
            moved_in_pass = true;
            if self.slice_moves >= self.slice_budget {
                return PassVerdict::Budget;
            }
        }
        if moved_in_pass {
            return PassVerdict::Continue;
        }
        // The incremental pass found no improving move: certify canonically.
        match canonical_move(self.game, self.initial, &self.profile, loads, self.tol) {
            None => PassVerdict::Converged,
            Some((user, to)) => {
                self.profile.apply_move(user, to);
                self.slice_moves += 1;
                if self.slice_moves >= self.slice_budget {
                    PassVerdict::Budget
                } else {
                    // Hand control back to the incremental pass loop.
                    PassVerdict::Continue
                }
            }
        }
    }
}

/// Verdict of one [`LocalSearchRun`] descent pass.
enum PassVerdict {
    /// Moves were made; descend further.
    Continue,
    /// Certified pure Nash equilibrium.
    Converged,
    /// The restart's budget slice ran out.
    Budget,
}

impl KernelRun for LocalSearchRun<'_> {
    fn step(&mut self, scratch: &mut KernelScratch) -> Option<SolverDetail> {
        if let LsPhase::NextRestart = self.phase {
            if self.restart >= self.restarts
                || (self.total_moves >= self.budget && self.restart > 0)
            {
                return Some(self.finish(false));
            }
            self.restarts_used += 1;
            let restart = self.restart;
            self.build_start(restart, scratch);
            // Annealed phase: n randomised moves on restart 0, halving with
            // every restart. A warm-seeded restart 0 skips annealing — the
            // seed is already certified-adjacent and should descend directly.
            self.anneal_moves = if self.warm && restart == 0 {
                0
            } else {
                (self.view.users as u64)
                    .checked_shr(restart as u32)
                    .unwrap_or(0)
            };
            self.rng = SplitMix64::new(
                self.ls_seed
                    .wrapping_add((restart as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            );
            self.slice_budget = self
                .per_restart
                .min(self.budget.saturating_sub(self.total_moves).max(1));
            self.slice_moves = 0;
            self.phase = LsPhase::Descending;
        }
        match self.pass(scratch) {
            PassVerdict::Continue => None,
            PassVerdict::Converged => {
                self.total_moves += self.slice_moves;
                Some(self.finish(true))
            }
            PassVerdict::Budget => {
                self.total_moves += self.slice_moves;
                self.restart += 1;
                self.phase = LsPhase::NextRestart;
                None
            }
        }
    }
}

/// How a [`BestResponseRun`] starts.
pub enum BrStart {
    /// The kernel index-order greedy start (`greedy_into`).
    Greedy,
    /// An explicit start profile.
    Profile(PureProfile),
}

/// Pass-resumable best-response dynamics on SoA rows.
///
/// Semantics match
/// [`BestResponseDynamics`](crate::algorithms::best_response::BestResponseDynamics):
/// round-robin is a circular scan moving every defector as it is examined
/// (the legacy scan-from-cursor loop visits users in exactly this order);
/// largest-gain scans all users and moves the first-best. Link loads are
/// maintained incrementally — the `O(n)`-per-link-query recomputation the
/// legacy primitives did is the main cost this kernel removes — and rebuilt
/// from the profile at every step, bounding float drift to one pass.
pub struct BestResponseRun<'a> {
    game: &'a EffectiveGame,
    initial: &'a LinkLoads,
    view: SoAView<'a>,
    tol: Tolerance,
    max_steps: u64,
    largest_gain: bool,
    profile: PureProfile,
    started: bool,
    start: BrStart,
    cursor: usize,
    steps: u64,
}

impl<'a> BestResponseRun<'a> {
    /// A run over `game`'s rows.
    pub fn new(
        game: &'a EffectiveGame,
        initial: &'a LinkLoads,
        start: BrStart,
        max_steps: u64,
        largest_gain: bool,
        tol: Tolerance,
    ) -> Self {
        BestResponseRun {
            game,
            initial,
            view: SoAView::from_game(game),
            tol,
            max_steps,
            largest_gain,
            profile: PureProfile::new(vec![0; game.users()]),
            started: false,
            start,
            cursor: 0,
            steps: 0,
        }
    }

    fn finish(&self, converged: bool) -> SolverDetail {
        SolverDetail {
            solution: converged.then(|| crate::algorithms::PureNashSolution {
                profile: self.profile.clone(),
                method: crate::algorithms::PureNashMethod::BestResponse,
            }),
            iterations: Some(self.steps),
            restarts: None,
        }
    }

    /// Best-response moves taken so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Consumes the run, yielding its current profile — the final profile
    /// once `step` has returned `Some` (needed by the dynamics wrapper,
    /// whose step-limit outcome reports the profile it stalled on).
    pub fn into_profile(self) -> PureProfile {
        self.profile
    }

    /// The kernel best response of `user` under `loads`: the latency-minimal
    /// link (first wins), with ties against the current link resolved in the
    /// current link's favour — the tie policy of
    /// [`best_response`](crate::equilibrium::best_response).
    #[inline]
    fn best_link(&self, loads: &[f64], user: usize) -> (usize, f64, f64) {
        let w = self.view.weights[user];
        let inv = self.view.inv_row(user);
        let current_link = self.profile.link(user);
        let current = loads[current_link] * inv[current_link];
        let mut best = 0usize;
        let mut best_latency = f64::INFINITY;
        for (link, (&load, &inv_c)) in loads.iter().zip(inv).enumerate() {
            let latency = if link == current_link {
                current
            } else {
                (load + w) * inv_c
            };
            if latency < best_latency {
                best_latency = latency;
                best = link;
            }
        }
        if self.tol.leq(current, best_latency) {
            (current_link, current, current)
        } else {
            (best, best_latency, current)
        }
    }

    /// One round-robin sweep: up to `n` examinations from the cursor, moving
    /// every defector encountered.
    fn round_robin_pass(&mut self, loads: &mut [f64]) -> PassVerdict {
        let n = self.view.users;
        let mut quiet = 0usize;
        for _ in 0..n {
            if self.steps >= self.max_steps {
                return PassVerdict::Budget;
            }
            let user = self.cursor;
            self.cursor = (self.cursor + 1) % n;
            let (to, new_latency, current) = self.best_link(loads, user);
            let from = self.profile.link(user);
            if to != from && self.tol.lt(new_latency, current) {
                let w = self.view.weights[user];
                loads[from] -= w;
                loads[to] += w;
                self.profile.apply_move(user, to);
                self.steps += 1;
                quiet = 0;
            } else {
                quiet += 1;
                if quiet >= n {
                    return PassVerdict::Converged;
                }
            }
        }
        PassVerdict::Continue
    }

    /// One largest-gain step: scan all users, move the first-best defector.
    fn largest_gain_pass(&mut self, loads: &mut [f64]) -> PassVerdict {
        if self.steps >= self.max_steps {
            return PassVerdict::Budget;
        }
        let n = self.view.users;
        let mut best: Option<(usize, usize, f64)> = None; // (user, to, gain)
        for user in 0..n {
            let (to, new_latency, current) = self.best_link(loads, user);
            if to == self.profile.link(user) || !self.tol.lt(new_latency, current) {
                continue;
            }
            let gain = current - new_latency;
            if best.map(|(_, _, g)| gain > g).unwrap_or(true) {
                best = Some((user, to, gain));
            }
        }
        match best {
            None => PassVerdict::Converged,
            Some((user, to, _)) => {
                let w = self.view.weights[user];
                loads[self.profile.link(user)] -= w;
                loads[to] += w;
                self.profile.apply_move(user, to);
                self.steps += 1;
                PassVerdict::Continue
            }
        }
    }
}

impl KernelRun for BestResponseRun<'_> {
    fn step(&mut self, scratch: &mut KernelScratch) -> Option<SolverDetail> {
        if !self.started {
            self.started = true;
            match std::mem::replace(&mut self.start, BrStart::Greedy) {
                BrStart::Greedy => greedy_into(
                    self.view,
                    self.initial.as_slice(),
                    self.profile.choices_mut(),
                    scratch,
                ),
                BrStart::Profile(profile) => self.profile = profile,
            }
        }
        scratch.loads.clear();
        scratch.loads.resize(self.view.links, 0.0);
        let loads = &mut scratch.loads;
        rebuild_loads(
            self.view,
            self.initial.as_slice(),
            self.profile.choices(),
            loads,
        );
        let verdict = if self.largest_gain {
            self.largest_gain_pass(loads)
        } else {
            self.round_robin_pass(loads)
        };
        match verdict {
            PassVerdict::Continue => None,
            PassVerdict::Converged => {
                // The kernel sweep found no defector: certify canonically,
                // or take the canonical move within the step budget.
                match canonical_move(self.game, self.initial, &self.profile, loads, self.tol) {
                    None => Some(self.finish(true)),
                    Some((user, to)) => {
                        if self.steps >= self.max_steps {
                            return Some(self.finish(false));
                        }
                        self.profile.apply_move(user, to);
                        self.steps += 1;
                        None
                    }
                }
            }
            PassVerdict::Budget => {
                // Budget exhausted: the final canonical check decides, like
                // the legacy dynamics' tail.
                Some(self.finish(is_pure_nash(
                    self.game,
                    &self.profile,
                    self.initial,
                    self.tol,
                )))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn messy_game() -> EffectiveGame {
        EffectiveGame::from_rows(
            vec![3.0, 1.0, 2.0, 5.0],
            vec![
                vec![2.0, 2.5, 1.0],
                vec![1.0, 4.0, 2.0],
                vec![3.0, 3.0, 0.5],
                vec![0.5, 6.0, 2.0],
            ],
        )
        .unwrap()
    }

    #[test]
    fn the_view_reads_the_games_own_rows() {
        let game = messy_game();
        let view = SoAView::from_game(&game);
        assert_eq!(view.caps.as_ptr(), game.capacities().as_slice().as_ptr());
        assert_eq!(view.weights.as_ptr(), game.weights().as_ptr());
        assert_eq!(
            view.inv_caps.as_ptr(),
            SoAView::from_game(&game).inv_caps.as_ptr(),
            "the derived rows are computed once"
        );
        assert_eq!(view.users, 4);
        assert_eq!(view.links, 3);
        assert_eq!(view.cap_row(2), &[3.0, 3.0, 0.5]);
        assert_eq!(view.inv_row(2), &[1.0 / 3.0, 1.0 / 3.0, 2.0]);
        // Decreasing weight order: w = [3, 1, 2, 5].
        assert_eq!(view.order, &[3, 0, 2, 1]);
    }

    #[test]
    fn starts_cover_the_documented_portfolio() {
        let game = messy_game();
        let initial = LinkLoads::zero(3);
        let config = SolverConfig {
            ls_seed: 42,
            ..SolverConfig::default()
        };
        let mut scratch = KernelScratch::new();
        let mut run = LocalSearchRun::new(&game, &initial, &config);
        let mut start = |restart: usize| {
            run.build_start(restart, &mut scratch);
            run.profile.clone()
        };
        let starts: Vec<PureProfile> = (0..7).map(&mut start).collect();
        assert_eq!(starts[3].choices(), &[0, 1, 2, 0], "uniform spread");
        for profile in &starts {
            assert!(profile.validate(&game).is_ok());
        }
        // Perturbed restarts are deterministic in the seed.
        assert_eq!(start(5), starts[5]);
        assert_eq!(start(6), starts[6]);
        let mut other = LocalSearchRun::new(&game, &initial, &config);
        other.build_start(5, &mut scratch);
        assert_eq!(other.profile, starts[5]);
    }

    #[test]
    fn kernel_local_search_converges_and_certifies() {
        let game = messy_game();
        let initial = LinkLoads::zero(3);
        let config = SolverConfig::default();
        let mut scratch = KernelScratch::new();
        let mut run = LocalSearchRun::new(&game, &initial, &config);
        let detail = run_to_completion(&mut run, &mut scratch);
        let solution = detail.solution.expect("tiny instance converges");
        assert!(is_pure_nash(&game, &solution.profile, &initial, config.tol));
        assert_eq!(detail.restarts, Some(1));
    }

    #[test]
    fn kernel_best_response_converges_and_certifies() {
        let game = messy_game();
        let initial = LinkLoads::zero(3);
        let config = SolverConfig::default();
        let mut scratch = KernelScratch::new();
        for largest_gain in [false, true] {
            let mut run = BestResponseRun::new(
                &game,
                &initial,
                BrStart::Greedy,
                config.max_steps as u64,
                largest_gain,
                config.tol,
            );
            let detail = run_to_completion(&mut run, &mut scratch);
            let solution = detail.solution.expect("tiny instance converges");
            assert!(is_pure_nash(&game, &solution.profile, &initial, config.tol));
        }
    }

    #[test]
    fn convergence_is_claimed_only_on_a_certified_profile() {
        // At `[0, 1]` user 1 is within rounding of indifferent between its
        // links: no kernel pass moves it, and `is_pure_nash` rejects the
        // profile. The canonical scan must name that defector.
        let game = EffectiveGame::from_rows(
            vec![4.388, 3.674],
            vec![vec![1.6902054706897638, 2.66], vec![0.01, 100.0]],
        )
        .unwrap();
        let initial = LinkLoads::new(vec![1.766, 1.623]).unwrap();
        let tol = Tolerance::default();
        let start = PureProfile::new(vec![0, 1]);
        assert!(!is_pure_nash(&game, &start, &initial, tol));
        let outcome = crate::algorithms::best_response::BestResponseDynamics::default()
            .run(&game, &initial, start, tol);
        assert!(outcome.converged());
        assert!(is_pure_nash(&game, outcome.profile(), &initial, tol));
        assert_eq!(outcome.profile().choices(), &[1, 1]);
    }

    #[test]
    fn repair_seed_carries_the_assignment_across_each_edit_kind() {
        let game = messy_game();
        let initial = LinkLoads::zero(3);
        let config = SolverConfig::default();
        let mut scratch = KernelScratch::new();
        let mut run = LocalSearchRun::new(&game, &initial, &config);
        let prev = run_to_completion(&mut run, &mut scratch)
            .solution
            .expect("tiny instance converges")
            .profile;
        let prev_loads = prev.link_loads(&game, &initial);

        // Capacity change: the assignment carries over verbatim.
        let cap_edit = GameEdit::CapacityChange {
            user: 0,
            link: 1,
            capacity: 10.0,
        };
        let cap_game = game.apply_edit(&cap_edit).unwrap();
        let cap_view = SoAView::from_game(&cap_game);
        let seed = repair_seed(cap_view, &prev, prev_loads.as_slice(), &cap_edit);
        assert_eq!(seed.choices(), prev.choices());

        // Leave: the departing user's choice is dropped, the rest shift.
        let leave = GameEdit::UserLeaves { user: 1 };
        let leave_game = game.apply_edit(&leave).unwrap();
        let leave_view = SoAView::from_game(&leave_game);
        let seed = repair_seed(leave_view, &prev, prev_loads.as_slice(), &leave);
        assert_eq!(seed.users(), 3);
        assert_eq!(seed.link(0), prev.link(0));
        assert_eq!(seed.link(1), prev.link(2));
        assert_eq!(seed.link(2), prev.link(3));

        // Join: the new user lands on its latency-minimal link under the
        // carried loads; everyone else is untouched.
        let join = GameEdit::UserJoins {
            weight: 2.5,
            capacities: vec![1.0, 2.0, 3.0],
        };
        let join_game = game.apply_edit(&join).unwrap();
        let view = SoAView::from_game(&join_game);
        let seed = repair_seed(view, &prev, prev_loads.as_slice(), &join);
        assert_eq!(seed.users(), 5);
        assert_eq!(&seed.choices()[..4], prev.choices());
        let inv = view.inv_row(4);
        let placed = seed.link(4);
        for link in 0..3 {
            assert!(
                (prev_loads[placed] + 2.5) * inv[placed]
                    <= (prev_loads[link] + 2.5) * inv[link] + 1e-12,
                "join placement must be greedy-minimal"
            );
        }
    }

    #[test]
    fn a_seeded_run_certifies_on_the_edited_game() {
        let game = messy_game();
        let initial = LinkLoads::zero(3);
        let config = SolverConfig::default();
        let mut scratch = KernelScratch::new();
        let mut run = LocalSearchRun::new(&game, &initial, &config);
        let prev = run_to_completion(&mut run, &mut scratch)
            .solution
            .expect("tiny instance converges")
            .profile;
        let prev_loads = prev.link_loads(&game, &initial);
        let edit = GameEdit::CapacityChange {
            user: 3,
            link: 0,
            capacity: 0.05,
        };
        let edited = game.apply_edit(&edit).unwrap();
        let seed = repair_seed(
            SoAView::from_game(&edited),
            &prev,
            prev_loads.as_slice(),
            &edit,
        );
        let mut warm = LocalSearchRun::with_seed(&edited, &initial, &config, seed);
        let detail = run_to_completion(&mut warm, &mut scratch);
        let solution = detail.solution.expect("warm run converges");
        assert!(is_pure_nash(
            &edited,
            &solution.profile,
            &initial,
            config.tol
        ));
        // The warm restart is the only one a converging repair consumes.
        assert_eq!(detail.restarts, Some(1));
    }

    #[test]
    fn a_zero_step_budget_gives_up_like_the_legacy_dynamics() {
        let game = messy_game();
        let initial = LinkLoads::zero(3);
        let mut scratch = KernelScratch::new();
        let mut run = BestResponseRun::new(
            &game,
            &initial,
            BrStart::Profile(PureProfile::all_on(4, 0)),
            0,
            false,
            Tolerance::default(),
        );
        let detail = run_to_completion(&mut run, &mut scratch);
        assert!(detail.solution.is_none());
        assert_eq!(detail.iterations, Some(0));
    }
}
