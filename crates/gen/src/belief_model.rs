//! Data-driven construction of structured belief perturbations.
//!
//! The paper's central object is *uncertainty itself*: users act on private
//! beliefs about link capacities, not on the true network. The original
//! [`BeliefKind`](crate::spec::BeliefKind) samplers draw beliefs from one
//! unstructured distribution; a [`BeliefModel`] instead builds a belief
//! profile *around a known true state* with a tunable `intensity` knob, so
//! an experiment can measure how equilibria respond to the **strength and
//! structure** of belief noise rather than to one fixed noise recipe.
//!
//! The contract every model obeys:
//!
//! * **The rng-split determinism rule.** A model draws randomness only from
//!   the `rng` handed to [`BeliefModel::beliefs`] — never from the network
//!   stream, never from global state. Combined with
//!   [`GameSpec::generate_with_beliefs`](crate::spec::GameSpec::generate_with_beliefs)
//!   (network from `base_rng`, beliefs from `belief_rng`) one bit-identical
//!   true network yields a whole family of structured belief perturbations,
//!   which is exactly the repeat structure the engine-level solve/opt
//!   caches shortcut.
//! * **`intensity = 0` is the uninformed limit.** Every model degenerates
//!   to the common uniform prior over the states — bit-identically equal to
//!   [`Belief::uniform`] for every user — because every weight it produces
//!   is `exp(0) = 1` exactly. Proptested in `tests/proptest_gen.rs`.
//! * **The true state is state `0`** ([`TRUE_STATE`]), matching the
//!   convention of the `kp_compare` drift study (the realised network is
//!   the state the point-mass "truth" profile selects).
//! * **Extreme intensities stay finite.** Weight exponents are clamped to
//!   `±300`, so `Belief::from_weights` always receives positive finite
//!   weights and generation never panics, whatever finite intensity a
//!   sweep asks for.

use rand::{Rng, RngCore};

use netuncert_core::method_list::MethodKind;
use netuncert_core::model::{Belief, BeliefProfile, StateSpace};

/// The state index the models treat as the realised ("true") network.
pub const TRUE_STATE: usize = 0;

/// Clamped exponential: positive, finite for every finite exponent.
fn expw(x: f64) -> f64 {
    x.clamp(-300.0, 300.0).exp()
}

/// Validates the shared intensity contract (finite, non-negative).
fn check_intensity(intensity: f64) {
    assert!(
        intensity.is_finite() && intensity >= 0.0,
        "belief intensity must be finite and non-negative, got {intensity}"
    );
}

/// Builds one user's belief from per-state weights.
fn belief_from(weights: &[f64]) -> Belief {
    Belief::from_weights(weights).expect("belief models produce positive finite weights")
}

/// One scheme for constructing user beliefs about a known true network
/// state, parameterised by a noise/information `intensity`.
///
/// Implementations must be stateless; all randomness derives from the
/// passed `rng` (see the [module docs](self) for the full contract).
pub trait BeliefModel: Send + Sync {
    /// The registry kind of this model.
    fn kind(&self) -> BeliefModelKind;

    /// Builds the belief profile of `users` users over `states` at the
    /// given `intensity`, drawing randomness only from `rng`.
    fn beliefs(
        &self,
        users: usize,
        states: &StateSpace,
        intensity: f64,
        rng: &mut dyn RngCore,
    ) -> BeliefProfile;
}

/// Exact knowledge of the true state, sharpened by intensity: the true
/// state's weight is `e^{+intensity}`, every other state's `e^{-intensity}`.
/// At large intensity this is a numerical point mass on [`TRUE_STATE`];
/// at `0` it is the uniform prior. Draws nothing from the rng.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExactKnowledge;

impl BeliefModel for ExactKnowledge {
    fn kind(&self) -> BeliefModelKind {
        BeliefModelKind::Exact
    }

    fn beliefs(
        &self,
        users: usize,
        states: &StateSpace,
        intensity: f64,
        _rng: &mut dyn RngCore,
    ) -> BeliefProfile {
        check_intensity(intensity);
        let weights: Vec<f64> = (0..states.len())
            .map(|s| {
                expw(if s == TRUE_STATE {
                    intensity
                } else {
                    -intensity
                })
            })
            .collect();
        BeliefProfile::identical(users, belief_from(&weights))
    }
}

/// Seeded multiplicative noise: each user's weight on each state is
/// `e^{intensity · g}` with `g` uniform on `[-1, 1]`, independently per
/// `(user, state)` — the intensity-graded version of the unstructured
/// belief spread E13/E14 sampled from a single distribution.
#[derive(Debug, Clone, Copy, Default)]
pub struct MultiplicativeNoise;

impl BeliefModel for MultiplicativeNoise {
    fn kind(&self) -> BeliefModelKind {
        BeliefModelKind::Noise
    }

    fn beliefs(
        &self,
        users: usize,
        states: &StateSpace,
        intensity: f64,
        rng: &mut dyn RngCore,
    ) -> BeliefProfile {
        check_intensity(intensity);
        let profile = (0..users)
            .map(|_| {
                let weights: Vec<f64> = (0..states.len())
                    .map(|_| expw(intensity * rng.gen_range(-1.0..=1.0f64)))
                    .collect();
                belief_from(&weights)
            })
            .collect();
        BeliefProfile::new(profile).expect("consistent state counts")
    }
}

/// Adversarial systematic estimation error: each user is an optimist or a
/// pessimist (a fair coin per user) and tilts its belief toward the
/// states whose capacities are systematically higher (over-estimators) or
/// lower (under-estimators) than average, with the tilt scaled by
/// intensity.
#[derive(Debug, Clone, Copy, Default)]
pub struct Adversarial;

/// Mean log-capacity score of every state, centred to zero mean, so the
/// tilt `e^{±intensity·score}` has no net bias across states.
fn capacity_scores(states: &StateSpace) -> Vec<f64> {
    let logs: Vec<f64> = states
        .iter()
        .map(|s| {
            let sum: f64 = s.capacities().iter().map(|&c| c.ln()).sum();
            sum / s.links() as f64
        })
        .collect();
    let center = logs.iter().sum::<f64>() / logs.len() as f64;
    logs.iter().map(|&l| l - center).collect()
}

impl BeliefModel for Adversarial {
    fn kind(&self) -> BeliefModelKind {
        BeliefModelKind::Adversarial
    }

    fn beliefs(
        &self,
        users: usize,
        states: &StateSpace,
        intensity: f64,
        rng: &mut dyn RngCore,
    ) -> BeliefProfile {
        check_intensity(intensity);
        let scores = capacity_scores(states);
        let profile = (0..users)
            .map(|_| {
                let sign = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
                let weights: Vec<f64> =
                    scores.iter().map(|&z| expw(intensity * sign * z)).collect();
                belief_from(&weights)
            })
            .collect();
        BeliefProfile::new(profile).expect("consistent state counts")
    }
}

/// Common-signal correlated beliefs: one shared noisy signal per game (a
/// uniform `[-1, 1]` draw per state) tilts *every* user the same way, and a
/// half-weight idiosyncratic jitter keeps users correlated rather than
/// identical.
#[derive(Debug, Clone, Copy, Default)]
pub struct CommonSignal;

impl BeliefModel for CommonSignal {
    fn kind(&self) -> BeliefModelKind {
        BeliefModelKind::Correlated
    }

    fn beliefs(
        &self,
        users: usize,
        states: &StateSpace,
        intensity: f64,
        rng: &mut dyn RngCore,
    ) -> BeliefProfile {
        check_intensity(intensity);
        let signal: Vec<f64> = (0..states.len())
            .map(|_| rng.gen_range(-1.0..=1.0f64))
            .collect();
        let profile = (0..users)
            .map(|_| {
                let weights: Vec<f64> = signal
                    .iter()
                    .map(|&g| expw(intensity * (g + 0.5 * rng.gen_range(-1.0..=1.0f64))))
                    .collect();
                belief_from(&weights)
            })
            .collect();
        BeliefProfile::new(profile).expect("consistent state counts")
    }
}

/// Partial observability: each user observes each link of the true state
/// independently with probability `1 − e^{−intensity}` and down-weights the
/// states that disagree with its observations (by the absolute log-ratio of
/// the capacities on the observed links); unobserved links are blanked to
/// the uniform prior. At intensity `0` nothing is observed and the belief
/// is the prior itself.
#[derive(Debug, Clone, Copy, Default)]
pub struct PartialObservability;

impl BeliefModel for PartialObservability {
    fn kind(&self) -> BeliefModelKind {
        BeliefModelKind::Partial
    }

    fn beliefs(
        &self,
        users: usize,
        states: &StateSpace,
        intensity: f64,
        rng: &mut dyn RngCore,
    ) -> BeliefProfile {
        check_intensity(intensity);
        let p_observe = 1.0 - (-intensity).exp();
        let links = states.links();
        let truth = states.state(TRUE_STATE).capacities().to_vec();
        let profile = (0..users)
            .map(|_| {
                let observed: Vec<bool> = (0..links).map(|_| rng.gen_bool(p_observe)).collect();
                let weights: Vec<f64> = states
                    .iter()
                    .map(|s| {
                        let penalty: f64 = s
                            .capacities()
                            .iter()
                            .zip(&truth)
                            .zip(&observed)
                            .filter(|&(_, &seen)| seen)
                            .map(|((&c, &t), _)| (c / t).ln().abs())
                            .sum();
                        expw(-intensity * penalty)
                    })
                    .collect();
                belief_from(&weights)
            })
            .collect();
        BeliefProfile::new(profile).expect("consistent state counts")
    }
}

/// The built-in belief models, as data — the registry behind the
/// experiment harness's `--belief-model` selection, a
/// [`MethodKind`] like `PureNashMethod`/`OptMethod`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BeliefModelKind {
    /// Sharpened exact knowledge of the true state — [`ExactKnowledge`].
    Exact,
    /// Independent multiplicative noise — [`MultiplicativeNoise`].
    Noise,
    /// Systematic over/under-estimation — [`Adversarial`].
    Adversarial,
    /// Common-signal correlated beliefs — [`CommonSignal`].
    Correlated,
    /// Link-subset partial observability — [`PartialObservability`].
    Partial,
}

impl BeliefModelKind {
    /// Every model, in registry (report) order.
    pub const ALL: [BeliefModelKind; 5] = [
        BeliefModelKind::Exact,
        BeliefModelKind::Noise,
        BeliefModelKind::Adversarial,
        BeliefModelKind::Correlated,
        BeliefModelKind::Partial,
    ];

    /// The stable CLI/registry id of this model.
    pub fn id(self) -> &'static str {
        match self {
            BeliefModelKind::Exact => "exact",
            BeliefModelKind::Noise => "noise",
            BeliefModelKind::Adversarial => "adversarial",
            BeliefModelKind::Correlated => "correlated",
            BeliefModelKind::Partial => "partial",
        }
    }

    /// A small stable tag for deriving rng substreams per model.
    pub fn tag(self) -> u64 {
        match self {
            BeliefModelKind::Exact => 0,
            BeliefModelKind::Noise => 1,
            BeliefModelKind::Adversarial => 2,
            BeliefModelKind::Correlated => 3,
            BeliefModelKind::Partial => 4,
        }
    }

    /// Builds the model.
    pub fn build(self) -> Box<dyn BeliefModel> {
        match self {
            BeliefModelKind::Exact => Box::new(ExactKnowledge),
            BeliefModelKind::Noise => Box::new(MultiplicativeNoise),
            BeliefModelKind::Adversarial => Box::new(Adversarial),
            BeliefModelKind::Correlated => Box::new(CommonSignal),
            BeliefModelKind::Partial => Box::new(PartialObservability),
        }
    }
}

impl MethodKind for BeliefModelKind {
    const ALL: &'static [Self] = &BeliefModelKind::ALL;
    const NOUN: &'static str = "belief model";
    const KNOWN: &'static str = "models";
    fn id(self) -> &'static str {
        BeliefModelKind::id(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng;
    use netuncert_core::method_list::MethodList;
    use netuncert_core::numeric::Tolerance;

    fn states() -> StateSpace {
        StateSpace::from_rows(vec![
            vec![1.0, 4.0, 1.0],
            vec![4.0, 1.0, 4.0],
            vec![2.0, 2.0, 2.0],
            vec![1.0, 1.0, 4.0],
        ])
        .unwrap()
    }

    #[test]
    fn kind_registry_round_trips() {
        for kind in BeliefModelKind::ALL {
            let parsed = MethodList::<BeliefModelKind>::parse(kind.id()).unwrap();
            assert_eq!(parsed.kinds(), &[kind]);
            assert_eq!(kind.build().kind(), kind);
        }
        assert!(MethodList::<BeliefModelKind>::parse("alien").is_err());
        let tags: Vec<u64> = BeliefModelKind::ALL.iter().map(|k| k.tag()).collect();
        let mut deduped = tags.clone();
        deduped.dedup();
        assert_eq!(tags, deduped, "stream tags must be distinct");
    }

    #[test]
    fn zero_intensity_is_the_uniform_prior_bit_identically() {
        let states = states();
        let uniform = Belief::uniform(states.len());
        for kind in BeliefModelKind::ALL {
            let mut r = rng(7, kind.tag());
            let profile = kind.build().beliefs(5, &states, 0.0, &mut r);
            for (user, belief) in profile.iter().enumerate() {
                assert_eq!(
                    belief.probs(),
                    uniform.probs(),
                    "{} user {user} drifted from the uniform prior",
                    kind.id()
                );
            }
        }
    }

    #[test]
    fn models_are_deterministic_in_the_rng_stream() {
        let states = states();
        for kind in BeliefModelKind::ALL {
            let model = kind.build();
            let a = model.beliefs(4, &states, 1.5, &mut rng(3, 9));
            let b = model.beliefs(4, &states, 1.5, &mut rng(3, 9));
            assert_eq!(a, b, "{} is not stream-deterministic", kind.id());
        }
    }

    #[test]
    fn intensity_sharpens_exact_knowledge_toward_the_true_state() {
        let states = states();
        let mut r = rng(0, 0);
        let mild = ExactKnowledge.beliefs(2, &states, 0.5, &mut r);
        let sharp = ExactKnowledge.beliefs(2, &states, 12.0, &mut r);
        assert!(mild.belief(0).prob(TRUE_STATE) > 1.0 / states.len() as f64);
        assert!(sharp.belief(0).prob(TRUE_STATE) > mild.belief(0).prob(TRUE_STATE));
        assert!(sharp.belief(0).is_point_mass(Tolerance::default()));
    }

    #[test]
    fn extreme_intensities_still_produce_valid_beliefs() {
        let states = states();
        for kind in BeliefModelKind::ALL {
            let mut r = rng(11, kind.tag());
            let profile = kind.build().beliefs(3, &states, 1e9, &mut r);
            for belief in profile.iter() {
                let sum: f64 = belief.probs().iter().sum();
                assert!((sum - 1.0).abs() < 1e-9, "{}: sum {sum}", kind.id());
                assert!(belief.probs().iter().all(|p| p.is_finite() && *p >= 0.0));
            }
        }
    }

    #[test]
    fn correlated_beliefs_share_the_signal_direction() {
        let states = states();
        let mut r = rng(21, 3);
        let profile = CommonSignal.beliefs(6, &states, 3.0, &mut r);
        // All users must agree on which state the common signal favours.
        let favourite = |b: &Belief| {
            (0..b.len())
                .max_by(|&a, &c| b.prob(a).total_cmp(&b.prob(c)))
                .unwrap()
        };
        let first = favourite(profile.belief(0));
        let agreeing = profile.iter().filter(|b| favourite(b) == first).count();
        assert!(
            agreeing >= 5,
            "only {agreeing}/6 users follow the common signal"
        );
    }

    #[test]
    fn partial_observability_interpolates_between_prior_and_truth() {
        let states = states();
        // High intensity: links are observed and wrong states are crushed.
        let mut r = rng(5, 1);
        let informed = PartialObservability.beliefs(8, &states, 8.0, &mut r);
        let mean_truth: f64 = informed.iter().map(|b| b.prob(TRUE_STATE)).sum::<f64>() / 8.0;
        assert!(
            mean_truth > 1.0 / states.len() as f64,
            "observation must favour the true state on average, got {mean_truth}"
        );
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn nan_intensity_is_a_contract_violation() {
        let states = states();
        let mut r = rng(0, 0);
        ExactKnowledge.beliefs(2, &states, f64::NAN, &mut r);
    }
}
