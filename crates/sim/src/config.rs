//! Shared experiment configuration.

use std::fmt;

use serde::{Deserialize, Serialize};

use instance_gen::BeliefModelKind;
use netuncert_core::method_list::MethodList;
use netuncert_core::opt::{OptBackendKind, OptConfig, OptEngine};
use netuncert_core::solvers::engine::{SolverConfig, SolverEngine, SolverKind};
use par_exec::ParallelConfig;

/// The strictly increasing ladder of belief-noise intensities swept by the
/// `belief_noise` experiment's grid — CLI `run_experiments --intensity`
/// (comma-separated non-negative finite values). Kept as a fixed-capacity
/// inline list so [`ExperimentConfig`] stays `Copy`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntensityLadder {
    values: [f64; IntensityLadder::MAX],
    len: u8,
}

impl IntensityLadder {
    /// Capacity of a ladder.
    pub const MAX: usize = 8;

    /// The default ladder: mild, moderate and strong belief noise.
    pub fn standard() -> Self {
        IntensityLadder::new(&[0.5, 1.5, 4.0]).expect("the standard ladder is valid")
    }

    /// A ladder from explicit values: non-empty, at most
    /// [`IntensityLadder::MAX`] entries, each finite and non-negative,
    /// strictly increasing. NaN, ∞, negatives and duplicates are typed
    /// errors — a sweep axis must never be able to smuggle a degenerate
    /// float into cell labels or rng streams.
    pub fn new(values: &[f64]) -> Result<Self, String> {
        if values.is_empty() {
            return Err("an intensity ladder needs at least one value".into());
        }
        if values.len() > IntensityLadder::MAX {
            return Err(format!(
                "an intensity ladder holds at most {} values, got {}",
                IntensityLadder::MAX,
                values.len()
            ));
        }
        let mut stored = [0.0f64; IntensityLadder::MAX];
        for (i, &v) in values.iter().enumerate() {
            // `-0.0` is rejected too: it compares equal to `0.0` in the
            // shard-file stamp check but has a different bit pattern, so it
            // would silently fork the belief rng streams and cell labels.
            if !(v.is_finite() && v >= 0.0) || v.is_sign_negative() {
                return Err(format!(
                    "intensity values must be finite and non-negative, got `{v}`"
                ));
            }
            if i > 0 && v <= values[i - 1] {
                return Err(format!(
                    "intensity values must be strictly increasing, got `{}` after `{}`",
                    v,
                    values[i - 1]
                ));
            }
            stored[i] = v;
        }
        Ok(IntensityLadder {
            values: stored,
            len: values.len() as u8,
        })
    }

    /// Parses the CLI form: comma-separated values, e.g. `"0.5,1.5,4"`.
    pub fn parse(s: &str) -> Result<Self, String> {
        let values: Vec<f64> = s
            .split(',')
            .map(str::trim)
            .filter(|part| !part.is_empty())
            .map(|part| {
                part.parse::<f64>()
                    .map_err(|_| format!("invalid intensity value `{part}`"))
            })
            .collect::<Result<_, _>>()?;
        IntensityLadder::new(&values)
    }

    /// The ladder values, in increasing order.
    pub fn values(&self) -> &[f64] {
        &self.values[..self.len as usize]
    }
}

impl Default for IntensityLadder {
    fn default() -> Self {
        IntensityLadder::standard()
    }
}

impl fmt::Display for IntensityLadder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rendered: Vec<String> = self.values().iter().map(|v| v.to_string()).collect();
        write!(f, "{}", rendered.join(","))
    }
}

impl Serialize for IntensityLadder {
    fn to_value(&self) -> serde::Value {
        serde::Value::Array(self.values().iter().map(Serialize::to_value).collect())
    }
}

impl Deserialize for IntensityLadder {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let values: Vec<f64> = Deserialize::from_value(v)?;
        IntensityLadder::new(&values).map_err(serde::Error::custom)
    }
}

/// Validates a CLI/stamp width goal ([`OptConfig::is_valid_width_goal`]).
pub fn validate_width_goal(goal: f64) -> Result<f64, String> {
    if OptConfig::is_valid_width_goal(goal) {
        Ok(goal)
    } else {
        Err(format!(
            "a width goal must be a finite ratio above 1.0, got `{goal}`"
        ))
    }
}

/// Configuration shared by every experiment in the harness.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// Master seed; every Monte-Carlo task derives its own substream from it.
    pub seed: u64,
    /// Number of random instances per parameter setting.
    pub samples: usize,
    /// Worker threads used by the Monte-Carlo drivers (0 = the process-wide
    /// default, [`ParallelConfig::from_env`], read once per process).
    pub threads: usize,
    /// Cap on `mⁿ` for exhaustive enumeration inside experiments.
    pub profile_limit: u128,
    /// Step budget for best-response dynamics and local search.
    pub max_steps: usize,
    /// Restart budget for the local-search backend.
    pub restarts: usize,
    /// The solver backends (and their order) behind every generic engine
    /// solve, i.e. [`CellCtx::engine`](crate::experiment::CellCtx::engine);
    /// CLI `run_experiments --solvers`.
    pub solvers: MethodList<SolverKind>,
    /// The OPT-estimator backends (and their order) behind every certified
    /// optimum bracket, i.e. [`CellCtx::opt_engine`](crate::experiment::CellCtx::opt_engine);
    /// CLI `run_experiments --opt-backends`.
    pub opt_backends: MethodList<OptBackendKind>,
    /// The belief models spanned by the `belief_noise` experiment's grid;
    /// CLI `run_experiments --belief-model`.
    pub belief_models: MethodList<BeliefModelKind>,
    /// The belief-noise intensity ladder spanned by the `belief_noise`
    /// experiment's grid.
    pub intensities: IntensityLadder,
    /// Adaptive bracket-driven OPT budgets: `Some(goal)` switches every
    /// engine built by [`opt_config`](ExperimentConfig::opt_config) into
    /// cost-ordered early-exit mode ([`OptConfig::width_goal`]); `None`
    /// (the default) keeps the classic fixed budgets — except in
    /// `belief_noise`, which always runs adaptively against its own
    /// default goal when none is configured.
    pub width_goal: Option<f64>,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            seed: 0x5EED_CAFE,
            samples: 200,
            threads: 0,
            profile_limit: 2_000_000,
            max_steps: 100_000,
            restarts: SolverConfig::default().restarts,
            // The paper's dispatch order keeps every historical result
            // bit-identical.
            solvers: MethodList::new(&SolverKind::PAPER_ORDER).expect("the paper order is valid"),
            opt_backends: MethodList::all(),
            belief_models: MethodList::all(),
            intensities: IntensityLadder::standard(),
            width_goal: None,
        }
    }
}

impl ExperimentConfig {
    /// A configuration sized for fast CI runs and unit tests.
    pub fn quick() -> Self {
        ExperimentConfig {
            samples: 40,
            ..ExperimentConfig::default()
        }
    }

    /// A configuration sized for the full evaluation reported in
    /// `EXPERIMENTS.md`.
    pub fn full() -> Self {
        ExperimentConfig {
            samples: 1_000,
            ..ExperimentConfig::default()
        }
    }

    /// The parallel-execution configuration implied by `threads`, falling
    /// back to the process-wide [`ParallelConfig::from_env`] when
    /// `threads == 0`.
    pub fn parallel(&self) -> ParallelConfig {
        if self.threads == 0 {
            ParallelConfig::from_env()
        } else {
            ParallelConfig::new(self.threads)
        }
    }

    /// The solver budgets implied by this configuration.
    pub fn solver_config(&self) -> SolverConfig {
        SolverConfig {
            max_steps: self.max_steps,
            profile_limit: self.profile_limit,
            restarts: self.restarts,
            ..SolverConfig::default()
        }
    }

    /// A [`SolverEngine`] over this configuration's solver selection and
    /// budgets; experiments route all generic equilibrium solving through it.
    pub fn solver_engine(&self) -> SolverEngine {
        SolverEngine::from_kinds(self.solver_config(), self.solvers.kinds())
    }

    /// The OPT-estimator budgets implied by this configuration: the shared
    /// knobs (`profile_limit`, `max_steps`) feed the opt side under their
    /// opt names; the remaining budgets — including the descent restart
    /// count, which deliberately exceeds the solver-side `--restarts`
    /// default because bound tightness keeps paying for extra starts —
    /// keep their [`OptConfig`] defaults.
    pub fn opt_config(&self) -> OptConfig {
        OptConfig {
            profile_limit: self.profile_limit,
            max_moves: self.max_steps as u64,
            width_goal: self.width_goal,
            ..OptConfig::default()
        }
    }

    /// An [`OptEngine`] over this configuration's opt-backend selection and
    /// budgets; experiments route all social-optimum bracketing through it.
    pub fn opt_engine(&self) -> OptEngine {
        OptEngine::from_kinds(self.opt_config(), self.opt_backends.kinds())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netuncert_core::method_list::{MethodKind, MethodListError};

    #[test]
    fn presets_have_sensible_relative_sizes() {
        assert!(ExperimentConfig::quick().samples < ExperimentConfig::default().samples);
        assert!(ExperimentConfig::default().samples < ExperimentConfig::full().samples);
    }

    #[test]
    fn parallel_config_respects_explicit_thread_count() {
        let cfg = ExperimentConfig {
            threads: 3,
            ..Default::default()
        };
        assert_eq!(cfg.parallel().threads(), 3);
        let auto = ExperimentConfig {
            threads: 0,
            ..Default::default()
        };
        assert!(auto.parallel().threads() >= 1);
    }

    /// One row per registry: the default list, a trimmed parse, input
    /// that must be rejected, and the exact JSON bytes of the parsed list.
    fn check_method_list<K: MethodKind>(
        default: MethodList<K>,
        default_ids: &str,
        input: &str,
        parsed_kinds: &[K],
        (duplicated, repeated): (&str, K),
        json: &str,
    ) {
        assert_eq!(default.to_string(), default_ids);
        let parsed = MethodList::<K>::parse(input).unwrap();
        assert_eq!(parsed.kinds(), parsed_kinds);
        assert_eq!(MethodList::<K>::parse(""), Err(MethodListError::Empty));
        assert_eq!(MethodList::<K>::parse(" , "), Err(MethodListError::Empty));
        assert_eq!(
            MethodList::<K>::parse("nonsense"),
            Err(MethodListError::Unknown("nonsense".into()))
        );
        assert_eq!(
            MethodList::<K>::parse(duplicated),
            Err(MethodListError::Duplicate(repeated))
        );

        assert_eq!(serde_json::to_string(&parsed).unwrap(), json);
        let back: MethodList<K> = serde_json::from_str(json).unwrap();
        assert_eq!(back, parsed);
        assert!(serde_json::from_str::<MethodList<K>>("[\"alien\"]").is_err());
        assert!(serde_json::from_str::<MethodList<K>>("[]").is_err());
    }

    #[test]
    fn method_lists_parse_validate_and_round_trip() {
        let cfg = ExperimentConfig::default();
        assert_eq!(cfg.solvers.kinds(), &SolverKind::PAPER_ORDER);
        check_method_list(
            cfg.solvers,
            "two_links,symmetric,uniform,best_response,exhaustive",
            "local_search, exhaustive",
            &[SolverKind::LocalSearch, SolverKind::Exhaustive],
            ("exhaustive,exhaustive", SolverKind::Exhaustive),
            "[\"local_search\",\"exhaustive\"]",
        );
        assert_eq!(cfg.opt_backends.kinds(), &OptBackendKind::ALL);
        check_method_list(
            cfg.opt_backends,
            "exhaustive,branch_and_bound,lpt,descent,relaxation",
            "descent, relaxation",
            &[OptBackendKind::Descent, OptBackendKind::Relaxation],
            ("descent,descent", OptBackendKind::Descent),
            "[\"descent\",\"relaxation\"]",
        );
        assert_eq!(cfg.belief_models.kinds(), &BeliefModelKind::ALL);
        check_method_list(
            cfg.belief_models,
            "exact,noise,adversarial,correlated,partial",
            "noise, partial",
            &[BeliefModelKind::Noise, BeliefModelKind::Partial],
            ("noise,noise", BeliefModelKind::Noise),
            "[\"noise\",\"partial\"]",
        );
    }

    #[test]
    fn unknown_ids_name_the_registry() {
        let err = MethodList::<OptBackendKind>::parse("lpt,alien").unwrap_err();
        assert_eq!(
            err.to_string(),
            "unknown opt backend `alien`; known backends: \
             exhaustive, branch_and_bound, lpt, descent, relaxation"
        );
        let err = MethodList::<BeliefModelKind>::parse("noise,noise").unwrap_err();
        assert_eq!(err.to_string(), "belief model `noise` was selected twice");
    }

    #[test]
    fn intensity_ladders_reject_degenerate_floats() {
        let default = IntensityLadder::default();
        assert_eq!(default.values(), &[0.5, 1.5, 4.0]);
        assert_eq!(default.to_string(), "0.5,1.5,4");

        let parsed = IntensityLadder::parse("0, 2, 8.5").unwrap();
        assert_eq!(parsed.values(), &[0.0, 2.0, 8.5]);

        // The hardened CLI edge cases: every degenerate float form is a
        // typed error, never a silently accepted sweep axis.
        assert!(IntensityLadder::parse("").is_err());
        assert!(IntensityLadder::parse("abc").is_err());
        assert!(IntensityLadder::parse("NaN").is_err());
        assert!(IntensityLadder::parse("inf").is_err());
        assert!(IntensityLadder::parse("-1").is_err());
        // -0.0 stamps as equal to 0.0 but forks the rng streams: rejected.
        assert!(IntensityLadder::parse("-0").is_err());
        assert!(IntensityLadder::new(&[-0.0, 1.0]).is_err());
        assert!(IntensityLadder::parse("1,1").is_err());
        assert!(IntensityLadder::parse("2,1").is_err());
        assert!(IntensityLadder::parse("1,2,3,4,5,6,7,8,9").is_err());

        let json = serde_json::to_string(&parsed).unwrap();
        assert_eq!(json, "[0.0,2.0,8.5]");
        let back: IntensityLadder = serde_json::from_str(&json).unwrap();
        assert_eq!(back, parsed);
        assert!(serde_json::from_str::<IntensityLadder>("[2.0,1.0]").is_err());
    }

    #[test]
    fn width_goals_validate_and_flow_into_the_opt_config() {
        assert_eq!(validate_width_goal(1.5), Ok(1.5));
        assert!(validate_width_goal(1.0).is_err());
        assert!(validate_width_goal(0.5).is_err());
        assert!(validate_width_goal(f64::NAN).is_err());
        assert!(validate_width_goal(f64::INFINITY).is_err());

        let fixed = ExperimentConfig::default();
        assert_eq!(fixed.opt_config().width_goal, None);
        let adaptive = ExperimentConfig {
            width_goal: Some(1.5),
            ..fixed
        };
        assert_eq!(adaptive.opt_config().width_goal, Some(1.5));
    }

    #[test]
    fn the_selection_drives_the_engine_composition() {
        use netuncert_core::algorithms::PureNashMethod;
        use netuncert_core::opt::OptMethod;
        let cfg = ExperimentConfig {
            solvers: MethodList::parse("local_search,exhaustive").unwrap(),
            opt_backends: MethodList::parse("descent,relaxation").unwrap(),
            ..ExperimentConfig::default()
        };
        assert_eq!(
            cfg.solver_engine().methods(),
            vec![PureNashMethod::LocalSearch, PureNashMethod::Exhaustive]
        );
        assert_eq!(cfg.solver_config().restarts, cfg.restarts);
        assert_eq!(
            cfg.opt_engine().methods(),
            vec![OptMethod::Descent, OptMethod::Relaxation]
        );
        assert_eq!(cfg.opt_config().profile_limit, cfg.profile_limit);
        assert_eq!(cfg.opt_config().max_moves, cfg.max_steps as u64);
    }
}
