//! Property-based tests for in-place edits: [`EffectiveGame::edit`] must
//! leave exactly the game (weights, capacities, reciprocal rows and weight
//! order) that a fresh build of the edited rows has, a rejected edit must
//! change nothing, and a repair that ends uncertified must restore the
//! pre-edit game bit for bit.

use proptest::prelude::*;

use netuncert_core::algorithms::PureNashMethod;
use netuncert_core::model::{EffectiveGame, GameEdit};
use netuncert_core::solvers::{SoAView, SolverConfig, SolverEngine};
use netuncert_core::strategy::{LinkLoads, PureProfile};

fn general_game(
    users: impl Strategy<Value = usize>,
    links: impl Strategy<Value = usize>,
) -> impl Strategy<Value = EffectiveGame> {
    (users, links).prop_flat_map(|(n, m)| {
        // Few distinct weights, so weight ties (ordered by index) are common.
        let weights = proptest::collection::vec(1u8..6, n);
        let rows = proptest::collection::vec(proptest::collection::vec(0.2f64..5.0, m), n);
        (weights, rows).prop_map(|(w, rows)| {
            let w = w.into_iter().map(|x| f64::from(x) / 2.0).collect();
            EffectiveGame::from_rows(w, rows).expect("valid")
        })
    })
}

/// A raw edit, grounded against the current game shape when applied.
#[derive(Debug, Clone)]
struct RawEdit {
    kind: u8,
    user: usize,
    link: usize,
    value: f64,
    weight: u8,
}

fn raw_edit() -> impl Strategy<Value = RawEdit> {
    (0u8..9, any::<usize>(), any::<usize>(), 0.2f64..5.0, 1u8..6).prop_map(
        |(kind, user, link, value, weight)| RawEdit {
            kind,
            user,
            link,
            value,
            weight,
        },
    )
}

/// The edit `raw` names on a game of shape `n × m`, and whether the game
/// must accept it.
fn materialize(n: usize, m: usize, raw: &RawEdit) -> (GameEdit, bool) {
    let row = |len: usize| (0..len).map(|l| raw.value + l as f64).collect::<Vec<f64>>();
    let weight = f64::from(raw.weight) / 2.0;
    match raw.kind {
        0 => (
            GameEdit::UserJoins {
                weight,
                capacities: row(m),
            },
            true,
        ),
        // A leave at n = 2 must be rejected.
        1 => (GameEdit::UserLeaves { user: raw.user % n }, n > 2),
        2 => (
            GameEdit::CapacityChange {
                user: raw.user % n,
                link: raw.link % m,
                capacity: raw.value,
            },
            true,
        ),
        3 | 4 => (
            GameEdit::CapacityChange {
                user: raw.user % n,
                link: raw.link % m,
                capacity: if raw.kind == 3 { f64::NAN } else { 0.0 },
            },
            false,
        ),
        5 => (
            GameEdit::CapacityChange {
                user: raw.user % n,
                link: m + raw.link % 3,
                capacity: raw.value,
            },
            false,
        ),
        6 => (
            GameEdit::UserJoins {
                weight,
                capacities: row(if raw.link.is_multiple_of(2) {
                    m + 1
                } else {
                    m - 1
                }),
            },
            false,
        ),
        7 => (
            GameEdit::UserLeaves {
                user: n + raw.user % 3,
            },
            false,
        ),
        _ => (
            GameEdit::UserJoins {
                weight: -weight,
                capacities: row(m),
            },
            false,
        ),
    }
}

/// Every bit the game and its kernel rows hold.
#[derive(Debug, PartialEq)]
struct Bits {
    weights: Vec<u64>,
    caps: Vec<u64>,
    inv_caps: Vec<u64>,
    order: Vec<usize>,
}

fn bits(game: &EffectiveGame) -> Bits {
    let view = SoAView::from_game(game);
    let to_bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect();
    Bits {
        weights: to_bits(view.weights),
        caps: to_bits(view.caps),
        inv_caps: to_bits(view.inv_caps),
        order: view.order.to_vec(),
    }
}

/// Mirrors an accepted edit on plain rows.
fn mirror(weights: &mut Vec<f64>, rows: &mut Vec<Vec<f64>>, edit: &GameEdit) {
    match edit {
        GameEdit::UserJoins { weight, capacities } => {
            weights.push(*weight);
            rows.push(capacities.clone());
        }
        GameEdit::UserLeaves { user } => {
            weights.remove(*user);
            rows.remove(*user);
        }
        GameEdit::CapacityChange {
            user,
            link,
            capacity,
        } => rows[*user][*link] = *capacity,
    }
}

fn rows_of(game: &EffectiveGame) -> (Vec<f64>, Vec<Vec<f64>>) {
    let rows = (0..game.users())
        .map(|u| game.capacities().row(u).to_vec())
        .collect();
    (game.weights().to_vec(), rows)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// After every accepted edit the game and its patched kernel rows equal
    /// a fresh build of the mirrored rows, bit for bit; a rejected edit
    /// leaves every bit as it was. With `derive_first` unset the rows are
    /// only derived at the end, so the unpatched path is covered too.
    #[test]
    fn in_place_edits_match_a_fresh_build(
        game in general_game(2usize..=40, 2usize..=8),
        raws in proptest::collection::vec(raw_edit(), 1..=40),
        derive_first in any::<bool>(),
    ) {
        let mut game = game;
        let (mut weights, mut rows) = rows_of(&game);
        if derive_first {
            SoAView::from_game(&game);
        }
        for raw in &raws {
            let (edit, valid) = materialize(game.users(), game.links(), raw);
            let before = derive_first.then(|| bits(&game));
            match game.edit(&edit) {
                Ok(_) => {
                    prop_assert!(valid, "{:?} must be rejected", edit);
                    mirror(&mut weights, &mut rows, &edit);
                    let fresh = EffectiveGame::from_rows(weights.clone(), rows.clone())
                        .expect("mirrored rows are valid");
                    prop_assert_eq!(&game, &fresh);
                    if derive_first {
                        prop_assert_eq!(bits(&game), bits(&fresh));
                    }
                }
                Err(_) => {
                    prop_assert!(!valid, "{:?} must be accepted", edit);
                    if let Some(before) = before {
                        prop_assert_eq!(bits(&game), before);
                    }
                }
            }
        }
        let fresh = EffectiveGame::from_rows(weights, rows).expect("mirrored rows are valid");
        prop_assert_eq!(bits(&game), bits(&fresh));
    }

    /// `revert` undoes each edit kind, kernel rows included.
    #[test]
    fn revert_restores_every_bit(
        game in general_game(2usize..=40, 2usize..=8),
        raws in proptest::collection::vec(raw_edit(), 1..=20),
    ) {
        let mut game = game;
        for raw in &raws {
            let (edit, _) = materialize(game.users(), game.links(), raw);
            let before = bits(&game);
            if let Ok(undo) = game.edit(&edit) {
                let edited = bits(&game);
                game.revert(undo);
                prop_assert_eq!(bits(&game), before);
                game.edit(&edit).expect("accepted once, accepted again");
                prop_assert_eq!(bits(&game), edited);
            }
        }
    }

    /// A repair forced to end uncertified (local search alone, no move
    /// budget) restores the pre-edit game and rows; a certified one leaves
    /// the edited game; a rejected edit changes nothing.
    #[test]
    fn an_uncertified_repair_restores_the_pre_edit_game(
        game in general_game(2usize..=40, 2usize..=8),
        raws in proptest::collection::vec(raw_edit(), 1..=10),
    ) {
        let mut game = game;
        let initial = LinkLoads::zero(game.links());
        let Some(mut profile) = certified(&game, &initial) else {
            return Ok(());
        };
        let starved = starved_engine();
        for raw in &raws {
            let (edit, _) = materialize(game.users(), game.links(), raw);
            let before = bits(&game);
            let expected = game.apply_edit(&edit);
            match starved.repair_in_place(&mut game, &initial, &profile, &edit) {
                Ok((solved, _)) => match solved.solution {
                    Some(solution) => {
                        let edited = expected.expect("the repair accepted the edit");
                        prop_assert_eq!(bits(&game), bits(&edited));
                        profile = solution.profile;
                    }
                    None => prop_assert_eq!(bits(&game), before),
                },
                Err(_) => prop_assert_eq!(bits(&game), before),
            }
        }
    }
}

fn certified(game: &EffectiveGame, initial: &LinkLoads) -> Option<PureProfile> {
    SolverEngine::from_kinds(SolverConfig::default(), &[PureNashMethod::LocalSearch])
        .solve(game, initial)
        .expect("local search never errors")
        .solution
        .map(|s| s.profile)
}

fn starved_engine() -> SolverEngine {
    SolverEngine::from_kinds(
        SolverConfig {
            max_steps: 0,
            ..SolverConfig::default()
        },
        &[PureNashMethod::LocalSearch],
    )
}

/// The restore path is exercised, not just allowed: across these seeded
/// games some starved repairs do end uncertified, and each one restores.
#[test]
fn starved_repairs_do_end_uncertified_and_restore() {
    let mut restored = 0;
    for seed in 0..40u64 {
        let n = 6 + (seed % 20) as usize;
        let weights = (0..n)
            .map(|u| 1.0 + ((u as u64 * 7 + seed) % 5) as f64)
            .collect();
        let rows = (0..n)
            .map(|u| {
                (0..4)
                    .map(|l| 0.5 + ((u as u64 * 13 + l * 3 + seed) % 11) as f64 / 2.0)
                    .collect()
            })
            .collect();
        let mut game = EffectiveGame::from_rows(weights, rows).expect("valid");
        let initial = LinkLoads::zero(4);
        let profile = certified(&game, &initial).expect("small games certify");
        let edit = GameEdit::CapacityChange {
            user: 0,
            link: profile.link(0),
            capacity: 0.05,
        };
        let before = bits(&game);
        let (solved, repair) = starved_engine()
            .repair_in_place(&mut game, &initial, &profile, &edit)
            .expect("a valid edit");
        if solved.solution.is_none() {
            assert!(repair.fallback_cold);
            assert_eq!(bits(&game), before, "seed {seed}");
            restored += 1;
        }
    }
    assert!(restored > 0, "no starved repair ended uncertified");
}
