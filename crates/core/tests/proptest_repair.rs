//! Property-based tests for the repair contract: carrying a certified
//! equilibrium across a [`GameEdit`] with [`SolverEngine::repair`] must
//! land on a profile the canonical checker certifies on the *edited* game,
//! with a social cost that is independent of how the edited game was
//! reconstructed.

use proptest::prelude::*;

use netuncert_core::algorithms::PureNashMethod;
use netuncert_core::equilibrium::is_pure_nash;
use netuncert_core::model::{EffectiveGame, GameEdit};
use netuncert_core::numeric::Tolerance;
use netuncert_core::social_cost::pure_sc1;
use netuncert_core::solvers::SolverEngine;
use netuncert_core::strategy::LinkLoads;

fn weight() -> impl Strategy<Value = f64> {
    0.1f64..5.0
}

fn capacity() -> impl Strategy<Value = f64> {
    0.2f64..5.0
}

fn general_game(
    users: impl Strategy<Value = usize>,
    links: impl Strategy<Value = usize>,
) -> impl Strategy<Value = EffectiveGame> {
    (users, links).prop_flat_map(|(n, m)| {
        let weights = proptest::collection::vec(weight(), n);
        let rows = proptest::collection::vec(proptest::collection::vec(capacity(), m), n);
        (weights, rows).prop_map(|(w, rows)| EffectiveGame::from_rows(w, rows).expect("valid"))
    })
}

/// A raw churn event: selectors are reduced modulo the *current* game shape
/// at application time, so one generated sequence stays structurally valid
/// however joins and leaves reshape the instance along the way.
#[derive(Debug, Clone)]
struct RawEdit {
    kind: u8,
    user: usize,
    link: usize,
    value: f64,
    row: Vec<f64>,
}

fn raw_edit() -> impl Strategy<Value = RawEdit> {
    (
        0u8..3,
        any::<usize>(),
        any::<usize>(),
        capacity(),
        proptest::collection::vec(capacity(), 4),
    )
        .prop_map(|(kind, user, link, value, row)| RawEdit {
            kind,
            user,
            link,
            value,
            row,
        })
}

/// Grounds a raw event against the current game. A leave on a 2-user game
/// would be illegal (games need at least two users), so it degrades to a
/// capacity change — the same policy seeded churn streams use.
fn materialize(game: &EffectiveGame, raw: &RawEdit) -> GameEdit {
    let n = game.users();
    let m = game.links();
    match raw.kind {
        0 => GameEdit::UserJoins {
            weight: raw.value,
            capacities: raw.row[..m].to_vec(),
        },
        1 if n >= 3 => GameEdit::UserLeaves { user: raw.user % n },
        _ => GameEdit::CapacityChange {
            user: raw.user % n,
            link: raw.link % m,
            capacity: raw.value,
        },
    }
}

fn repair_engine() -> SolverEngine {
    SolverEngine::from_kinds(
        Default::default(),
        &[PureNashMethod::LocalSearch, PureNashMethod::Exhaustive],
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The repair contract, end to end: starting from a certified
    /// equilibrium and streaming bounded random edits,
    ///
    /// 1. every repaired profile passes [`is_pure_nash`] on the edited
    ///    game (certification, not bit parity with any cold answer);
    /// 2. its social cost is identical whether measured on the repair
    ///    outcome's game or on an independently re-applied edit;
    /// 3. a from-scratch solve of the same edited game also certifies —
    ///    repair never keeps a session alive that a cold path would lose.
    #[test]
    fn repair_certifies_along_edit_chains(
        // Sizes stay within the exhaustive budget even if every edit is a
        // join (6 + 3 users on 4 links is 4^9 profiles), so the conclusive
        // backend is always applicable and `solution` is always `Some`.
        game in general_game(3usize..=6, 2usize..=4),
        raws in proptest::collection::vec(raw_edit(), 1..=3),
    ) {
        let tol = Tolerance::default();
        let initial = LinkLoads::zero(game.links());
        let engine = repair_engine();
        let base = engine
            .solve(&game, &initial)
            .expect("portfolio with Exhaustive never errors")
            .solution
            .expect("Exhaustive is conclusive on tiny games");
        prop_assert!(is_pure_nash(&game, &base.profile, &initial, tol));

        let (mut game, mut profile) = (game, base.profile);
        for raw in &raws {
            let edit = materialize(&game, raw);
            let outcome = engine
                .repair(&game, &initial, &profile, &edit)
                .expect("materialized edits are structurally valid");
            let repaired = outcome
                .solution
                .solution
                .expect("the cold fallback ends at Exhaustive, which is conclusive");
            let initial = LinkLoads::zero(outcome.game.links());
            // (1) certified on the edited game.
            prop_assert!(is_pure_nash(&outcome.game, &repaired.profile, &initial, tol));
            // (2) the social cost does not depend on which copy of the
            // edited game measures it.
            let independent = game.apply_edit(&edit).expect("same edit, same game");
            let sc_outcome = pure_sc1(&outcome.game, &repaired.profile, &initial);
            let sc_independent = pure_sc1(&independent, &repaired.profile, &initial);
            prop_assert_eq!(sc_outcome.to_bits(), sc_independent.to_bits());
            // (3) from-scratch certification succeeds on the same game.
            let cold = engine
                .solve(&outcome.game, &initial)
                .expect("portfolio with Exhaustive never errors")
                .solution
                .expect("Exhaustive is conclusive on tiny games");
            prop_assert!(is_pure_nash(&outcome.game, &cold.profile, &initial, tol));
            game = outcome.game;
            profile = repaired.profile;
        }
    }

    /// Structurally invalid edits are rejected without disturbing the
    /// carried state: the same engine repairs cleanly afterwards.
    #[test]
    fn invalid_edits_error_and_leave_state_usable(
        game in general_game(3usize..=5, 2usize..=3),
    ) {
        let tol = Tolerance::default();
        let initial = LinkLoads::zero(game.links());
        let engine = repair_engine();
        let base = engine
            .solve(&game, &initial)
            .expect("portfolio with Exhaustive never errors")
            .solution
            .expect("Exhaustive is conclusive on tiny games");

        let bad = [
            GameEdit::UserLeaves { user: game.users() },
            GameEdit::CapacityChange { user: 0, link: game.links(), capacity: 1.0 },
            GameEdit::CapacityChange { user: 0, link: 0, capacity: -1.0 },
            GameEdit::UserJoins { weight: 1.0, capacities: vec![1.0; game.links() + 1] },
        ];
        for edit in &bad {
            prop_assert!(engine.repair(&game, &initial, &base.profile, edit).is_err());
        }

        let good = GameEdit::CapacityChange { user: 0, link: 0, capacity: 1.5 };
        let outcome = engine
            .repair(&game, &initial, &base.profile, &good)
            .expect("a valid edit still repairs after rejected ones");
        let repaired = outcome.solution.solution.expect("conclusive portfolio");
        prop_assert!(is_pure_nash(&outcome.game, &repaired.profile, &initial, tol));
    }
}
