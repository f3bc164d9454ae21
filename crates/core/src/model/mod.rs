//! Model types: states, beliefs, games and their reduced (effective) form.

mod belief;
mod effective;
mod game;
mod state;

pub use belief::{Belief, BeliefProfile};
pub use effective::{EditUndo, EffectiveCapacities, EffectiveGame, GameEdit};
pub use game::Game;
pub use state::{CapacityState, StateSpace};
