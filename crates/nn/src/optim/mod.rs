//! Optimisers and learning-rate schedules.

pub mod schedule;
pub mod sgd;

pub use schedule::{LrSchedule, PlateauSchedule, StepSchedule};
pub use sgd::{Sgd, SgdConfig};
