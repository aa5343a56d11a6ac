pub mod fleet_flash;
pub mod infer_ladder;
pub mod train_sliced;
pub mod wire_staircase;
