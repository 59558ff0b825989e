//! Only for the frozen `benchmark/` package; drop in its next change.

/// Only for the frozen `benchmark/` package; drop in its next change.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SurrogateStats {}

/// Only for the frozen `benchmark/` package; drop in its next change.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SurrogateSeed {}
