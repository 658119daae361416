//! A compile stage with nothing left to do: the compiler infers no types.

use crate::bytecode::Image;

/// Does nothing. Kept only because the benchmark's `vm.typeck` stage
/// still calls it (ROADMAP item 1(b)).
pub fn specialize_image(_image: &mut Image) {}
