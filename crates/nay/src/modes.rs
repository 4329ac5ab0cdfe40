//! The two modes of the tool (§7): the exact semi-linear-set procedure
//! (`naySL`) and the approximate constrained-Horn-clause procedure
//! (`nayHorn`).

/// Which equation-solving back end `check_unrealizable` uses.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Mode {
    /// naySL: the exact decision procedure over semi-linear sets (§5, §6).
    SemiLinear {
        /// Solve the GFA equations stratum by stratum (the SCC optimisation
        /// of §7). Turning this off reproduces the "no opt." series of Fig. 4.
        stratified: bool,
    },
    /// nayHorn: the sound-but-incomplete Horn-clause mode (§4.3), backed by
    /// the abstract-interpretation solver of the `chc` crate.
    Horn,
}

impl Default for Mode {
    fn default() -> Self {
        Mode::SemiLinear { stratified: true }
    }
}

impl Mode {
    /// naySL without the stratification optimisation.
    pub fn semi_linear_unstratified() -> Self {
        Mode::SemiLinear { stratified: false }
    }

    /// The nayHorn mode.
    pub fn horn() -> Self {
        Mode::Horn
    }

    /// A short human-readable name, used by the benchmark harness.
    pub fn name(&self) -> &'static str {
        match self {
            Mode::SemiLinear { stratified: true } => "naySL",
            Mode::SemiLinear { stratified: false } => "naySL(no-strat)",
            Mode::Horn => "nayHorn",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names() {
        assert_eq!(Mode::default().name(), "naySL");
        assert_eq!(Mode::semi_linear_unstratified().name(), "naySL(no-strat)");
        assert_eq!(Mode::horn().name(), "nayHorn");
    }
}
