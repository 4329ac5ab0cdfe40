//! `gen` — a deterministically seeded SyGuS problem generator and the
//! oracles of a differential fuzzing sweep.
//!
//! The reproduction's engines (`nay`, `nope`, and their portfolio) were
//! validated against hand-ported paper benchmarks; this crate supplies the
//! *workload-production* layer that scales validation to corpus size:
//!
//! * [`rng`] — the `std`-only SplitMix64 + xorshift128+ random source,
//!   byte-stable across platforms (re-exported from [`sygus::rng`], which
//!   the engines' example draws share),
//! * [`families`] — the catalogue of parameterized problem families
//!   ([`Family`]) and their scaling knobs ([`Scale`]): grammar depth,
//!   constant magnitude, example count, guard/ite nesting, and a
//!   deliberate realizable/unrealizable skew ([`Expectation`]),
//! * [`builder`] — per-family construction with airtight by-construction
//!   verdicts and witness terms for the realizable class,
//! * [`stream`] — the seeded, fingerprint-deduplicated instance stream
//!   ([`ProblemStream`]), the pure sharded accessor
//!   ([`GenConfig::instance_at`] / [`ShardStream`]) behind
//!   constant-memory fuzz campaigns, and corpus materialization
//!   ([`write_corpus`]); instance `i` depends only on `(base_seed, i)`,
//!   so output is byte-identical for a fixed seed,
//! * [`oracle`] — the differential / expectation / witness soundness
//!   oracles ([`check_instance`]) and the print→parse round-trip gate
//!   ([`roundtrip_violation`]) that a fuzz sweep enforces per instance.
//!
//! The crate deliberately knows nothing about the engines: `bench`'s
//! `reproduce fuzz` maps engine outcomes into [`EngineClaim`]s and this
//! crate judges them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod families;
pub mod oracle;
pub mod stream;

pub use builder::{build, Built};
pub use families::{Expectation, Family, FamilySpec, Scale, SignSkew, FAMILY_SPECS};
pub use oracle::{check_instance, roundtrip_violation, EngineClaim, Violation};
pub use rng::{instance_seed, GenRng};
pub use stream::{write_corpus, GenConfig, GeneratedInstance, ProblemStream, ShardStream};
pub use sygus::rng;
