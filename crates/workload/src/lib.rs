//! # instant-workload
//!
//! Synthetic workloads standing in for the data sources the paper's
//! introduction motivates — "cell phones give location information, cookies
//! give browsing information and RFID tags may give information even more
//! continuously" — plus the attacker models that operationalize its threat
//! analysis:
//!
//! * [`zipf`] — Zipf sampler (population skew).
//! * [`rng`] — a small deterministic PRNG (SplitMix64/xorshift) so every
//!   experiment is reproducible without threading `rand` state everywhere;
//!   `rand` remains in use where distributions are handy.
//! * [`location`] — parametric location domains: a generated
//!   address→city→region→country Generalization Tree of configurable
//!   fan-out, with leaf samplers.
//! * [`events`] — Poisson event streams: `(id, user, location, salary,
//!   timestamp)` rows for the standard experiment tables.
//! * [`attacker`] — the paper's adversaries: the *snapshot* attacker who
//!   copies the live store at some frequency (claims 1–2), and the
//!   *forensic* attacker who scrapes raw heap/WAL images for values that
//!   degradation should have destroyed (Section III, citing Stahlberg et
//!   al.).

#![warn(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

pub mod attacker;
pub mod events;
pub mod location;
pub mod rng;
pub mod zipf;

pub use location::LocationDomain;
pub use rng::Rng;
