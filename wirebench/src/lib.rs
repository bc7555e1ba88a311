//! Wire-to-wire benchmark of `bionav serve`.
//!
//! One process builds the paper-scale dataset, serves it through the
//! shipped TCP front end on a loopback port, and drives it from an
//! event-driven open-loop generator whose every reply is checked against
//! a local reference session. See `README.md` for the workloads, the
//! metrics and how to run it.

pub mod client;
pub mod oracle;
pub mod plan;
pub mod report;
pub mod run;
pub mod stats;
pub mod tier;
pub mod workloads;
