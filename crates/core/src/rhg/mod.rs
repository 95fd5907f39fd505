//! Random hyperbolic graph generators (§7).
//!
//! [`common`] holds the shared instance structure: the annulus
//! decomposition, per-annulus angular cells, deterministic per-cell point
//! generation and communication-free global vertex ids, and the one
//! query engine. Both the query-centric generator ([`Rhg`], §7.1) and
//! the request-centric streaming generator ([`crate::srhg::Srhg`], §7.2)
//! sample *the same instance* for the same seed — their edge sets are
//! identical, which the integration tests assert.

pub mod common;
mod query;
mod soft;

pub use query::Rhg;
pub use soft::SoftRhg;
