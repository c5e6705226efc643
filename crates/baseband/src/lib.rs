//! Simulated BR/EDR baseband: slot timing, scan states, the inquiry and
//! paging procedures, and — the heart of the paper's Table II — the *page
//! response race* between two devices sharing one spoofed BDADDR.
//!
//! The radio itself is not modelled RF-accurately; what matters for the BLAP
//! attacks is *who answers a page first* and *when links drop*. Those are
//! modelled explicitly:
//!
//! * [`scan`] — inquiry-scan / page-scan enablement and timing,
//! * [`inquiry`] — device discovery with sampled response latencies,
//! * [`paging`] — connection establishment, including the multi-listener
//!   race that makes naive MITM only 42–60% reliable,
//! * [`race`] — the calibrated latency model behind that race,
//! * [`link`] — connection-handle allocation for new ACL links.
//!
//! # Calibration note (Table II)
//!
//! The paper measures per-victim baseline MITM success between 42% and 60%.
//! Those rates are an empirical property of each phone's page-train timing
//! against the two responders' scan phases; this simulation reproduces them
//! with a single per-profile parameter (the attacker's latency scale, see
//! [`race::PageRaceModel`]). The page blocking result (100%) is *not*
//! calibrated — it falls out structurally because the attacker initiates the
//! connection and no race ever happens.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod inquiry;
pub mod link;
pub mod paging;
pub mod race;
pub mod scan;
pub mod timing;
