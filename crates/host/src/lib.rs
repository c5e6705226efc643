//! Simulated Bluetooth host stack.
//!
//! One host implementation with per-profile behaviour switches stands in for
//! the four stacks the paper tests (Bluedroid, Microsoft Bluetooth Driver,
//! CSR Harmony, BlueZ) — the link-key-over-HCI property is identical across
//! them; what differs (dump availability, transport, privilege requirements,
//! popup policy) is configuration ([`HostConfig`]).
//!
//! The host is a deterministic state machine mirroring the design of the
//! controller crate: HCI events in, HCI commands / UI notifications /timer
//! requests out. On top of the ordinary GAP logic it carries, explicitly
//! labelled, the paper's attacker hooks and mitigations:
//!
//! * **Fig 9 hook** — [`AttackerHooks::ignore_link_key_request`]: silently
//!   drop `HCI_Link_Key_Request` so the victim's LMP authentication dies by
//!   timeout (no key invalidation) while its own host has already logged the
//!   key.
//! * **Fig 13 hook (PLOC)** — [`AttackerHooks::ploc_delay`]: postpone
//!   processing of `HCI_Connection_Complete`, holding the baseband link in a
//!   "physical layer only" state until the victim initiates pairing.
//! * **§VII-B mitigation** — [`Mitigations::reject_noio_connection_initiator`]:
//!   abort pairing when we are the pairing initiator, the peer was the
//!   *connection* initiator, and the peer advertises `NoInputNoOutput`.
//!
//! The *vulnerability itself* is deliberately present and marked in
//! [`Host::pair_with`]: an existing ACL link for the target address causes
//! the host to skip connection establishment and send the pairing request
//! down whatever link is already there.
//! The host keeps one typed record per peer; its own request to a peer
//! survives a link the peer restarts, so the §VII-B check sees it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod association;
mod config;
mod host;
pub mod keystore;
mod ui;

pub use config::{AttackerHooks, HciTransportKind, HostConfig, HostStackKind, Mitigations};
pub use host::{Host, HostOutput, HostTimer};
pub use ui::UiNotification;
