//! Simulated Bluetooth BR/EDR controller: link controller plus Link Manager.
//!
//! The controller is implemented as a deterministic state machine with an
//! explicit output queue, which makes it directly unit-testable and lets the
//! simulation world drive many controllers from one event loop:
//!
//! * inputs — HCI [`blap_hci::Command`]s from the host, [`lmp::LmpPdu`]s
//!   from peer controllers, page/inquiry results from the baseband, timer
//!   expirations;
//! * outputs ([`ControllerOutput`]) — HCI [`blap_hci::Event`]s to the host,
//!   LMP PDUs to peers, page/inquiry requests for the baseband, timer
//!   requests.
//!
//! Security procedures implemented from the Core Specification's message
//! flows:
//!
//! * **LMP authentication** (bonded devices, Fig 2b of the paper):
//!   challenge/response over the shared link key using the
//!   Secure-Connections `h4`/`h5` functions. A peer that never answers —
//!   the paper's Fig 9 attacker — trips the LMP response timeout, which
//!   tears the link down *without* an authentication failure, leaving the
//!   victim's stored key intact.
//! * **Secure Simple Pairing** (non-bonded devices, Fig 2a): IO capability
//!   exchange, P-256 ECDH, commitment/nonce exchange, numeric value `g`,
//!   user confirmation (auto or via the host), DHKey checks (`f3`), link key
//!   derivation (`f2`) and `HCI_Link_Key_Notification` — the event that
//!   writes the key into the HCI dump.
//!
//! Each link runs one typed procedure at a time, and an input outside its
//! phase leaves it unchanged, so no LMP/HCI sequence can mix two procedures.
//!
//! The controller never stores link keys; exactly like real hardware it
//! requests them from the host (`HCI_Link_Key_Request`) and hands fresh ones
//! back (`HCI_Link_Key_Notification`) — the two plaintext crossings the BLAP
//! extraction attack captures.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod config;
mod engine;
mod links;
pub mod lmp;

pub use config::ControllerConfig;
pub use engine::{Controller, ControllerOutput, ControllerStats, ControllerTimer, PageOutcome};
pub use links::LinkEntry;
