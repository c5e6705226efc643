//! The controller state machine.

use std::collections::HashMap;
use std::collections::VecDeque;

use blap_baseband::link::HandleAllocator;
use blap_baseband::scan::ScanState;
use blap_baseband::timing;
use blap_crypto::p256::{DhMemo, KeyPair, Point};
use blap_crypto::{bigint::U256, e1, ssp};
use blap_hci::{Command, Event, Opcode, StatusCode};
use blap_obs::{prof, SpanId, TraceEvent, Tracer};
use blap_types::{
    AssociationModel, BdAddr, ConnectionHandle, Duration, Instant, IoCapability, LinkKey,
    LinkKeyType, Role,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::config::ControllerConfig;
use crate::links::{AuthPhase, LinkEntry, SspPhase};
use crate::lmp::LmpPdu;

/// Something the controller wants the outside world to do.
#[derive(Clone, Debug, PartialEq)]
pub enum ControllerOutput {
    /// Deliver an HCI event to the local host.
    Event(Event),
    /// Deliver an LMP PDU to the peer on the link whose claimed address is
    /// `peer` (the simulation routes by link, not by address, so spoofed
    /// addresses resolve to the actually-connected device).
    Lmp {
        /// Claimed address of the link peer.
        peer: BdAddr,
        /// The PDU.
        pdu: LmpPdu,
    },
    /// Begin paging `target` (the simulation resolves the race).
    StartPage {
        /// Address being paged.
        target: BdAddr,
    },
    /// Begin an inquiry of `length` 1.28 s units.
    StartInquiry {
        /// Inquiry length parameter.
        length: u8,
    },
    /// Arm a timer.
    StartTimer {
        /// Which timer.
        timer: ControllerTimer,
        /// Relative expiry.
        after: Duration,
    },
    /// Disarm a timer.
    CancelTimer {
        /// Which timer.
        timer: ControllerTimer,
    },
}

/// Timers the controller arms.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ControllerTimer {
    /// LMP response timeout for procedures with `peer` — the timer whose
    /// expiry gives the extraction attack its "disconnect without
    /// authentication failure".
    LmpResponse {
        /// Peer the procedure runs with.
        peer: BdAddr,
    },
}

/// Always-on LMP counters, cheap enough to keep unconditionally (plain
/// `u64` increments) and snapshotted into experiment metrics by the world.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ControllerStats {
    /// LMP PDUs this controller queued for peers.
    pub lmp_sent: u64,
    /// LMP PDUs this controller received.
    pub lmp_received: u64,
    /// Procedures torn down by LMP response timeout (the extraction
    /// attack's "disconnect without authentication failure" event).
    pub lmp_response_timeouts: u64,
}

/// Result of a page attempt, reported back by the simulation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PageOutcome {
    /// Nobody answered within the page timeout.
    TimedOut,
}

/// A simulated Bluetooth controller (link controller + Link Manager).
///
/// See the crate docs for the interaction model. All methods are
/// non-blocking; effects appear in [`Controller::drain_outputs`].
#[derive(Debug)]
pub struct Controller {
    config: ControllerConfig,
    scan: ScanState,
    links: HashMap<BdAddr, LinkEntry>,
    alloc: HandleAllocator,
    outputs: VecDeque<ControllerOutput>,
    rng: StdRng,
    ssp_enabled: bool,
    tracer: Tracer,
    stats: ControllerStats,
    /// Virtual time of the entry point currently executing; stamps trace
    /// events emitted from helpers that have no `now` parameter.
    now: Instant,
    /// Open `lmp_auth` spans per peer: one per authentication/pairing
    /// procedure, from the initiating PDU or host command to the
    /// success/failure/timeout edge. Populated only while tracing.
    auth_spans: HashMap<BdAddr, SpanId>,
}

impl Controller {
    /// Creates a controller with the given configuration and RNG seed.
    pub fn new(config: ControllerConfig, seed: u64) -> Self {
        Controller {
            config,
            scan: ScanState::default(),
            links: HashMap::new(),
            alloc: HandleAllocator::new(),
            outputs: VecDeque::new(),
            rng: StdRng::seed_from_u64(seed),
            ssp_enabled: true,
            tracer: Tracer::disabled(),
            stats: ControllerStats::default(),
            now: Instant::EPOCH,
            auth_spans: HashMap::new(),
        }
    }

    /// Opens the peer's `lmp_auth` span if one is not already running
    /// (authentication can escalate into pairing without a new span).
    fn open_auth_span(&mut self, peer: BdAddr) {
        if self.tracer.enabled() && !self.auth_spans.contains_key(&peer) {
            let span = self
                .tracer
                .open_span(self.now, "lmp_auth", &peer.to_string());
            self.auth_spans.insert(peer, span);
        }
    }

    /// Closes the peer's `lmp_auth` span with an outcome, if one is open.
    fn close_auth_span(&mut self, peer: BdAddr, status: &'static str) {
        if let Some(span) = self.auth_spans.remove(&peer) {
            self.tracer.close_span(self.now, span, status);
        }
    }

    /// Routes this controller's trace events (LMP send/recv, scan
    /// transitions, LMP timeouts) to the given tracer.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Snapshot of the always-on LMP counters.
    pub fn stats(&self) -> ControllerStats {
        self.stats
    }

    /// The controller's current (claimed) address.
    pub fn bd_addr(&self) -> BdAddr {
        self.config.bd_addr
    }

    /// Overwrites the claimed address — the spoofing primitive
    /// (`/persist/bdaddr.txt` on the paper's testbed).
    pub fn set_bd_addr(&mut self, addr: BdAddr) {
        self.config.bd_addr = addr;
    }

    /// The advertised class of device.
    pub fn cod(&self) -> blap_types::ClassOfDevice {
        self.config.cod
    }

    /// The advertised device name.
    pub fn name(&self) -> &blap_types::DeviceName {
        &self.config.name
    }

    /// Current scan state (read by the simulation to build listener lists).
    pub fn scan_state(&self) -> &ScanState {
        &self.scan
    }

    /// Established (accepted) links, keyed by peer claimed address.
    pub fn links(&self) -> impl Iterator<Item = &LinkEntry> {
        self.links.values()
    }

    /// Looks up a link by peer address.
    pub fn link_to(&self, peer: BdAddr) -> Option<&LinkEntry> {
        self.links.get(&peer)
    }

    /// Drains everything the controller produced since the last call.
    pub fn drain_outputs(&mut self) -> Vec<ControllerOutput> {
        self.outputs.drain(..).collect()
    }

    fn emit(&mut self, output: ControllerOutput) {
        self.outputs.push_back(output);
    }

    fn emit_event(&mut self, event: Event) {
        self.emit(ControllerOutput::Event(event));
    }

    fn send_lmp(&mut self, peer: BdAddr, pdu: LmpPdu) {
        self.stats.lmp_sent += 1;
        if self.tracer.enabled() {
            self.tracer.emit(TraceEvent::LmpSend {
                time: self.now,
                peer,
                pdu: pdu.name(),
            });
        }
        self.emit(ControllerOutput::Lmp { peer, pdu });
    }

    fn command_status(&mut self, status: StatusCode, opcode: Opcode) {
        self.emit_event(Event::CommandStatus {
            status,
            num_packets: 1,
            opcode,
        });
    }

    fn command_complete(&mut self, opcode: Opcode, status: StatusCode) {
        self.emit_event(Event::CommandComplete {
            num_packets: 1,
            opcode,
            return_params: vec![status as u8],
        });
    }

    fn start_lmp_timer(&mut self, peer: BdAddr) {
        self.emit(ControllerOutput::StartTimer {
            timer: ControllerTimer::LmpResponse { peer },
            after: timing::LMP_RESPONSE_TIMEOUT,
        });
    }

    fn cancel_lmp_timer(&mut self, peer: BdAddr) {
        self.emit(ControllerOutput::CancelTimer {
            timer: ControllerTimer::LmpResponse { peer },
        });
    }

    fn peer_by_handle(&self, handle: ConnectionHandle) -> Option<BdAddr> {
        self.links
            .values()
            .find(|l| l.handle == handle)
            .map(|l| l.peer)
    }

    // --- HCI command processing ---------------------------------------

    /// Processes one HCI command from the host.
    pub fn on_command(&mut self, now: Instant, cmd: Command) {
        self.now = now;
        match cmd {
            Command::Inquiry { inquiry_length, .. } => {
                self.command_status(StatusCode::Success, Opcode::INQUIRY);
                self.emit(ControllerOutput::StartInquiry {
                    length: inquiry_length,
                });
            }
            Command::InquiryCancel => {
                self.command_complete(Opcode::INQUIRY_CANCEL, StatusCode::Success);
            }
            Command::CreateConnection { bd_addr, .. } => {
                if self.links.contains_key(&bd_addr) {
                    self.command_status(
                        StatusCode::ConnectionAlreadyExists,
                        Opcode::CREATE_CONNECTION,
                    );
                    return;
                }
                self.command_status(StatusCode::Success, Opcode::CREATE_CONNECTION);
                let handle = self.allocate_handle();
                self.links
                    .insert(bd_addr, LinkEntry::new(handle, bd_addr, Role::Initiator));
                self.emit(ControllerOutput::StartPage { target: bd_addr });
            }
            Command::Disconnect { handle, reason } => {
                self.command_status(StatusCode::Success, Opcode::DISCONNECT);
                if let Some(peer) = self.peer_by_handle(handle) {
                    self.links.remove(&peer);
                    self.send_lmp(peer, LmpPdu::Detach { reason });
                    self.emit_event(Event::DisconnectionComplete {
                        status: StatusCode::Success,
                        handle,
                        reason,
                    });
                } else {
                    self.emit_event(Event::DisconnectionComplete {
                        status: StatusCode::UnknownConnection,
                        handle,
                        reason,
                    });
                }
            }
            Command::AcceptConnectionRequest { bd_addr, .. } => {
                self.command_status(StatusCode::Success, Opcode::ACCEPT_CONNECTION_REQUEST);
                if let Some(link) = self.links.get_mut(&bd_addr) {
                    link.awaiting_accept = false;
                    let handle = link.handle;
                    self.send_lmp(bd_addr, LmpPdu::ConnectionAccepted);
                    self.emit_event(Event::ConnectionComplete {
                        status: StatusCode::Success,
                        handle,
                        bd_addr,
                        encryption_enabled: false,
                    });
                }
            }
            Command::RejectConnectionRequest { bd_addr, reason } => {
                self.command_status(StatusCode::Success, Opcode::REJECT_CONNECTION_REQUEST);
                if self.links.remove(&bd_addr).is_some() {
                    self.send_lmp(bd_addr, LmpPdu::ConnectionRejected { reason });
                }
            }
            Command::LinkKeyRequestReply { bd_addr, link_key } => {
                self.command_complete(Opcode::LINK_KEY_REQUEST_REPLY, StatusCode::Success);
                self.on_host_key(bd_addr, Some(link_key));
            }
            Command::LinkKeyRequestNegativeReply { bd_addr } => {
                self.command_complete(Opcode::LINK_KEY_REQUEST_NEGATIVE_REPLY, StatusCode::Success);
                self.on_host_key(bd_addr, None);
            }
            Command::PinCodeRequestReply { bd_addr, pin } => {
                self.command_complete(Opcode::PIN_CODE_REQUEST_REPLY, StatusCode::Success);
                self.on_host_pin(bd_addr, &pin);
            }
            Command::PinCodeRequestNegativeReply { bd_addr } => {
                self.command_complete(Opcode::PIN_CODE_REQUEST_NEGATIVE_REPLY, StatusCode::Success);
                if let Some(link) = self.links.get_mut(&bd_addr) {
                    link.legacy = Default::default();
                }
                self.close_auth_span(bd_addr, "rejected");
                self.send_lmp(
                    bd_addr,
                    LmpPdu::AuthReject {
                        reason: StatusCode::PairingNotAllowed,
                    },
                );
            }
            Command::AuthenticationRequested { handle } => match self.peer_by_handle(handle) {
                Some(peer) => {
                    self.command_status(StatusCode::Success, Opcode::AUTHENTICATION_REQUESTED);
                    self.open_auth_span(peer);
                    if let Some(link) = self.links.get_mut(&peer) {
                        link.auth = AuthPhase::AwaitHostKey { verifier: true };
                    }
                    self.start_lmp_timer(peer);
                    self.emit_event(Event::LinkKeyRequest { bd_addr: peer });
                }
                None => {
                    self.command_status(
                        StatusCode::UnknownConnection,
                        Opcode::AUTHENTICATION_REQUESTED,
                    );
                }
            },
            Command::SetConnectionEncryption { handle, enable } => {
                self.command_status(StatusCode::Success, Opcode::SET_CONNECTION_ENCRYPTION);
                if let Some(peer) = self.peer_by_handle(handle) {
                    self.apply_encryption(peer, enable);
                    self.send_lmp(peer, LmpPdu::EncryptionMode { enable });
                    self.emit_event(Event::EncryptionChange {
                        status: StatusCode::Success,
                        handle,
                        enabled: enable,
                    });
                } else {
                    self.emit_event(Event::EncryptionChange {
                        status: StatusCode::UnknownConnection,
                        handle,
                        enabled: false,
                    });
                }
            }
            Command::IoCapabilityRequestReply {
                bd_addr,
                io_capability,
                auth_requirements,
                ..
            } => {
                self.command_complete(Opcode::IO_CAPABILITY_REQUEST_REPLY, StatusCode::Success);
                self.on_host_io_cap(bd_addr, io_capability, auth_requirements);
            }
            Command::UserConfirmationRequestReply { bd_addr } => {
                self.command_complete(Opcode::USER_CONFIRMATION_REQUEST_REPLY, StatusCode::Success);
                if let Some(link) = self.links.get_mut(&bd_addr) {
                    link.ssp.local_confirmed = true;
                }
                self.send_lmp(bd_addr, LmpPdu::NumericAccepted);
                self.maybe_send_dhkey_check(bd_addr);
            }
            Command::UserConfirmationRequestNegativeReply { bd_addr } => {
                self.command_complete(
                    Opcode::USER_CONFIRMATION_REQUEST_NEGATIVE_REPLY,
                    StatusCode::Success,
                );
                self.send_lmp(bd_addr, LmpPdu::NumericRejected);
                self.abort_pairing(bd_addr, StatusCode::AuthenticationFailure);
            }
            Command::Reset => {
                self.links.clear();
                self.scan = ScanState::default();
                self.command_complete(Opcode::RESET, StatusCode::Success);
            }
            Command::WriteLocalName { name } => {
                self.config.name = name;
                self.command_complete(Opcode::WRITE_LOCAL_NAME, StatusCode::Success);
            }
            Command::WriteScanEnable {
                inquiry_scan,
                page_scan,
            } => {
                self.scan.apply_scan_enable(inquiry_scan, page_scan);
                if self.tracer.enabled() {
                    self.tracer.emit(TraceEvent::ScanTransition {
                        time: self.now,
                        page_scan: self.scan.page_scan,
                        inquiry_scan: self.scan.inquiry_scan,
                    });
                }
                self.command_complete(Opcode::WRITE_SCAN_ENABLE, StatusCode::Success);
            }
            Command::WriteClassOfDevice { cod } => {
                self.config.cod = cod;
                self.command_complete(Opcode::WRITE_CLASS_OF_DEVICE, StatusCode::Success);
            }
            Command::WriteSimplePairingMode { enabled } => {
                self.ssp_enabled = enabled;
                self.command_complete(Opcode::WRITE_SIMPLE_PAIRING_MODE, StatusCode::Success);
            }
        }
    }

    fn allocate_handle(&mut self) -> ConnectionHandle {
        let in_use: Vec<ConnectionHandle> = self.links.values().map(|l| l.handle).collect();
        self.alloc.allocate(&in_use)
    }

    // --- baseband callbacks --------------------------------------------

    /// A page addressed to our claimed BDADDR arrived and we won the
    /// response race (the simulation already arbitrated).
    pub fn on_incoming_page(&mut self, now: Instant, from: BdAddr, cod: blap_types::ClassOfDevice) {
        self.now = now;
        if !self.scan.page_scan {
            return; // not connectable: the page should never have reached us
        }
        let handle = self.allocate_handle();
        self.links
            .insert(from, LinkEntry::new(handle, from, Role::Responder));
        self.emit_event(Event::ConnectionRequest {
            bd_addr: from,
            cod,
            link_type: 0x01,
        });
    }

    /// The page we initiated concluded without any responder.
    pub fn on_page_result(&mut self, now: Instant, target: BdAddr, outcome: PageOutcome) {
        self.now = now;
        match outcome {
            PageOutcome::TimedOut => {
                self.links.remove(&target);
                self.emit_event(Event::ConnectionComplete {
                    status: StatusCode::PageTimeout,
                    handle: ConnectionHandle::new(0),
                    bd_addr: target,
                    encryption_enabled: false,
                });
            }
        }
    }

    /// One inquiry response arrived.
    pub fn on_inquiry_response(
        &mut self,
        _now: Instant,
        bd_addr: BdAddr,
        cod: blap_types::ClassOfDevice,
    ) {
        self.emit_event(Event::InquiryResult { bd_addr, cod });
    }

    /// The inquiry window closed.
    pub fn on_inquiry_complete(&mut self, _now: Instant) {
        self.emit_event(Event::InquiryComplete {
            status: StatusCode::Success,
        });
    }

    /// A timer armed earlier fired.
    pub fn on_timer(&mut self, now: Instant, timer: ControllerTimer) {
        self.now = now;
        match timer {
            ControllerTimer::LmpResponse { peer } => {
                let Some(link) = self.links.get(&peer) else {
                    return; // link already gone
                };
                let pending_auth = !matches!(link.auth, AuthPhase::Idle | AuthPhase::Complete);
                let pending_ssp = !matches!(link.ssp.phase, SspPhase::Idle | SspPhase::Complete);
                if !(pending_auth || pending_ssp) {
                    return; // procedure finished before the timer fired
                }
                self.stats.lmp_response_timeouts += 1;
                if self.tracer.enabled() {
                    self.tracer.emit(TraceEvent::LmpTimeout { time: now, peer });
                }
                let handle = link.handle;
                let was_verifier = matches!(
                    link.auth,
                    AuthPhase::AwaitHostKey { verifier: true } | AuthPhase::AwaitResponse { .. }
                );
                self.close_auth_span(peer, "timeout");
                self.links.remove(&peer);
                self.send_lmp(
                    peer,
                    LmpPdu::Detach {
                        reason: StatusCode::LmpResponseTimeout,
                    },
                );
                if was_verifier {
                    // The host learns the procedure ended, but crucially the
                    // status is a timeout, not an authentication failure —
                    // so no key deletion (§IV-C of the paper).
                    self.emit_event(Event::AuthenticationComplete {
                        status: StatusCode::LmpResponseTimeout,
                        handle,
                    });
                }
                self.emit_event(Event::DisconnectionComplete {
                    status: StatusCode::Success,
                    handle,
                    reason: StatusCode::LmpResponseTimeout,
                });
            }
        }
    }

    // --- host key / io-cap plumbing --------------------------------------

    fn on_host_key(&mut self, peer: BdAddr, key: Option<LinkKey>) {
        let Some(link) = self.links.get_mut(&peer) else {
            return;
        };
        match (&link.auth.clone(), key) {
            (AuthPhase::AwaitHostKey { verifier: true }, Some(key))
            | (AuthPhase::Idle, Some(key)) => {
                // Verifier has the key: challenge the prover.
                link.session_key = Some(key);
                let mut rand = [0u8; 16];
                self.rng.fill(&mut rand);
                let zero = [0u8; 16];
                let (expected_sres, aco) = ssp::secure_authentication_response(
                    &key,
                    self.config.bd_addr,
                    peer,
                    &rand,
                    &zero,
                );
                let link = self.links.get_mut(&peer).expect("link present");
                link.auth = AuthPhase::AwaitResponse {
                    rand,
                    expected_sres,
                };
                link.aco = Some(aco);
                self.start_lmp_timer(peer);
                self.send_lmp(peer, LmpPdu::AuthChallenge { rand });
            }
            (AuthPhase::AwaitHostKey { verifier: true }, None) => {
                link.auth = AuthPhase::Idle;
                if self.ssp_enabled {
                    // Not bonded: fall into Secure Simple Pairing as
                    // initiator.
                    link.ssp.initiator = true;
                    link.ssp.phase = SspPhase::AwaitHostIoCap;
                    self.emit_event(Event::IoCapabilityRequest { bd_addr: peer });
                } else {
                    // Pre-2.1 stack: legacy PIN pairing (E22/E21).
                    let mut in_rand = [0u8; 16];
                    self.rng.fill(&mut in_rand);
                    let link = self.links.get_mut(&peer).expect("link present");
                    link.legacy.active = true;
                    link.legacy.initiator = true;
                    link.legacy.in_rand = Some(in_rand);
                    self.start_lmp_timer(peer);
                    self.send_lmp(peer, LmpPdu::LegacyInRand { rand: in_rand });
                    self.emit_event(Event::PinCodeRequest { bd_addr: peer });
                }
            }
            (AuthPhase::AwaitHostKeyForChallenge { rand }, Some(key)) => {
                // Prover answers the outstanding challenge.
                link.session_key = Some(key);
                let rand = *rand;
                let zero = [0u8; 16];
                let (sres, aco) = ssp::secure_authentication_response(
                    &key,
                    peer, // verifier's address first
                    self.config.bd_addr,
                    &rand,
                    &zero,
                );
                let link = self.links.get_mut(&peer).expect("link present");
                link.auth = AuthPhase::Complete;
                link.aco = Some(aco);
                self.send_lmp(peer, LmpPdu::AuthResponse { sres });
                self.close_auth_span(peer, "ok");
            }
            (AuthPhase::AwaitHostKeyForChallenge { .. }, None) => {
                link.auth = AuthPhase::Idle;
                self.close_auth_span(peer, "rejected");
                self.send_lmp(
                    peer,
                    LmpPdu::AuthReject {
                        reason: StatusCode::PinOrKeyMissing,
                    },
                );
            }
            _ => {}
        }
    }

    fn on_host_io_cap(&mut self, peer: BdAddr, io: IoCapability, auth_req: u8) {
        let Some(link) = self.links.get_mut(&peer) else {
            return;
        };
        if link.ssp.phase != SspPhase::AwaitHostIoCap {
            return;
        }
        link.ssp.own_io = Some(io);
        link.ssp.own_auth_req = auth_req;
        if link.ssp.initiator {
            link.ssp.phase = SspPhase::AwaitIoCapResponse;
            self.start_lmp_timer(peer);
            self.send_lmp(
                peer,
                LmpPdu::IoCapRequest {
                    io_capability: io,
                    auth_requirements: auth_req,
                },
            );
        } else {
            // Responder: reveal the initiator's caps to the host, answer the
            // LMP request, then wait for the initiator's public key.
            let peer_io = link.ssp.peer_io.expect("responder knows peer io");
            let peer_auth_req = link.ssp.peer_auth_req;
            link.ssp.phase = SspPhase::AwaitPublicKey;
            self.emit_event(Event::IoCapabilityResponse {
                bd_addr: peer,
                io_capability: peer_io,
                oob_data_present: false,
                auth_requirements: peer_auth_req,
            });
            self.start_lmp_timer(peer);
            self.send_lmp(
                peer,
                LmpPdu::IoCapResponse {
                    io_capability: io,
                    auth_requirements: auth_req,
                },
            );
        }
    }

    // --- LMP processing ---------------------------------------------------

    /// Processes one LMP PDU from the peer on the link claiming `from`.
    /// `dh` is the world's DHKey memo: the end of an SSP pairing that
    /// computes its DHKey second takes it from the first end's entry.
    pub fn on_lmp(&mut self, now: Instant, from: BdAddr, pdu: LmpPdu, dh: &mut DhMemo) {
        self.now = now;
        self.stats.lmp_received += 1;
        if self.tracer.enabled() {
            self.tracer.emit(TraceEvent::LmpRecv {
                time: now,
                peer: from,
                pdu: pdu.name(),
            });
        }
        // Wall-clock attribution: the deterministic lmp_auth *span* runs
        // across many scheduler callbacks, so the stack-shaped profiling
        // scope instead covers each auth/pairing PDU's processing.
        let _prof = match &pdu {
            LmpPdu::ConnectionAccepted
            | LmpPdu::ConnectionRejected { .. }
            | LmpPdu::Detach { .. }
            | LmpPdu::KeepAlive => None,
            _ => Some(prof::scope("lmp_auth")),
        };
        match pdu {
            LmpPdu::ConnectionAccepted => {
                if let Some(link) = self.links.get_mut(&from) {
                    link.awaiting_accept = false;
                    let handle = link.handle;
                    self.emit_event(Event::ConnectionComplete {
                        status: StatusCode::Success,
                        handle,
                        bd_addr: from,
                        encryption_enabled: false,
                    });
                }
            }
            LmpPdu::ConnectionRejected { reason } => {
                if self.links.remove(&from).is_some() {
                    self.emit_event(Event::ConnectionComplete {
                        status: reason,
                        handle: ConnectionHandle::new(0),
                        bd_addr: from,
                        encryption_enabled: false,
                    });
                }
            }
            LmpPdu::AuthChallenge { rand } => {
                let Some(link) = self.links.get_mut(&from) else {
                    return;
                };
                if let Some(key) = link.session_key {
                    let zero = [0u8; 16];
                    let (sres, aco) = ssp::secure_authentication_response(
                        &key,
                        from,
                        self.config.bd_addr,
                        &rand,
                        &zero,
                    );
                    link.auth = AuthPhase::Complete;
                    link.aco = Some(aco);
                    self.send_lmp(from, LmpPdu::AuthResponse { sres });
                } else {
                    link.auth = AuthPhase::AwaitHostKeyForChallenge { rand };
                    self.open_auth_span(from);
                    self.emit_event(Event::LinkKeyRequest { bd_addr: from });
                }
            }
            LmpPdu::AuthResponse { sres } => {
                let Some(link) = self.links.get_mut(&from) else {
                    return;
                };
                if let AuthPhase::AwaitResponse { expected_sres, .. } = &link.auth {
                    let handle = link.handle;
                    if sres == *expected_sres {
                        link.auth = AuthPhase::Complete;
                        self.cancel_lmp_timer(from);
                        self.close_auth_span(from, "ok");
                        self.emit_event(Event::AuthenticationComplete {
                            status: StatusCode::Success,
                            handle,
                        });
                    } else {
                        self.links.remove(&from);
                        self.cancel_lmp_timer(from);
                        self.close_auth_span(from, "failed");
                        self.send_lmp(
                            from,
                            LmpPdu::Detach {
                                reason: StatusCode::AuthenticationFailure,
                            },
                        );
                        self.emit_event(Event::AuthenticationComplete {
                            status: StatusCode::AuthenticationFailure,
                            handle,
                        });
                        self.emit_event(Event::DisconnectionComplete {
                            status: StatusCode::Success,
                            handle,
                            reason: StatusCode::AuthenticationFailure,
                        });
                    }
                }
            }
            LmpPdu::AuthReject { reason } => {
                let Some(link) = self.links.get_mut(&from) else {
                    return;
                };
                let handle = link.handle;
                link.auth = AuthPhase::Idle;
                self.cancel_lmp_timer(from);
                self.close_auth_span(from, "rejected");
                self.emit_event(Event::AuthenticationComplete {
                    status: reason,
                    handle,
                });
            }
            LmpPdu::IoCapRequest {
                io_capability,
                auth_requirements,
            } => {
                let Some(link) = self.links.get_mut(&from) else {
                    return;
                };
                link.ssp.initiator = false;
                link.ssp.peer_io = Some(io_capability);
                link.ssp.peer_auth_req = auth_requirements;
                link.ssp.phase = SspPhase::AwaitHostIoCap;
                self.open_auth_span(from);
                self.emit_event(Event::IoCapabilityRequest { bd_addr: from });
            }
            LmpPdu::IoCapResponse {
                io_capability,
                auth_requirements,
            } => {
                let Some(link) = self.links.get_mut(&from) else {
                    return;
                };
                if link.ssp.phase != SspPhase::AwaitIoCapResponse {
                    return;
                }
                link.ssp.peer_io = Some(io_capability);
                link.ssp.peer_auth_req = auth_requirements;
                link.ssp.phase = SspPhase::AwaitPublicKey;
                self.emit_event(Event::IoCapabilityResponse {
                    bd_addr: from,
                    io_capability,
                    oob_data_present: false,
                    auth_requirements,
                });
                // Generate and send our public key.
                let keypair = self.generate_keypair();
                let (x, y) = public_key_bytes(&keypair);
                if let Some(link) = self.links.get_mut(&from) {
                    link.ssp.keypair = Some(keypair);
                }
                self.start_lmp_timer(from);
                self.send_lmp(from, LmpPdu::PublicKey { x, y });
            }
            LmpPdu::PublicKey { x, y } => self.on_peer_public_key(now, from, x, y, dh),
            LmpPdu::Commitment { value } => {
                let Some(link) = self.links.get_mut(&from) else {
                    return;
                };
                if link.ssp.phase != SspPhase::AwaitCommitment {
                    return;
                }
                link.ssp.peer_commitment = Some(value);
                // Initiator now discloses its nonce.
                let nonce = self.generate_nonce();
                if let Some(link) = self.links.get_mut(&from) {
                    link.ssp.own_nonce = Some(nonce);
                    link.ssp.phase = SspPhase::AwaitNonce;
                }
                self.send_lmp(from, LmpPdu::Nonce { value: nonce });
            }
            LmpPdu::Nonce { value } => self.on_peer_nonce(from, value),
            LmpPdu::NumericAccepted => {
                if let Some(link) = self.links.get_mut(&from) {
                    link.ssp.peer_confirmed = true;
                }
                self.maybe_send_dhkey_check(from);
            }
            LmpPdu::NumericRejected => {
                self.abort_pairing(from, StatusCode::AuthenticationFailure);
            }
            LmpPdu::DhkeyCheck { value } => self.on_dhkey_check(from, value),
            LmpPdu::LegacyInRand { rand } => {
                let Some(link) = self.links.get_mut(&from) else {
                    return;
                };
                link.legacy.active = true;
                link.legacy.initiator = false;
                link.legacy.in_rand = Some(rand);
                self.open_auth_span(from);
                self.emit_event(Event::PinCodeRequest { bd_addr: from });
            }
            LmpPdu::LegacyCombKey { value } => {
                let Some(link) = self.links.get_mut(&from) else {
                    return;
                };
                if !link.legacy.active {
                    return;
                }
                link.legacy.peer_comb = Some(value);
                self.maybe_finish_legacy(from);
            }
            LmpPdu::EncryptionMode { enable } => {
                if let Some(link) = self.links.get(&from) {
                    let handle = link.handle;
                    self.apply_encryption(from, enable);
                    self.emit_event(Event::EncryptionChange {
                        status: StatusCode::Success,
                        handle,
                        enabled: enable,
                    });
                }
            }
            LmpPdu::Detach { reason } => {
                if let Some(link) = self.links.remove(&from) {
                    self.cancel_lmp_timer(from);
                    self.close_auth_span(from, "detached");
                    self.emit_event(Event::DisconnectionComplete {
                        status: StatusCode::Success,
                        handle: link.handle,
                        reason,
                    });
                }
            }
            LmpPdu::KeepAlive => {
                // Activity bookkeeping happens in the simulation layer.
            }
        }
    }

    /// The host supplied a PIN for a legacy pairing: derive the
    /// initialization key and send our masked combination-key contribution.
    fn on_host_pin(&mut self, peer: BdAddr, pin: &[u8]) {
        let own_addr = self.config.bd_addr;
        let Some(link) = self.links.get_mut(&peer) else {
            return;
        };
        if !link.legacy.active || pin.is_empty() || pin.len() > 16 {
            return;
        }
        let Some(in_rand) = link.legacy.in_rand else {
            return;
        };
        // The claimant of E22 is the pairing responder's address.
        let claimant = if link.legacy.initiator {
            peer
        } else {
            own_addr
        };
        let k_init = e1::e22(&in_rand, pin, claimant);
        let mut lk_rand = [0u8; 16];
        self.rng.fill(&mut lk_rand);
        let masked = xor16(&lk_rand, &k_init.to_bytes());
        let link = self.links.get_mut(&peer).expect("link present");
        link.legacy.k_init = Some(k_init);
        link.legacy.own_lk_rand = Some(lk_rand);
        self.send_lmp(peer, LmpPdu::LegacyCombKey { value: masked });
        self.maybe_finish_legacy(peer);
    }

    /// Completes a legacy pairing once both contributions are in: the
    /// combination key is `E21(LK_RAND_a, addr_a) XOR E21(LK_RAND_b,
    /// addr_b)` with initiator-first ordering.
    fn maybe_finish_legacy(&mut self, peer: BdAddr) {
        let own_addr = self.config.bd_addr;
        let Some(link) = self.links.get_mut(&peer) else {
            return;
        };
        let (Some(k_init), Some(own_lk_rand), Some(peer_comb)) = (
            link.legacy.k_init,
            link.legacy.own_lk_rand,
            link.legacy.peer_comb,
        ) else {
            return;
        };
        let peer_lk_rand = xor16(&peer_comb, &k_init.to_bytes());
        let initiator = link.legacy.initiator;
        let (init_rand, init_addr, resp_rand, resp_addr) = if initiator {
            (own_lk_rand, own_addr, peer_lk_rand, peer)
        } else {
            (peer_lk_rand, peer, own_lk_rand, own_addr)
        };
        let ka = e1::e21(&init_rand, init_addr);
        let kb = e1::e21(&resp_rand, resp_addr);
        let key = LinkKey::new(xor16(&ka.to_bytes(), &kb.to_bytes()));
        link.session_key = Some(key);
        link.legacy = Default::default();
        self.emit_event(Event::LinkKeyNotification {
            bd_addr: peer,
            link_key: key,
            key_type: LinkKeyType::Combination,
        });
        // Mutual authentication follows: the initiator challenges with the
        // brand-new key, which doubles as a derivation cross-check (a PIN
        // mismatch surfaces as an authentication failure here).
        if initiator {
            self.on_host_key(peer, Some(key));
        } else {
            self.close_auth_span(peer, "ok");
        }
    }

    /// Derives (or clears) the session encryption key for a link via `h3`
    /// over the link key, the central/peripheral addresses and the ACO of
    /// the last authentication (zeros when pairing completed without a
    /// separate authentication round).
    fn apply_encryption(&mut self, peer: BdAddr, enable: bool) {
        let own_addr = self.config.bd_addr;
        let Some(link) = self.links.get_mut(&peer) else {
            return;
        };
        link.encrypted = enable;
        if !enable {
            link.encryption_key = None;
            return;
        }
        let Some(key) = link.session_key else {
            return; // encryption without a key: nothing to derive
        };
        let (central, peripheral) = match link.role {
            Role::Initiator => (own_addr, peer),
            Role::Responder => (peer, own_addr),
        };
        let mut aco_ext = [0u8; 8];
        if let Some(aco) = link.aco {
            aco_ext.copy_from_slice(&aco);
        }
        link.encryption_key = Some(ssp::h3(&key, central, peripheral, &aco_ext));
    }

    /// The session encryption key in force on the link to `peer`, if
    /// encryption is enabled. Read by the simulation's air-sniffer tap to
    /// produce genuine over-the-air ciphertext.
    pub fn encryption_key(&self, peer: BdAddr) -> Option<[u8; 16]> {
        self.links
            .get(&peer)
            .filter(|l| l.encrypted)
            .and_then(|l| l.encryption_key)
    }

    fn generate_keypair(&mut self) -> KeyPair {
        loop {
            let mut bytes = [0u8; 32];
            self.rng.fill(&mut bytes);
            if let Ok(kp) = KeyPair::from_rng_bytes(bytes) {
                return kp;
            }
        }
    }

    fn generate_nonce(&mut self) -> [u8; 16] {
        let mut nonce = [0u8; 16];
        self.rng.fill(&mut nonce);
        nonce
    }

    fn on_peer_public_key(
        &mut self,
        _now: Instant,
        from: BdAddr,
        x: [u8; 32],
        y: [u8; 32],
        dh: &mut DhMemo,
    ) {
        let Some(link) = self.links.get_mut(&from) else {
            return;
        };
        if link.ssp.phase != SspPhase::AwaitPublicKey {
            return;
        }
        // Invalid-curve defence: validate before using.
        let point = Point::Affine {
            x: U256::from_be_bytes(x),
            y: U256::from_be_bytes(y),
        };
        if !point.is_on_curve() {
            self.abort_pairing(from, StatusCode::AuthenticationFailure);
            return;
        }
        link.ssp.peer_pk_x = Some(x);
        link.ssp.peer_pk_y = Some(y);
        let initiator = link.ssp.initiator;

        if initiator {
            // We already sent ours; compute DHKey and wait for commitment.
            let keypair = link.ssp.keypair.clone().expect("initiator has keypair");
            let dhkey = dh
                .diffie_hellman(&keypair, &point)
                .expect("validated public key");
            let link = self.links.get_mut(&from).expect("link present");
            link.ssp.dhkey = Some(dhkey);
            link.ssp.phase = SspPhase::AwaitCommitment;
        } else {
            // Responder: send our key, then commit to a fresh nonce.
            let keypair = self.generate_keypair();
            let dhkey = dh
                .diffie_hellman(&keypair, &point)
                .expect("validated public key");
            let (own_x, own_y) = public_key_bytes(&keypair);
            let nonce = self.generate_nonce();
            // Cb = f1(PKbx, PKax, Nb, 0) — responder key first, per spec.
            let commitment = ssp::f1(&own_x, &x, &nonce, 0);
            let link = self.links.get_mut(&from).expect("link present");
            link.ssp.keypair = Some(keypair);
            link.ssp.dhkey = Some(dhkey);
            link.ssp.own_nonce = Some(nonce);
            link.ssp.phase = SspPhase::AwaitNonce;
            self.send_lmp(from, LmpPdu::PublicKey { x: own_x, y: own_y });
            self.send_lmp(from, LmpPdu::Commitment { value: commitment });
        }
    }

    fn on_peer_nonce(&mut self, from: BdAddr, value: [u8; 16]) {
        let Some(link) = self.links.get_mut(&from) else {
            return;
        };
        if link.ssp.phase != SspPhase::AwaitNonce {
            return;
        }
        link.ssp.peer_nonce = Some(value);
        let initiator = link.ssp.initiator;

        if initiator {
            // Verify the responder's commitment now that Nb is known.
            let own_x = {
                let kp = link.ssp.keypair.as_ref().expect("keypair");
                public_key_bytes(kp).0
            };
            let peer_x = link.ssp.peer_pk_x.expect("peer pk");
            let expected = ssp::f1(&peer_x, &own_x, &value, 0);
            if link.ssp.peer_commitment != Some(expected) {
                self.abort_pairing(from, StatusCode::AuthenticationFailure);
                return;
            }
            self.enter_confirmation(from);
        } else {
            // Responder received Na; reply with Nb, then confirm.
            let own_nonce = link.ssp.own_nonce.expect("responder nonce");
            self.send_lmp(from, LmpPdu::Nonce { value: own_nonce });
            self.enter_confirmation(from);
        }
    }

    /// Computes the numeric value and asks the host for confirmation.
    ///
    /// The controller *always* raises `HCI_User_Confirmation_Request`; the
    /// host decides (per Fig 7 policy and spec generation) whether a human
    /// sees anything. That mirrors real stacks, where Just Works popups are
    /// host policy.
    fn enter_confirmation(&mut self, peer: BdAddr) {
        let Some(link) = self.links.get_mut(&peer) else {
            return;
        };
        link.ssp.phase = SspPhase::AwaitConfirmation;
        let own_x = public_key_bytes(link.ssp.keypair.as_ref().expect("keypair")).0;
        let peer_x = link.ssp.peer_pk_x.expect("peer pk");
        let own_nonce = link.ssp.own_nonce.expect("nonce");
        let peer_nonce = link.ssp.peer_nonce.expect("peer nonce");
        // g(PKax, PKbx, Na, Nb) with initiator-first ordering on both sides.
        let numeric = if link.ssp.initiator {
            ssp::g(&own_x, &peer_x, &own_nonce, &peer_nonce)
        } else {
            ssp::g(&peer_x, &own_x, &peer_nonce, &own_nonce)
        };
        self.start_lmp_timer(peer);
        self.emit_event(Event::UserConfirmationRequest {
            bd_addr: peer,
            numeric_value: numeric,
        });
    }

    fn maybe_send_dhkey_check(&mut self, peer: BdAddr) {
        let Some(link) = self.links.get_mut(&peer) else {
            return;
        };
        if link.ssp.phase != SspPhase::AwaitConfirmation {
            return;
        }
        if !(link.ssp.local_confirmed && link.ssp.peer_confirmed) {
            return;
        }
        link.ssp.phase = SspPhase::AwaitDhkeyCheck;
        if link.ssp.initiator {
            let check = self.compute_own_dhkey_check(peer);
            if let Some(link) = self.links.get_mut(&peer) {
                link.ssp.check_sent = true;
            }
            self.send_lmp(peer, LmpPdu::DhkeyCheck { value: check });
        }
        // The responder waits for the initiator's check first.
    }

    fn compute_own_dhkey_check(&mut self, peer: BdAddr) -> [u8; 16] {
        let link = self.links.get(&peer).expect("link present");
        let dhkey = link.ssp.dhkey.expect("dhkey");
        let own_nonce = link.ssp.own_nonce.expect("nonce");
        let peer_nonce = link.ssp.peer_nonce.expect("peer nonce");
        let io = link.ssp.own_io.expect("own io");
        let io_cap = [io as u8, 0, link.ssp.own_auth_req];
        let zero = [0u8; 16];
        ssp::f3(
            &dhkey,
            &own_nonce,
            &peer_nonce,
            &zero,
            io_cap,
            self.config.bd_addr,
            peer,
        )
    }

    fn expected_peer_dhkey_check(&self, peer: BdAddr) -> [u8; 16] {
        let link = self.links.get(&peer).expect("link present");
        let dhkey = link.ssp.dhkey.expect("dhkey");
        let own_nonce = link.ssp.own_nonce.expect("nonce");
        let peer_nonce = link.ssp.peer_nonce.expect("peer nonce");
        let io = link.ssp.peer_io.expect("peer io");
        let io_cap = [io as u8, 0, link.ssp.peer_auth_req];
        let zero = [0u8; 16];
        ssp::f3(
            &dhkey,
            &peer_nonce,
            &own_nonce,
            &zero,
            io_cap,
            peer,
            self.config.bd_addr,
        )
    }

    fn on_dhkey_check(&mut self, from: BdAddr, value: [u8; 16]) {
        let Some(link) = self.links.get(&from) else {
            return;
        };
        if link.ssp.phase != SspPhase::AwaitDhkeyCheck {
            return;
        }
        if value != self.expected_peer_dhkey_check(from) {
            self.abort_pairing(from, StatusCode::AuthenticationFailure);
            return;
        }
        let link = self.links.get(&from).expect("link present");
        let initiator = link.ssp.initiator;
        if !initiator && !link.ssp.check_sent {
            // Responder verified the initiator's check; send our own back.
            let check = self.compute_own_dhkey_check(from);
            if let Some(link) = self.links.get_mut(&from) {
                link.ssp.check_sent = true;
            }
            self.send_lmp(from, LmpPdu::DhkeyCheck { value: check });
        }
        self.finish_pairing(from);
    }

    fn finish_pairing(&mut self, peer: BdAddr) {
        let Some(link) = self.links.get_mut(&peer) else {
            return;
        };
        let dhkey = link.ssp.dhkey.expect("dhkey");
        let own_nonce = link.ssp.own_nonce.expect("nonce");
        let peer_nonce = link.ssp.peer_nonce.expect("peer nonce");
        let initiator = link.ssp.initiator;
        let handle = link.handle;
        let own_io = link.ssp.own_io.expect("own io");
        let peer_io = link.ssp.peer_io.expect("peer io");

        // f2 over initiator-ordered transcript so both sides agree.
        let key = if initiator {
            ssp::f2(&dhkey, &own_nonce, &peer_nonce, self.config.bd_addr, peer)
        } else {
            ssp::f2(&dhkey, &peer_nonce, &own_nonce, peer, self.config.bd_addr)
        };
        let (init_io, resp_io) = if initiator {
            (own_io, peer_io)
        } else {
            (peer_io, own_io)
        };
        let model = AssociationModel::select(init_io, resp_io);
        let key_type = if model.resists_mitm() {
            LinkKeyType::AuthenticatedP256
        } else {
            LinkKeyType::UnauthenticatedP256
        };

        link.session_key = Some(key);
        link.ssp.phase = SspPhase::Complete;
        link.auth = AuthPhase::Complete;
        self.cancel_lmp_timer(peer);
        self.close_auth_span(peer, "ok");
        self.emit_event(Event::SimplePairingComplete {
            status: StatusCode::Success,
            bd_addr: peer,
        });
        self.emit_event(Event::LinkKeyNotification {
            bd_addr: peer,
            link_key: key,
            key_type,
        });
        if initiator {
            self.emit_event(Event::AuthenticationComplete {
                status: StatusCode::Success,
                handle,
            });
        }
    }

    fn abort_pairing(&mut self, peer: BdAddr, reason: StatusCode) {
        let Some(link) = self.links.get_mut(&peer) else {
            return;
        };
        let handle = link.handle;
        let initiator = link.ssp.initiator;
        let was_pairing = link.ssp.phase != SspPhase::Idle;
        link.ssp = Default::default();
        link.auth = AuthPhase::Idle;
        self.cancel_lmp_timer(peer);
        self.close_auth_span(peer, "failed");
        if was_pairing {
            self.emit_event(Event::SimplePairingComplete {
                status: reason,
                bd_addr: peer,
            });
            if initiator {
                self.emit_event(Event::AuthenticationComplete {
                    status: reason,
                    handle,
                });
            }
        }
    }
}

fn xor16(a: &[u8; 16], b: &[u8; 16]) -> [u8; 16] {
    core::array::from_fn(|i| a[i] ^ b[i])
}

fn public_key_bytes(keypair: &KeyPair) -> ([u8; 32], [u8; 32]) {
    match keypair.public() {
        Point::Affine { x, y } => (x.to_be_bytes(), y.to_be_bytes()),
        Point::Infinity => unreachable!("valid keypair public key is affine"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blap_types::ClassOfDevice;

    fn addr(tag: u8) -> BdAddr {
        BdAddr::new([0x10, 0x20, 0x30, 0x40, 0x50, tag])
    }

    fn controller(tag: u8) -> Controller {
        Controller::new(
            ControllerConfig::new(addr(tag), ClassOfDevice::SMARTPHONE, format!("dev-{tag}")),
            tag as u64,
        )
    }

    fn now() -> Instant {
        Instant::EPOCH
    }

    /// Routes outputs between two controllers and auto-answers host events
    /// with scripted replies, until both output queues drain.
    struct Pump {
        a: Controller,
        b: Controller,
        /// Host events seen per side.
        a_events: Vec<Event>,
        b_events: Vec<Event>,
        /// Scripted host behaviour.
        a_host: HostScript,
        b_host: HostScript,
        /// The DHKey memo a world would lend both controllers.
        dh: DhMemo,
    }

    #[derive(Clone)]
    struct HostScript {
        link_key: Option<LinkKey>,
        io_capability: IoCapability,
        accept_connections: bool,
        confirm_pairing: bool,
        /// The Fig 9 hook: silently drop HCI_Link_Key_Request.
        ignore_link_key_request: bool,
    }

    impl Default for HostScript {
        fn default() -> Self {
            HostScript {
                link_key: None,
                io_capability: IoCapability::DisplayYesNo,
                accept_connections: true,
                confirm_pairing: true,
                ignore_link_key_request: false,
            }
        }
    }

    impl Pump {
        fn new(a: Controller, b: Controller, a_host: HostScript, b_host: HostScript) -> Self {
            Pump {
                a,
                b,
                a_events: Vec::new(),
                b_events: Vec::new(),
                a_host,
                b_host,
                dh: DhMemo::new(),
            }
        }

        /// Establish a baseband link a→b, as the simulation would.
        fn connect(&mut self) {
            let target = self.b.bd_addr();
            self.a.on_command(
                now(),
                Command::CreateConnection {
                    bd_addr: target,
                    allow_role_switch: true,
                },
            );
            // Simulate the page reaching b.
            let from = self.a.bd_addr();
            let cod = self.a.cod();
            self.b.on_incoming_page(now(), from, cod);
            self.run();
        }

        fn run(&mut self) {
            for _ in 0..200 {
                let mut progressed = false;
                for side in [true, false] {
                    let outputs = if side {
                        self.a.drain_outputs()
                    } else {
                        self.b.drain_outputs()
                    };
                    for output in outputs {
                        progressed = true;
                        match output {
                            ControllerOutput::Event(ev) => {
                                if side {
                                    Self::host_react(&mut self.a, &self.a_host, &ev);
                                    self.a_events.push(ev);
                                } else {
                                    Self::host_react(&mut self.b, &self.b_host, &ev);
                                    self.b_events.push(ev);
                                }
                            }
                            ControllerOutput::Lmp { pdu, .. } => {
                                // Route to the other side; "from" is the
                                // sender's claimed address.
                                if side {
                                    let from = self.a.bd_addr();
                                    self.b.on_lmp(now(), from, pdu, &mut self.dh);
                                } else {
                                    let from = self.b.bd_addr();
                                    self.a.on_lmp(now(), from, pdu, &mut self.dh);
                                }
                            }
                            _ => {}
                        }
                    }
                }
                if !progressed {
                    break;
                }
            }
        }

        fn host_react(ctrl: &mut Controller, script: &HostScript, ev: &Event) {
            match ev {
                Event::ConnectionRequest { bd_addr, .. } if script.accept_connections => {
                    ctrl.on_command(
                        now(),
                        Command::AcceptConnectionRequest {
                            bd_addr: *bd_addr,
                            role_switch: false,
                        },
                    );
                }
                Event::LinkKeyRequest { bd_addr } => {
                    if script.ignore_link_key_request {
                        return;
                    }
                    match script.link_key {
                        Some(key) => ctrl.on_command(
                            now(),
                            Command::LinkKeyRequestReply {
                                bd_addr: *bd_addr,
                                link_key: key,
                            },
                        ),
                        None => ctrl.on_command(
                            now(),
                            Command::LinkKeyRequestNegativeReply { bd_addr: *bd_addr },
                        ),
                    }
                }
                Event::IoCapabilityRequest { bd_addr } => {
                    ctrl.on_command(
                        now(),
                        Command::IoCapabilityRequestReply {
                            bd_addr: *bd_addr,
                            io_capability: script.io_capability,
                            oob_data_present: false,
                            auth_requirements: 0x03,
                        },
                    );
                }
                Event::UserConfirmationRequest { bd_addr, .. } => {
                    if script.confirm_pairing {
                        ctrl.on_command(
                            now(),
                            Command::UserConfirmationRequestReply { bd_addr: *bd_addr },
                        );
                    } else {
                        ctrl.on_command(
                            now(),
                            Command::UserConfirmationRequestNegativeReply { bd_addr: *bd_addr },
                        );
                    }
                }
                _ => {}
            }
        }

        fn keys_delivered(&self) -> (Option<LinkKey>, Option<LinkKey>) {
            let find = |events: &[Event]| {
                events.iter().find_map(|e| match e {
                    Event::LinkKeyNotification { link_key, .. } => Some(*link_key),
                    _ => None,
                })
            };
            (find(&self.a_events), find(&self.b_events))
        }
    }

    #[test]
    fn scan_enable_round_trip() {
        let mut c = controller(1);
        c.on_command(
            now(),
            Command::WriteScanEnable {
                inquiry_scan: true,
                page_scan: false,
            },
        );
        assert!(c.scan_state().inquiry_scan);
        assert!(!c.scan_state().page_scan);
        let outs = c.drain_outputs();
        assert!(outs
            .iter()
            .any(|o| matches!(o, ControllerOutput::Event(Event::CommandComplete { .. }))));
    }

    #[test]
    fn create_connection_emits_status_and_page() {
        let mut c = controller(1);
        c.on_command(
            now(),
            Command::CreateConnection {
                bd_addr: addr(2),
                allow_role_switch: true,
            },
        );
        let outs = c.drain_outputs();
        assert!(outs.iter().any(|o| matches!(
            o,
            ControllerOutput::Event(Event::CommandStatus {
                status: StatusCode::Success,
                ..
            })
        )));
        assert!(outs
            .iter()
            .any(|o| matches!(o, ControllerOutput::StartPage { target } if *target == addr(2))));
    }

    #[test]
    fn duplicate_connection_rejected() {
        let mut c = controller(1);
        for _ in 0..2 {
            c.on_command(
                now(),
                Command::CreateConnection {
                    bd_addr: addr(2),
                    allow_role_switch: true,
                },
            );
        }
        let outs = c.drain_outputs();
        assert!(outs.iter().any(|o| matches!(
            o,
            ControllerOutput::Event(Event::CommandStatus {
                status: StatusCode::ConnectionAlreadyExists,
                ..
            })
        )));
    }

    #[test]
    fn page_timeout_reports_connection_complete_failure() {
        let mut c = controller(1);
        c.on_command(
            now(),
            Command::CreateConnection {
                bd_addr: addr(2),
                allow_role_switch: true,
            },
        );
        c.drain_outputs();
        c.on_page_result(now(), addr(2), PageOutcome::TimedOut);
        let outs = c.drain_outputs();
        assert!(outs.iter().any(|o| matches!(
            o,
            ControllerOutput::Event(Event::ConnectionComplete {
                status: StatusCode::PageTimeout,
                ..
            })
        )));
        assert_eq!(c.links().count(), 0);
    }

    #[test]
    fn full_ssp_pairing_derives_matching_keys() {
        let mut pump = Pump::new(
            controller(1),
            controller(2),
            HostScript::default(),
            HostScript::default(),
        );
        pump.connect();
        // Initiate pairing from a.
        let handle = pump.a.link_to(addr(2)).expect("link").handle;
        pump.a
            .on_command(now(), Command::AuthenticationRequested { handle });
        pump.run();

        let (key_a, key_b) = pump.keys_delivered();
        let key_a = key_a.expect("initiator derived a key");
        let key_b = key_b.expect("responder derived a key");
        assert_eq!(key_a, key_b, "both ends must agree on the link key");

        // Initiator saw Authentication_Complete(Success).
        assert!(pump.a_events.iter().any(|e| matches!(
            e,
            Event::AuthenticationComplete {
                status: StatusCode::Success,
                ..
            }
        )));
        // Both sides saw Simple_Pairing_Complete(Success).
        for events in [&pump.a_events, &pump.b_events] {
            assert!(events.iter().any(|e| matches!(
                e,
                Event::SimplePairingComplete {
                    status: StatusCode::Success,
                    ..
                }
            )));
        }
    }

    #[test]
    fn just_works_key_is_unauthenticated() {
        let b_host = HostScript {
            io_capability: IoCapability::NoInputNoOutput,
            ..Default::default()
        };
        let mut pump = Pump::new(controller(1), controller(2), HostScript::default(), b_host);
        pump.connect();
        let handle = pump.a.link_to(addr(2)).expect("link").handle;
        pump.a
            .on_command(now(), Command::AuthenticationRequested { handle });
        pump.run();

        let key_type = pump.a_events.iter().find_map(|e| match e {
            Event::LinkKeyNotification { key_type, .. } => Some(*key_type),
            _ => None,
        });
        assert_eq!(key_type, Some(LinkKeyType::UnauthenticatedP256));
    }

    #[test]
    fn bonded_authentication_succeeds_with_shared_key() {
        let shared: LinkKey = "71a70981f30d6af9e20adee8aafe3264".parse().unwrap();
        let a_host = HostScript {
            link_key: Some(shared),
            ..Default::default()
        };
        let b_host = HostScript {
            link_key: Some(shared),
            ..Default::default()
        };
        let mut pump = Pump::new(controller(1), controller(2), a_host, b_host);
        pump.connect();
        let handle = pump.a.link_to(addr(2)).expect("link").handle;
        pump.a
            .on_command(now(), Command::AuthenticationRequested { handle });
        pump.run();

        assert!(pump.a_events.iter().any(|e| matches!(
            e,
            Event::AuthenticationComplete {
                status: StatusCode::Success,
                ..
            }
        )));
        // No pairing happened: no key notifications.
        assert_eq!(pump.keys_delivered(), (None, None));
    }

    #[test]
    fn bonded_authentication_fails_with_mismatched_keys() {
        let a_host = HostScript {
            link_key: Some("11111111111111111111111111111111".parse().unwrap()),
            ..Default::default()
        };
        let b_host = HostScript {
            link_key: Some("22222222222222222222222222222222".parse().unwrap()),
            ..Default::default()
        };
        let mut pump = Pump::new(controller(1), controller(2), a_host, b_host);
        pump.connect();
        let handle = pump.a.link_to(addr(2)).expect("link").handle;
        pump.a
            .on_command(now(), Command::AuthenticationRequested { handle });
        pump.run();

        assert!(pump.a_events.iter().any(|e| matches!(
            e,
            Event::AuthenticationComplete {
                status: StatusCode::AuthenticationFailure,
                ..
            }
        )));
    }

    #[test]
    fn prover_ignoring_key_request_stalls_until_timeout() {
        // The Fig 9 attack: b (spoofing a bonded peer) never answers its
        // HCI_Link_Key_Request. The verifier's LMP timer then fires, ending
        // with a timeout — not an authentication failure.
        let shared: LinkKey = "71a70981f30d6af9e20adee8aafe3264".parse().unwrap();
        let a_host = HostScript {
            link_key: Some(shared),
            ..Default::default()
        };
        let b_host = HostScript {
            ignore_link_key_request: true,
            ..Default::default()
        };
        let mut pump = Pump::new(controller(1), controller(2), a_host, b_host);
        pump.connect();
        let handle = pump.a.link_to(addr(2)).expect("link").handle;
        pump.a
            .on_command(now(), Command::AuthenticationRequested { handle });
        pump.run();

        // Nothing completed yet — b is stalling.
        assert!(!pump
            .a_events
            .iter()
            .any(|e| matches!(e, Event::AuthenticationComplete { .. })));

        // Fire a's LMP response timer.
        pump.a.on_timer(
            now() + timing::LMP_RESPONSE_TIMEOUT,
            ControllerTimer::LmpResponse { peer: addr(2) },
        );
        pump.run();

        let status = pump.a_events.iter().find_map(|e| match e {
            Event::AuthenticationComplete { status, .. } => Some(*status),
            _ => None,
        });
        assert_eq!(status, Some(StatusCode::LmpResponseTimeout));
        assert!(
            !status.unwrap().invalidates_link_key(),
            "timeout must not wipe the victim's stored key"
        );
        // Link torn down on both sides.
        assert_eq!(pump.a.links().count(), 0);
        assert_eq!(pump.b.links().count(), 0);
    }

    #[test]
    fn user_rejection_aborts_pairing() {
        let b_host = HostScript {
            confirm_pairing: false,
            ..Default::default()
        };
        let mut pump = Pump::new(controller(1), controller(2), HostScript::default(), b_host);
        pump.connect();
        let handle = pump.a.link_to(addr(2)).expect("link").handle;
        pump.a
            .on_command(now(), Command::AuthenticationRequested { handle });
        pump.run();

        assert_eq!(pump.keys_delivered(), (None, None));
        assert!(pump.a_events.iter().any(|e| matches!(
            e,
            Event::SimplePairingComplete {
                status: StatusCode::AuthenticationFailure,
                ..
            }
        )));
    }

    #[test]
    fn non_connectable_device_ignores_pages() {
        let mut c = controller(1);
        c.on_command(
            now(),
            Command::WriteScanEnable {
                inquiry_scan: false,
                page_scan: false,
            },
        );
        c.drain_outputs();
        c.on_incoming_page(now(), addr(2), ClassOfDevice::SMARTPHONE);
        let outs = c.drain_outputs();
        assert!(outs.is_empty(), "silent device must not emit events");
        assert_eq!(c.links().count(), 0);
    }

    #[test]
    fn spoofed_address_is_reported() {
        let mut c = controller(1);
        assert_eq!(c.bd_addr(), addr(1));
        c.set_bd_addr(addr(9));
        assert_eq!(c.bd_addr(), addr(9));
    }

    #[test]
    fn inquiry_emits_results_and_complete() {
        let mut c = controller(1);
        c.on_command(
            now(),
            Command::Inquiry {
                inquiry_length: 8,
                num_responses: 0,
            },
        );
        c.on_inquiry_response(now(), addr(5), ClassOfDevice::HANDS_FREE);
        c.on_inquiry_complete(now());
        let outs = c.drain_outputs();
        assert!(outs.iter().any(|o| matches!(
            o,
            ControllerOutput::Event(Event::InquiryResult { bd_addr, .. }) if *bd_addr == addr(5)
        )));
        assert!(outs
            .iter()
            .any(|o| matches!(o, ControllerOutput::Event(Event::InquiryComplete { .. }))));
    }
}
