//! The controller state machine.
//!
//! [`Controller`] turns host commands, peer LMP PDUs, baseband results and
//! timer expiries into one output queue. Link security runs through the
//! link's [`Procedure`] (see [`crate::links`]). Every input that can move
//! a procedure goes through `Controller::advance`, which takes the
//! procedure out of the link by value, hands it to one handler, and stores
//! the procedure the handler returns. Each handler matches only the
//! variants its input belongs to and hands any other variant back
//! unchanged, so an input outside its phase changes nothing.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::mem;

use blap_baseband::link::HandleAllocator;
use blap_baseband::scan::ScanState;
use blap_baseband::timing;
use blap_crypto::p256::{DhMemo, KeyPair, Point};
use blap_crypto::{bigint::U256, e1, ssp};
use blap_hci::{Command, Event, Opcode, StatusCode};
use blap_obs::{prof, SpanId, TraceEvent, Tracer};
use blap_types::{BdAddr, ConnectionHandle, Duration, Instant, LinkKey, LinkKeyType, Role};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::config::ControllerConfig;
use crate::links::{Caps, Exchange, IoCaps, Legacy, LinkEntry, Procedure, Transcript};
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

    /// Runs one procedure step on the link to `peer`, if there is one: the
    /// link's procedure goes to `step` by value, and the procedure `step`
    /// returns is stored, unless `step` tore the link down.
    fn advance(
        &mut self,
        peer: BdAddr,
        step: impl FnOnce(&mut Self, LinkId, Procedure) -> Procedure,
    ) {
        let Some(link) = self.links.get_mut(&peer) else {
            return;
        };
        let at = LinkId {
            peer,
            handle: link.handle,
        };
        let current = mem::take(&mut link.procedure);
        let next = step(self, at, current);
        if let Some(link) = self.links.get_mut(&peer) {
            link.procedure = next;
        }
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
                if let Some(handle) = self.links.get(&bd_addr).map(|l| l.handle) {
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
                self.advance(bd_addr, |c, at, p| c.on_host_key(at, p, Some(link_key)));
            }
            Command::LinkKeyRequestNegativeReply { bd_addr } => {
                self.command_complete(Opcode::LINK_KEY_REQUEST_NEGATIVE_REPLY, StatusCode::Success);
                self.advance(bd_addr, |c, at, p| c.on_host_key(at, p, None));
            }
            Command::PinCodeRequestReply { bd_addr, pin } => {
                self.command_complete(Opcode::PIN_CODE_REQUEST_REPLY, StatusCode::Success);
                self.advance(bd_addr, |c, at, p| c.on_host_pin(at, p, &pin));
            }
            Command::PinCodeRequestNegativeReply { bd_addr } => {
                self.command_complete(Opcode::PIN_CODE_REQUEST_NEGATIVE_REPLY, StatusCode::Success);
                self.advance(bd_addr, |c, at, p| match p {
                    Procedure::LegacyPin(Legacy { own: None, .. }) => {
                        c.close_auth_span(at.peer, "rejected");
                        let reason = StatusCode::PairingNotAllowed;
                        c.send_lmp(at.peer, LmpPdu::AuthReject { reason });
                        Procedure::Idle
                    }
                    p => p,
                });
            }
            Command::AuthenticationRequested { handle } => match self.peer_by_handle(handle) {
                Some(peer) => {
                    self.command_status(StatusCode::Success, Opcode::AUTHENTICATION_REQUESTED);
                    self.advance(peer, |c, at, p| match p {
                        Procedure::Idle => {
                            c.open_auth_span(at.peer);
                            c.start_lmp_timer(at.peer);
                            c.emit_event(Event::LinkKeyRequest { bd_addr: at.peer });
                            Procedure::AwaitHostKey
                        }
                        p => p,
                    });
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
                let own = IoCaps {
                    io: io_capability,
                    auth_req: auth_requirements,
                };
                self.advance(bd_addr, |c, at, p| c.on_host_io_cap(at, p, own));
            }
            Command::UserConfirmationRequestReply { bd_addr } => {
                self.command_complete(Opcode::USER_CONFIRMATION_REQUEST_REPLY, StatusCode::Success);
                self.advance(bd_addr, |c, at, p| c.on_confirmation(at, p, true, true));
            }
            Command::UserConfirmationRequestNegativeReply { bd_addr } => {
                self.command_complete(
                    Opcode::USER_CONFIRMATION_REQUEST_NEGATIVE_REPLY,
                    StatusCode::Success,
                );
                self.advance(bd_addr, |c, at, p| c.on_confirmation(at, p, true, false));
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
                let verifier = match link.procedure {
                    Procedure::Idle => return, // finished before the timer fired
                    Procedure::AwaitHostKey | Procedure::AwaitSres { .. } => true,
                    _ => false,
                };
                let at = LinkId {
                    peer,
                    handle: link.handle,
                };
                self.stats.lmp_response_timeouts += 1;
                if self.tracer.enabled() {
                    self.tracer.emit(TraceEvent::LmpTimeout { time: now, peer });
                }
                // A verifier's host learns the procedure ended, but crucially
                // the status is a timeout, not an authentication failure — so
                // no key deletion (§IV-C of the paper).
                self.detach(at, "timeout", StatusCode::LmpResponseTimeout, verifier);
            }
        }
    }

    /// Ends the link after a procedure failed or timed out: `LMP_detach` to
    /// the peer, then `Authentication_Complete` (for a verifier) and
    /// `Disconnection_Complete` to the host, all carrying `reason`.
    fn detach(&mut self, at: LinkId, span: &'static str, reason: StatusCode, verifier: bool) {
        self.close_auth_span(at.peer, span);
        self.links.remove(&at.peer);
        self.send_lmp(at.peer, LmpPdu::Detach { reason });
        if verifier {
            self.emit_event(Event::AuthenticationComplete {
                status: reason,
                handle: at.handle,
            });
        }
        self.emit_event(Event::DisconnectionComplete {
            status: StatusCode::Success,
            handle: at.handle,
            reason,
        });
    }

    // --- bonded authentication --------------------------------------------

    fn on_host_key(&mut self, at: LinkId, p: Procedure, key: Option<LinkKey>) -> Procedure {
        match (p, key) {
            (Procedure::AwaitHostKey, Some(key)) => self.challenge(at.peer, key),
            (Procedure::AwaitHostKey, None) if self.ssp_enabled => {
                // Not bonded: fall into Secure Simple Pairing as initiator.
                self.emit_event(Event::IoCapabilityRequest { bd_addr: at.peer });
                Procedure::AwaitHostIoCap { peer: None }
            }
            (Procedure::AwaitHostKey, None) => {
                // Pre-2.1 stack: legacy PIN pairing (E22/E21).
                let in_rand = self.rand128();
                self.start_lmp_timer(at.peer);
                self.send_lmp(at.peer, LmpPdu::LegacyInRand { rand: in_rand });
                self.emit_event(Event::PinCodeRequest { bd_addr: at.peer });
                Procedure::LegacyPin(Legacy {
                    initiator: true,
                    in_rand,
                    own: None,
                    peer_comb: None,
                })
            }
            (Procedure::AwaitHostKeyForChallenge { rand }, Some(key)) => {
                // Prover answers the outstanding challenge.
                let sres = self.sres(at.peer, key, &rand, false);
                self.send_lmp(at.peer, LmpPdu::AuthResponse { sres });
                self.close_auth_span(at.peer, "ok");
                Procedure::Idle
            }
            (Procedure::AwaitHostKeyForChallenge { .. }, None) => {
                self.close_auth_span(at.peer, "rejected");
                let reason = StatusCode::PinOrKeyMissing;
                self.send_lmp(at.peer, LmpPdu::AuthReject { reason });
                Procedure::Idle
            }
            (p, _) => p,
        }
    }

    /// Verifier: challenges the prover under `key` and waits for its SRES.
    fn challenge(&mut self, peer: BdAddr, key: LinkKey) -> Procedure {
        let rand = self.rand128();
        let expected = self.sres(peer, key, &rand, true);
        self.start_lmp_timer(peer);
        self.send_lmp(peer, LmpPdu::AuthChallenge { rand });
        Procedure::AwaitSres { expected }
    }

    /// The SRES for challenge `rand` under `key` (`h4`/`h5`, verifier's
    /// address first). Records the key and the new ACO on the link.
    fn sres(&mut self, peer: BdAddr, key: LinkKey, rand: &[u8; 16], verifier: bool) -> [u8; 4] {
        let own = self.config.bd_addr;
        let (a1, a2) = if verifier { (own, peer) } else { (peer, own) };
        let (sres, aco) = ssp::secure_authentication_response(&key, a1, a2, rand, &[0; 16]);
        if let Some(link) = self.links.get_mut(&peer) {
            link.session_key = Some(key);
            link.aco = aco;
        }
        sres
    }

    fn on_challenge(&mut self, at: LinkId, p: Procedure, rand: [u8; 16]) -> Procedure {
        let Procedure::Idle = p else {
            return p;
        };
        match self.links.get(&at.peer).and_then(|l| l.session_key) {
            Some(key) => {
                let sres = self.sres(at.peer, key, &rand, false);
                self.send_lmp(at.peer, LmpPdu::AuthResponse { sres });
                Procedure::Idle
            }
            None => {
                self.open_auth_span(at.peer);
                self.emit_event(Event::LinkKeyRequest { bd_addr: at.peer });
                Procedure::AwaitHostKeyForChallenge { rand }
            }
        }
    }

    fn on_peer_sres(&mut self, at: LinkId, p: Procedure, sres: [u8; 4]) -> Procedure {
        let Procedure::AwaitSres { expected } = p else {
            return p;
        };
        self.cancel_lmp_timer(at.peer);
        if sres == expected {
            self.close_auth_span(at.peer, "ok");
            self.emit_event(Event::AuthenticationComplete {
                status: StatusCode::Success,
                handle: at.handle,
            });
        } else {
            self.detach(at, "failed", StatusCode::AuthenticationFailure, true);
        }
        Procedure::Idle
    }

    // --- Secure Simple Pairing --------------------------------------------

    fn on_host_io_cap(&mut self, at: LinkId, p: Procedure, own: IoCaps) -> Procedure {
        let Procedure::AwaitHostIoCap { peer } = p else {
            return p;
        };
        let Some(peer) = peer else {
            // Initiator: open the LMP exchange.
            self.start_lmp_timer(at.peer);
            self.send_lmp(
                at.peer,
                LmpPdu::IoCapRequest {
                    io_capability: own.io,
                    auth_requirements: own.auth_req,
                },
            );
            return Procedure::AwaitIoCapResponse { own };
        };
        // Responder: answer the LMP request, then wait for the initiator's
        // public key.
        let pdu = LmpPdu::IoCapResponse {
            io_capability: own.io,
            auth_requirements: own.auth_req,
        };
        let caps = Caps {
            initiator: false,
            own,
            peer,
        };
        self.caps_exchanged(at, caps, None, pdu)
    }

    fn on_peer_io_cap(
        &mut self,
        at: LinkId,
        p: Procedure,
        peer: IoCaps,
        dh: &mut DhMemo,
    ) -> Procedure {
        let Procedure::AwaitIoCapResponse { own } = p else {
            return p;
        };
        // Initiator: our public key goes out before the responder's.
        let (keypair, x, y) = self.generate_keypair(dh);
        let caps = Caps {
            initiator: true,
            own,
            peer,
        };
        self.caps_exchanged(at, caps, Some((keypair, x)), LmpPdu::PublicKey { x, y })
    }

    /// Both IO capabilities are known: reveal the peer's to the host, send
    /// `pdu`, and wait for the peer's public key.
    fn caps_exchanged(
        &mut self,
        at: LinkId,
        caps: Caps,
        keypair: Option<(KeyPair, [u8; 32])>,
        pdu: LmpPdu,
    ) -> Procedure {
        self.emit_event(Event::IoCapabilityResponse {
            bd_addr: at.peer,
            io_capability: caps.peer.io,
            oob_data_present: false,
            auth_requirements: caps.peer.auth_req,
        });
        self.start_lmp_timer(at.peer);
        self.send_lmp(at.peer, pdu);
        Procedure::AwaitPublicKey { caps, keypair }
    }

    fn on_peer_public_key(
        &mut self,
        at: LinkId,
        p: Procedure,
        (x, y): ([u8; 32], [u8; 32]),
        dh: &mut DhMemo,
    ) -> Procedure {
        let Procedure::AwaitPublicKey { caps, keypair } = p else {
            return p;
        };
        // Invalid-curve defence: validate before using.
        let point = Point::Affine {
            x: U256::from_be_bytes(x),
            y: U256::from_be_bytes(y),
        };
        if !point.is_on_curve() {
            return self.fail_pairing(at, caps.initiator);
        }
        // The initiator's key pair went out already; the responder draws
        // its own now.
        let (keypair, own_x, responder_y) = match keypair {
            Some((keypair, own_x)) => (keypair, own_x, None),
            None => {
                let (keypair, own_x, own_y) = self.generate_keypair(dh);
                (keypair, own_x, Some(own_y))
            }
        };
        let Ok(dhkey) = dh.diffie_hellman(&keypair, &point) else {
            return self.fail_pairing(at, caps.initiator);
        };
        let exchange = Exchange {
            caps,
            own_x,
            peer_x: x,
            dhkey,
        };
        let Some(own_y) = responder_y else {
            // Initiator: wait for the responder's commitment.
            return Procedure::AwaitCommitment { exchange };
        };
        // Responder: send our key, then commit to a fresh nonce.
        let nonce = self.rand128();
        // Cb = f1(PKbx, PKax, Nb, 0) — responder key first, per spec.
        let commitment = ssp::f1(&own_x, &x, &nonce, 0);
        self.send_lmp(at.peer, LmpPdu::PublicKey { x: own_x, y: own_y });
        self.send_lmp(at.peer, LmpPdu::Commitment { value: commitment });
        Procedure::AwaitNonce {
            exchange,
            nonce,
            commitment: None,
        }
    }

    fn on_peer_commitment(&mut self, at: LinkId, p: Procedure, value: [u8; 16]) -> Procedure {
        let Procedure::AwaitCommitment { exchange } = p else {
            return p;
        };
        // Initiator now discloses its nonce.
        let nonce = self.rand128();
        self.send_lmp(at.peer, LmpPdu::Nonce { value: nonce });
        Procedure::AwaitNonce {
            exchange,
            nonce,
            commitment: Some(value),
        }
    }

    /// The peer's nonce completes the transcript: compute the numeric value
    /// and ask the host for confirmation.
    ///
    /// The controller *always* raises `HCI_User_Confirmation_Request`; the
    /// host decides (per Fig 7 policy and spec generation) whether a human
    /// sees anything. That mirrors real stacks, where Just Works popups are
    /// host policy.
    fn on_peer_nonce(&mut self, at: LinkId, p: Procedure, peer_nonce: [u8; 16]) -> Procedure {
        let Procedure::AwaitNonce {
            exchange,
            nonce,
            commitment,
        } = p
        else {
            return p;
        };
        match commitment {
            // Initiator: verify the responder's commitment now that Nb is known.
            Some(commitment) => {
                if ssp::f1(&exchange.peer_x, &exchange.own_x, &peer_nonce, 0) != commitment {
                    return self.fail_pairing(at, exchange.caps.initiator);
                }
            }
            // Responder received Na; reply with Nb.
            None => self.send_lmp(at.peer, LmpPdu::Nonce { value: nonce }),
        }
        let addrs = (self.config.bd_addr, at.peer);
        let transcript = Transcript::new(exchange, (nonce, peer_nonce), addrs);
        self.start_lmp_timer(at.peer);
        self.emit_event(Event::UserConfirmationRequest {
            bd_addr: at.peer,
            numeric_value: transcript.numeric(),
        });
        Procedure::AwaitConfirmation {
            transcript,
            local: false,
            peer: false,
        }
    }

    /// A confirmation from the local host (`by_host`) or from the peer.
    /// Each side answers once; when both accepted, the initiator sends its
    /// DHKey check and the responder waits for it.
    fn on_confirmation(
        &mut self,
        at: LinkId,
        p: Procedure,
        by_host: bool,
        accepted: bool,
    ) -> Procedure {
        let Procedure::AwaitConfirmation {
            transcript,
            local,
            peer,
        } = p
        else {
            return p;
        };
        let answered = if by_host { local } else { peer };
        if answered {
            return p;
        }
        if by_host {
            let pdu = match accepted {
                true => LmpPdu::NumericAccepted,
                false => LmpPdu::NumericRejected,
            };
            self.send_lmp(at.peer, pdu);
        }
        if !accepted {
            return self.fail_pairing(at, transcript.initiator);
        }
        let (local, peer) = (local || by_host, peer || !by_host);
        if !(local && peer) {
            return Procedure::AwaitConfirmation {
                transcript,
                local,
                peer,
            };
        }
        if transcript.initiator {
            let value = transcript.dhkey_check(&transcript.own, &transcript.peer);
            self.send_lmp(at.peer, LmpPdu::DhkeyCheck { value });
        }
        Procedure::AwaitDhkeyCheck { transcript }
    }

    fn on_dhkey_check(&mut self, at: LinkId, p: Procedure, value: [u8; 16]) -> Procedure {
        let Procedure::AwaitDhkeyCheck { transcript: t } = p else {
            return p;
        };
        if value != t.dhkey_check(&t.peer, &t.own) {
            return self.fail_pairing(at, t.initiator);
        }
        if !t.initiator {
            // Responder verified the initiator's check; send our own back.
            let value = t.dhkey_check(&t.own, &t.peer);
            self.send_lmp(at.peer, LmpPdu::DhkeyCheck { value });
        }
        let (key, key_type) = t.link_key();
        if let Some(link) = self.links.get_mut(&at.peer) {
            link.session_key = Some(key);
        }
        self.cancel_lmp_timer(at.peer);
        self.close_auth_span(at.peer, "ok");
        self.emit_event(Event::SimplePairingComplete {
            status: StatusCode::Success,
            bd_addr: at.peer,
        });
        self.emit_event(Event::LinkKeyNotification {
            bd_addr: at.peer,
            link_key: key,
            key_type,
        });
        if t.initiator {
            self.emit_event(Event::AuthenticationComplete {
                status: StatusCode::Success,
                handle: at.handle,
            });
        }
        Procedure::Idle
    }

    /// Ends a pairing that failed a check or that a user rejected.
    fn fail_pairing(&mut self, at: LinkId, initiator: bool) -> Procedure {
        let reason = StatusCode::AuthenticationFailure;
        self.cancel_lmp_timer(at.peer);
        self.close_auth_span(at.peer, "failed");
        self.emit_event(Event::SimplePairingComplete {
            status: reason,
            bd_addr: at.peer,
        });
        if initiator {
            self.emit_event(Event::AuthenticationComplete {
                status: reason,
                handle: at.handle,
            });
        }
        Procedure::Idle
    }

    // --- legacy PIN pairing -----------------------------------------------

    /// The host supplied a PIN for a legacy pairing: derive the
    /// initialization key and send our masked combination-key contribution.
    fn on_host_pin(&mut self, at: LinkId, p: Procedure, pin: &[u8]) -> Procedure {
        match p {
            Procedure::LegacyPin(mut legacy)
                if legacy.own.is_none() && (1..=16).contains(&pin.len()) =>
            {
                // The claimant of E22 is the pairing responder's address.
                let claimant = if legacy.initiator {
                    at.peer
                } else {
                    self.config.bd_addr
                };
                let k_init = e1::e22(&legacy.in_rand, pin, claimant);
                let lk_rand = self.rand128();
                let masked = xor16(&lk_rand, &k_init.to_bytes());
                self.send_lmp(at.peer, LmpPdu::LegacyCombKey { value: masked });
                legacy.own = Some((k_init, lk_rand));
                self.legacy_step(at, legacy)
            }
            p => p,
        }
    }

    /// Completes a legacy pairing once both contributions are in: the
    /// combination key is `E21(LK_RAND_a, addr_a) XOR E21(LK_RAND_b,
    /// addr_b)` with initiator-first ordering.
    fn legacy_step(&mut self, at: LinkId, legacy: Legacy) -> Procedure {
        let (Some((k_init, own_lk_rand)), Some(peer_comb)) = (legacy.own, legacy.peer_comb) else {
            return Procedure::LegacyPin(legacy);
        };
        let own_addr = self.config.bd_addr;
        let peer_lk_rand = xor16(&peer_comb, &k_init.to_bytes());
        let (init_rand, init_addr, resp_rand, resp_addr) = if legacy.initiator {
            (own_lk_rand, own_addr, peer_lk_rand, at.peer)
        } else {
            (peer_lk_rand, at.peer, own_lk_rand, own_addr)
        };
        let ka = e1::e21(&init_rand, init_addr);
        let kb = e1::e21(&resp_rand, resp_addr);
        let key = LinkKey::new(xor16(&ka.to_bytes(), &kb.to_bytes()));
        if let Some(link) = self.links.get_mut(&at.peer) {
            link.session_key = Some(key);
        }
        self.emit_event(Event::LinkKeyNotification {
            bd_addr: at.peer,
            link_key: key,
            key_type: LinkKeyType::Combination,
        });
        // Mutual authentication follows: the initiator challenges with the
        // brand-new key, which doubles as a derivation cross-check (a PIN
        // mismatch surfaces as an authentication failure here).
        if legacy.initiator {
            self.challenge(at.peer, key)
        } else {
            self.close_auth_span(at.peer, "ok");
            Procedure::Idle
        }
    }

    // --- LMP processing ---------------------------------------------------

    /// Processes one LMP PDU from the peer on the link claiming `from`.
    /// `dh` is the world's DHKey memo: each key pair drawn here registers
    /// with it, the first end of an SSP pairing runs its DHKey against a
    /// registered peer key as one fixed-base multiplication, and the end
    /// that computes second takes it from the first end's entry.
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
                if let Some(handle) = self.links.get(&from).map(|l| l.handle) {
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
                self.advance(from, |c, at, p| c.on_challenge(at, p, rand));
            }
            LmpPdu::AuthResponse { sres } => {
                self.advance(from, |c, at, p| c.on_peer_sres(at, p, sres));
            }
            // A rejection ends whatever procedure is running.
            LmpPdu::AuthReject { reason } => self.advance(from, |c, at, p| {
                if !matches!(p, Procedure::Idle) {
                    c.cancel_lmp_timer(at.peer);
                    c.close_auth_span(at.peer, "rejected");
                    c.emit_event(Event::AuthenticationComplete {
                        status: reason,
                        handle: at.handle,
                    });
                }
                Procedure::Idle
            }),
            LmpPdu::IoCapRequest {
                io_capability,
                auth_requirements,
            } => self.advance(from, |c, at, p| match p {
                Procedure::Idle => {
                    c.open_auth_span(at.peer);
                    c.emit_event(Event::IoCapabilityRequest { bd_addr: at.peer });
                    let peer = IoCaps {
                        io: io_capability,
                        auth_req: auth_requirements,
                    };
                    Procedure::AwaitHostIoCap { peer: Some(peer) }
                }
                p => p,
            }),
            LmpPdu::IoCapResponse {
                io_capability,
                auth_requirements,
            } => {
                let peer = IoCaps {
                    io: io_capability,
                    auth_req: auth_requirements,
                };
                self.advance(from, |c, at, p| c.on_peer_io_cap(at, p, peer, dh));
            }
            LmpPdu::PublicKey { x, y } => {
                self.advance(from, |c, at, p| c.on_peer_public_key(at, p, (x, y), dh));
            }
            LmpPdu::Commitment { value } => {
                self.advance(from, |c, at, p| c.on_peer_commitment(at, p, value));
            }
            LmpPdu::Nonce { value } => {
                self.advance(from, |c, at, p| c.on_peer_nonce(at, p, value));
            }
            LmpPdu::NumericAccepted => {
                self.advance(from, |c, at, p| c.on_confirmation(at, p, false, true));
            }
            LmpPdu::NumericRejected => {
                self.advance(from, |c, at, p| c.on_confirmation(at, p, false, false));
            }
            LmpPdu::DhkeyCheck { value } => {
                self.advance(from, |c, at, p| c.on_dhkey_check(at, p, value));
            }
            LmpPdu::LegacyInRand { rand } => self.advance(from, |c, at, p| match p {
                Procedure::Idle => {
                    c.open_auth_span(at.peer);
                    c.emit_event(Event::PinCodeRequest { bd_addr: at.peer });
                    Procedure::LegacyPin(Legacy {
                        initiator: false,
                        in_rand: rand,
                        own: None,
                        peer_comb: None,
                    })
                }
                p => p,
            }),
            LmpPdu::LegacyCombKey { value } => self.advance(from, |c, at, p| match p {
                Procedure::LegacyPin(mut legacy) if legacy.peer_comb.is_none() => {
                    legacy.peer_comb = Some(value);
                    c.legacy_step(at, legacy)
                }
                p => p,
            }),
            LmpPdu::EncryptionMode { enable } => {
                if let Some(handle) = self.links.get(&from).map(|l| l.handle) {
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

    /// Derives (or clears) the session encryption key for a link via `h3`
    /// over the link key, the central/peripheral addresses and the ACO of
    /// the last authentication (zeros when pairing completed without a
    /// separate authentication round).
    fn apply_encryption(&mut self, peer: BdAddr, enable: bool) {
        let own_addr = self.config.bd_addr;
        let Some(link) = self.links.get_mut(&peer) else {
            return;
        };
        link.encryption_key = match link.session_key {
            Some(key) if enable => {
                let (central, peripheral) = match link.role {
                    Role::Initiator => (own_addr, peer),
                    Role::Responder => (peer, own_addr),
                };
                Some(ssp::h3(&key, central, peripheral, &link.aco))
            }
            // Off, or on without a key: nothing to derive.
            _ => None,
        };
    }

    /// The session encryption key in force on the link to `peer`, if
    /// encryption is enabled. Read by the simulation's air-sniffer tap to
    /// produce genuine over-the-air ciphertext.
    pub fn encryption_key(&self, peer: BdAddr) -> Option<[u8; 16]> {
        self.links.get(&peer).and_then(|l| l.encryption_key)
    }

    /// Draws a P-256 key pair, registers it with the world's memo `dh`,
    /// and returns it with its public coordinates (big-endian).
    fn generate_keypair(&mut self, dh: &mut DhMemo) -> (KeyPair, [u8; 32], [u8; 32]) {
        loop {
            let mut bytes = [0u8; 32];
            self.rng.fill(&mut bytes);
            // A valid key pair's public point is never at infinity.
            if let Ok(kp) = KeyPair::from_rng_bytes(bytes) {
                if let Point::Affine { x, y } = kp.public() {
                    dh.register(&kp);
                    return (kp, x.to_be_bytes(), y.to_be_bytes());
                }
            }
        }
    }

    /// Draws 128 random bits: a nonce, `IN_RAND`, `LK_RAND` or `AU_RAND`.
    fn rand128(&mut self) -> [u8; 16] {
        let mut value = [0u8; 16];
        self.rng.fill(&mut value);
        value
    }
}

/// The link a procedure step runs on.
#[derive(Clone, Copy)]
struct LinkId {
    peer: BdAddr,
    handle: ConnectionHandle,
}

fn xor16(a: &[u8; 16], b: &[u8; 16]) -> [u8; 16] {
    core::array::from_fn(|i| a[i] ^ b[i])
}

#[cfg(test)]
mod tests {
    use super::*;
    use blap_types::{ClassOfDevice, IoCapability};

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
        /// When set, tampers with the LMP traffic it routes.
        chaos: Option<Chaos>,
    }

    #[derive(Clone)]
    struct HostScript {
        link_key: Option<LinkKey>,
        io_capability: IoCapability,
        accept_connections: bool,
        confirm_pairing: bool,
        /// The Fig 9 hook: silently drop HCI_Link_Key_Request.
        ignore_link_key_request: bool,
        /// A user who never answers HCI_User_Confirmation_Request.
        ignore_user_confirmation: bool,
    }

    impl Default for HostScript {
        fn default() -> Self {
            HostScript {
                link_key: None,
                io_capability: IoCapability::DisplayYesNo,
                accept_connections: true,
                confirm_pairing: true,
                ignore_link_key_request: false,
                ignore_user_confirmation: false,
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
                chaos: None,
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
                                let pdus = match &mut self.chaos {
                                    Some(chaos) => chaos.tamper(side, pdu),
                                    None => vec![pdu],
                                };
                                // Route to the other side; "from" is the
                                // sender's claimed address.
                                for pdu in pdus {
                                    if side {
                                        let from = self.a.bd_addr();
                                        self.b.on_lmp(now(), from, pdu, &mut self.dh);
                                    } else {
                                        let from = self.b.bd_addr();
                                        self.a.on_lmp(now(), from, pdu, &mut self.dh);
                                    }
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
                Event::UserConfirmationRequest { .. } if script.ignore_user_confirmation => {}
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

        /// a's host asks for authentication on its link to b.
        fn authenticate(&mut self) {
            let handle = self.a.link_to(self.b.bd_addr()).expect("link").handle;
            self.a
                .on_command(now(), Command::AuthenticationRequested { handle });
            self.run();
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
        pump.authenticate();

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
        pump.authenticate();

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
        pump.authenticate();

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
        pump.authenticate();

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
        pump.authenticate();

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
        pump.authenticate();

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

    /// Counts a side's events that match `pred`.
    fn count(events: &[Event], pred: impl Fn(&Event) -> bool) -> usize {
        events.iter().filter(|e| pred(e)).count()
    }

    #[test]
    fn second_pairing_on_a_live_link_waits_for_the_user() {
        // A finished pairing, then a keyless re-pairing that b's user never
        // confirms: b must not store a second key.
        let mut pump = Pump::new(
            controller(1),
            controller(2),
            HostScript::default(),
            HostScript::default(),
        );
        pump.connect();
        pump.authenticate();
        let (key_a, key_b) = pump.keys_delivered();
        assert!(key_a.is_some() && key_a == key_b);
        pump.b_host.ignore_user_confirmation = true;
        pump.authenticate();
        let successes = count(&pump.b_events, |e| {
            matches!(
                e,
                Event::SimplePairingComplete {
                    status: StatusCode::Success,
                    ..
                }
            )
        });
        assert_eq!(successes, 1, "no second Simple_Pairing_Complete(Success)");
        let notifications = count(&pump.b_events, |e| {
            matches!(e, Event::LinkKeyNotification { .. })
        });
        assert_eq!(notifications, 1, "no second Link_Key_Notification");

        // A retry after b's user rejected the first attempt: once both users
        // confirm, both ends deliver the same key.
        let b_host = HostScript {
            confirm_pairing: false,
            ..Default::default()
        };
        let mut pump = Pump::new(controller(1), controller(2), HostScript::default(), b_host);
        pump.connect();
        pump.authenticate();
        assert_eq!(pump.keys_delivered(), (None, None));
        pump.b_host.confirm_pairing = true;
        pump.authenticate();
        let (key_a, key_b) = pump.keys_delivered();
        assert!(key_a.is_some(), "the retry completes");
        assert_eq!(key_a, key_b);
    }

    #[test]
    fn stalled_legacy_pairing_times_out() {
        // a is a pre-2.1 stack; b never answers its PIN_Code_Request.
        let mut a = controller(1);
        a.on_command(now(), Command::WriteSimplePairingMode { enabled: false });
        let mut pump = Pump::new(
            a,
            controller(2),
            HostScript::default(),
            HostScript::default(),
        );
        pump.connect();
        pump.authenticate();
        assert_eq!(pump.keys_delivered(), (None, None));

        pump.a.on_timer(
            now() + timing::LMP_RESPONSE_TIMEOUT,
            ControllerTimer::LmpResponse { peer: addr(2) },
        );
        let outs = pump.a.drain_outputs();
        assert!(outs.iter().any(|o| matches!(
            o,
            ControllerOutput::Lmp {
                pdu: LmpPdu::Detach {
                    reason: StatusCode::LmpResponseTimeout
                },
                ..
            }
        )));
        assert!(outs.iter().any(|o| matches!(
            o,
            ControllerOutput::Event(Event::DisconnectionComplete {
                reason: StatusCode::LmpResponseTimeout,
                ..
            })
        )));
        assert_eq!(pump.a.stats().lmp_response_timeouts, 1);
        assert_eq!(pump.a.links().count(), 0);
    }

    /// Seeded tampering with the LMP traffic a [`Pump`] routes: drops,
    /// duplicates, swaps with the next PDU in the same direction, and
    /// injected random PDUs.
    struct Chaos {
        rng: StdRng,
        /// A PDU per direction held back to swap with the next one.
        held: [Option<LmpPdu>; 2],
    }

    impl Chaos {
        fn new(seed: u64) -> Self {
            Chaos {
                rng: StdRng::seed_from_u64(seed),
                held: [None, None],
            }
        }

        /// The PDUs to deliver in place of `pdu`, sent by a when `side`.
        fn tamper(&mut self, side: bool, pdu: LmpPdu) -> Vec<LmpPdu> {
            let held = &mut self.held[usize::from(side)];
            let mut out = Vec::new();
            match self.rng.gen_range(0..20u32) {
                0 => {}
                1 => out.extend([pdu.clone(), pdu]),
                2 if held.is_none() => *held = Some(pdu),
                3 => out.extend([random_pdu(&mut self.rng, &[]), pdu]),
                _ => out.push(pdu),
            }
            if !out.is_empty() {
                out.extend(held.take());
            }
            out
        }
    }

    /// A random public key: mostly off-curve garbage, sometimes a valid
    /// point, sometimes one the victim sent itself (reflection).
    fn public_key(rng: &mut StdRng, seen: &[([u8; 32], [u8; 32])]) -> LmpPdu {
        if !seen.is_empty() && rng.gen_bool(0.3) {
            let (x, y) = seen[rng.gen_range(0..seen.len())];
            return LmpPdu::PublicKey { x, y };
        }
        if rng.gen_bool(0.5) {
            let scalar = blap_crypto::p256::Scalar::from_u64(rng.gen_range(1..1000u64));
            if let Ok(kp) = KeyPair::from_secret(scalar) {
                if let Point::Affine { x, y } = kp.public() {
                    return LmpPdu::PublicKey {
                        x: x.to_be_bytes(),
                        y: y.to_be_bytes(),
                    };
                }
            }
        }
        LmpPdu::PublicKey {
            x: rng.gen(),
            y: rng.gen(),
        }
    }

    /// Any LMP PDU, with random payloads.
    fn random_pdu(rng: &mut StdRng, seen: &[([u8; 32], [u8; 32])]) -> LmpPdu {
        let io = IoCapability::ALL[rng.gen_range(0..4usize)];
        let status = [
            StatusCode::AuthenticationFailure,
            StatusCode::PinOrKeyMissing,
            StatusCode::LmpResponseTimeout,
        ][rng.gen_range(0..3usize)];
        match rng.gen_range(0..18u32) {
            0 => LmpPdu::ConnectionAccepted,
            1 => LmpPdu::ConnectionRejected { reason: status },
            2 => LmpPdu::AuthChallenge { rand: rng.gen() },
            3 => LmpPdu::AuthResponse { sres: rng.gen() },
            4 => LmpPdu::AuthReject { reason: status },
            5 => LmpPdu::IoCapRequest {
                io_capability: io,
                auth_requirements: rng.gen(),
            },
            6 => LmpPdu::IoCapResponse {
                io_capability: io,
                auth_requirements: rng.gen(),
            },
            7 => public_key(rng, seen),
            8 => LmpPdu::Commitment { value: rng.gen() },
            9 => LmpPdu::Nonce { value: rng.gen() },
            10 => LmpPdu::NumericAccepted,
            11 => LmpPdu::NumericRejected,
            12 => LmpPdu::DhkeyCheck { value: rng.gen() },
            13 => LmpPdu::LegacyInRand { rand: rng.gen() },
            14 => LmpPdu::LegacyCombKey { value: rng.gen() },
            15 => LmpPdu::EncryptionMode { enable: rng.gen() },
            16 => LmpPdu::Detach { reason: status },
            _ => LmpPdu::KeepAlive,
        }
    }

    /// Any host reply or request about `peer`'s link.
    fn random_command(rng: &mut StdRng, c: &Controller, peer: BdAddr) -> Command {
        let handle = c
            .link_to(peer)
            .map_or(ConnectionHandle::new(rng.gen_range(0..4)), |l| l.handle);
        let bd_addr = peer;
        match rng.gen_range(0..13u32) {
            0 => Command::LinkKeyRequestReply {
                bd_addr,
                link_key: LinkKey::new(rng.gen()),
            },
            1 => Command::LinkKeyRequestNegativeReply { bd_addr },
            2 => Command::PinCodeRequestReply {
                bd_addr,
                pin: (0..rng.gen_range(0..18usize)).map(|_| rng.gen()).collect(),
            },
            3 => Command::PinCodeRequestNegativeReply { bd_addr },
            4 => Command::IoCapabilityRequestReply {
                bd_addr,
                io_capability: IoCapability::ALL[rng.gen_range(0..4usize)],
                oob_data_present: false,
                auth_requirements: rng.gen(),
            },
            5 => Command::UserConfirmationRequestReply { bd_addr },
            6 => Command::UserConfirmationRequestNegativeReply { bd_addr },
            7 => Command::AuthenticationRequested { handle },
            8 => Command::SetConnectionEncryption {
                handle,
                enable: rng.gen(),
            },
            9 => Command::AcceptConnectionRequest {
                bd_addr,
                role_switch: false,
            },
            10 => Command::CreateConnection {
                bd_addr,
                allow_role_switch: true,
            },
            11 => Command::RejectConnectionRequest {
                bd_addr,
                reason: StatusCode::PairingNotAllowed,
            },
            _ => Command::Disconnect {
                handle,
                reason: StatusCode::RemoteUserTerminated,
            },
        }
    }

    /// One input to a controller under test.
    enum Input {
        Lmp(LmpPdu),
        Host(Command),
        Timer,
        Repage,
    }

    /// What an honest peer or host would give `c` next, read off its
    /// procedure with `peer`, so that random runs also reach the late
    /// steps; `None` when there is no link.
    fn honest_input(rng: &mut StdRng, c: &Controller, peer: BdAddr) -> Option<Input> {
        const NONCE: [u8; 16] = [0x5a; 16];
        let link = c.link_to(peer)?;
        let bd_addr = peer;
        let io = IoCapability::ALL[rng.gen_range(0..4usize)];
        let input = match &link.procedure {
            Procedure::Idle => match rng.gen_range(0..4u32) {
                0 => Input::Host(Command::AuthenticationRequested {
                    handle: link.handle,
                }),
                1 => Input::Lmp(LmpPdu::IoCapRequest {
                    io_capability: io,
                    auth_requirements: 3,
                }),
                2 => Input::Lmp(LmpPdu::LegacyInRand { rand: rng.gen() }),
                _ => Input::Lmp(LmpPdu::AuthChallenge { rand: rng.gen() }),
            },
            Procedure::AwaitHostKey | Procedure::AwaitHostKeyForChallenge { .. } => {
                Input::Host(if rng.gen() {
                    let link_key = LinkKey::new([9; 16]);
                    Command::LinkKeyRequestReply { bd_addr, link_key }
                } else {
                    Command::LinkKeyRequestNegativeReply { bd_addr }
                })
            }
            Procedure::AwaitSres { expected } => Input::Lmp(LmpPdu::AuthResponse {
                sres: if rng.gen() { *expected } else { rng.gen() },
            }),
            Procedure::AwaitHostIoCap { .. } => Input::Host(Command::IoCapabilityRequestReply {
                bd_addr,
                io_capability: io,
                oob_data_present: false,
                auth_requirements: 3,
            }),
            Procedure::AwaitIoCapResponse { .. } => Input::Lmp(LmpPdu::IoCapResponse {
                io_capability: io,
                auth_requirements: 3,
            }),
            Procedure::AwaitPublicKey { .. } => Input::Lmp(public_key(rng, &[])),
            Procedure::AwaitCommitment { exchange } => Input::Lmp(LmpPdu::Commitment {
                value: ssp::f1(&exchange.peer_x, &exchange.own_x, &NONCE, 0),
            }),
            Procedure::AwaitNonce { .. } => Input::Lmp(LmpPdu::Nonce { value: NONCE }),
            Procedure::AwaitConfirmation { .. } => match rng.gen_range(0..5u32) {
                0 => Input::Host(Command::UserConfirmationRequestNegativeReply { bd_addr }),
                1 => Input::Lmp(LmpPdu::NumericRejected),
                2 | 3 => Input::Host(Command::UserConfirmationRequestReply { bd_addr }),
                _ => Input::Lmp(LmpPdu::NumericAccepted),
            },
            Procedure::AwaitDhkeyCheck { transcript: t } => Input::Lmp(LmpPdu::DhkeyCheck {
                value: t.dhkey_check(&t.peer, &t.own),
            }),
            Procedure::LegacyPin(_) => match rng.gen() {
                true => Input::Host(Command::PinCodeRequestReply {
                    bd_addr,
                    pin: b"0000".to_vec(),
                }),
                false => Input::Lmp(LmpPdu::LegacyCombKey { value: rng.gen() }),
            },
        };
        Some(input)
    }

    #[test]
    fn hostile_sequences_never_panic_or_duplicate_links() {
        // A hostile peer at the LMP seam: every PDU variant in any order,
        // off-curve and reflected public keys, random nonces, commitments
        // and checks, every host reply, timer expiries and re-pages, mixed
        // with the inputs an honest peer would send at each step.
        let peer = addr(2);
        let mut keys = 0;
        for seed in 0..2000u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut c = controller(1);
            let enabled = seed % 2 == 0;
            c.on_command(now(), Command::WriteSimplePairingMode { enabled });
            let mut dh = DhMemo::new();
            let mut seen = Vec::new();
            c.on_incoming_page(now(), peer, ClassOfDevice::SMARTPHONE);
            for _ in 0..rng.gen_range(5..45usize) {
                let honest = match rng.gen_bool(0.5) {
                    true => honest_input(&mut rng, &c, peer),
                    false => None,
                };
                let input = honest.unwrap_or_else(|| match rng.gen_range(0..10u32) {
                    0..=4 => Input::Lmp(random_pdu(&mut rng, &seen)),
                    5..=7 => Input::Host(random_command(&mut rng, &c, peer)),
                    8 => Input::Timer,
                    _ => Input::Repage,
                });
                match input {
                    Input::Lmp(pdu) => c.on_lmp(now(), peer, pdu, &mut dh),
                    Input::Host(command) => c.on_command(now(), command),
                    Input::Timer => c.on_timer(now(), ControllerTimer::LmpResponse { peer }),
                    Input::Repage => c.on_incoming_page(now(), peer, ClassOfDevice::SMARTPHONE),
                }
                for output in c.drain_outputs() {
                    match output {
                        ControllerOutput::Lmp {
                            pdu: LmpPdu::PublicKey { x, y },
                            ..
                        } => seen.push((x, y)),
                        ControllerOutput::Event(Event::LinkKeyNotification { .. }) => keys += 1,
                        _ => {}
                    }
                }
                let mut handles: Vec<_> = c.links().map(|l| l.handle).collect();
                assert!(c.links().filter(|l| l.peer == peer).count() <= 1);
                handles.sort();
                handles.dedup();
                assert_eq!(handles.len(), c.links().count(), "seed {seed}");
            }
        }
        assert!(keys > 0, "some runs reach a finished pairing");
    }

    #[test]
    fn tampered_pairings_never_deliver_mismatched_keys() {
        // Honest pairings over a link that drops, duplicates, swaps and
        // injects PDUs: whenever both ends deliver a key, it is the same.
        let mut completed = 0;
        for seed in 0..200u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let script = |rng: &mut StdRng| HostScript {
                io_capability: IoCapability::ALL[rng.gen_range(0..4usize)],
                ..Default::default()
            };
            let (a_host, b_host) = (script(&mut rng), script(&mut rng));
            let mut pump = Pump::new(controller(1), controller(2), a_host, b_host);
            pump.connect();
            pump.chaos = Some(Chaos::new(seed));
            pump.authenticate();
            let last_key = |events: &[Event]| {
                events.iter().rev().find_map(|e| match e {
                    Event::LinkKeyNotification { link_key, .. } => Some(*link_key),
                    _ => None,
                })
            };
            if let (Some(a), Some(b)) = (last_key(&pump.a_events), last_key(&pump.b_events)) {
                assert_eq!(a, b, "seed {seed}");
                completed += 1;
            }
            assert!(pump.a.links().count() <= 1 && pump.b.links().count() <= 1);
        }
        assert!(completed > 0, "some tampered pairings still complete");
    }
}
