//! The host stack state machine: one [`Peer`] record per remote address,
//! from the first page either way until the link goes down. Its [`Link`]
//! and [`Request`] variants each own exactly the data valid in their phase.

use std::collections::{BTreeMap, VecDeque};

use blap_hci::{AclData, Command, Event, StatusCode};
use blap_obs::{prof, SpanId, TraceEvent, Tracer};
use blap_types::{
    AssociationModel, BdAddr, ClassOfDevice, ConnectionHandle, Duration, Instant, IoCapability,
    Role, ServiceUuid,
};

use crate::association::{confirmation_policy, ConfirmationPolicy};
use crate::config::HostConfig;
use crate::keystore::{BondEntry, KeyStore};
use crate::ui::UiNotification;

/// Something the host wants the outside world to do.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HostOutput {
    /// Send an HCI command to the controller.
    Command(Command),
    /// Send ACL data down a link (keep-alive / profile traffic).
    Acl(AclData),
    /// Surface a notification to the user interface.
    Ui(UiNotification),
    /// Arm a timer.
    StartTimer {
        /// Which timer.
        timer: HostTimer,
        /// Relative expiry.
        after: Duration,
    },
}

/// Timers the host arms.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum HostTimer {
    /// Release the PLOC hold for `peer` (Fig 13's fixed delay).
    PlocRelease {
        /// The held peer.
        peer: BdAddr,
    },
    /// Send the next keep-alive frame to `peer`.
    KeepAlive {
        /// The kept-alive peer.
        peer: BdAddr,
    },
}

/// One remote device as this host sees it.
#[derive(Debug)]
struct Peer {
    /// This host's role in opening the current link: `Initiator` when it
    /// paged.
    opened_by: Role,
    link: Link,
    /// This host's own request. It survives a link the peer restarts, so
    /// the §VII-B check still sees who started the pairing.
    request: Option<Request>,
}

/// The ACL link to a peer, one variant per phase.
#[derive(Clone, Copy, Debug)]
enum Link {
    /// A page is in flight.
    Connecting,
    /// Fig 13's PLOC: the controller reported the link up, and this host
    /// holds that `Connection_Complete` until the release timer or the
    /// first pairing event.
    Held {
        handle: ConnectionHandle,
        span: SpanId,
    },
    /// Up and processed. `remote_io` is the peer's IO capability in the
    /// pairing under way, once `IO_Capability_Response` reveals it.
    Up {
        handle: ConnectionHandle,
        remote_io: Option<IoCapability>,
    },
}

impl Link {
    /// The HCI handle, once the controller reported the link up.
    fn handle(self) -> Option<ConnectionHandle> {
        match self {
            Link::Connecting => None,
            Link::Held { handle, .. } | Link::Up { handle, .. } => Some(handle),
        }
    }
}

/// What this host asked of a peer and has not yet seen finish.
#[derive(Debug)]
enum Request {
    /// `pair_with`, or `connect_profile` for `service`: authentication
    /// (pairing, when unbonded) is due or under way, and any pairing is
    /// this host's, as initiator. Owns the `host_pairing` span.
    Authenticate {
        service: Option<ServiceUuid>,
        span: SpanId,
    },
    /// `connect_profile`, authenticated: encryption is under way.
    Encrypt { service: ServiceUuid },
}

impl Peer {
    /// A record for a link coming up, opened by this host or by the peer.
    fn new(opened_by: Role, request: Option<Request>) -> Peer {
        let link = Link::Connecting;
        Peer {
            opened_by,
            link,
            request,
        }
    }
}

impl Request {
    fn service(&self) -> Option<ServiceUuid> {
        match *self {
            Request::Authenticate { service, .. } => service,
            Request::Encrypt { service } => Some(service),
        }
    }
}

/// The simulated host stack. See the crate docs for the role it plays.
#[derive(Debug)]
pub struct Host {
    config: HostConfig,
    keystore: KeyStore,
    /// One record per peer (see the module docs).
    peers: BTreeMap<BdAddr, Peer>,
    outputs: VecDeque<HostOutput>,
    discovered: Vec<(BdAddr, ClassOfDevice)>,
    discovering: bool,
    /// Observability handle (disabled by default; see [`Host::set_tracer`]).
    tracer: Tracer,
    /// Virtual time of the last input, so helpers without a `now` parameter
    /// (e.g. [`Host::install_bond`]) can stamp trace events.
    now: Instant,
}

impl Host {
    /// Creates a host with the given configuration and an empty bond store.
    pub fn new(config: HostConfig) -> Self {
        Host {
            config,
            keystore: KeyStore::new(),
            peers: BTreeMap::new(),
            outputs: VecDeque::new(),
            discovered: Vec::new(),
            discovering: false,
            tracer: Tracer::disabled(),
            now: Instant::EPOCH,
        }
    }

    /// Routes this host's trace events (keystore mutations, attack-phase
    /// markers) to `tracer`. Scope it to the owning device first.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Advances the host's notion of virtual time without delivering an
    /// event. The simulation calls this before scripted actions (e.g. a
    /// user starting pairing) so GAP entry points stamp their trace spans
    /// at the action's true time, not the last event's.
    pub fn sync_time(&mut self, now: Instant) {
        if now > self.now {
            self.now = now;
        }
    }

    /// The host configuration.
    pub fn config(&self) -> &HostConfig {
        &self.config
    }

    /// Mutable configuration access (the attack drivers flip hooks here).
    pub fn config_mut(&mut self) -> &mut HostConfig {
        &mut self.config
    }

    /// The bond store.
    pub fn keystore(&self) -> &KeyStore {
        &self.keystore
    }

    /// Mutable bond store access — used by the paper's fake-bonding
    /// installation (Fig 10) and by tests.
    pub fn keystore_mut(&mut self) -> &mut KeyStore {
        &mut self.keystore
    }

    /// Installs a bond entry, exactly like editing `bt_config.conf`.
    pub fn install_bond(&mut self, peer: BdAddr, entry: BondEntry) {
        self.keystore.store(peer, entry);
        self.trace_keystore(peer, "install");
    }

    /// Whether an ACL link to `peer` is currently up (and processed).
    pub fn is_connected(&self, peer: BdAddr) -> bool {
        self.live_handle(peer).is_some()
    }

    /// Whether a PLOC hold is active for `peer`.
    pub fn in_ploc(&self, peer: BdAddr) -> bool {
        matches!(self.link(peer), Some(Link::Held { .. }))
    }

    /// Drains everything the host produced since the last call.
    pub fn drain_outputs(&mut self) -> Vec<HostOutput> {
        self.outputs.drain(..).collect()
    }

    fn emit(&mut self, output: HostOutput) {
        self.outputs.push_back(output);
    }

    fn cmd(&mut self, command: Command) {
        self.emit(HostOutput::Command(command));
    }

    fn ui(&mut self, notification: UiNotification) {
        self.emit(HostOutput::Ui(notification));
    }

    fn trace_phase(&self, label: &'static str) {
        if self.tracer.enabled() {
            let time = self.now;
            self.tracer.emit(TraceEvent::AttackPhase { time, label });
        }
    }

    fn trace_keystore(&self, peer: BdAddr, action: &'static str) {
        if self.tracer.enabled() {
            let (time, tracer) = (self.now, &self.tracer);
            tracer.emit(TraceEvent::KeystoreMutation { time, peer, action });
        }
    }

    /// Opens a span about `peer`, building its detail only when tracing.
    fn open_span(&self, name: &'static str, peer: BdAddr) -> SpanId {
        if !self.tracer.enabled() {
            return SpanId::NONE;
        }
        self.tracer.open_span(self.now, name, &peer.to_string())
    }

    fn profile_failed(&mut self, peer: BdAddr, service: Option<ServiceUuid>, status: StatusCode) {
        if let Some(service) = service {
            self.ui(UiNotification::ProfileFailed {
                peer,
                service,
                status,
            });
        }
    }

    fn link(&self, peer: BdAddr) -> Option<Link> {
        self.peers.get(&peer).map(|p| p.link)
    }

    /// The handle of `peer`'s processed link.
    fn live_handle(&self, peer: BdAddr) -> Option<ConnectionHandle> {
        match self.link(peer)? {
            Link::Up { handle, .. } => Some(handle),
            _ => None,
        }
    }

    fn peer_by_handle(&self, handle: ConnectionHandle) -> Option<BdAddr> {
        let mut peers = self.peers.iter();
        let (peer, _) = peers.find(|(_, p)| p.link.handle() == Some(handle))?;
        Some(*peer)
    }

    /// This host's role in a pairing with `peer`: the initiator while its
    /// own request waits for authentication.
    fn pairing_role(&self, peer: BdAddr) -> Role {
        match self.peers.get(&peer).and_then(|p| p.request.as_ref()) {
            Some(Request::Authenticate { .. }) => Role::Initiator,
            _ => Role::Responder,
        }
    }

    /// Closes the `host_pairing` span of `peer`'s request, if one is open.
    fn close_pairing_span(&mut self, peer: BdAddr, status: &'static str) {
        if let Some(Some(Request::Authenticate { span, .. })) =
            self.peers.get_mut(&peer).map(|p| &mut p.request)
        {
            let span = std::mem::replace(span, SpanId::NONE);
            self.tracer.close_span(self.now, span, status);
        }
    }

    /// Deletes `peer`'s record: the link is gone and its request dies with
    /// it. Returns the profile that request was connecting.
    fn forget(&mut self, peer: BdAddr, status: &'static str) -> Option<ServiceUuid> {
        let record = self.peers.remove(&peer)?;
        if let Link::Held { span, .. } = record.link {
            self.tracer.close_span(self.now, span, "dropped");
        }
        let request = record.request?;
        if let Request::Authenticate { span, .. } = request {
            self.tracer.close_span(self.now, span, status);
        }
        request.service()
    }

    // --- GAP API (what the user / user agent calls) -----------------------

    /// Starts device discovery.
    pub fn start_discovery(&mut self) {
        self.discovered.clear();
        self.discovering = true;
        self.cmd(Command::Inquiry {
            inquiry_length: 8,
            num_responses: 0,
        });
    }

    /// Makes the device discoverable/connectable (accessory pairing mode).
    pub fn set_discoverable(&mut self, discoverable: bool) {
        self.cmd(Command::WriteScanEnable {
            inquiry_scan: discoverable,
            page_scan: true,
        });
    }

    /// Initiates pairing with `peer`.
    ///
    /// **This method contains the vulnerability the page blocking attack
    /// exploits (Fig 6b step 6).** When an ACL link for `peer`'s address
    /// already exists, the host skips connection establishment and sends
    /// `HCI_Authentication_Requested` down the *existing* link — without
    /// ever verifying who initiated that link. If an attacker pre-planted a
    /// PLOC connection under the accessory's spoofed address, the pairing
    /// request lands on the attacker.
    pub fn pair_with(&mut self, peer: BdAddr) {
        self.request(peer, None);
    }

    /// Establishes a connection to `peer` without any host-layer follow-up.
    ///
    /// For a victim this is a plain connection; for a host whose
    /// [`crate::AttackerHooks::ploc_delay`] is set, the completion event
    /// will be *held* — this is how the attacker enters PLOC.
    pub fn connect_only(&mut self, peer: BdAddr) {
        if !self.peers.contains_key(&peer) {
            self.page(peer, None);
        }
    }

    /// Connects a profile service (e.g. PAN tethering) to `peer`,
    /// authenticating first. For a bonded peer with a valid key this never
    /// shows any pairing UI — which is exactly how the paper *validates*
    /// extracted keys (§VI-B1: "they do not start a new pairing procedure
    /// if the key is correct").
    pub fn connect_profile(&mut self, peer: BdAddr, service: ServiceUuid) {
        self.request(peer, Some(service));
    }

    /// Starts this host's request: down the live link, by paging a peer
    /// with no record, or else once its link comes up. A second request to
    /// one peer joins the first, keeping its open span and its profile.
    fn request(&mut self, peer: BdAddr, service: Option<ServiceUuid>) {
        let earlier = self.peers.get_mut(&peer).and_then(|p| p.request.take());
        let span = match earlier {
            Some(Request::Authenticate { span, .. }) if !span.is_none() => span,
            _ => self.open_span("host_pairing", peer),
        };
        let service = service.or(earlier.and_then(|r| r.service()));
        let request = Some(Request::Authenticate { service, span });
        match self.peers.get_mut(&peer) {
            Some(record) => {
                record.request = request;
                self.authenticate(peer);
            }
            // No link yet: page first (Fig 12a flow).
            None => self.page(peer, request),
        }
    }

    /// Sends `Authentication_Requested` down `peer`'s live link.
    fn authenticate(&mut self, peer: BdAddr) {
        if let Some(handle) = self.live_handle(peer) {
            self.cmd(Command::AuthenticationRequested { handle });
        }
    }

    fn page(&mut self, peer: BdAddr, request: Option<Request>) {
        self.peers.insert(peer, Peer::new(Role::Initiator, request));
        self.cmd(Command::CreateConnection {
            bd_addr: peer,
            allow_role_switch: true,
        });
    }

    /// Sends application data to a connected peer (profile traffic — the
    /// phone-book entries, messages, tethered packets the paper's attacker
    /// is ultimately after). Returns `false` when no processed link exists.
    pub fn send_data(&mut self, peer: BdAddr, payload: Vec<u8>) -> bool {
        let Some(handle) = self.live_handle(peer) else {
            return false;
        };
        self.emit(HostOutput::Acl(AclData::new(handle, payload)));
        true
    }

    /// The user answered a pairing confirmation popup.
    pub fn confirm_pairing(&mut self, peer: BdAddr, accept: bool) {
        if accept {
            self.cmd(Command::UserConfirmationRequestReply { bd_addr: peer });
        } else {
            self.cmd(Command::UserConfirmationRequestNegativeReply { bd_addr: peer });
        }
    }

    /// Tears down the link to `peer`.
    pub fn disconnect(&mut self, peer: BdAddr) {
        if let Some(handle) = self.live_handle(peer) {
            self.cmd(Command::Disconnect {
                handle,
                reason: StatusCode::RemoteUserTerminated,
            });
        }
    }

    // --- timers -----------------------------------------------------------

    /// A host timer fired.
    pub fn on_timer(&mut self, now: Instant, timer: HostTimer) {
        self.now = now;
        match timer {
            HostTimer::PlocRelease { peer } => self.release_ploc(peer),
            HostTimer::KeepAlive { peer } => {
                // Only while the PLOC hold (or the link) is still alive.
                if let Some(handle) = self.link(peer).and_then(Link::handle) {
                    self.trace_phase("ploc_keepalive");
                    // A dummy SDP service-search PDU.
                    self.emit(HostOutput::Acl(AclData::new(
                        handle,
                        vec![0x02, 0x00, 0x01, 0x00, 0x00],
                    )));
                    self.keep_alive(peer);
                }
            }
        }
    }

    /// Fig 13 hook: holds the `Connection_Complete` of a link coming up
    /// that this host has no request of its own on. Returns whether it did.
    fn hold(&mut self, peer: BdAddr, handle: ConnectionHandle) -> bool {
        let Some(delay) = self.config.attacker.ploc_delay else {
            return false;
        };
        let waiting = |p: &Peer| matches!((p.link, &p.request), (Link::Connecting, None));
        if !self.peers.get(&peer).is_some_and(waiting) {
            return false;
        }
        let _prof = prof::scope("ploc");
        self.trace_phase("ploc_hold");
        let span = self.open_span("ploc", peer);
        if let Some(record) = self.peers.get_mut(&peer) {
            record.link = Link::Held { handle, span };
        }
        let (timer, after) = (HostTimer::PlocRelease { peer }, delay);
        self.emit(HostOutput::StartTimer { timer, after });
        if self.config.attacker.ploc_keepalive {
            self.keep_alive(peer);
        }
        true
    }

    /// Arms the next keep-alive for `peer`.
    fn keep_alive(&mut self, peer: BdAddr) {
        let after = self.config.keepalive_interval;
        let timer = HostTimer::KeepAlive { peer };
        self.emit(HostOutput::StartTimer { timer, after });
    }

    /// Ends the PLOC hold: processes the held `Connection_Complete`.
    ///
    /// Called by the release timer, or early when pairing-related traffic
    /// arrives (the paper: "the host should stop the postponement when a
    /// pairing procedure is initiated by M").
    fn release_ploc(&mut self, peer: BdAddr) {
        if let Some(Link::Held { handle, .. }) = self.link(peer) {
            self.trace_phase("ploc_release");
            self.connection_complete(peer, handle);
        }
    }

    // --- ACL --------------------------------------------------------------

    /// ACL data arrived from `peer` (profile traffic / keep-alives).
    pub fn on_acl(&mut self, _now: Instant, _peer: BdAddr, _data: &AclData) {
        // Keep-alives need no reply; profile data is out of scope beyond
        // the connection-establishment semantics the attacks rely on.
    }

    // --- HCI event processing ----------------------------------------------

    /// Processes one HCI event from the controller.
    pub fn on_event(&mut self, now: Instant, event: Event) {
        self.now = now;
        if let Event::ConnectionComplete {
            status: StatusCode::Success,
            bd_addr,
            handle,
            ..
        } = event
        {
            if self.hold(bd_addr, handle) {
                return;
            }
        }
        let pairing = pairing_peer(&event);
        if let (Some(peer), Some(_)) = (pairing, self.config.attacker.ploc_delay) {
            // Pairing traffic for a held peer releases the hold first.
            self.release_ploc(peer);
        }
        // Stack-shaped counterpart of the causal host_pairing span, which
        // stays open across scheduler callbacks: attribute each pairing
        // event's processing instead.
        let _prof = pairing.map(|_| prof::scope("host_pairing"));
        self.process_event(event);
    }

    /// `peer`'s link is up under `handle`; a request waiting for it starts.
    fn connection_complete(&mut self, peer: BdAddr, handle: ConnectionHandle) {
        let inbound = Peer::new(Role::Responder, None);
        let record = self.peers.entry(peer).or_insert(inbound);
        let remote_io = match record.link {
            Link::Connecting => None,
            Link::Held { span, .. } => {
                self.tracer.close_span(self.now, span, "released");
                None
            }
            Link::Up { remote_io, .. } => remote_io,
        };
        let start = !matches!(record.link, Link::Up { .. })
            && matches!(record.request, Some(Request::Authenticate { .. }));
        record.link = Link::Up { handle, remote_io };
        self.ui(UiNotification::ConnectionEstablished { peer });
        if start {
            self.authenticate(peer);
        }
    }

    fn process_event(&mut self, event: Event) {
        match event {
            Event::InquiryResult { bd_addr, cod } => {
                if self.discovering && !self.discovered.iter().any(|(a, _)| *a == bd_addr) {
                    self.discovered.push((bd_addr, cod));
                }
            }
            Event::InquiryComplete { .. } => {
                if self.discovering {
                    self.discovering = false;
                    let devices = self.discovered.clone();
                    self.ui(UiNotification::DiscoveryComplete { devices });
                }
            }
            Event::ConnectionRequest { bd_addr, .. } => {
                // Accept inbound connections: the host cannot know yet
                // whether the pager is legitimate — the paper's point. A
                // peer with a record restarts its link as peer-opened.
                let inbound = Peer::new(Role::Responder, None);
                let record = self.peers.entry(bd_addr).or_insert(inbound);
                record.opened_by = Role::Responder;
                if let Link::Held { span, .. } =
                    std::mem::replace(&mut record.link, Link::Connecting)
                {
                    self.tracer.close_span(self.now, span, "dropped");
                }
                self.cmd(Command::AcceptConnectionRequest {
                    bd_addr,
                    role_switch: false,
                });
            }
            Event::ConnectionComplete {
                status,
                handle,
                bd_addr,
                ..
            } => {
                if status.is_success() {
                    self.connection_complete(bd_addr, handle);
                    return;
                }
                let service = self.forget(bd_addr, "connect_failed");
                self.profile_failed(bd_addr, service, status);
                let peer = bd_addr;
                self.ui(UiNotification::ConnectFailed { peer, status });
            }
            Event::DisconnectionComplete { handle, reason, .. } => {
                let Some(peer) = self.peer_by_handle(handle) else {
                    return;
                };
                let service = self.forget(peer, "dropped");
                self.profile_failed(peer, service, reason);
            }
            Event::PinCodeRequest { bd_addr } => match self.config.pin.clone() {
                Some(pin) if !pin.is_empty() => {
                    self.cmd(Command::PinCodeRequestReply { bd_addr, pin });
                }
                _ => {
                    self.cmd(Command::PinCodeRequestNegativeReply { bd_addr });
                }
            },
            Event::LinkKeyRequest { bd_addr } => {
                // Fig 9 hook: the attacker's host simply never answers.
                if self.config.attacker.ignore_link_key_request {
                    self.trace_phase("fig9_drop_link_key_request");
                    return;
                }
                match self.keystore.get(bd_addr) {
                    Some(entry) => {
                        let link_key = entry.link_key;
                        self.cmd(Command::LinkKeyRequestReply { bd_addr, link_key });
                    }
                    None => {
                        self.cmd(Command::LinkKeyRequestNegativeReply { bd_addr });
                    }
                }
            }
            Event::IoCapabilityRequest { bd_addr } => {
                // A new pairing: the peer's capability is not known yet.
                if let Some(Link::Up { remote_io, .. }) =
                    self.peers.get_mut(&bd_addr).map(|p| &mut p.link)
                {
                    *remote_io = None;
                }
                let io_capability = self.config.io_capability;
                let auth_requirements = self.config.auth_requirements;
                self.cmd(Command::IoCapabilityRequestReply {
                    bd_addr,
                    io_capability,
                    oob_data_present: false,
                    auth_requirements,
                });
            }
            Event::IoCapabilityResponse {
                bd_addr,
                io_capability,
                ..
            } => {
                let role = self.pairing_role(bd_addr);
                let Some(record) = self.peers.get_mut(&bd_addr) else {
                    return;
                };
                let Link::Up { remote_io, .. } = &mut record.link else {
                    return;
                };
                *remote_io = Some(io_capability);
                // §VII-B mitigation: pairing initiator + connection
                // responder + NoInputNoOutput connection initiator = the
                // page blocking fingerprint.
                if self.config.mitigations.reject_noio_connection_initiator
                    && role == Role::Initiator
                    && record.opened_by == Role::Responder
                    && io_capability == IoCapability::NoInputNoOutput
                {
                    // The abort ends this peer's request, and only its.
                    let request = record.request.take();
                    self.ui(UiNotification::SecurityAlert {
                        peer: bd_addr,
                        reason: "pairing initiated locally over a remotely-initiated \
                                 connection from a NoInputNoOutput device; dropping \
                                 (page blocking suspected)"
                            .to_owned(),
                    });
                    if let Some(Request::Authenticate { span, .. }) = request {
                        self.tracer.close_span(self.now, span, "aborted");
                    }
                    self.disconnect(bd_addr);
                }
            }
            Event::UserConfirmationRequest {
                bd_addr,
                numeric_value,
            } => {
                let pairing_role = self.pairing_role(bd_addr);
                let remote_io = match self.link(bd_addr) {
                    Some(Link::Up {
                        remote_io: Some(io),
                        ..
                    }) => io,
                    _ => IoCapability::NoInputNoOutput,
                };
                let (init_io, resp_io) = match pairing_role {
                    Role::Initiator => (self.config.io_capability, remote_io),
                    Role::Responder => (remote_io, self.config.io_capability),
                };
                let model = AssociationModel::select(init_io, resp_io);
                let policy = confirmation_policy(
                    self.config.version.generation(),
                    self.config.io_capability,
                    model,
                    pairing_role,
                );
                match policy {
                    ConfirmationPolicy::AutoConfirm => {
                        self.cmd(Command::UserConfirmationRequestReply { bd_addr });
                    }
                    ConfirmationPolicy::YesNoPopup => {
                        self.ui(UiNotification::PairingConfirmation {
                            peer: bd_addr,
                            numeric: None,
                        });
                    }
                    ConfirmationPolicy::NumericPopup => {
                        self.ui(UiNotification::PairingConfirmation {
                            peer: bd_addr,
                            numeric: Some(numeric_value),
                        });
                    }
                }
            }
            Event::LinkKeyNotification {
                bd_addr,
                link_key,
                key_type,
            } => {
                if self.config.mitigations.detect_key_type_downgrade {
                    let downgraded = self
                        .keystore
                        .get(bd_addr)
                        .map(|old| old.key_type.is_authenticated() && !key_type.is_authenticated())
                        .unwrap_or(false);
                    if downgraded {
                        self.ui(UiNotification::SecurityAlert {
                            peer: bd_addr,
                            reason: "re-pairing downgraded an authenticated bond to \
                                     Just Works; keeping the old key and dropping the \
                                     link (downgrade suspected)"
                                .to_owned(),
                        });
                        self.close_pairing_span(bd_addr, "aborted");
                        self.disconnect(bd_addr);
                        return;
                    }
                }
                let name = self
                    .discovered
                    .iter()
                    .find(|(a, _)| *a == bd_addr)
                    .map(|_| blap_types::DeviceName::new(format!("{bd_addr}")));
                self.keystore.store(
                    bd_addr,
                    BondEntry {
                        name,
                        link_key,
                        key_type,
                        services: Vec::new(),
                    },
                );
                self.trace_keystore(bd_addr, "store");
                self.ui(UiNotification::BondStored { peer: bd_addr });
            }
            Event::SimplePairingComplete { status, bd_addr } => {
                let (peer, success) = (bd_addr, status.is_success());
                self.ui(UiNotification::PairingComplete { peer, success });
                // A failed pairing fails the profile. An authentication
                // under way keeps its span for its own completion.
                let request = match self.peers.get_mut(&peer) {
                    Some(record) if !success => &mut record.request,
                    _ => return,
                };
                let service = match request {
                    Some(Request::Authenticate { service, .. }) => service.take(),
                    encrypting => encrypting.take().and_then(|r| r.service()),
                };
                self.profile_failed(peer, service, status);
            }
            Event::AuthenticationComplete { status, handle } => {
                let Some(peer) = self.peer_by_handle(handle) else {
                    return;
                };
                self.close_pairing_span(peer, if status.is_success() { "ok" } else { "failed" });
                self.ui(UiNotification::AuthenticationOutcome { peer, status });
                if status.invalidates_link_key() && self.keystore.remove(peer).is_some() {
                    self.trace_keystore(peer, "remove");
                    self.ui(UiNotification::BondLost { peer });
                }
                // This host's request moves on: a profile to encryption, a
                // pairing to done. A failure ends either.
                let request = self.peers.get_mut(&peer).and_then(|p| p.request.take());
                let next = match request {
                    Some(request) if !status.is_success() => {
                        self.profile_failed(peer, request.service(), status);
                        None
                    }
                    Some(Request::Authenticate {
                        service: Some(service),
                        ..
                    }) => {
                        self.cmd(Command::SetConnectionEncryption {
                            handle,
                            enable: true,
                        });
                        Some(Request::Encrypt { service })
                    }
                    Some(Request::Authenticate { .. }) => None,
                    encrypting => encrypting,
                };
                if let Some(record) = self.peers.get_mut(&peer) {
                    record.request = next;
                }
            }
            Event::EncryptionChange {
                status,
                handle,
                enabled,
            } => {
                let Some(peer) = self.peer_by_handle(handle) else {
                    return;
                };
                let Some(record) = self.peers.get_mut(&peer) else {
                    return;
                };
                if let (true, Some(Request::Encrypt { service })) =
                    (status.is_success() && enabled, &record.request)
                {
                    let service = *service;
                    record.request = None;
                    // Profile-level traffic: one SDP-ish exchange.
                    self.emit(HostOutput::Acl(AclData::new(
                        handle,
                        vec![0x06, 0x00, 0x01, 0x00, 0x0f],
                    )));
                    self.ui(UiNotification::ProfileConnected { peer, service });
                }
            }
            // The host pages only an address it holds no record for, and a
            // controller refuses a page only for an address it already
            // links, which it reports first: no command status is news.
            Event::CommandStatus { .. } | Event::CommandComplete { .. } => {}
        }
    }
}

/// The peer of a pairing event, the kind that releases a PLOC hold.
fn pairing_peer(event: &Event) -> Option<BdAddr> {
    match event {
        Event::LinkKeyRequest { bd_addr }
        | Event::IoCapabilityRequest { bd_addr }
        | Event::IoCapabilityResponse { bd_addr, .. }
        | Event::UserConfirmationRequest { bd_addr, .. } => Some(*bd_addr),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AttackerHooks, HostConfig};
    use blap_types::{BtVersion, LinkKey, LinkKeyType};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::btree_map::Entry;

    fn addr(tag: u8) -> BdAddr {
        BdAddr::new([0xAA, 0, 0, 0, 0, tag])
    }

    fn key() -> LinkKey {
        "71a70981f30d6af9e20adee8aafe3264".parse().unwrap()
    }

    fn now() -> Instant {
        Instant::EPOCH
    }

    fn connected_phone(peer: BdAddr) -> Host {
        let mut host = Host::new(HostConfig::phone(BtVersion::V5_0));
        host.on_event(
            now(),
            Event::ConnectionRequest {
                bd_addr: peer,
                cod: ClassOfDevice::HANDS_FREE,
                link_type: 1,
            },
        );
        host.on_event(
            now(),
            Event::ConnectionComplete {
                status: StatusCode::Success,
                handle: ConnectionHandle::new(3),
                bd_addr: peer,
                encryption_enabled: false,
            },
        );
        host.drain_outputs();
        host
    }

    #[test]
    fn pair_with_unconnected_peer_pages_first() {
        let mut host = Host::new(HostConfig::phone(BtVersion::V5_0));
        host.pair_with(addr(1));
        let outs = host.drain_outputs();
        assert!(outs.iter().any(|o| matches!(
            o,
            HostOutput::Command(Command::CreateConnection { bd_addr, .. }) if *bd_addr == addr(1)
        )));
        // Fig 12a: Authentication_Requested only after Connection_Complete.
        host.on_event(
            now(),
            Event::ConnectionComplete {
                status: StatusCode::Success,
                handle: ConnectionHandle::new(6),
                bd_addr: addr(1),
                encryption_enabled: false,
            },
        );
        let outs = host.drain_outputs();
        assert!(outs.iter().any(|o| matches!(
            o,
            HostOutput::Command(Command::AuthenticationRequested { .. })
        )));
    }

    #[test]
    fn pair_with_connected_peer_skips_paging() {
        // The page blocking vulnerability: an existing (attacker-planted)
        // link short-circuits connection establishment.
        let mut host = connected_phone(addr(1));
        host.pair_with(addr(1));
        let outs = host.drain_outputs();
        assert!(
            outs.iter().any(|o| matches!(
                o,
                HostOutput::Command(Command::AuthenticationRequested { .. })
            )),
            "pairing must ride the existing link"
        );
        assert!(
            !outs
                .iter()
                .any(|o| matches!(o, HostOutput::Command(Command::CreateConnection { .. }))),
            "no new page when a link already exists"
        );
    }

    #[test]
    fn link_key_request_answered_from_keystore() {
        let mut host = connected_phone(addr(1));
        host.install_bond(
            addr(1),
            BondEntry {
                name: None,
                link_key: key(),
                key_type: LinkKeyType::UnauthenticatedP256,
                services: vec![],
            },
        );
        host.on_event(now(), Event::LinkKeyRequest { bd_addr: addr(1) });
        let outs = host.drain_outputs();
        assert!(outs.iter().any(|o| matches!(
            o,
            HostOutput::Command(Command::LinkKeyRequestReply { link_key, .. }) if *link_key == key()
        )));
    }

    #[test]
    fn link_key_request_negative_when_unbonded() {
        let mut host = connected_phone(addr(1));
        host.on_event(now(), Event::LinkKeyRequest { bd_addr: addr(1) });
        let outs = host.drain_outputs();
        assert!(outs.iter().any(|o| matches!(
            o,
            HostOutput::Command(Command::LinkKeyRequestNegativeReply { .. })
        )));
    }

    #[test]
    fn fig9_hook_drops_link_key_request() {
        let mut host = connected_phone(addr(1));
        host.config_mut().attacker.ignore_link_key_request = true;
        host.install_bond(
            addr(1),
            BondEntry {
                name: None,
                link_key: key(),
                key_type: LinkKeyType::UnauthenticatedP256,
                services: vec![],
            },
        );
        host.on_event(now(), Event::LinkKeyRequest { bd_addr: addr(1) });
        assert!(
            host.drain_outputs().is_empty(),
            "attacker host must stay silent"
        );
    }

    #[test]
    fn auth_failure_wipes_bond_timeout_does_not() {
        for (status, expect_bond_after) in [
            (StatusCode::AuthenticationFailure, false),
            (StatusCode::LmpResponseTimeout, true),
        ] {
            let mut host = connected_phone(addr(1));
            host.install_bond(
                addr(1),
                BondEntry {
                    name: None,
                    link_key: key(),
                    key_type: LinkKeyType::UnauthenticatedP256,
                    services: vec![],
                },
            );
            host.on_event(
                now(),
                Event::AuthenticationComplete {
                    status,
                    handle: ConnectionHandle::new(3),
                },
            );
            assert_eq!(
                host.keystore().get(addr(1)).is_some(),
                expect_bond_after,
                "bond survival after {status}"
            );
        }
    }

    #[test]
    fn ploc_holds_connection_complete() {
        let mut host = Host::new(HostConfig::phone(BtVersion::V4_2));
        host.config_mut().attacker = AttackerHooks {
            ignore_link_key_request: false,
            ploc_delay: Some(Duration::from_secs(10)),
            ploc_keepalive: true,
        };
        host.connect_only(addr(1));
        host.drain_outputs();
        host.on_event(
            now(),
            Event::ConnectionComplete {
                status: StatusCode::Success,
                handle: ConnectionHandle::new(2),
                bd_addr: addr(1),
                encryption_enabled: false,
            },
        );
        assert!(host.in_ploc(addr(1)));
        assert!(!host.is_connected(addr(1)), "host layer must not progress");
        let outs = host.drain_outputs();
        assert!(outs.iter().any(|o| matches!(
            o,
            HostOutput::StartTimer {
                timer: HostTimer::PlocRelease { .. },
                ..
            }
        )));
        assert!(outs.iter().any(|o| matches!(
            o,
            HostOutput::StartTimer {
                timer: HostTimer::KeepAlive { .. },
                ..
            }
        )));

        // Release by timer: the held event is processed.
        host.on_timer(
            now() + Duration::from_secs(10),
            HostTimer::PlocRelease { peer: addr(1) },
        );
        assert!(!host.in_ploc(addr(1)));
        assert!(host.is_connected(addr(1)));
    }

    #[test]
    fn pairing_event_releases_ploc_early() {
        let mut host = Host::new(HostConfig::attacker());
        host.connect_only(addr(1));
        host.drain_outputs();
        host.on_event(
            now(),
            Event::ConnectionComplete {
                status: StatusCode::Success,
                handle: ConnectionHandle::new(2),
                bd_addr: addr(1),
                encryption_enabled: false,
            },
        );
        assert!(host.in_ploc(addr(1)));
        // The victim started pairing: IO capability request arrives.
        host.on_event(now(), Event::IoCapabilityRequest { bd_addr: addr(1) });
        assert!(!host.in_ploc(addr(1)), "pairing must end the hold");
        let outs = host.drain_outputs();
        assert!(outs.iter().any(|o| matches!(
            o,
            HostOutput::Command(Command::IoCapabilityRequestReply {
                io_capability: IoCapability::NoInputNoOutput,
                ..
            })
        )));
    }

    #[test]
    fn keepalive_timer_sends_acl_and_rearms() {
        let mut host = Host::new(HostConfig::attacker());
        host.connect_only(addr(1));
        host.drain_outputs();
        host.on_event(
            now(),
            Event::ConnectionComplete {
                status: StatusCode::Success,
                handle: ConnectionHandle::new(2),
                bd_addr: addr(1),
                encryption_enabled: false,
            },
        );
        host.drain_outputs();
        host.on_timer(
            now() + Duration::from_secs(5),
            HostTimer::KeepAlive { peer: addr(1) },
        );
        let outs = host.drain_outputs();
        assert!(outs.iter().any(|o| matches!(o, HostOutput::Acl(_))));
        assert!(outs.iter().any(|o| matches!(
            o,
            HostOutput::StartTimer {
                timer: HostTimer::KeepAlive { .. },
                ..
            }
        )));
    }

    #[test]
    fn v50_just_works_shows_yes_no_popup_without_number() {
        let mut host = connected_phone(addr(1));
        host.pair_with(addr(1));
        host.drain_outputs();
        host.on_event(
            now(),
            Event::IoCapabilityResponse {
                bd_addr: addr(1),
                io_capability: IoCapability::NoInputNoOutput,
                oob_data_present: false,
                auth_requirements: 2,
            },
        );
        host.on_event(
            now(),
            Event::UserConfirmationRequest {
                bd_addr: addr(1),
                numeric_value: 123456,
            },
        );
        let outs = host.drain_outputs();
        assert!(outs.iter().any(|o| matches!(
            o,
            HostOutput::Ui(UiNotification::PairingConfirmation { numeric: None, .. })
        )));
    }

    #[test]
    fn v42_just_works_initiator_auto_confirms() {
        let mut host = Host::new(HostConfig::phone(BtVersion::V4_2));
        host.on_event(
            now(),
            Event::ConnectionRequest {
                bd_addr: addr(1),
                cod: ClassOfDevice::HANDS_FREE,
                link_type: 1,
            },
        );
        host.on_event(
            now(),
            Event::ConnectionComplete {
                status: StatusCode::Success,
                handle: ConnectionHandle::new(3),
                bd_addr: addr(1),
                encryption_enabled: false,
            },
        );
        host.pair_with(addr(1));
        host.drain_outputs();
        host.on_event(
            now(),
            Event::IoCapabilityResponse {
                bd_addr: addr(1),
                io_capability: IoCapability::NoInputNoOutput,
                oob_data_present: false,
                auth_requirements: 2,
            },
        );
        host.on_event(
            now(),
            Event::UserConfirmationRequest {
                bd_addr: addr(1),
                numeric_value: 42,
            },
        );
        let outs = host.drain_outputs();
        assert!(
            outs.iter().any(|o| matches!(
                o,
                HostOutput::Command(Command::UserConfirmationRequestReply { .. })
            )),
            "4.2- initiator must silently confirm Just Works"
        );
        assert!(!outs.iter().any(|o| matches!(
            o,
            HostOutput::Ui(UiNotification::PairingConfirmation { .. })
        )));
    }

    #[test]
    fn mitigation_blocks_page_blocking_fingerprint() {
        let mut host = connected_phone(addr(1)); // connection responder
        host.config_mut()
            .mitigations
            .reject_noio_connection_initiator = true;
        host.pair_with(addr(1)); // pairing initiator
        host.drain_outputs();
        host.on_event(
            now(),
            Event::IoCapabilityResponse {
                bd_addr: addr(1),
                io_capability: IoCapability::NoInputNoOutput,
                oob_data_present: false,
                auth_requirements: 2,
            },
        );
        let outs = host.drain_outputs();
        assert!(outs
            .iter()
            .any(|o| matches!(o, HostOutput::Ui(UiNotification::SecurityAlert { .. }))));
        assert!(outs
            .iter()
            .any(|o| matches!(o, HostOutput::Command(Command::Disconnect { .. }))));
    }

    #[test]
    fn mitigation_allows_normal_outbound_pairing() {
        let mut host = Host::new(HostConfig::phone(BtVersion::V5_0));
        host.config_mut()
            .mitigations
            .reject_noio_connection_initiator = true;
        host.pair_with(addr(1)); // we initiate connection AND pairing
        host.on_event(
            now(),
            Event::ConnectionComplete {
                status: StatusCode::Success,
                handle: ConnectionHandle::new(6),
                bd_addr: addr(1),
                encryption_enabled: false,
            },
        );
        host.drain_outputs();
        host.on_event(
            now(),
            Event::IoCapabilityResponse {
                bd_addr: addr(1),
                io_capability: IoCapability::NoInputNoOutput,
                oob_data_present: false,
                auth_requirements: 2,
            },
        );
        let outs = host.drain_outputs();
        assert!(
            !outs
                .iter()
                .any(|o| matches!(o, HostOutput::Ui(UiNotification::SecurityAlert { .. }))),
            "legitimate accessory pairing must not be blocked"
        );
    }

    #[test]
    fn profile_connect_runs_auth_then_encryption() {
        let mut host = connected_phone(addr(1));
        host.install_bond(
            addr(1),
            BondEntry {
                name: None,
                link_key: key(),
                key_type: LinkKeyType::UnauthenticatedP256,
                services: vec![ServiceUuid::PANU],
            },
        );
        host.connect_profile(addr(1), ServiceUuid::PANU);
        let outs = host.drain_outputs();
        assert!(outs.iter().any(|o| matches!(
            o,
            HostOutput::Command(Command::AuthenticationRequested { .. })
        )));
        host.on_event(
            now(),
            Event::AuthenticationComplete {
                status: StatusCode::Success,
                handle: ConnectionHandle::new(3),
            },
        );
        let outs = host.drain_outputs();
        assert!(outs.iter().any(|o| matches!(
            o,
            HostOutput::Command(Command::SetConnectionEncryption { enable: true, .. })
        )));
        host.on_event(
            now(),
            Event::EncryptionChange {
                status: StatusCode::Success,
                handle: ConnectionHandle::new(3),
                enabled: true,
            },
        );
        let outs = host.drain_outputs();
        assert!(outs.iter().any(|o| matches!(
            o,
            HostOutput::Ui(UiNotification::ProfileConnected { service, .. })
                if *service == ServiceUuid::PANU
        )));
    }

    #[test]
    fn pin_code_request_answered_from_config() {
        let mut host = connected_phone(addr(1));
        host.config_mut().pin = Some(b"4821".to_vec());
        host.on_event(now(), Event::PinCodeRequest { bd_addr: addr(1) });
        let outs = host.drain_outputs();
        assert!(outs.iter().any(|o| matches!(
            o,
            HostOutput::Command(Command::PinCodeRequestReply { pin, .. }) if pin == b"4821"
        )));
    }

    #[test]
    fn pin_code_request_negative_without_pin() {
        let mut host = connected_phone(addr(1));
        host.config_mut().pin = None;
        host.on_event(now(), Event::PinCodeRequest { bd_addr: addr(1) });
        let outs = host.drain_outputs();
        assert!(outs.iter().any(|o| matches!(
            o,
            HostOutput::Command(Command::PinCodeRequestNegativeReply { .. })
        )));
    }

    #[test]
    fn send_data_requires_a_processed_link() {
        let mut host = Host::new(HostConfig::phone(BtVersion::V5_0));
        assert!(!host.send_data(addr(9), vec![1, 2, 3]));
        let mut host = connected_phone(addr(1));
        assert!(host.send_data(addr(1), vec![1, 2, 3]));
        let outs = host.drain_outputs();
        assert!(outs.iter().any(|o| matches!(o, HostOutput::Acl(_))));
    }

    #[test]
    fn discovery_dedups_and_reports() {
        let mut host = Host::new(HostConfig::phone(BtVersion::V5_0));
        host.start_discovery();
        for _ in 0..3 {
            host.on_event(
                now(),
                Event::InquiryResult {
                    bd_addr: addr(7),
                    cod: ClassOfDevice::HANDS_FREE,
                },
            );
        }
        host.on_event(
            now(),
            Event::InquiryComplete {
                status: StatusCode::Success,
            },
        );
        let outs = host.drain_outputs();
        let devices = outs
            .iter()
            .find_map(|o| match o {
                HostOutput::Ui(UiNotification::DiscoveryComplete { devices }) => {
                    Some(devices.clone())
                }
                _ => None,
            })
            .expect("discovery completes");
        assert_eq!(devices.len(), 1);
    }

    fn commands(outs: &[HostOutput]) -> Vec<&Command> {
        outs.iter()
            .filter_map(|o| match o {
                HostOutput::Command(c) => Some(c),
                _ => None,
            })
            .collect()
    }

    fn sent_auth_request(outs: &[HostOutput], handle: u16) -> bool {
        commands(outs).iter().any(|c| {
            matches!(c, Command::AuthenticationRequested { handle: h }
                if *h == ConnectionHandle::new(handle))
        })
    }

    fn inbound(host: &mut Host, peer: BdAddr, handle: u16) {
        host.on_event(
            now(),
            Event::ConnectionRequest {
                bd_addr: peer,
                cod: ClassOfDevice::HANDS_FREE,
                link_type: 1,
            },
        );
        complete(host, peer, handle);
    }

    fn complete(host: &mut Host, peer: BdAddr, handle: u16) {
        host.on_event(
            now(),
            Event::ConnectionComplete {
                status: StatusCode::Success,
                handle: ConnectionHandle::new(handle),
                bd_addr: peer,
                encryption_enabled: false,
            },
        );
    }

    fn bonded(host: &mut Host, peer: BdAddr) {
        host.install_bond(
            peer,
            BondEntry {
                name: None,
                link_key: key(),
                key_type: LinkKeyType::UnauthenticatedP256,
                services: vec![ServiceUuid::PANU],
            },
        );
    }

    fn io_exchange(host: &mut Host, peer: BdAddr, io_capability: IoCapability) {
        host.on_event(now(), Event::IoCapabilityRequest { bd_addr: peer });
        host.on_event(
            now(),
            Event::IoCapabilityResponse {
                bd_addr: peer,
                io_capability,
                oob_data_present: false,
                auth_requirements: 2,
            },
        );
    }

    fn has_alert(outs: &[HostOutput]) -> bool {
        outs.iter()
            .any(|o| matches!(o, HostOutput::Ui(UiNotification::SecurityAlert { .. })))
    }

    #[test]
    fn role_check_sees_a_pairing_whose_page_an_inbound_connection_overtook() {
        // The user pairs while the attacker's page is in flight: the
        // attacker's connection lands first, and the user's request rides
        // it. The pairing is still this host's, as initiator.
        let mut host = Host::new(HostConfig::phone(BtVersion::V5_0));
        host.config_mut()
            .mitigations
            .reject_noio_connection_initiator = true;
        host.pair_with(addr(1));
        inbound(&mut host, addr(1), 3);
        assert!(sent_auth_request(&host.drain_outputs(), 3));
        host.on_event(now(), Event::LinkKeyRequest { bd_addr: addr(1) });
        io_exchange(&mut host, addr(1), IoCapability::NoInputNoOutput);
        let outs = host.drain_outputs();
        assert!(has_alert(&outs), "§VII-B must fire: {outs:?}");
        assert!(commands(&outs)
            .iter()
            .any(|c| matches!(c, Command::Disconnect { .. })));
    }

    #[test]
    fn a_pairing_the_peer_starts_after_ours_is_a_responder_pairing() {
        // A v4.2 phone auto-confirms Just Works as the pairing initiator
        // (Fig 7a). A later pairing the peer starts over the same link is
        // not the phone's: as responder it asks its user.
        let mut host = Host::new(HostConfig::phone(BtVersion::V4_2));
        inbound(&mut host, addr(1), 3);
        host.pair_with(addr(1));
        host.on_event(now(), Event::LinkKeyRequest { bd_addr: addr(1) });
        io_exchange(&mut host, addr(1), IoCapability::NoInputNoOutput);
        let confirm = Event::UserConfirmationRequest {
            bd_addr: addr(1),
            numeric_value: 7,
        };
        host.on_event(now(), confirm.clone());
        let auto_confirmed = |outs: &[HostOutput]| {
            commands(outs)
                .iter()
                .any(|c| matches!(c, Command::UserConfirmationRequestReply { .. }))
        };
        assert!(auto_confirmed(&host.drain_outputs()));
        host.on_event(
            now(),
            Event::AuthenticationComplete {
                status: StatusCode::Success,
                handle: ConnectionHandle::new(3),
            },
        );
        host.drain_outputs();
        io_exchange(&mut host, addr(1), IoCapability::NoInputNoOutput);
        host.on_event(now(), confirm);
        let outs = host.drain_outputs();
        assert!(!auto_confirmed(&outs), "no silent re-pairing: {outs:?}");
        assert!(outs.iter().any(|o| matches!(
            o,
            HostOutput::Ui(UiNotification::PairingConfirmation { numeric: None, .. })
        )));
    }

    #[test]
    fn a_request_dies_with_its_link() {
        let mut host = connected_phone(addr(1));
        bonded(&mut host, addr(1));
        host.connect_profile(addr(1), ServiceUuid::PANU);
        host.drain_outputs();
        host.on_event(
            now(),
            Event::DisconnectionComplete {
                status: StatusCode::Success,
                handle: ConnectionHandle::new(3),
                reason: StatusCode::ConnectionTimeout,
            },
        );
        let outs = host.drain_outputs();
        assert!(
            outs.iter().any(|o| matches!(
                o,
                HostOutput::Ui(UiNotification::ProfileFailed {
                    status: StatusCode::ConnectionTimeout,
                    ..
                })
            )),
            "{outs:?}"
        );
        // The same address connecting later asked for nothing.
        inbound(&mut host, addr(1), 4);
        assert!(!sent_auth_request(&host.drain_outputs(), 4));
    }

    #[test]
    fn a_role_check_abort_cancels_only_its_own_peers_request() {
        let mut host = Host::new(HostConfig::phone(BtVersion::V5_0));
        host.config_mut()
            .mitigations
            .reject_noio_connection_initiator = true;
        inbound(&mut host, addr(1), 3);
        inbound(&mut host, addr(2), 4);
        bonded(&mut host, addr(2));
        host.connect_profile(addr(2), ServiceUuid::PANU);
        host.pair_with(addr(1));
        io_exchange(&mut host, addr(1), IoCapability::NoInputNoOutput);
        assert!(has_alert(&host.drain_outputs()));
        host.on_event(
            now(),
            Event::AuthenticationComplete {
                status: StatusCode::Success,
                handle: ConnectionHandle::new(4),
            },
        );
        let outs = host.drain_outputs();
        assert!(
            commands(&outs).iter().any(|c| matches!(
                c,
                Command::SetConnectionEncryption { handle, enable: true }
                    if *handle == ConnectionHandle::new(4)
            )),
            "the other peer's profile goes on: {outs:?}"
        );
    }

    #[test]
    fn requests_to_different_peers_proceed_independently() {
        let mut host = Host::new(HostConfig::phone(BtVersion::V5_0));
        host.pair_with(addr(1));
        host.pair_with(addr(2));
        complete(&mut host, addr(1), 3);
        complete(&mut host, addr(2), 4);
        let outs = host.drain_outputs();
        assert!(sent_auth_request(&outs, 3), "{outs:?}");
        assert!(sent_auth_request(&outs, 4), "{outs:?}");
    }

    #[test]
    fn a_second_request_joins_the_link_coming_up() {
        // One page per peer: a request or plain connect while the link is
        // coming up waits for it instead of paging again.
        let mut host = Host::new(HostConfig::phone(BtVersion::V5_0));
        host.pair_with(addr(1));
        host.pair_with(addr(1));
        host.connect_only(addr(1));
        let outs = host.drain_outputs();
        let pages = commands(&outs)
            .iter()
            .filter(|c| matches!(c, Command::CreateConnection { .. }))
            .count();
        assert_eq!(pages, 1, "{outs:?}");
        complete(&mut host, addr(1), 3);
        assert!(sent_auth_request(&host.drain_outputs(), 3));
    }

    /// An honest controller seen through HCI, for the host-seam property
    /// test. It answers each host command at once, as the simulation's
    /// synchronous pump does, and lets the test play the peers' side.
    struct Seam {
        host: Host,
        rng: StdRng,
        /// Live links at the controller.
        links: BTreeMap<BdAddr, ConnectionHandle>,
        /// Pages the host started that no peer has answered yet.
        paging: Vec<BdAddr>,
        /// Security procedures the controller runs, and whether the host
        /// started each (`Authentication_Requested`).
        procedures: BTreeMap<BdAddr, bool>,
        next_handle: u16,
        /// Commands of interest the host sent: authentications,
        /// encryptions, security alerts.
        sent: [usize; 3],
    }

    impl Seam {
        fn new(seed: u64) -> Seam {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut config = match rng.gen_range(0..3u32) {
                0 => HostConfig::phone(BtVersion::V4_2),
                1 => HostConfig::phone(BtVersion::V5_0),
                _ => HostConfig::attacker(),
            };
            config.attacker.ignore_link_key_request &= rng.gen_bool(0.5);
            config.mitigations.reject_noio_connection_initiator = rng.gen_bool(0.5);
            config.mitigations.detect_key_type_downgrade = rng.gen_bool(0.5);
            Seam {
                host: Host::new(config),
                rng,
                links: BTreeMap::new(),
                paging: Vec::new(),
                procedures: BTreeMap::new(),
                next_handle: 1,
                sent: [0; 3],
            }
        }

        fn handle(&mut self) -> ConnectionHandle {
            self.next_handle += 1;
            ConnectionHandle::new(self.next_handle)
        }

        fn peer_of(&self, handle: ConnectionHandle) -> Option<BdAddr> {
            self.links
                .iter()
                .find(|(_, h)| **h == handle)
                .map(|(p, _)| *p)
        }

        /// Delivers one event, then answers the host until it is quiet.
        fn deliver(&mut self, event: Event) {
            let before = self.host.keystore().clone();
            let may_change_keys = match &event {
                Event::LinkKeyNotification { .. } => true,
                Event::AuthenticationComplete { status, .. } => !status.is_success(),
                _ => false,
            };
            self.host.on_event(now(), event.clone());
            assert!(
                may_change_keys || *self.host.keystore() == before,
                "keystore changed on {event:?}"
            );
            self.pump();
        }

        /// Runs one host API call or timer: none may touch the keystore.
        fn call(&mut self, f: impl FnOnce(&mut Host)) {
            let before = self.host.keystore().clone();
            f(&mut self.host);
            assert_eq!(*self.host.keystore(), before);
            self.pump();
        }

        fn pump(&mut self) {
            loop {
                let outs = self.host.drain_outputs();
                if outs.is_empty() {
                    return;
                }
                for out in &outs {
                    let handle = match out {
                        HostOutput::Command(Command::AuthenticationRequested { handle }) => {
                            self.sent[0] += 1;
                            *handle
                        }
                        HostOutput::Command(Command::SetConnectionEncryption {
                            handle, ..
                        }) => {
                            self.sent[1] += 1;
                            *handle
                        }
                        HostOutput::Ui(UiNotification::SecurityAlert { .. }) => {
                            self.sent[2] += 1;
                            continue;
                        }
                        _ => continue,
                    };
                    let owner = self.host.peer_by_handle(handle);
                    let request = owner.and_then(|p| self.host.peers[&p].request.as_ref());
                    assert!(request.is_some(), "{out:?} without a request");
                }
                for out in outs {
                    match out {
                        HostOutput::Command(command) => self.command(command),
                        HostOutput::Ui(UiNotification::PairingConfirmation { peer, .. }) => {
                            let accept = self.rng.gen_bool(0.7);
                            self.host.confirm_pairing(peer, accept);
                        }
                        _ => {}
                    }
                }
            }
        }

        /// What an honest controller does with one host command.
        fn command(&mut self, command: Command) {
            match command {
                Command::CreateConnection { bd_addr, .. } => {
                    // An honest controller refuses a page only for an
                    // address it links, and the host never asks for one.
                    assert!(!self.links.contains_key(&bd_addr), "page refused");
                    if !self.paging.contains(&bd_addr) {
                        self.paging.push(bd_addr);
                    }
                }
                Command::AcceptConnectionRequest { bd_addr, .. } => {
                    if let Some(&handle) = self.links.get(&bd_addr) {
                        self.deliver(Event::ConnectionComplete {
                            status: StatusCode::Success,
                            handle,
                            bd_addr,
                            encryption_enabled: false,
                        });
                    }
                }
                Command::Disconnect { handle, reason } => {
                    if let Some(peer) = self.peer_of(handle) {
                        self.drop_link(peer, reason);
                    }
                }
                Command::AuthenticationRequested { handle } => {
                    let Some(peer) = self.peer_of(handle) else {
                        return;
                    };
                    if let Entry::Vacant(procedure) = self.procedures.entry(peer) {
                        procedure.insert(true);
                        self.deliver(Event::LinkKeyRequest { bd_addr: peer });
                    }
                }
                Command::LinkKeyRequestReply { bd_addr, .. }
                    if self.procedures.contains_key(&bd_addr) =>
                {
                    self.procedures.remove(&bd_addr);
                    let status = [
                        StatusCode::Success,
                        StatusCode::AuthenticationFailure,
                        StatusCode::LmpResponseTimeout,
                    ][self.rng.gen_range(0..3usize)];
                    self.authenticated(bd_addr, status);
                }
                Command::LinkKeyRequestNegativeReply { bd_addr }
                    if self.procedures.contains_key(&bd_addr) =>
                {
                    self.deliver(Event::IoCapabilityRequest { bd_addr });
                }
                Command::IoCapabilityRequestReply { bd_addr, .. } => {
                    if self.procedures.contains_key(&bd_addr) {
                        let io_capability = IoCapability::ALL[self.rng.gen_range(0..4usize)];
                        self.deliver(Event::IoCapabilityResponse {
                            bd_addr,
                            io_capability,
                            oob_data_present: false,
                            auth_requirements: 2,
                        });
                    }
                    if self.procedures.contains_key(&bd_addr) {
                        let numeric_value = self.rng.gen_range(0..1_000_000u32);
                        self.deliver(Event::UserConfirmationRequest {
                            bd_addr,
                            numeric_value,
                        });
                    }
                }
                Command::UserConfirmationRequestReply { bd_addr } => {
                    if let Some(ours) = self.procedures.remove(&bd_addr) {
                        self.deliver(Event::SimplePairingComplete {
                            status: StatusCode::Success,
                            bd_addr,
                        });
                        let key_type = [
                            LinkKeyType::UnauthenticatedP256,
                            LinkKeyType::AuthenticatedP256,
                        ][self.rng.gen_range(0..2usize)];
                        let link_key = LinkKey::new(self.rng.gen());
                        self.deliver(Event::LinkKeyNotification {
                            bd_addr,
                            link_key,
                            key_type,
                        });
                        if ours {
                            self.authenticated(bd_addr, StatusCode::Success);
                        }
                    }
                }
                Command::UserConfirmationRequestNegativeReply { bd_addr } => {
                    if let Some(ours) = self.procedures.remove(&bd_addr) {
                        let status = StatusCode::AuthenticationFailure;
                        self.deliver(Event::SimplePairingComplete { status, bd_addr });
                        if ours {
                            self.authenticated(bd_addr, status);
                        }
                    }
                }
                Command::SetConnectionEncryption { handle, enable }
                    if self.peer_of(handle).is_some() =>
                {
                    self.deliver(Event::EncryptionChange {
                        status: StatusCode::Success,
                        handle,
                        enabled: enable,
                    });
                }
                _ => {}
            }
        }

        /// The verifier's `Authentication_Complete`; a failure detaches.
        fn authenticated(&mut self, peer: BdAddr, status: StatusCode) {
            let Some(&handle) = self.links.get(&peer) else {
                return;
            };
            self.deliver(Event::AuthenticationComplete { status, handle });
            if !status.is_success() {
                self.drop_link(peer, status);
            }
        }

        fn drop_link(&mut self, peer: BdAddr, reason: StatusCode) {
            if let Some(handle) = self.links.remove(&peer) {
                self.procedures.remove(&peer);
                self.deliver(Event::DisconnectionComplete {
                    status: StatusCode::Success,
                    handle,
                    reason,
                });
            }
        }

        /// One peer's page reaches this controller. A link already there
        /// is replaced, as `Controller::on_incoming_page` does.
        fn page_in(&mut self, peer: BdAddr) {
            let handle = self.handle();
            self.links.insert(peer, handle);
            self.procedures.remove(&peer);
            self.deliver(Event::ConnectionRequest {
                bd_addr: peer,
                cod: ClassOfDevice::HANDS_FREE,
                link_type: 1,
            });
        }

        /// The host's page to `peer` ends. On success it completes over
        /// whatever link the address has by then: with an inbound link in
        /// between, that is a second `Connection_Complete` for one address.
        fn page_answered(&mut self, peer: BdAddr, success: bool) {
            self.paging.retain(|p| *p != peer);
            if success {
                let handle = match self.links.get(&peer) {
                    Some(&handle) => handle,
                    None => self.handle(),
                };
                self.links.insert(peer, handle);
                self.deliver(Event::ConnectionComplete {
                    status: StatusCode::Success,
                    handle,
                    bd_addr: peer,
                    encryption_enabled: false,
                });
            } else {
                self.links.remove(&peer);
                self.procedures.remove(&peer);
                self.deliver(Event::ConnectionComplete {
                    status: StatusCode::PageTimeout,
                    handle: ConnectionHandle::new(0),
                    bd_addr: peer,
                    encryption_enabled: false,
                });
            }
        }

        /// Every record belongs to a peer with a link or a page in flight.
        fn check_records(&self) {
            for peer in self.host.peers.keys() {
                assert!(
                    self.links.contains_key(peer) || self.paging.contains(peer),
                    "stale record for {peer}"
                );
            }
        }
    }

    #[test]
    fn host_seam_sequences_keep_one_record_per_live_peer() {
        // One to three peers drive the host through every HCI sequence a
        // peer can cause through an honest controller (a second
        // Connection_Complete for one address, a disconnect mid-pairing, a
        // pairing the peer starts while the host's own is outstanding, a
        // re-pairing of a bonded peer), interleaved with every GAP call and
        // both timers.
        let mut totals = [0; 3];
        for seed in 0..2000u64 {
            let mut seam = Seam::new(seed);
            let peers: Vec<BdAddr> = (1..=seam.rng.gen_range(1..4u8)).map(addr).collect();
            for &peer in &peers {
                if seam.rng.gen_bool(0.4) {
                    bonded(&mut seam.host, peer);
                }
            }
            for _ in 0..seam.rng.gen_range(5..60usize) {
                let peer = peers[seam.rng.gen_range(0..peers.len())];
                match seam.rng.gen_range(0..12u32) {
                    0 => seam.call(|h| h.pair_with(peer)),
                    1 => seam.call(|h| h.connect_profile(peer, ServiceUuid::PANU)),
                    2 => seam.call(|h| h.connect_only(peer)),
                    3 => seam.call(|h| h.disconnect(peer)),
                    4 => seam.call(|h| h.on_timer(now(), HostTimer::PlocRelease { peer })),
                    5 => seam.call(|h| h.on_timer(now(), HostTimer::KeepAlive { peer })),
                    6 | 7 => seam.page_in(peer),
                    8 if seam.paging.contains(&peer) => {
                        let success = seam.rng.gen_bool(0.8);
                        seam.page_answered(peer, success);
                    }
                    9 => seam.drop_link(peer, StatusCode::ConnectionTimeout),
                    _ if seam.links.contains_key(&peer) && !seam.procedures.contains_key(&peer) => {
                        // The peer starts a pairing: a re-pairing when
                        // bonded, perhaps over the host's own request.
                        seam.procedures.insert(peer, false);
                        seam.deliver(Event::IoCapabilityRequest { bd_addr: peer });
                    }
                    _ => {}
                }
                assert!(seam.host.peers.len() <= peers.len());
                seam.check_records();
            }
            // Every link goes down: no record may outlive its link.
            for peer in peers {
                if seam.paging.contains(&peer) {
                    seam.page_answered(peer, false);
                }
                seam.drop_link(peer, StatusCode::ConnectionTimeout);
            }
            assert!(seam.host.peers.is_empty(), "seed {seed}");
            for (total, sent) in totals.iter_mut().zip(seam.sent) {
                *total += sent;
            }
        }
        assert!(totals.iter().all(|&n| n > 0), "{totals:?}");
    }
}
