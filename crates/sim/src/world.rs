//! The discrete-event world.

use std::collections::{BTreeMap, BinaryHeap, HashMap};

use blap_baseband::inquiry::{run_inquiry, InquiryTarget};
use blap_baseband::paging::{resolve_page, PageListener, PageResult};
use blap_baseband::race::{PageRaceModel, RaceTally, RaceWinner};
use blap_baseband::timing;
use blap_controller::lmp::LmpPdu;
use blap_controller::{ControllerOutput, PageOutcome};
use blap_crypto::p256::DhMemo;
use blap_hci::{HciPacket, PacketDirection};
use blap_host::HostOutput;
use blap_obs::{prof, Histogram, Metrics, SpanId, TraceEvent, Tracer};
use blap_types::{BdAddr, Duration, Instant};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::device::{Device, DeviceId, DeviceSpec};
use crate::events::{EventKind, ScheduledEvent, SimTimer};

/// Latency of an LMP exchange between linked controllers: two slots.
const LMP_LATENCY: Duration = Duration::from_micros(1250);
/// Latency of an ACL round: two slots.
const ACL_LATENCY: Duration = Duration::from_micros(1250);

/// One established baseband link between two devices.
#[derive(Debug)]
struct LinkState {
    a: DeviceId,
    b: DeviceId,
    /// The address `a` believes `b` has.
    a_sees: BdAddr,
    /// The address `b` believes `a` has.
    b_sees: BdAddr,
    last_activity: Instant,
    alive: bool,
}

/// One frame captured by the world's passive air sniffer.
///
/// LMP control traffic is cleartext on a BR/EDR link until encryption
/// starts; ACL payload frames are captured as the *over-the-air* bytes —
/// AES-CCM ciphertext once the link is encrypted. This is the capture the
/// paper's §IV remark about decrypting "past and future communications of
/// M captured by air-sniffers" refers to.
#[derive(Clone, Debug)]
pub enum SniffedFrame {
    /// A cleartext LMP PDU (by name — LMP bit layouts are not modelled).
    Lmp {
        /// Capture time.
        time: Instant,
        /// Sender's claimed address.
        from: BdAddr,
        /// Receiver's claimed address.
        to: BdAddr,
        /// PDU name.
        name: &'static str,
        /// The verifier's AU_RAND, when this PDU carries one (the value an
        /// eavesdropper needs to re-derive the encryption key).
        au_rand: Option<[u8; 16]>,
    },
    /// An ACL payload frame as it crossed the air.
    Acl {
        /// Capture time.
        time: Instant,
        /// Sender's claimed address.
        from: BdAddr,
        /// Receiver's claimed address.
        to: BdAddr,
        /// Over-the-air bytes (ciphertext when the link was encrypted).
        /// Shared with the scheduler's in-flight packet when cleartext, so
        /// the capture costs no copy.
        data: std::sync::Arc<[u8]>,
        /// Whether the link was encrypted when captured.
        encrypted: bool,
        /// The CCM packet counter used (an eavesdropper reconstructs this
        /// from frame order; carried here so tests can cross-check).
        packet_counter: u64,
    },
}

/// The simulation world. See the crate docs for the overall model.
pub struct World {
    devices: Vec<Device>,
    queue: BinaryHeap<ScheduledEvent>,
    now: Instant,
    seq: u64,
    rng: StdRng,
    race_model: PageRaceModel,
    /// Live links by id. A `BTreeMap`, not a `HashMap`, on purpose:
    /// [`World::route`] scans it when two links are live to the *same*
    /// claimed address (the attacker's spoofed link next to the honest
    /// one), and the winner must be the same on every run — hash-order
    /// iteration made that pick depend on the process's random hash seed.
    links: BTreeMap<u64, LinkState>,
    next_link_id: u64,
    timer_generations: HashMap<(DeviceId, SimTimer), u64>,
    processed_events: u64,
    sniffer: Vec<SniffedFrame>,
    link_packet_counters: HashMap<u64, u64>,
    /// Per-link CCM context cache: the session key changes at most a few
    /// times per link, so the AES key schedule is expanded on key change
    /// rather than per sniffed frame.
    link_ccm: HashMap<u64, ([u8; 16], blap_crypto::ccm::Ccm)>,
    tracer: Tracer,
    counters: WorldCounters,
    /// Open `page` spans keyed by (pager, paged address); populated only
    /// while a tracer is attached.
    page_spans: HashMap<(DeviceId, BdAddr), SpanId>,
    /// The key pairs drawn in this world and the DHKeys awaiting the
    /// other end of their SSP pairing, lent to every `on_lmp` call: a
    /// pairing's DHKey is one fixed-base multiplication, run once. It
    /// lives and dies with this world, so nothing crosses trials.
    dh_memo: DhMemo,
}

/// Always-on world counters: plain integer fields so the hot dispatch path
/// pays no map lookups, exported via [`World::metrics`].
#[derive(Clone, Debug, Default)]
struct WorldCounters {
    pages_started: u64,
    pages_connected: u64,
    pages_timed_out: u64,
    links_dropped: u64,
    race_tally: RaceTally,
    page_latency_us: Histogram,
}

impl std::fmt::Debug for World {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("World")
            .field("now", &self.now)
            .field("devices", &self.devices.len())
            .field("queued", &self.queue.len())
            .field("links", &self.links.len())
            .finish()
    }
}

impl World {
    /// Creates an empty world with a deterministic seed.
    pub fn new(seed: u64) -> Self {
        World {
            devices: Vec::new(),
            // A pairing run keeps tens of events in flight (LMP round trips,
            // timers, supervision checks); start past the growth doublings
            // every trial would otherwise repeat.
            queue: BinaryHeap::with_capacity(256),
            now: Instant::EPOCH,
            seq: 0,
            rng: StdRng::seed_from_u64(seed),
            race_model: PageRaceModel::default(),
            links: BTreeMap::new(),
            next_link_id: 0,
            timer_generations: HashMap::new(),
            processed_events: 0,
            sniffer: Vec::new(),
            link_packet_counters: HashMap::new(),
            link_ccm: HashMap::new(),
            tracer: Tracer::disabled(),
            counters: WorldCounters::default(),
            page_spans: HashMap::new(),
            dh_memo: DhMemo::new(),
        }
    }

    /// Routes this world's trace events to `tracer`: scheduler dispatches
    /// and page/race activity from the world itself, plus device-scoped
    /// clones handed to every device's host, controller and HCI tap.
    /// Devices added later inherit it automatically.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
        for idx in 0..self.devices.len() {
            self.scope_device_tracer(idx);
        }
    }

    fn scope_device_tracer(&mut self, idx: usize) {
        let scoped = self.tracer.scoped(idx);
        let device = &mut self.devices[idx];
        device.controller.set_tracer(scoped.clone());
        device.host.set_tracer(scoped.clone());
        device.tracer = scoped;
    }

    /// Everything the passive air sniffer captured so far.
    pub fn sniffed_frames(&self) -> &[SniffedFrame] {
        &self.sniffer
    }

    /// Replaces the page-race model (Table II calibration knob).
    pub fn set_race_model(&mut self, model: PageRaceModel) {
        self.race_model = model;
    }

    /// Adds a device; returns its identity.
    pub fn add_device(&mut self, spec: DeviceSpec) -> DeviceId {
        let id = DeviceId(self.devices.len());
        let secret = self.rng.gen();
        let mut device = Device::new(id, spec, secret);
        // Devices boot connectable (page scan on), matching real defaults.
        let _ = device.controller.drain_outputs();
        self.devices.push(device);
        if self.tracer.enabled() {
            self.scope_device_tracer(id.0);
        }
        id
    }

    /// Immutable device access.
    ///
    /// # Panics
    ///
    /// Panics when `id` does not belong to this world.
    pub fn device(&self, id: DeviceId) -> &Device {
        &self.devices[id.0]
    }

    /// Mutable device access. After mutating the host or controller
    /// directly, the next [`World::run_for`] call pumps the effects.
    ///
    /// # Panics
    ///
    /// Panics when `id` does not belong to this world.
    pub fn device_mut(&mut self, id: DeviceId) -> &mut Device {
        &mut self.devices[id.0]
    }

    /// Number of devices.
    pub fn device_count(&self) -> usize {
        self.devices.len()
    }

    /// The current virtual time.
    pub fn now(&self) -> Instant {
        self.now
    }

    /// Total processed events (sanity metric for benches).
    pub fn processed_events(&self) -> u64 {
        self.processed_events
    }

    /// Tally of every decided page race so far.
    pub fn race_tally(&self) -> RaceTally {
        self.counters.race_tally
    }

    /// A metrics snapshot of this world: scheduler and paging counters,
    /// the race tally, the page-latency histogram, and per-device LMP and
    /// keystore counters (`dev<i>.` prefix). Everything is derived from
    /// virtual time and event counts, so snapshots are deterministic and
    /// merge commutatively across worlds.
    pub fn metrics(&self) -> Metrics {
        let mut m = Metrics::new();
        m.add("events_dispatched", self.processed_events);
        m.add("virtual_us", self.now.as_micros());
        m.add("slots_simulated", self.now.as_micros() / 625);
        m.add("pages_started", self.counters.pages_started);
        m.add("pages_connected", self.counters.pages_connected);
        m.add("pages_timed_out", self.counters.pages_timed_out);
        m.add("links_dropped", self.counters.links_dropped);
        m.add("race.attacker_wins", self.counters.race_tally.attacker_wins);
        m.add(
            "race.legitimate_wins",
            self.counters.race_tally.legitimate_wins,
        );
        m.add("sniffed_frames", self.sniffer.len() as u64);
        m.gauge_max("devices", self.devices.len() as u64);
        m.merge_histogram("page_latency_us", &self.counters.page_latency_us);
        for (i, device) in self.devices.iter().enumerate() {
            let stats = device.controller.stats();
            m.add(&format!("dev{i}.lmp_sent"), stats.lmp_sent);
            m.add(&format!("dev{i}.lmp_received"), stats.lmp_received);
            m.add(
                &format!("dev{i}.lmp_response_timeouts"),
                stats.lmp_response_timeouts,
            );
            m.add(
                &format!("dev{i}.bonds"),
                device.host.keystore().len() as u64,
            );
            m.add(&format!("dev{i}.snoop_packets"), device.snoop_len() as u64);
        }
        m
    }

    /// Whether a live baseband link exists between two devices.
    pub fn linked(&self, a: DeviceId, b: DeviceId) -> bool {
        self.links
            .values()
            .any(|l| l.alive && ((l.a == a && l.b == b) || (l.a == b && l.b == a)))
    }

    /// Schedules a scripted action at an absolute time.
    pub fn schedule_at<F>(&mut self, time: Instant, action: F)
    where
        F: FnOnce(&mut World) + Send + 'static,
    {
        self.push(
            time,
            EventKind::Script {
                action: Box::new(action),
            },
        );
    }

    /// Schedules a scripted action after a delay.
    pub fn schedule_in<F>(&mut self, delay: Duration, action: F)
    where
        F: FnOnce(&mut World) + Send + 'static,
    {
        let time = self.now + delay;
        self.schedule_at(time, action);
    }

    fn push(&mut self, time: Instant, kind: EventKind) {
        debug_assert!(time >= self.now, "scheduling into the past");
        self.seq += 1;
        self.queue.push(ScheduledEvent {
            time,
            seq: self.seq,
            kind,
        });
    }

    /// Runs the world until `deadline` (inclusive), then sets the clock to
    /// the deadline. Events scheduled past the deadline stay queued.
    pub fn run_until(&mut self, deadline: Instant) {
        // First flush anything the devices already queued via direct calls.
        for id in 0..self.devices.len() {
            self.pump(DeviceId(id));
        }
        while let Some(head) = self.queue.peek() {
            if head.time > deadline {
                break;
            }
            let event = self.queue.pop().expect("peeked event");
            self.now = event.time;
            self.processed_events += 1;
            if self.tracer.enabled() {
                self.tracer.emit(TraceEvent::SchedulerDispatch {
                    time: event.time,
                    seq: event.seq,
                    kind: event.kind.name(),
                });
            }
            let _dispatch = prof::scope(event.kind.prof_scope());
            self.dispatch(event.kind);
        }
        self.now = deadline;
    }

    /// Runs the world for a span of virtual time.
    pub fn run_for(&mut self, span: Duration) {
        let deadline = self.now + span;
        self.run_until(deadline);
    }

    // --- event dispatch -----------------------------------------------------

    fn dispatch(&mut self, kind: EventKind) {
        match kind {
            EventKind::LmpDeliver {
                link_id,
                to,
                from_addr,
                pdu,
            } => {
                let alive = self.links.get(&link_id).map(|l| l.alive).unwrap_or(false);
                if !alive {
                    return;
                }
                self.touch_link(link_id);
                let is_detach = matches!(pdu, LmpPdu::Detach { .. });
                let now = self.now;
                if let Some(link) = self.links.get(&link_id) {
                    let (from_claimed, to_claimed) = if link.b == to {
                        (link.b_sees, link.a_sees)
                    } else {
                        (link.a_sees, link.b_sees)
                    };
                    let au_rand = match &pdu {
                        LmpPdu::AuthChallenge { rand } => Some(*rand),
                        _ => None,
                    };
                    self.sniffer.push(SniffedFrame::Lmp {
                        time: now,
                        from: from_claimed,
                        to: to_claimed,
                        name: pdu.name(),
                        au_rand,
                    });
                }
                self.devices[to.0]
                    .controller
                    .on_lmp(now, from_addr, pdu, &mut self.dh_memo);
                if is_detach {
                    if let Some(link) = self.links.get_mut(&link_id) {
                        link.alive = false;
                    }
                    self.counters.links_dropped += 1;
                    if self.tracer.enabled() {
                        self.tracer.emit(TraceEvent::LinkDropped {
                            time: now,
                            reason: "detach",
                        });
                    }
                }
                self.pump(to);
            }
            EventKind::AclDeliver {
                link_id,
                to,
                from_addr,
                data,
            } => {
                let alive = self.links.get(&link_id).map(|l| l.alive).unwrap_or(false);
                if !alive {
                    return;
                }
                self.touch_link(link_id);
                let now = self.now;
                self.sniff_acl(link_id, to, &data);
                // ACL data crosses the receiving device's HCI seam too.
                // Wrap/unwrap instead of cloning the payload: the packet is
                // only borrowed for recording.
                let packet = HciPacket::AclData(data);
                self.devices[to.0].record_hci(now, PacketDirection::Received, &packet);
                let HciPacket::AclData(data) = packet else {
                    unreachable!()
                };
                self.devices[to.0].host.on_acl(now, from_addr, &data);
                self.pump(to);
            }
            EventKind::PageResolve { pager, target } => self.resolve_page_event(pager, target),
            EventKind::PageDeliver {
                pager,
                responder,
                target,
            } => {
                if let Some(span) = self.page_spans.remove(&(pager, target)) {
                    self.devices[pager.0]
                        .tracer
                        .close_span(self.now, span, "connected");
                }
                // Register the link before the responder reacts so the
                // subsequent LMP (ConnectionAccepted) routes.
                let pager_claimed = self.devices[pager.0].bd_addr();
                let link_id = self.next_link_id;
                self.next_link_id += 1;
                self.links.insert(
                    link_id,
                    LinkState {
                        a: pager,
                        b: responder,
                        a_sees: target,
                        b_sees: pager_claimed,
                        last_activity: self.now,
                        alive: true,
                    },
                );
                self.push(
                    self.now + timing::LINK_SUPERVISION_TIMEOUT,
                    EventKind::SupervisionCheck { link_id },
                );
                let cod = self.devices[pager.0].controller.cod();
                let now = self.now;
                self.devices[responder.0]
                    .controller
                    .on_incoming_page(now, pager_claimed, cod);
                self.pump(responder);
            }
            EventKind::PageTimeout { pager, target } => {
                if let Some(span) = self.page_spans.remove(&(pager, target)) {
                    self.devices[pager.0]
                        .tracer
                        .close_span(self.now, span, "timeout");
                }
                let now = self.now;
                self.devices[pager.0]
                    .controller
                    .on_page_result(now, target, PageOutcome::TimedOut);
                self.pump(pager);
            }
            EventKind::InquiryResponse {
                inquirer,
                bd_addr,
                cod,
            } => {
                let now = self.now;
                self.devices[inquirer.0]
                    .controller
                    .on_inquiry_response(now, bd_addr, cod);
                self.pump(inquirer);
            }
            EventKind::InquiryComplete { inquirer } => {
                let now = self.now;
                self.devices[inquirer.0].controller.on_inquiry_complete(now);
                self.pump(inquirer);
            }
            EventKind::TimerFire {
                device,
                timer,
                generation,
            } => {
                let current = self
                    .timer_generations
                    .get(&(device, timer))
                    .copied()
                    .unwrap_or(0);
                if current != generation {
                    return; // cancelled or re-armed
                }
                let now = self.now;
                match timer {
                    SimTimer::Controller(t) => self.devices[device.0].controller.on_timer(now, t),
                    SimTimer::Host(t) => self.devices[device.0].host.on_timer(now, t),
                }
                self.pump(device);
            }
            EventKind::SupervisionCheck { link_id } => self.check_supervision(link_id),
            EventKind::Script { action } => {
                // Scripted actions call GAP entry points directly; sync the
                // hosts' clocks first so those calls stamp trace spans at
                // the action's true time.
                let now = self.now;
                for device in &mut self.devices {
                    device.host.sync_time(now);
                }
                action(self);
                for id in 0..self.devices.len() {
                    self.pump(DeviceId(id));
                }
            }
        }
    }

    fn touch_link(&mut self, link_id: u64) {
        if let Some(link) = self.links.get_mut(&link_id) {
            link.last_activity = self.now;
        }
    }

    fn check_supervision(&mut self, link_id: u64) {
        let Some(link) = self.links.get(&link_id) else {
            return;
        };
        if !link.alive {
            return;
        }
        let expiry = link.last_activity + timing::LINK_SUPERVISION_TIMEOUT;
        if expiry > self.now {
            // Activity happened; re-arm for the new expiry.
            self.push(expiry, EventKind::SupervisionCheck { link_id });
            return;
        }
        // Supervision timeout: both controllers observe the link vanish.
        let (a, b, a_sees, b_sees) = (link.a, link.b, link.a_sees, link.b_sees);
        self.links.get_mut(&link_id).expect("link exists").alive = false;
        let now = self.now;
        self.counters.links_dropped += 1;
        if self.tracer.enabled() {
            self.tracer.emit(TraceEvent::LinkDropped {
                time: now,
                reason: "supervision_timeout",
            });
        }
        self.devices[a.0].controller.on_lmp(
            now,
            a_sees,
            LmpPdu::Detach {
                reason: blap_hci::StatusCode::ConnectionTimeout,
            },
            &mut self.dh_memo,
        );
        self.devices[b.0].controller.on_lmp(
            now,
            b_sees,
            LmpPdu::Detach {
                reason: blap_hci::StatusCode::ConnectionTimeout,
            },
            &mut self.dh_memo,
        );
        self.pump(a);
        self.pump(b);
    }

    /// Captures an ACL frame as it crosses the air, applying the sender's
    /// link encryption so the sniffer sees genuine ciphertext.
    fn sniff_acl(&mut self, link_id: u64, to: DeviceId, data: &blap_hci::AclData) {
        let Some(link) = self.links.get(&link_id) else {
            return;
        };
        let (sender, from_claimed, to_claimed, sender_peer_view) = if link.b == to {
            (link.a, link.b_sees, link.a_sees, link.a_sees)
        } else {
            (link.b, link.a_sees, link.b_sees, link.b_sees)
        };
        let enc_key = self.devices[sender.0]
            .controller
            .encryption_key(sender_peer_view);
        let counter = self
            .link_packet_counters
            .entry(link_id)
            .and_modify(|c| *c += 1)
            .or_insert(1);
        let counter = *counter;
        let frame = match enc_key {
            Some(key) => {
                // Central = the connection initiator's claimed address,
                // which is what the responder (`b`) sees as its peer.
                let central = self.links[&link_id].b_sees;
                let nonce = blap_crypto::ccm::acl_nonce(counter, central);
                let ccm = match self.link_ccm.entry(link_id) {
                    std::collections::hash_map::Entry::Occupied(e) if e.get().0 == key => {
                        &e.into_mut().1
                    }
                    std::collections::hash_map::Entry::Occupied(e) => {
                        let slot = e.into_mut();
                        *slot = (key, blap_crypto::ccm::Ccm::new(&key));
                        &slot.1
                    }
                    std::collections::hash_map::Entry::Vacant(e) => {
                        &e.insert((key, blap_crypto::ccm::Ccm::new(&key))).1
                    }
                };
                let ciphertext = ccm
                    .seal(&nonce, &data.handle.raw().to_le_bytes(), &data.payload)
                    .expect("ACL payloads are far below the CCM limit");
                SniffedFrame::Acl {
                    time: self.now,
                    from: from_claimed,
                    to: to_claimed,
                    data: ciphertext.into(),
                    encrypted: true,
                    packet_counter: counter,
                }
            }
            None => SniffedFrame::Acl {
                time: self.now,
                from: from_claimed,
                to: to_claimed,
                // The payload is shared immutably: this clone is a
                // reference-count bump, not a copy of the bytes.
                data: data.payload.clone(),
                encrypted: false,
                packet_counter: counter,
            },
        };
        self.sniffer.push(frame);
    }

    fn resolve_page_event(&mut self, pager: DeviceId, target: BdAddr) {
        let listeners: Vec<PageListener<DeviceId>> = self
            .devices
            .iter()
            .filter(|d| d.id != pager)
            .filter(|d| d.controller.scan_state().page_scan)
            .map(|d| PageListener {
                id: d.id,
                claimed_addr: d.bd_addr(),
                is_spoofer: d.is_attacker,
            })
            .collect();
        let raced = listeners
            .iter()
            .filter(|l| l.claimed_addr == target)
            .count()
            == 2;
        match resolve_page(target, &listeners, &self.race_model, &mut self.rng) {
            PageResult::Connected { responder, latency } => {
                self.counters.pages_connected += 1;
                self.counters.page_latency_us.observe(latency.as_micros());
                if raced {
                    let attacker_won = self.devices[responder.0].is_attacker;
                    self.counters.race_tally.record(if attacker_won {
                        RaceWinner::Attacker
                    } else {
                        RaceWinner::Legitimate
                    });
                    let tracer = &self.devices[pager.0].tracer;
                    if tracer.enabled() {
                        tracer.emit(TraceEvent::RaceOutcome {
                            time: self.now,
                            target,
                            attacker_won,
                        });
                    }
                }
                let tracer = &self.devices[pager.0].tracer;
                if tracer.enabled() {
                    tracer.emit(TraceEvent::PageConnected {
                        time: self.now,
                        target,
                        responder: responder.0 as u32,
                        latency_us: latency.as_micros(),
                        raced,
                    });
                }
                let time = self.now + latency;
                self.push(
                    time,
                    EventKind::PageDeliver {
                        pager,
                        responder,
                        target,
                    },
                );
            }
            PageResult::Timeout => {
                self.counters.pages_timed_out += 1;
                let tracer = &self.devices[pager.0].tracer;
                if tracer.enabled() {
                    tracer.emit(TraceEvent::PageTimeout {
                        time: self.now,
                        target,
                    });
                }
                let time = self.now + timing::PAGE_TIMEOUT;
                self.push(time, EventKind::PageTimeout { pager, target });
            }
        }
    }

    /// Finds the live link on which `device` talks to claimed address
    /// `peer_addr`, returning `(link_id, other_device, other's view)`.
    ///
    /// When two live links claim the same address (spoofing attacker next
    /// to the honest device), the earliest-established link wins — the map
    /// iterates in link-id order, so this tie-break is deterministic.
    fn route(&self, device: DeviceId, peer_addr: BdAddr) -> Option<(u64, DeviceId, BdAddr)> {
        self.links.iter().find_map(|(id, l)| {
            if !l.alive {
                return None;
            }
            if l.a == device && l.a_sees == peer_addr {
                Some((*id, l.b, l.b_sees))
            } else if l.b == device && l.b_sees == peer_addr {
                Some((*id, l.a, l.a_sees))
            } else {
                None
            }
        })
    }

    // --- device pumping -----------------------------------------------------

    /// Drains a device's host and controller output queues, routing effects.
    fn pump(&mut self, id: DeviceId) {
        for _ in 0..10_000 {
            let ctrl_outs = self.devices[id.0].controller.drain_outputs();
            let host_outs = self.devices[id.0].host.drain_outputs();
            if ctrl_outs.is_empty() && host_outs.is_empty() {
                return;
            }
            for out in ctrl_outs {
                self.handle_controller_output(id, out);
            }
            for out in host_outs {
                self.handle_host_output(id, out);
            }
        }
        panic!("device {id} output loop did not converge");
    }

    fn handle_controller_output(&mut self, id: DeviceId, out: ControllerOutput) {
        match out {
            ControllerOutput::Event(event) => {
                let now = self.now;
                let packet = HciPacket::Event(event);
                self.devices[id.0].record_hci(now, PacketDirection::Received, &packet);
                let HciPacket::Event(event) = packet else {
                    unreachable!()
                };
                self.devices[id.0].host.on_event(now, event);
            }
            ControllerOutput::Lmp { peer, pdu } => {
                if let Some((link_id, other, other_view)) = self.route(id, peer) {
                    let time = self.now + LMP_LATENCY;
                    self.push(
                        time,
                        EventKind::LmpDeliver {
                            link_id,
                            to: other,
                            from_addr: other_view,
                            pdu,
                        },
                    );
                }
                // No live link: the PDU is lost, like RF into the void.
            }
            ControllerOutput::StartPage { target } => {
                self.counters.pages_started += 1;
                let tracer = &self.devices[id.0].tracer;
                if tracer.enabled() {
                    tracer.emit(TraceEvent::PageStarted {
                        time: self.now,
                        target,
                    });
                    let span = tracer.open_span(self.now, "page", &target.to_string());
                    self.page_spans.insert((id, target), span);
                }
                let now = self.now;
                self.push(now, EventKind::PageResolve { pager: id, target });
            }
            ControllerOutput::StartInquiry { length } => {
                // Filter to discoverable devices *before* building targets:
                // hidden devices never answer, so cloning their names
                // (heap strings) into the target list was pure waste. The
                // remaining per-target name clone happens once per inquiry,
                // not per event.
                let targets: Vec<InquiryTarget<DeviceId>> = self
                    .devices
                    .iter()
                    .filter(|d| d.id != id && d.controller.scan_state().inquiry_scan)
                    .map(|d| InquiryTarget {
                        id: d.id,
                        bd_addr: d.bd_addr(),
                        cod: d.controller.cod(),
                        name: d.controller.name().clone(),
                        discoverable: true,
                    })
                    .collect();
                let responses = run_inquiry(&targets, length, &mut self.rng);
                for resp in responses {
                    let time = self.now + resp.latency;
                    self.push(
                        time,
                        EventKind::InquiryResponse {
                            inquirer: id,
                            bd_addr: resp.bd_addr,
                            cod: resp.cod,
                        },
                    );
                }
                let window = timing::INQUIRY_LENGTH_UNIT.mul(length.max(1) as u64);
                let time = self.now + window;
                self.push(time, EventKind::InquiryComplete { inquirer: id });
            }
            ControllerOutput::StartTimer { timer, after } => {
                self.arm_timer(id, SimTimer::Controller(timer), after);
            }
            ControllerOutput::CancelTimer { timer } => {
                self.cancel_timer(id, SimTimer::Controller(timer));
            }
        }
    }

    fn handle_host_output(&mut self, id: DeviceId, out: HostOutput) {
        match out {
            HostOutput::Command(command) => {
                let now = self.now;
                let packet = HciPacket::Command(command);
                self.devices[id.0].record_hci(now, PacketDirection::Sent, &packet);
                let HciPacket::Command(command) = packet else {
                    unreachable!()
                };
                self.devices[id.0].controller.on_command(now, command);
            }
            HostOutput::Acl(data) => {
                let now = self.now;
                let packet = HciPacket::AclData(data);
                self.devices[id.0].record_hci(now, PacketDirection::Sent, &packet);
                let HciPacket::AclData(data) = packet else {
                    unreachable!()
                };
                // Route by handle: find the link whose local handle matches.
                let peer_addr = self.devices[id.0]
                    .controller
                    .links()
                    .find(|l| l.handle == data.handle)
                    .map(|l| l.peer);
                if let Some(peer_addr) = peer_addr {
                    if let Some((link_id, other, other_view)) = self.route(id, peer_addr) {
                        let time = self.now + ACL_LATENCY;
                        self.push(
                            time,
                            EventKind::AclDeliver {
                                link_id,
                                to: other,
                                from_addr: other_view,
                                data,
                            },
                        );
                    }
                }
            }
            HostOutput::Ui(notification) => {
                let now = self.now;
                self.devices[id.0].handle_ui(now, notification);
            }
            HostOutput::StartTimer { timer, after } => {
                self.arm_timer(id, SimTimer::Host(timer), after);
            }
        }
    }

    fn arm_timer(&mut self, id: DeviceId, timer: SimTimer, after: Duration) {
        let generation = self
            .timer_generations
            .entry((id, timer))
            .and_modify(|g| *g += 1)
            .or_insert(1);
        let generation = *generation;
        let time = self.now + after;
        self.push(
            time,
            EventKind::TimerFire {
                device: id,
                timer,
                generation,
            },
        );
    }

    fn cancel_timer(&mut self, id: DeviceId, timer: SimTimer) {
        self.timer_generations
            .entry((id, timer))
            .and_modify(|g| *g += 1)
            .or_insert(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles;
    use blap_host::UiNotification;
    use blap_types::ServiceUuid;

    fn addr(s: &str) -> BdAddr {
        s.parse().unwrap()
    }

    #[test]
    fn two_devices_pair_end_to_end() {
        let mut world = World::new(1);
        let phone = world.add_device(profiles::lg_velvet().victim_phone("11:11:11:11:11:11"));
        let kit = world.add_device(profiles::car_kit("cc:cc:cc:cc:cc:cc"));
        world
            .device_mut(phone)
            .host
            .pair_with(addr("cc:cc:cc:cc:cc:cc"));
        // Check within the ACL idle window: pairing finishes in well under
        // five seconds and the link has had no reason to drop yet.
        world.run_for(Duration::from_secs(5));

        assert!(world
            .device(phone)
            .host
            .is_connected(addr("cc:cc:cc:cc:cc:cc")));
        assert!(world.linked(phone, kit));
        let phone_key = world
            .device(phone)
            .host
            .keystore()
            .get(addr("cc:cc:cc:cc:cc:cc"))
            .map(|e| e.link_key);
        let kit_key = world
            .device(kit)
            .host
            .keystore()
            .get(addr("11:11:11:11:11:11"))
            .map(|e| e.link_key);
        assert!(phone_key.is_some());
        assert_eq!(phone_key, kit_key, "both ends store the same link key");
    }

    #[test]
    fn one_ssp_pairing_runs_three_p256_multiplications() {
        // Two key generations and one ECDH: the end that computes its
        // DHKey second takes it from the world's memo. Other tests in this
        // binary may record scopes too, so only calls under a root scope
        // that no other test opens are counted.
        prof::set_enabled(true);
        let (phone_key, kit_key, memo_drained) = {
            let _root = prof::scope("one_ssp_pairing");
            let mut world = World::new(1);
            let phone = world.add_device(profiles::lg_velvet().victim_phone("11:11:11:11:11:11"));
            let kit = world.add_device(profiles::car_kit("cc:cc:cc:cc:cc:cc"));
            world
                .device_mut(phone)
                .host
                .pair_with(addr("cc:cc:cc:cc:cc:cc"));
            world.run_for(Duration::from_secs(5));
            let key = |id: DeviceId, peer: &str| {
                world
                    .device(id)
                    .host
                    .keystore()
                    .get(addr(peer))
                    .map(|e| e.link_key)
            };
            (
                key(phone, "cc:cc:cc:cc:cc:cc"),
                key(kit, "11:11:11:11:11:11"),
                world.dh_memo.is_empty(),
            )
        };
        prof::set_enabled(false);
        let calls: u64 = prof::report()
            .walk()
            .iter()
            .filter(|(path, _)| path.starts_with("one_ssp_pairing;"))
            .filter(|(path, _)| path.ends_with(";crypto.p256"))
            .map(|(_, node)| node.calls)
            .sum();
        assert_eq!(calls, 3, "P-256 multiplications for one SSP pairing");
        assert!(phone_key.is_some());
        assert_eq!(phone_key, kit_key, "both ends store the same link key");
        assert!(memo_drained, "the second end consumed the memo entry");
    }

    #[test]
    fn bonded_reconnect_authenticates_without_pairing() {
        let mut world = World::new(2);
        let phone = world.add_device(profiles::lg_velvet().victim_phone("11:11:11:11:11:11"));
        let kit = world.add_device(profiles::car_kit("cc:cc:cc:cc:cc:cc"));
        world
            .device_mut(phone)
            .host
            .pair_with(addr("cc:cc:cc:cc:cc:cc"));
        world.run_for(Duration::from_secs(5));
        // Tear the link down, then reconnect a profile.
        world
            .device_mut(phone)
            .host
            .disconnect(addr("cc:cc:cc:cc:cc:cc"));
        world.run_for(Duration::from_secs(5));
        assert!(!world.linked(phone, kit));

        let popups_before = world.device(phone).user.log.len();
        world
            .device_mut(phone)
            .host
            .connect_profile(addr("cc:cc:cc:cc:cc:cc"), ServiceUuid::HANDS_FREE);
        world.run_for(Duration::from_secs(5));
        assert!(world.linked(phone, kit));
        let profile_ok = world.device(phone).user.log[popups_before..]
            .iter()
            .any(|(_, n)| matches!(n, UiNotification::ProfileConnected { .. }));
        assert!(profile_ok, "profile must connect using the stored bond");
        // No new pairing popup appeared on either side.
        assert!(!world.device(phone).user.log[popups_before..]
            .iter()
            .any(|(_, n)| matches!(n, UiNotification::PairingConfirmation { .. })));
    }

    #[test]
    fn page_to_absent_device_times_out() {
        let mut world = World::new(3);
        let phone = world.add_device(profiles::lg_velvet().victim_phone("11:11:11:11:11:11"));
        world
            .device_mut(phone)
            .host
            .pair_with(addr("de:ad:be:ef:00:01"));
        world.run_for(Duration::from_secs(10));
        let failed = world
            .device(phone)
            .user
            .find(|n| matches!(n, UiNotification::ConnectFailed { .. }));
        assert!(failed.is_some(), "page timeout must surface to the UI");
    }

    #[test]
    fn determinism_same_seed_same_snoop() {
        let run = || {
            let mut world = World::new(42);
            let phone = world
                .add_device(profiles::lg_velvet().victim_phone_with_snoop("11:11:11:11:11:11"));
            let kit = world.add_device(profiles::car_kit("cc:cc:cc:cc:cc:cc"));
            let _ = kit;
            world
                .device_mut(phone)
                .host
                .pair_with(addr("cc:cc:cc:cc:cc:cc"));
            world.run_for(Duration::from_secs(30));
            world.device(phone).bug_report().expect("snoop enabled")
        };
        assert_eq!(run(), run(), "same seed must give identical snoop bytes");
    }

    #[test]
    fn legacy_pin_pairing_derives_combination_key() {
        let mut world = World::new(7);
        // Two pre-2.1 devices with matching PINs.
        let mut phone_spec = profiles::nexus_5x_a8().victim_phone("11:11:11:11:11:11");
        phone_spec.host.ssp = false;
        phone_spec.host.pin = Some(b"1234".to_vec());
        let phone = world.add_device(phone_spec);
        let mut kit_spec = profiles::car_kit("cc:cc:cc:cc:cc:cc");
        kit_spec.host.ssp = false;
        kit_spec.host.pin = Some(b"1234".to_vec());
        let kit = world.add_device(kit_spec);

        world
            .device_mut(phone)
            .host
            .pair_with(addr("cc:cc:cc:cc:cc:cc"));
        world.run_for(Duration::from_secs(5));

        let phone_bond = world
            .device(phone)
            .host
            .keystore()
            .get(addr("cc:cc:cc:cc:cc:cc"))
            .cloned()
            .expect("phone bonded via legacy PIN pairing");
        let kit_bond = world
            .device(kit)
            .host
            .keystore()
            .get(addr("11:11:11:11:11:11"))
            .cloned()
            .expect("kit bonded via legacy PIN pairing");
        assert_eq!(phone_bond.link_key, kit_bond.link_key);
        assert_eq!(
            phone_bond.key_type,
            blap_types::LinkKeyType::Combination,
            "legacy pairing produces a combination key"
        );
    }

    #[test]
    fn legacy_pin_mismatch_fails_authentication() {
        let mut world = World::new(8);
        let mut phone_spec = profiles::nexus_5x_a8().victim_phone("11:11:11:11:11:11");
        phone_spec.host.ssp = false;
        phone_spec.host.pin = Some(b"1234".to_vec());
        let phone = world.add_device(phone_spec);
        let mut kit_spec = profiles::car_kit("cc:cc:cc:cc:cc:cc");
        kit_spec.host.ssp = false;
        kit_spec.host.pin = Some(b"9999".to_vec()); // wrong PIN
        let _kit = world.add_device(kit_spec);

        world
            .device_mut(phone)
            .host
            .pair_with(addr("cc:cc:cc:cc:cc:cc"));
        world.run_for(Duration::from_secs(5));

        // The mutual authentication that follows key derivation must fail,
        // and the failure wipes the (mismatched) bond.
        let outcome = world.device(phone).user.find(|n| {
            matches!(
                n,
                UiNotification::AuthenticationOutcome {
                    status: blap_hci::StatusCode::AuthenticationFailure,
                    ..
                }
            )
        });
        assert!(outcome.is_some(), "PIN mismatch must fail authentication");
        assert!(
            world
                .device(phone)
                .host
                .keystore()
                .get(addr("cc:cc:cc:cc:cc:cc"))
                .is_none(),
            "mismatched bond must be wiped"
        );
    }

    #[test]
    fn supervision_drops_idle_links() {
        let mut world = World::new(4);
        let phone = world.add_device(profiles::lg_velvet().victim_phone("11:11:11:11:11:11"));
        let kit = world.add_device(profiles::car_kit("cc:cc:cc:cc:cc:cc"));
        // Raw connection with no traffic at all.
        world
            .device_mut(phone)
            .host
            .connect_only(addr("cc:cc:cc:cc:cc:cc"));
        world.run_for(Duration::from_secs(5));
        assert!(world.linked(phone, kit));
        // Idle past the supervision timeout.
        world.run_for(timing::LINK_SUPERVISION_TIMEOUT + Duration::from_secs(5));
        assert!(!world.linked(phone, kit), "idle link must expire");
    }
}
