//! Allocation accounting for the H4 encode hot path.
//!
//! The simulator encodes every packet crossing the HCI seam; before the
//! `encode_into` refactor each packet cost one `Vec` for the frame plus a
//! second intermediate `Vec` from `Command::encode`/`Event::encode` that
//! `HciPacket::encode` immediately copied and dropped. These tests pin the
//! fixed behavior with the shared counting allocator from
//! `blap_obs::prof` (feature `prof-alloc`):
//!
//! * `encode_into` into a warm scratch buffer performs **zero** heap
//!   allocations per packet, and
//! * `encode` (the allocating convenience wrapper) performs exactly one —
//!   the returned frame — never the historical double allocation.
//!
//! Because the allocator is the profiler's, the same installation also
//! exercises scope attribution: allocations made under an open profiling
//! scope land on that scope's report node.

use blap_hci::{AclData, Command, Event, HciPacket, Opcode, StatusCode};
use blap_obs::prof;
use blap_types::ConnectionHandle;

#[global_allocator]
static GLOBAL: prof::CountingAlloc = prof::CountingAlloc;

/// Runs the tests one at a time. The counts are per thread, so this is not
/// what keeps a window clean; it keeps process-global state (lazily built
/// tables, the profiler's enable flag) from changing under one. A failed
/// test poisons it, which must not fail every test after it.
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn allocations_during(f: impl FnOnce()) -> usize {
    let (count, _bytes) = prof::allocations_during(f);
    count as usize
}

fn sample_packets() -> Vec<HciPacket> {
    let addr = "00:1b:7d:da:71:0a".parse().expect("valid address");
    let key = "c4f16e949f04ee9c0fd6b1023389c324".parse().expect("key");
    vec![
        HciPacket::Command(Command::LinkKeyRequestReply {
            bd_addr: addr,
            link_key: key,
        }),
        HciPacket::Command(Command::CreateConnection {
            bd_addr: addr,
            allow_role_switch: true,
        }),
        HciPacket::Event(Event::CommandComplete {
            num_packets: 1,
            opcode: Opcode::RESET,
            return_params: vec![StatusCode::Success as u8],
        }),
        HciPacket::Event(Event::LinkKeyNotification {
            bd_addr: addr,
            link_key: key,
            key_type: blap_types::LinkKeyType::Combination,
        }),
        HciPacket::AclData(AclData::new(ConnectionHandle::new(0x0042), vec![0x5A; 48])),
    ]
}

#[test]
fn encode_into_warm_buffer_is_allocation_free() {
    let _serial = serial();
    let packets = sample_packets();
    let mut scratch = Vec::with_capacity(512);
    // Warm the buffer so steady-state capacity is established.
    for packet in &packets {
        scratch.clear();
        packet.encode_into(&mut scratch);
    }
    let count = allocations_during(|| {
        for _ in 0..100 {
            for packet in &packets {
                scratch.clear();
                packet.encode_into(&mut scratch);
            }
        }
    });
    assert_eq!(count, 0, "steady-state encode_into must not allocate");
}

#[test]
fn encode_allocates_exactly_once_per_packet() {
    let _serial = serial();
    // The old Command/Event arms built an intermediate Vec and copied it:
    // two allocations per packet. The fixed wrapper performs only the one
    // for the returned frame.
    for packet in sample_packets() {
        let count = allocations_during(|| {
            std::hint::black_box(packet.encode());
        });
        assert_eq!(
            count,
            1,
            "{} must allocate exactly the returned frame",
            packet.name()
        );
    }
}

#[test]
fn encode_into_matches_encode_for_every_shape() {
    let _serial = serial();
    let mut scratch = Vec::new();
    for packet in sample_packets() {
        scratch.clear();
        packet.encode_into(&mut scratch);
        assert_eq!(scratch, packet.encode(), "{}", packet.name());
    }
}

#[test]
fn allocations_attribute_to_open_profiling_scopes() {
    let _serial = serial();
    prof::reset();
    prof::set_enabled(true);
    {
        let _scope = prof::scope("alloc_probe");
        std::hint::black_box(Vec::<u8>::with_capacity(4096));
    }
    prof::set_enabled(false);
    let report = prof::report();
    let scopes = report.walk();
    let (_, node) = scopes
        .iter()
        .find(|(path, _)| path == "alloc_probe")
        .expect("probe scope must appear in the report");
    assert!(node.alloc_count >= 1, "the Vec allocation must be counted");
    assert!(
        node.alloc_bytes >= 4096,
        "at least the Vec's bytes must be attributed, got {}",
        node.alloc_bytes
    );
    prof::reset();
}
