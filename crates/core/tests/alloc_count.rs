//! Allocation accounting for the PIN-crack and eavesdrop inner loops,
//! and for the trace read path.
//!
//! The batched sweeps hold per-candidate state on the stack or in
//! per-worker scratch reused across chunks: the odometer buffer, the E22
//! augmentation template, the splatted cipher input, and (for eavesdrop)
//! the `OpenBatch` plaintext arena. These tests pin that discipline with
//! the shared counting allocator from `blap_obs::prof` (feature
//! `prof-alloc`): a full sweep must cost a number of heap allocations
//! proportional to its *outputs* plus a small constant — never one per
//! candidate, per batch, or per frame × handle attempt.
//!
//! The trace read path holds the same line: `StreamAnalyzer::push_line`
//! scans a line in place and allocates only the strings a trial segment
//! keeps, and `FrameReader::next_frame` reuses one payload buffer, so a
//! frame costs only its own strings.

use blap::eavesdrop::decrypt_capture;
use blap::legacy_pin::{crack_numeric_pin_with, LegacyPairingCapture};
use blap::runner::Jobs;
use blap::{addrs, extract};
use blap_obs::json::{self, Value};
use blap_obs::prof;
use blap_obs::{Frame, FrameReader, FrameWriter, StreamAnalyzer};
use blap_sim::{profiles, SniffedFrame, World};
use blap_types::{BdAddr, Duration, LinkKey, ServiceUuid};

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

fn capture_for(pin: &[u8]) -> LegacyPairingCapture {
    LegacyPairingCapture::synthesize(
        BdAddr::new([0x00, 0x1B, 0x7D, 0xDA, 0x71, 0x0A]),
        BdAddr::new([0xA4, 0x0E, 0x2B, 0x01, 0x02, 0x03]),
        pin,
        [0x11; 16],
        [0x22; 16],
        [0x33; 16],
        [0x44; 16],
    )
}

#[test]
fn exhaustive_miss_sweep_allocates_only_worker_scratch() {
    let _serial = serial();
    // Plant a 6-digit PIN but sweep only up to 4 digits: all 11,110
    // candidates run the full batch verdict chain and miss.
    let capture = capture_for(b"987654");
    // Warm the process-wide SAFER+ table caches outside the window.
    assert!(crack_numeric_pin_with(&capture, 4, Jobs::new(1)).is_none());
    let count = allocations_during(|| {
        assert!(crack_numeric_pin_with(&capture, 4, Jobs::new(1)).is_none());
    });
    assert!(
        count <= 2,
        "an 11,110-candidate miss sweep must only allocate per-worker \
         scratch (got {count} allocations — is the inner loop allocating \
         per candidate or per batch?)"
    );
}

/// An encrypted-session capture plus the extracted key, built outside the
/// measurement windows (world simulation allocates freely, by design).
fn eavesdrop_capture() -> (Vec<SniffedFrame>, LinkKey, BdAddr, BdAddr) {
    let m_addr: BdAddr = addrs::M.parse().expect("valid address");
    let c_addr: BdAddr = addrs::C.parse().expect("valid address");
    let mut world = World::new(57);
    let _m = world.add_device(profiles::lg_velvet().victim_phone(addrs::M));
    let c = world.add_device(profiles::galaxy_s8().soft_target(addrs::C));
    world.device_mut(c).host.pair_with(m_addr);
    world.run_for(Duration::from_secs(5));
    world.device_mut(c).host.disconnect(m_addr);
    world.run_for(Duration::from_secs(2));
    world
        .device_mut(c)
        .host
        .connect_profile(m_addr, ServiceUuid::PBAP_PSE);
    world.run_for(Duration::from_secs(5));
    for i in 0..4u8 {
        world.device_mut(c).host.send_data(m_addr, vec![i; 48]);
        world.run_for(Duration::from_millis(100));
    }
    world.run_for(Duration::from_secs(1));
    let frames = world.sniffed_frames().to_vec();
    let key = extract::from_snoop_log(world.device(c), m_addr).expect("key extracted");
    (frames, key, c_addr, m_addr)
}

#[test]
fn batched_decrypt_allocates_per_plaintext_not_per_attempt() {
    let _serial = serial();
    let (frames, key, c_addr, m_addr) = eavesdrop_capture();
    let plain = decrypt_capture(&frames, key, c_addr, m_addr);
    assert!(!plain.is_empty(), "fixture must decrypt something");
    let count = allocations_during(|| {
        let out = decrypt_capture(&frames, key, c_addr, m_addr);
        assert_eq!(out.len(), plain.len());
        std::hint::black_box(out);
    });
    // Budget: the returned plaintext `Vec`s (inherent to the signature)
    // plus the frame-view collects, the `OpenBatch` arena, the handle
    // probe's scratch buffer and the CCM context — never a fresh `Vec` per
    // frame × handle attempt.
    let budget = plain.len() + 16;
    assert!(
        count <= budget,
        "batched decrypt of {} frames must allocate O(plaintexts), got \
         {count} allocations (budget {budget}) — is a per-frame or \
         per-handle buffer back?",
        plain.len()
    );
}

#[test]
fn hit_sweep_allocates_scratch_and_result_only() {
    let _serial = serial();
    let capture = capture_for(b"2042");
    assert!(crack_numeric_pin_with(&capture, 4, Jobs::new(1)).is_some());
    let count = allocations_during(|| {
        let result =
            crack_numeric_pin_with(&capture, 4, Jobs::new(1)).expect("planted PIN must be found");
        assert_eq!(result.pin, b"2042");
        std::hint::black_box(result);
    });
    assert!(
        count <= 4,
        "a hit sweep must only allocate scratch plus the returned result, \
         got {count} allocations"
    );
}

/// The committed Table II trace: 3094 lines over 14 units.
fn table2_trace() -> String {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/fixtures/table2_trace.jsonl"
    );
    std::fs::read_to_string(path).expect("Table II trace fixture")
}

/// Whether a trace line's event is one `push_line` reads only for its
/// timestamp: nothing of it is kept.
fn is_unkept_event(line: &str) -> bool {
    ["hci", "dispatch", "attack_phase", "page_start"]
        .iter()
        .any(|ev| line.contains(&format!("\"ev\":\"{ev}\"")))
}

#[test]
fn push_line_allocates_nothing_on_lines_it_does_not_keep() {
    let _serial = serial();
    let trace = table2_trace();
    let mut analyzer = StreamAnalyzer::new();
    // Warm-up: one pass leaves the segment ledgers at working size.
    for line in trace.lines() {
        analyzer.push_line(line).expect("fixture line");
    }
    let mut checked = 0;
    for line in trace.lines().filter(|line| is_unkept_event(line)) {
        let count = allocations_during(|| analyzer.push_line(line).expect("fixture line"));
        assert_eq!(count, 0, "push_line allocated {count} time(s) on {line}");
        checked += 1;
    }
    assert_eq!(
        checked,
        952 + 504 + 70 + 28,
        "hci, dispatch, attack_phase, page_start"
    );
}

#[test]
fn push_line_allocates_only_the_strings_a_segment_keeps() {
    let _serial = serial();
    let trace = table2_trace();
    // The strings the analyzer keeps per line: span names, details and
    // statuses, LMP PDU names (`LMP_detach` is exempt from matching and
    // not kept), keystore actions.
    let kept: usize = trace
        .lines()
        .map(|line| {
            let value = json::parse(line).expect("fixture line");
            let field = |key: &str| value.get(key).and_then(Value::as_str);
            match field("ev").expect("every line has an ev") {
                "span_open" => 1 + usize::from(field("detail").is_some()),
                "span_close" | "keystore" => 1,
                "lmp_send" | "lmp_recv" => usize::from(field("pdu") != Some("LMP_detach")),
                _ => 0,
            }
        })
        .sum();
    assert_eq!(kept, 2 * 378 + 378 + 2 * 336 + 56);
    let mut analyzer = StreamAnalyzer::new();
    let count = allocations_during(|| {
        for line in trace.lines() {
            analyzer.push_line(line).expect("fixture line");
        }
    });
    let analysis = analyzer.finish();
    assert!(analysis.ok(), "{}", analysis.report());
    // Beyond the kept strings: the span table's B-tree nodes, a few per
    // trial segment, and the ledgers growing to size over the first one.
    // A per-line tree, key or scratch string would add thousands.
    let budget = kept + 6 * analysis.segment_count + 16;
    assert!(
        count <= budget,
        "{} lines cost {count} allocations, budget {budget} ({kept} kept strings, {} segments)",
        analysis.line_count,
        analysis.segment_count
    );
}

#[test]
fn next_frame_allocates_only_the_frames_own_strings() {
    let _serial = serial();
    let trace = table2_trace();
    let mut writer = FrameWriter::new(Vec::new()).expect("in-memory writer");
    // The stream twice over: the first copy warms the reader's payload
    // buffer to its working size, the second is measured.
    for _ in 0..2 {
        for line in trace.lines() {
            let frame = Frame::from_jsonl(line).expect("canonical fixture line");
            writer.write_frame(&frame).expect("in-memory write");
        }
    }
    let bytes = writer.finish().expect("in-memory flush");
    let mut reader = FrameReader::new(&bytes[..]).expect("magic");
    let lines = trace.lines().count();
    for _ in 0..lines {
        reader.next_frame().expect("well-formed").expect("a frame");
    }
    for _ in 0..lines {
        let mut frame = None;
        let count = allocations_during(|| {
            frame = reader.next_frame().expect("well-formed");
        });
        let frame = frame.expect("a frame");
        // Cloning a frame allocates exactly its own strings.
        let own = allocations_during(|| {
            std::hint::black_box(frame.clone());
        });
        assert_eq!(count, own, "next_frame allocated beyond {frame:?}");
    }
    assert!(reader.next_frame().expect("clean end").is_none());
}
