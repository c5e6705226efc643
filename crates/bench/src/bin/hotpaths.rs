//! Hot-path benchmark summary: one JSON artifact (`BENCH_hotpaths.json`)
//! covering the kernels the perf work targets — HCI encode/decode, the
//! AES-CCM link cipher (single-frame and the batched `open_many_into`),
//! the eavesdrop decrypt pipeline, legacy `E1`, the pincrack candidate
//! loop, the P-256 field multiply, key generation and ECDH (the Stage-1
//! exchange behind every simulated pairing), the trace read path
//! (`StreamAnalyzer::push_line` per line, and `FrameReader::next_frame`
//! and `Frame::render_jsonl` per frame, over the Table II trace fixture),
//! and the disabled-telemetry hook (pinning the zero-cost-when-off
//! contract of the live telemetry tier) — plus end-to-end wall times for
//! the table drivers and a
//! `throughput` section with the batched sweep figures
//! (`pincrack_candidates_per_sec`, `ccm_open_bytes_per_sec`) and the
//! campaign trial itself (`campaign_trials_per_sec`); every `throughput`
//! key is floor-gated by `blap-bench compare`: only a drop regresses.
//!
//! Regenerate with:
//!
//! ```text
//! BLAP_METRICS_WALL=1 cargo run --release -p blap-bench --bin hotpaths > BENCH_hotpaths.json
//! ```
//!
//! `BLAP_METRICS_WALL=1` additionally folds the per-unit wall-time
//! histograms the observed runners record into the `wall_ms` section
//! (without it those fields are `null`; the deterministic artifacts the
//! tables emit never contain wall times, which is why the flag exists).
//!
//! Numbers are medians over several timed batches — stable enough to spot
//! multi-x regressions. For a cross-layer view of one workload, run
//! `blap-benchmark`, which breaks each trial down by layer.

use blap::campaign::{Campaign, Population};
use blap::eavesdrop::decrypt_capture;
use blap::legacy_pin::{crack_numeric_pin_with, LegacyPairingCapture};
use blap::runner::Jobs;
use blap::{addrs, extract};
use blap_crypto::bigint::U256;
use blap_crypto::ccm::{OpenBatch, SealedFrame};
use blap_crypto::p256::{FieldElement, KeyPair};
use blap_crypto::{aes::Aes128, ccm, e1};
use blap_hci::{Command, Event, HciPacket};
use blap_obs::json::{self, Layout};
use blap_obs::{Frame, FrameReader, FrameWriter, StreamAnalyzer};
use blap_sim::{profiles, SniffedFrame, World};
use blap_types::{BdAddr, ConnectionHandle, Duration, LinkKey, LinkKeyType, ServiceUuid};
use std::hint::black_box;
use std::time::Instant;

/// Median ns/op over `SAMPLES` batches of `iters` calls each.
fn ns_per_op(iters: u64, mut op: impl FnMut()) -> f64 {
    const SAMPLES: usize = 9;
    // One warm-up batch so lazy tables and allocator warm-up don't skew
    // the first sample.
    for _ in 0..iters {
        op();
    }
    let mut samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..iters {
                op();
            }
            started.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    samples[SAMPLES / 2]
}

fn sample_packets() -> Vec<HciPacket> {
    let addr: BdAddr = "00:1b:7d:da:71:0a".parse().expect("valid");
    let key: LinkKey = "c4f16e949f04ee9c0fd6b1023389c324".parse().expect("valid");
    vec![
        HciPacket::Command(Command::CreateConnection {
            bd_addr: addr,
            allow_role_switch: true,
        }),
        HciPacket::Command(Command::LinkKeyRequestReply {
            bd_addr: addr,
            link_key: key,
        }),
        HciPacket::Event(Event::ConnectionComplete {
            status: blap_hci::StatusCode::Success,
            handle: ConnectionHandle::new(6),
            bd_addr: addr,
            encryption_enabled: false,
        }),
        HciPacket::Event(Event::LinkKeyNotification {
            bd_addr: addr,
            link_key: key,
            key_type: LinkKeyType::UnauthenticatedP256,
        }),
        HciPacket::AclData(blap_hci::AclData::new(
            ConnectionHandle::new(6),
            vec![0x5A; 48],
        )),
    ]
}

fn main() {
    let jobs = Jobs::from_env();
    let wall_metrics = std::env::var("BLAP_METRICS_WALL").is_ok_and(|v| v == "1");

    // --- Kernel micro-timings -------------------------------------------
    let pkts = sample_packets();
    let mut buf = Vec::with_capacity(64);
    let hci_encode_into = ns_per_op(20_000, || {
        for p in &pkts {
            buf.clear();
            black_box(p).encode_into(&mut buf);
            black_box(buf.len());
        }
    }) / pkts.len() as f64;
    let hci_encode_alloc = ns_per_op(20_000, || {
        for p in &pkts {
            black_box(black_box(p).encode().len());
        }
    }) / pkts.len() as f64;
    let encoded: Vec<Vec<u8>> = pkts.iter().map(|p| p.encode()).collect();
    let hci_decode = ns_per_op(20_000, || {
        for bytes in &encoded {
            black_box(HciPacket::decode(black_box(bytes)).expect("valid"));
        }
    }) / encoded.len() as f64;

    let aes = Aes128::new(&[0x42; 16]);
    let block = [0xA5u8; 16];
    let aes_block = ns_per_op(100_000, || {
        black_box(aes.encrypt_block(black_box(&block)));
    });

    let ccm_key = [0x42u8; 16];
    let nonce = [7u8; 13];
    let payload = vec![0x5Au8; 64];
    let ccm_ctx = ccm::Ccm::new(&ccm_key);
    let sealed = ccm_ctx.seal(&nonce, b"hd", &payload).expect("fits");
    let ccm_seal = ns_per_op(20_000, || {
        black_box(
            black_box(&ccm_ctx)
                .seal(&nonce, b"hd", black_box(&payload))
                .expect("fits"),
        );
    });
    let ccm_open = ns_per_op(20_000, || {
        black_box(
            black_box(&ccm_ctx)
                .open(&nonce, b"hd", black_box(&sealed))
                .expect("valid"),
        );
    });

    // Batched CCM over the same 64-byte frame shape: full FRAME_LANES
    // chunks (steady state — a ragged tail pays a whole chunk's passes and
    // is left out of this number), plaintexts landing in one reused
    // arena. Per-frame ns and the derived bytes/s floor the compare gate
    // defends.
    const BATCH_FRAMES: usize = 4 * ccm::FRAME_LANES;
    let batch_sealed: Vec<([u8; 13], Vec<u8>)> = (0..BATCH_FRAMES)
        .map(|i| {
            let mut n = nonce;
            n[0] = i as u8;
            (n, ccm_ctx.seal(&n, b"hd", &payload).expect("fits"))
        })
        .collect();
    let batch_views: Vec<SealedFrame<'_>> = batch_sealed
        .iter()
        .map(|(n, ct)| SealedFrame {
            nonce: *n,
            aad: b"hd",
            ciphertext_and_tag: ct,
        })
        .collect();
    let mut batch_out = OpenBatch::new();
    let ccm_open_batched = ns_per_op(2_000, || {
        black_box(&ccm_ctx).open_many_into(black_box(&batch_views), &mut batch_out);
        black_box(&batch_out);
    }) / BATCH_FRAMES as f64;
    let ccm_open_bytes_per_sec = payload.len() as f64 * 1e9 / ccm_open_batched;

    // Eavesdrop pipeline: batched decrypt of a real sniffed capture
    // (session-key replay + handle resolution + open_many_into), per encrypted
    // frame. The capture is built once outside the timed region.
    let (eaves_frames, eaves_key, eaves_c, eaves_m) = eavesdrop_capture();
    let n_encrypted = eaves_frames
        .iter()
        .filter(|f| {
            matches!(
                f,
                SniffedFrame::Acl {
                    encrypted: true,
                    ..
                }
            )
        })
        .count();
    assert!(n_encrypted > 0, "capture must contain encrypted frames");
    let eavesdrop_decrypt = ns_per_op(500, || {
        black_box(decrypt_capture(
            black_box(&eaves_frames),
            eaves_key,
            eaves_c,
            eaves_m,
        ));
    }) / n_encrypted as f64;

    // Zero-cost-when-off contract of the telemetry hooks: with the hub
    // disabled, every record call must collapse to one relaxed load and
    // an early return. 128 calls per timed op keep the per-call figure
    // above timer resolution; the compare gate ceilings it so a stray
    // allocation or lock on the disabled path shows up as a regression.
    blap_obs::telemetry::set_enabled(false);
    let busy = std::time::Duration::from_nanos(100);
    let telemetry_disabled = ns_per_op(20_000, || {
        for i in 0..64usize {
            blap_obs::telemetry::record_unit(black_box(i), busy);
            blap_obs::telemetry::record_trial(black_box("bench/off"), true, 42);
        }
        black_box(blap_obs::telemetry::enabled());
    }) / 128.0;

    let e1_key: LinkKey = "71a70981f30d6af9e20adee8aafe3264".parse().expect("valid");
    let e1_addr: BdAddr = "aa:aa:aa:aa:aa:aa".parse().expect("valid");
    let e1_rand = [1u8; 16];
    let legacy_e1 = ns_per_op(20_000, || {
        black_box(e1::e1(black_box(&e1_key), &e1_rand, e1_addr));
    });

    // P-256: two key generations plus one ECDH per simulated pairing (the
    // second end takes its DHKey from the world's memo), most of a
    // campaign trial's time, and the field multiply underneath both.
    let fe_a = FieldElement::from_u256(U256::from_hex(
        "deadbeefcafebabe0123456789abcdef0fedcba9876543211122334455667788",
    ));
    let fe_b = FieldElement::from_u256(U256::from_hex(
        "6b17d1f2e12c4247f8bce6e563a440f277037d812deb33a0f4a13945d898c296",
    ));
    let p256_fe_mul = ns_per_op(200_000, || {
        black_box(black_box(fe_a).mul(black_box(&fe_b)));
    });
    let p256_keygen = ns_per_op(200, || {
        black_box(KeyPair::from_rng_bytes(black_box([0x42; 32])).expect("nonzero secret"));
    });
    let local = KeyPair::from_rng_bytes([0x42; 32]).expect("nonzero secret");
    let remote = KeyPair::from_rng_bytes([0x17; 32])
        .expect("nonzero secret")
        .public();
    let p256_ecdh = ns_per_op(100, || {
        black_box(
            local
                .diffie_hellman(black_box(&remote))
                .expect("valid public key"),
        );
    });

    // The trace read path `blap-trace check` runs on: a fresh analyzer
    // over the committed Table II trace, per line; the same trace as one
    // BLAPTRC1 stream read back frame by frame (`next_frame` decodes and
    // renders each payload); and `render_jsonl`, which copies a frame's
    // line out, per frame.
    let trace = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/fixtures/table2_trace.jsonl"
    ))
    .expect("Table II trace fixture");
    let trace_lines: Vec<&str> = trace.lines().collect();
    let trace_push_line = ns_per_op(20, || {
        let mut analyzer = StreamAnalyzer::new();
        for line in &trace_lines {
            analyzer.push_line(black_box(line)).expect("fixture line");
        }
        black_box(analyzer.finish());
    }) / trace_lines.len() as f64;
    let frames: Vec<Frame> = trace_lines
        .iter()
        .map(|line| Frame::from_jsonl(line).expect("canonical fixture line"))
        .collect();
    let mut writer = FrameWriter::new(Vec::new()).expect("in-memory writer");
    for frame in &frames {
        writer.write_frame(frame).expect("in-memory write");
    }
    let stream = writer.finish().expect("in-memory flush");
    let frame_next_frame = ns_per_op(20, || {
        let mut reader = FrameReader::new(black_box(&stream[..])).expect("magic");
        while let Some(frame) = reader.next_frame().expect("well-formed") {
            black_box(frame);
        }
    }) / frames.len() as f64;
    let mut rendered = String::with_capacity(256);
    let frame_render_jsonl = ns_per_op(50, || {
        for frame in &frames {
            rendered.clear();
            black_box(frame).render_jsonl(&mut rendered);
            black_box(&rendered);
        }
    }) / frames.len() as f64;

    // Per-candidate pincrack cost: a full 4-digit-space scan for a PIN
    // near the end of the space, divided by the attempts it reports.
    let capture = LegacyPairingCapture::synthesize(
        "11:11:11:11:11:11".parse().expect("valid"),
        "00:1b:7d:da:71:0a".parse().expect("valid"),
        b"8527",
        [0xA1; 16],
        [0xB2; 16],
        [0xC3; 16],
        [0xD4; 16],
    );
    let serial = Jobs::serial();
    let warm = crack_numeric_pin_with(&capture, 4, serial).expect("found");
    let crack_started = Instant::now();
    const CRACK_REPS: u32 = 3;
    for _ in 0..CRACK_REPS {
        black_box(crack_numeric_pin_with(black_box(&capture), 4, serial).expect("found"));
    }
    let pincrack_wall = crack_started.elapsed().as_secs_f64() * 1e3 / f64::from(CRACK_REPS);
    let pincrack_candidate = pincrack_wall * 1e6 / warm.attempts as f64;

    // Batched sweep throughput over the full 6-digit space: a PIN near the
    // end of the space keeps the sweep long enough (~1.1M candidates) that
    // per-sweep setup is noise. Floor-gated in `compare` — the one number
    // the batching work exists to defend.
    let capture6 = LegacyPairingCapture::synthesize(
        "11:11:11:11:11:11".parse().expect("valid"),
        "00:1b:7d:da:71:0a".parse().expect("valid"),
        b"987654",
        [0xA1; 16],
        [0xB2; 16],
        [0xC3; 16],
        [0xD4; 16],
    );
    let warm6 = crack_numeric_pin_with(&capture6, 6, serial).expect("found");
    let sweep_started = Instant::now();
    const SWEEP_REPS: u32 = 2;
    for _ in 0..SWEEP_REPS {
        black_box(crack_numeric_pin_with(black_box(&capture6), 6, serial).expect("found"));
    }
    let sweep_secs = sweep_started.elapsed().as_secs_f64() / f64::from(SWEEP_REPS);
    let pincrack_candidates_per_sec = warm6.attempts as f64 / sweep_secs;

    // The unit of work itself: fleet campaign trials on one worker, the
    // median of five runs after one warm-up. Floor-gated like the sweeps.
    let fleet = Campaign::new(Population::fleet(), 512, 2022);
    black_box(fleet.run(Jobs::serial()));
    let mut trial_rates: Vec<f64> = (0..5)
        .map(|_| {
            let started = Instant::now();
            black_box(fleet.run(Jobs::serial()));
            fleet.trials as f64 / started.elapsed().as_secs_f64()
        })
        .collect();
    trial_rates.sort_by(|a, b| a.partial_cmp(b).expect("finite rates"));
    let campaign_trials_per_sec = trial_rates[trial_rates.len() / 2];

    // --- End-to-end wall times ------------------------------------------
    let t1_started = Instant::now();
    let t1 = blap_bench::run_table1_observed_with(2022, jobs);
    let table1_wall = t1_started.elapsed().as_secs_f64() * 1e3;
    let t2_started = Instant::now();
    let t2 = blap_bench::run_table2_observed_with(2022, 4, jobs);
    let table2_wall = t2_started.elapsed().as_secs_f64() * 1e3;
    assert!(!t1.rows.is_empty() && !t2.rows.is_empty());

    // With BLAP_METRICS_WALL=1 the observed runners also record per-unit
    // wall histograms; their sums measure time inside units (excluding
    // scheduling), worth having next to the end-to-end number.
    let unit_wall_ms = |metrics: &blap_obs::Metrics| {
        metrics
            .histogram("unit_wall_us")
            .map(|h| h.sum() as f64 / 1e3)
    };

    let kernels = [
        ("hci_encode_into_packet", hci_encode_into),
        ("hci_encode_alloc_packet", hci_encode_alloc),
        ("hci_decode_packet", hci_decode),
        ("aes128_encrypt_block", aes_block),
        ("ccm_seal_64b", ccm_seal),
        ("ccm_open_64b", ccm_open),
        ("ccm_open_batched_64b", ccm_open_batched),
        ("eavesdrop_decrypt_frame", eavesdrop_decrypt),
        ("legacy_e1", legacy_e1),
        ("pincrack_candidate", pincrack_candidate),
        ("p256_fe_mul", p256_fe_mul),
        ("p256_keygen", p256_keygen),
        ("p256_ecdh", p256_ecdh),
        ("trace_push_line", trace_push_line),
        ("frame_next_frame", frame_next_frame),
        ("frame_render_jsonl", frame_render_jsonl),
        ("telemetry_disabled", telemetry_disabled),
    ];
    let wall_ms = [
        ("table1", Some(table1_wall)),
        ("table1_units", unit_wall_ms(&t1.metrics)),
        ("table2_trials4", Some(table2_wall)),
        ("table2_units", unit_wall_ms(&t2.metrics)),
        ("pincrack_4digit", Some(pincrack_wall)),
    ];
    let throughput = [
        ("pincrack_candidates_per_sec", pincrack_candidates_per_sec),
        ("ccm_open_bytes_per_sec", ccm_open_bytes_per_sec),
        ("campaign_trials_per_sec", campaign_trials_per_sec),
    ];
    let mut artifact = String::new();
    json::object(&mut artifact, Layout::Lines, |w| {
        w.str("schema", "blap-bench-hotpaths-v2");
        let host = blap_bench::compare::HostFingerprint::current();
        w.object("host", Layout::Lines, |w| host.write_members(w));
        w.u64("jobs", jobs.get() as u64);
        w.bool("metrics_wall", wall_metrics);
        w.object("ns_per_op", Layout::Lines, |w| {
            for (name, ns) in kernels {
                w.f64(name, ns, 1);
            }
        });
        w.object("wall_ms", Layout::Lines, |w| {
            for (name, ms) in wall_ms {
                match ms {
                    Some(ms) => w.f64(name, ms, 1),
                    None => w.null(name),
                };
            }
        });
        w.object("throughput", Layout::Lines, |w| {
            for (name, rate) in throughput {
                w.f64(name, rate, 1);
            }
        });
    });
    println!("{artifact}");
}

/// An encrypted PBAP session capture plus the extracted key — the same
/// world the `eavesdrop` scenario runs, rebuilt here so the timed region
/// covers only the attacker-side decrypt.
fn eavesdrop_capture() -> (Vec<SniffedFrame>, LinkKey, BdAddr, BdAddr) {
    let m_addr: BdAddr = addrs::M.parse().expect("valid address");
    let c_addr: BdAddr = addrs::C.parse().expect("valid address");
    let mut world = World::new(404);
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
    for i in 0..8u8 {
        world.device_mut(c).host.send_data(m_addr, vec![i; 64]);
        world.run_for(Duration::from_millis(100));
    }
    world.run_for(Duration::from_secs(1));
    let frames = world.sniffed_frames().to_vec();
    let key = extract::from_snoop_log(world.device(c), m_addr).expect("key extracted");
    (frames, key, c_addr, m_addr)
}
