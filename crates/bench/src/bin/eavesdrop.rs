//! Demonstrates the §IV consequence of a stolen link key: decrypting
//! air-sniffed traffic, past and future.
//!
//! ```text
//! cargo run --release -p blap-bench --bin eavesdrop -- \
//!     [--frames N] [--frame-len N] \
//!     [--metrics out/metrics.json] [--jobs N]
//! ```
//!
//! Without flags, runs the narrative scenario: an encrypted PBAP session
//! captured by a passive sniffer, then decrypted offline with the
//! extracted key. With `--frames`/`--frame-len`, additionally sweeps a
//! synthetic capture of that shape through the decrypt engine
//! (`decrypt_capture`, which opens the capture in batches). The recovered
//! plaintexts and the metrics artifact are byte-identical at any
//! `BLAP_JOBS` value; wall time and the derived
//! `eavesdrop.bytes_per_second` only appear under `BLAP_METRICS_WALL=1`,
//! the same opt-in the rest of the artifacts use.

use std::time::Instant as WallInstant;

use blap::addrs;
use blap::eavesdrop::{decrypt_capture, EavesdropScenario};
use blap_bench::cli::{self, Args};
use blap_crypto::{ccm, ssp};
use blap_obs::{MetaValue, Metrics};
use blap_sim::SniffedFrame;
use blap_types::{BdAddr, Instant, LinkKey};

fn main() {
    let args = Args::parse_with(&["--frames", "--frame-len"], &[]);
    let frames: usize = args.extra_or("--frames", 0).unwrap_or_else(die);
    let frame_len: usize = args.extra_or("--frame-len", 64).unwrap_or_else(die);
    // Decryption is a single offline pass; jobs is accepted for CLI
    // uniformity and to document that the artifact is identical at any
    // value.
    let _jobs = args.resolve_jobs(0);
    args.init_profiling();
    let started = WallInstant::now();

    let mut metrics = Metrics::new();
    if frames > 0 {
        sweep(frames, frame_len, &mut metrics);
    } else {
        scenario_demo(&mut metrics);
    }

    if let Some(path) = &args.metrics_path {
        cli::write_metrics(
            path,
            &[
                ("experiment", MetaValue::Str("eavesdrop".to_owned())),
                ("frames", MetaValue::Int(frames as u64)),
                ("frame_len", MetaValue::Int(frame_len as u64)),
            ],
            &metrics,
            started.elapsed(),
        );
    }
    args.write_profile();
}

fn scenario_demo(metrics: &mut Metrics) {
    let scenario = EavesdropScenario::new(404);
    println!("== Air-sniffer eavesdropping with an extracted link key ==\n");
    println!("setup: C (Galaxy S8, snoop on) runs an AES-CCM encrypted PBAP");
    println!("session with M (LG VELVET) while a passive sniffer records\n");

    let report = scenario.run();
    println!(
        "encrypted ACL frames captured     : {}",
        report.captured_encrypted_frames
    );
    println!(
        "secrets visible in the ciphertext : {}",
        report.ciphertext_contains_secrets
    );
    println!(
        "link key pulled from C's dump     : {}",
        report
            .stolen_key
            .map(|k| k.to_hex())
            .unwrap_or_else(|| "-".to_owned())
    );
    println!("\noffline key schedule: sniffed LMP_au_rand -> h4/h5 -> ACO -> h3");
    println!("-> session key -> per-frame CCM nonces\n");
    println!(
        "secrets recovered by decryption   : {}/{}",
        report.decrypted_secrets.len(),
        scenario.secrets.len()
    );
    for secret in &report.decrypted_secrets {
        println!("   {:?}", String::from_utf8_lossy(secret));
    }
    println!(
        "\nverdict: {}",
        if report.succeeded(scenario.secrets.len()) {
            "encryption hid nothing from a key-holding eavesdropper"
        } else {
            "UNEXPECTED: decryption failed"
        }
    );
    metrics.add(
        "eavesdrop.captured_frames",
        report.captured_encrypted_frames as u64,
    );
    metrics.add(
        "eavesdrop.decrypted_secrets",
        report.decrypted_secrets.len() as u64,
    );
}

/// Times the decrypt engine over a synthetic capture: `frames` encrypted
/// ACL frames of `frame_len` bytes under one real session-key schedule.
/// The sealed bytes are produced the way the link would (CCM with the
/// per-frame counter nonce), so the attacker-side path under test is the
/// genuine one: find `LMP_au_rand`, replay the schedule, brute the
/// handle, decrypt.
fn sweep(frames: usize, frame_len: usize, metrics: &mut Metrics) {
    println!("== Eavesdrop decrypt sweep ({frames} x {frame_len}B, engine: batched) ==\n");

    let c_addr: BdAddr = addrs::C.parse().expect("valid address");
    let m_addr: BdAddr = addrs::M.parse().expect("valid address");
    let link_key: LinkKey = "c4f16e949f04ee9c0fd6b1023389c324".parse().expect("valid");
    let au_rand = [0x5Au8; 16];
    let (_sres, aco) =
        ssp::secure_authentication_response(&link_key, c_addr, m_addr, &au_rand, &[0u8; 16]);
    let mut aco_ext = [0u8; 8];
    aco_ext.copy_from_slice(&aco);
    let enc_key = ssp::h3(&link_key, c_addr, m_addr, &aco_ext);
    let session = ccm::Ccm::new(&enc_key);

    let mut capture = vec![SniffedFrame::Lmp {
        time: Instant::EPOCH,
        from: c_addr,
        to: m_addr,
        name: "LMP_au_rand",
        au_rand: Some(au_rand),
    }];
    let mut expected = Vec::with_capacity(frames);
    for i in 0..frames {
        let payload: Vec<u8> = (0..frame_len)
            .map(|b| (b ^ i).wrapping_mul(31) as u8)
            .collect();
        let nonce = ccm::acl_nonce(i as u64, c_addr);
        let sealed = session
            .seal(&nonce, &1u16.to_le_bytes(), &payload)
            .expect("frame fits CCM length field");
        capture.push(SniffedFrame::Acl {
            time: Instant::from_micros(1 + i as u64),
            from: c_addr,
            to: m_addr,
            data: sealed.into(),
            encrypted: true,
            packet_counter: i as u64,
        });
        expected.push(payload);
    }

    // Repetitions scale inversely with the workload so small sweeps still
    // measure something — a pure function of the flags, so the artifact
    // stays deterministic.
    let reps = (2_000_000 / (frames * frame_len.max(1)).max(1)).clamp(1, 1000) as u32;
    let plain = decrypt_capture(&capture, link_key, c_addr, m_addr);
    assert_eq!(plain, expected, "decrypt engine must recover every frame");
    let sweep_started = WallInstant::now();
    for _ in 0..reps {
        std::hint::black_box(decrypt_capture(
            std::hint::black_box(&capture),
            link_key,
            c_addr,
            m_addr,
        ));
    }
    let elapsed = sweep_started.elapsed();

    let bytes = (frames * frame_len) as u64;
    println!("decrypted {frames}/{frames} frames ({bytes} payload bytes) x{reps} sweeps");
    metrics.add("eavesdrop.sweep_frames", frames as u64);
    metrics.add("eavesdrop.sweep_decrypted", plain.len() as u64);
    metrics.add("eavesdrop.sweep_bytes", bytes);
    if wall_metrics_enabled() {
        let secs = (elapsed.as_secs_f64() / f64::from(reps)).max(1e-9);
        let rate = bytes as f64 / secs;
        println!(
            "rate: {:.1} MB/s ({:.2?} per sweep over {reps} reps)",
            rate / 1e6,
            elapsed / reps
        );
        metrics.add("eavesdrop.sweep_wall_ms", elapsed.as_millis() as u64);
        metrics.add("eavesdrop.bytes_per_second", rate as u64);
    }
}

fn wall_metrics_enabled() -> bool {
    std::env::var("BLAP_METRICS_WALL").is_ok_and(|v| v == "1")
}

fn die<T>(message: String) -> T {
    eprintln!("error: {message}");
    std::process::exit(2);
}
