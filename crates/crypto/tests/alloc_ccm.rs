//! Allocation accounting for the CCM open paths.
//!
//! The eavesdrop decrypt loop feeds captures through `open_many_into` and
//! resolves the link's handle and falls back per frame with `open_into` —
//! both promise allocation-free steady state
//! once their output buffers have warmed up to the workload's high-water
//! mark. These tests pin that with the shared counting allocator from
//! `blap_obs::prof` (feature `prof-alloc`), the same discipline
//! `crates/core/tests/alloc_count.rs` enforces for the PIN-crack loop.

use blap_crypto::ccm::{Ccm, OpenBatch, SealedFrame, FRAME_LANES};
use blap_obs::prof;

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

fn sealed_frames(ccm: &Ccm, count: usize) -> Vec<([u8; 13], Vec<u8>, Vec<u8>)> {
    (0..count)
        .map(|i| {
            let mut nonce = [0u8; 13];
            nonce[0] = i as u8;
            let aad = vec![i as u8; 2];
            let payload: Vec<u8> = (0..64u8).map(|b| b.wrapping_add(i as u8)).collect();
            let ct = ccm.seal(&nonce, &aad, &payload).expect("seal");
            (nonce, aad, ct)
        })
        .collect()
}

#[test]
fn open_into_is_zero_alloc_once_warm() {
    let _serial = serial();
    let ccm = Ccm::new(&[0x42; 16]);
    let frames = sealed_frames(&ccm, 1);
    let (nonce, aad, ct) = &frames[0];
    let mut out = Vec::new();
    // Warm-up grows `out` to the payload length; steady state reuses it.
    ccm.open_into(nonce, aad, ct, &mut out).expect("open");
    let count = allocations_during(|| {
        for _ in 0..100 {
            ccm.open_into(nonce, aad, ct, &mut out).expect("open");
        }
        std::hint::black_box(&out);
    });
    assert_eq!(
        count, 0,
        "open_into must not allocate once its scratch is warm, got {count}"
    );
}

#[test]
fn open_many_into_is_zero_alloc_once_warm() {
    let _serial = serial();
    let ccm = Ccm::new(&[0x42; 16]);
    // A ragged batch: 2 full chunks plus a partial tail.
    let frames = sealed_frames(&ccm, 2 * FRAME_LANES + 3);
    let views: Vec<SealedFrame<'_>> = frames
        .iter()
        .map(|(nonce, aad, ct)| SealedFrame {
            nonce: *nonce,
            aad,
            ciphertext_and_tag: ct,
        })
        .collect();
    let mut batch = OpenBatch::new();
    ccm.open_many_into(&views, &mut batch);
    assert!(batch.iter().all(|v| v.is_ok()));
    let count = allocations_during(|| {
        for _ in 0..20 {
            ccm.open_many_into(&views, &mut batch);
        }
        std::hint::black_box(&batch);
    });
    assert_eq!(
        count, 0,
        "open_many_into must reuse the warmed OpenBatch arena, got {count} \
         allocations — is a per-chunk or per-frame buffer being rebuilt?"
    );
}
