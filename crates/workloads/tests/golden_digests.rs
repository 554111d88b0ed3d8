//! Pinned content digests and DNVT byte lengths of the generated workloads.
//!
//! A workload's content digest is the digest of its binary trace encoding,
//! and every result-cache key is built from it. These literals were recorded
//! before the trace codec was rewritten to encode in bulk; they must never
//! move. If one does, either the generator or the codec changed the encoded
//! bytes: that orphans every on-disk cache entry, so it needs an
//! `ENGINE_VERSION` bump and a deliberate update here, never a silent edit.

use tw_types::Digest;
use tw_workloads::{build_scaled, build_tiny, BenchmarkKind, Workload};

fn check(wl: &Workload, digest: &str, dnvt_bytes: usize) {
    let label = format!("{} ({})", wl.kind, wl.input);
    assert_eq!(
        wl.content_digest().unwrap().to_string(),
        digest,
        "{label}: content digest moved"
    );
    let doc = wl.to_trace();
    let bytes = doc.to_binary_bytes().unwrap();
    assert_eq!(bytes.len(), dnvt_bytes, "{label}: DNVT length moved");
    // The file path (`save`, `trace record`) goes through the chunked
    // writer; it must write the very same bytes.
    let mut written = Vec::new();
    doc.write_binary(&mut written).unwrap();
    assert!(written == bytes, "{label}: the chunked writer disagrees");
    assert_eq!(
        Digest::of_bytes(&bytes).to_string(),
        digest,
        "{label}: the digest is no longer the digest of the encoded bytes"
    );
}

#[test]
fn tiny_workload_digests_are_pinned() {
    let pinned = [
        (
            BenchmarkKind::Fluidanimate,
            "abba5e7e4e5bc060c53e94637aa423d5",
            56_224,
        ),
        (
            BenchmarkKind::Lu,
            "eaa5496b2c670dadfc3a4844581317db",
            39_225,
        ),
        (
            BenchmarkKind::Fft,
            "f3c24f450fcc987705898d6dce954073",
            117_000,
        ),
        (
            BenchmarkKind::Radix,
            "cd62ae6cb001a68d1b6974382e07c496",
            403_468,
        ),
        (
            BenchmarkKind::Barnes,
            "5d4ce11c04fdbc487a4daac5d82b5c7c",
            140_460,
        ),
        (
            BenchmarkKind::KdTree,
            "a3837abbaa9711e44c3560da69a24cb7",
            96_408,
        ),
    ];
    for (kind, digest, len) in pinned {
        check(&build_tiny(kind, 16).unwrap(), digest, len);
    }
}

#[test]
fn scaled_fft_digest_is_pinned() {
    // Several MB of encoding: crosses many chunk boundaries of the writer.
    check(
        &build_scaled(BenchmarkKind::Fft, 16).unwrap(),
        "00028c31b2623cdab0319158119073af",
        3_735_841,
    );
}
