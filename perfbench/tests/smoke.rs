//! Tiny-scale smoke test: every workload, untraced and traced, passes every
//! output check and emits every metric `BENCHMARK.json` names, with its
//! unit.

use std::path::PathBuf;
use std::process::Command;

const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("sim_mops", "Mop/s"),
    ("req_p50_ms", "ms"),
    ("req_p95_ms", "ms"),
    ("req_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
];

const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.gen_ms", "ms"),
    ("workloads.digest_ms", "ms"),
    ("workloads.mem_ops", "count"),
    ("trace.encode_ms", "ms"),
    ("trace.decode_ms", "ms"),
    ("trace.bytes", "bytes"),
    ("experiment.compile_ms", "ms"),
    ("experiment.execute_ms", "ms"),
    ("experiment.probe_ms", "ms"),
    ("experiment.store_ms", "ms"),
    ("experiment.hit_ratio", "ratio"),
    ("experiment.cells_simulated", "count"),
    ("experiment.cells_disk_hit", "count"),
    ("experiment.cells_coalesced", "count"),
    ("sim.ns_per_op.mesi_family", "ns/op"),
    ("sim.ns_per_op.denovo_family", "ns/op"),
    ("sim.ns_per_op.dragon", "ns/op"),
    ("sim.cell_ms_max", "ms"),
    ("sim.map_probes", "count"),
    ("sim.map_resizes", "count"),
    ("sim.phases", "count"),
    ("sim.cycles", "count"),
    ("noc.ns_per_op.flit", "ns/op"),
    ("noc.ns_per_op.bus", "ns/op"),
    ("noc.sends", "count"),
    ("noc.queue_hw", "count"),
    ("figures.encode_ms", "ms"),
    ("figures.bytes", "bytes"),
    ("daemon.queue_ms", "ms"),
    ("daemon.exec_ms", "ms"),
    ("daemon.wire_ms", "ms"),
    ("obs.overhead_pct", "%"),
];

const WORKLOADS: &[&str] = &["matrix_cold", "noc_timed", "serve_warm"];

/// Runs one tiny workload and returns the result line.
fn run(workload: &str, seed: u64, trace: bool) -> String {
    let dir =
        PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{workload}-{seed}-{trace}"));
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }, "--scale", "tiny"])
        .current_dir(&dir)
        .output()
        .unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{workload}: {stderr}");
    // The run cleans up after itself.
    assert!(!dir.join(".perfbench-work").exists(), "{workload}");
    stdout.lines().last().unwrap_or_default().to_string()
}

fn assert_metrics(line: &str, metrics: &[(&str, &str)], context: &str) {
    assert!(
        line.starts_with("{\"correct\": true, "),
        "{context}: {line}"
    );
    for (name, unit) in metrics {
        let value = format!("\"{name}\": {{\"value\": ");
        let at = line
            .find(&value)
            .unwrap_or_else(|| panic!("{context}: no {name} in {line}"));
        let rest = &line[at + value.len()..];
        let number: String = rest
            .chars()
            .take_while(|c| c.is_ascii_digit() || matches!(c, '.' | '-' | 'e' | '+'))
            .collect();
        assert!(number.parse::<f64>().is_ok(), "{context}: {name} = {rest}");
        assert!(
            rest[number.len()..].starts_with(&format!(", \"unit\": \"{unit}\"}}")),
            "{context}: {name} unit in {rest}"
        );
    }
    let count = line.matches("\"unit\": ").count();
    assert_eq!(count, metrics.len(), "{context}: extra metrics in {line}");
}

#[test]
fn every_workload_reports_every_metric_and_passes_its_checks() {
    for workload in WORKLOADS {
        // Seed 0 is the built-in input: its DNVT files hold the same
        // workloads as the bench sources, so serving shares cache keys.
        for seed in [0, 3] {
            assert_metrics(&run(workload, seed, false), END_TO_END, workload);
        }
        assert_metrics(&run(workload, 3, true), PER_LAYER, workload);
    }
}

#[test]
fn benchmark_json_names_the_same_metrics_and_workloads() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = std::fs::read_to_string(path).unwrap();
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(doc.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    assert_eq!(
        doc.matches("\"unit\": ").count(),
        END_TO_END.len() + PER_LAYER.len()
    );
    for workload in WORKLOADS {
        assert!(doc.contains(&format!("\"name\": \"{workload}\", \"why\": ")));
    }
}

#[test]
fn unknown_workloads_and_flags_are_refused() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
