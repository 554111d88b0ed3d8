//! The batch workloads: a plan executed cold into a fresh result cache.
//!
//! `matrix_cold` is the paper's figure matrix; `noc_timed` crosses four
//! benchmarks and four protocols with the three network models. Each timed
//! pass executes every cell of the compiled plan cold through
//! `Session::execute`, one cell per call, on a two-thread pool that takes
//! cells in plan order — the same schedule the session's own pool uses — so
//! each cell's latency is visible from outside. The pass's per-cell outcomes
//! are then merged into the plan's outcome and checked.

use crate::inputs::{ms, provided, Scale};
use crate::report::{peak_rss_mb, Report};
use crate::spans::{cells_of, record_cell_layers, SpanRec};
use crate::stats::{median, min_samples_for, tail_percentile};
use denovo_waste::{
    Baseline, CacheStats, CompiledPlan, ExperimentSpec, PlanOutcome, Session, WorkloadSpec,
};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;
use tw_obs::{FlightRecorder, SpanSink};
use tw_types::{NetworkModelKind, ProtocolKind};
use tw_workloads::BenchmarkKind;

/// Threads executing cells, as in the session's pool on a two-core host.
pub const WORKERS: usize = 2;

/// Times set-up is repeated per run; `setup_s` is the median.
const SETUPS: usize = 5;

/// One batch workload.
#[derive(Debug)]
pub struct BatchDef {
    /// Workload name on the command line.
    pub name: &'static str,
    /// Benchmarks, generated from the seed and provided to the plan.
    pub kinds: &'static [BenchmarkKind],
    /// The protocol axis.
    pub protocols: &'static [ProtocolKind],
    /// The network axis (empty: the analytic default).
    pub networks: &'static [NetworkModelKind],
}

/// The paper's Scaled figure matrix: six benchmarks × nine protocols on the
/// analytic network.
pub const MATRIX_COLD: BatchDef = BatchDef {
    name: "matrix_cold",
    kinds: &BenchmarkKind::ALL,
    protocols: &ProtocolKind::PAPER,
    networks: &[],
};

/// Four benchmarks × MESI, Dragon, DeNovo, DBypFull × analytic, flit, bus.
pub const NOC_TIMED: BatchDef = BatchDef {
    name: "noc_timed",
    kinds: &[
        BenchmarkKind::Fft,
        BenchmarkKind::Barnes,
        BenchmarkKind::KdTree,
        BenchmarkKind::Fluidanimate,
    ],
    protocols: &[
        ProtocolKind::Mesi,
        ProtocolKind::Dragon,
        ProtocolKind::DeNovo,
        ProtocolKind::DBypFull,
    ],
    networks: &NetworkModelKind::ALL,
};

impl BatchDef {
    fn spec(&self, scale: Scale) -> ExperimentSpec {
        ExperimentSpec {
            name: self.name.to_string(),
            scale: scale.profile(),
            protocols: self.protocols.to_vec(),
            workloads: self
                .kinds
                .iter()
                .map(|k| WorkloadSpec::provided(k.name()))
                .collect(),
            variants: Vec::new(),
            networks: self.networks.to_vec(),
            baseline: Baseline::default(),
        }
    }

    fn is_matrix(&self) -> bool {
        self.name == MATRIX_COLD.name
    }
}

/// A compiled plan and one single-cell plan per cell.
struct Prepared {
    plan: CompiledPlan,
    singles: Vec<CompiledPlan>,
    /// Σ over cells of the workload's memory operations.
    mem_ops: u64,
    gen_ms: f64,
    compile_ms: f64,
}

/// Set-up: seeded generation and plan compile (which digests every input).
fn prepare(def: &BatchDef, scale: Scale, seed: u64) -> Result<Prepared, String> {
    let (set, gen_ms) = provided(def.kinds, scale, seed);
    let t = Instant::now();
    let plan = def
        .spec(scale)
        .compile(&set)
        .map_err(|e| format!("{}: cannot compile: {e}", def.name))?;
    let compile_ms = ms(t);
    let singles = plan
        .cells
        .iter()
        .map(|c| CompiledPlan {
            name: plan.name.clone(),
            scale: plan.scale,
            protocols: vec![c.protocol],
            baseline: plan.baseline,
            rows: vec![(c.row.clone(), c.label.clone())],
            variants: plan.variants.clone(),
            cells: vec![c.clone()],
        })
        .collect();
    let mem_ops = plan
        .cells
        .iter()
        .map(|c| c.workload.total_mem_ops() as u64)
        .sum();
    Ok(Prepared {
        plan,
        singles,
        mem_ops,
        gen_ms,
        compile_ms,
    })
}

/// One pass over every cell.
struct Pass {
    wall_s: f64,
    /// Per-cell `Session::execute` latency, in plan order.
    latency_ms: Vec<f64>,
    /// Per-cell error or cache outcome, in plan order.
    results: Vec<Result<CacheStats, String>>,
    /// The merged outcome of the pass (cells that failed are missing).
    outcome: PlanOutcome,
}

fn run_pass(session: &Session, prep: &Prepared) -> Pass {
    run_passes(std::slice::from_ref(session), prep)
        .pop()
        .expect("one pass per session")
}

/// One pass per session over every cell. With two sessions the pool runs
/// each cell under both back to back, alternating which goes first, so a
/// change in host speed during the run weighs on both alike.
fn run_passes(sessions: &[Session], prep: &Prepared) -> Vec<Pass> {
    let k = sessions.len();
    let jobs: Vec<(usize, usize)> = (0..prep.singles.len())
        .flat_map(|cell| (0..k).map(move |j| (cell, (cell + j) % k)))
        .collect();
    let cursor = AtomicUsize::new(0);
    let started = Instant::now();
    let mut done: Vec<(usize, f64, Result<PlanOutcome, String>)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..WORKERS)
            .map(|_| {
                s.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        // The cursor publishes nothing but the index.
                        let job = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(&(cell, session)) = jobs.get(job) else {
                            return out;
                        };
                        let t = Instant::now();
                        let r = sessions[session]
                            .execute(&prep.singles[cell])
                            .map_err(|e| e.to_string());
                        out.push((job, ms(t), r));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("a pass worker panicked"))
            .collect()
    });
    let wall_s = started.elapsed().as_secs_f64();
    done.sort_by_key(|(job, _, _)| jobs[*job]);

    let plan = &prep.plan;
    let mut passes: Vec<Pass> = (0..k)
        .map(|_| Pass {
            wall_s,
            latency_ms: Vec::new(),
            results: Vec::new(),
            outcome: PlanOutcome {
                name: plan.name.clone(),
                protocols: plan.protocols.clone(),
                baseline: plan.baseline,
                rows: plan.rows.clone(),
                variants: plan.variants.clone(),
                reports: BTreeMap::new(),
                cache: CacheStats::default(),
            },
        })
        .collect();
    for (job, lat, r) in done {
        let pass = &mut passes[jobs[job].1];
        pass.latency_ms.push(lat);
        pass.results.push(r.map(|o| {
            pass.outcome.cache.absorb(&o.cache);
            pass.outcome.reports.extend(o.reports);
            o.cache
        }));
    }
    passes
}

/// The `figures` array of a results document (`BENCH_results.json` and
/// the plan figures share its serialization).
fn figures_array(doc: &str) -> Option<&str> {
    doc.find("\"figures\": [").map(|at| &doc[at..])
}

/// Counts the pass's cells and output checks on `report`.
fn check_pass(
    def: &BatchDef,
    prep: &Prepared,
    pass: &Pass,
    cache_dir: &Path,
    committed: Option<&str>,
    report: &mut Report,
) {
    for (cell, r) in prep.plan.cells.iter().zip(&pass.results) {
        let what = || format!("{}: cell {}/{}", def.name, cell.label, cell.protocol);
        match r {
            Ok(stats) => report.op(stats.misses == 1, || {
                format!("{} was not simulated cold ({stats:?})", what())
            }),
            Err(e) => report.op(false, || format!("{}: {e}", what())),
        }
    }
    let figures = tw_bench::plan_figures_json(&pass.outcome);
    report.op(figures.is_ok(), || {
        format!("{}: no figures: {figures:?}", def.name)
    });
    let Ok(figures) = figures else { return };

    if def.is_matrix() {
        // A warm re-read of the cache serves every cell and the same bytes.
        let warm = Session::new().with_cache_dir(cache_dir).execute(&prep.plan);
        let same = warm.as_ref().is_ok_and(|w| {
            w.cache.hits == prep.plan.cells.len() as u64
                && tw_bench::plan_figures_json(w).is_ok_and(|f| f == figures)
        });
        report.op(same, || {
            format!("{}: warm re-read differs from the cold pass", def.name)
        });
        if let Some(committed) = committed {
            report.op(figures_array(&figures) == figures_array(committed), || {
                format!("{}: figures differ from BENCH_results.json", def.name)
            });
        }
    } else {
        // A network model may move time, never traffic: every timed cell
        // matches its analytic twin bit for bit outside the cycle count,
        // and takes at least as many cycles (the differ's invariant 6).
        for cell in &prep.plan.cells {
            if cell.system.network == NetworkModelKind::Analytic {
                continue;
            }
            let twin = prep.plan.cells.iter().find(|t| {
                t.system.network == NetworkModelKind::Analytic
                    && t.protocol == cell.protocol
                    && t.workload_ref == cell.workload_ref
            });
            let get = |c: &denovo_waste::PlannedCell| {
                pass.outcome.reports.get(&(c.row.clone(), c.protocol))
            };
            let ok = match (get(cell), twin.and_then(get)) {
                (Some(timed), Some(analytic)) => {
                    timed.traffic == analytic.traffic
                        && timed.mesh_flit_hops.to_bits() == analytic.mesh_flit_hops.to_bits()
                        && timed.l1_waste == analytic.l1_waste
                        && timed.l2_waste == analytic.l2_waste
                        && timed.mem_waste == analytic.mem_waste
                        && timed.dram_accesses == analytic.dram_accesses
                        && timed.dram_row_hit_rate.to_bits() == analytic.dram_row_hit_rate.to_bits()
                        && timed.total_cycles >= analytic.total_cycles
                }
                _ => false,
            };
            report.op(ok, || {
                format!(
                    "{}: {}/{} diverges from its analytic twin",
                    def.name, cell.label, cell.protocol
                )
            });
        }
    }
}

/// The committed figures the cold matrix must reproduce at seed 0.
fn committed_figures(def: &BatchDef, scale: Scale, seed: u64) -> Result<Option<String>, String> {
    if !(def.is_matrix() && scale == Scale::Scaled && seed == 0) {
        return Ok(None);
    }
    std::fs::read_to_string("BENCH_results.json")
        .map(Some)
        .map_err(|e| format!("cannot read BENCH_results.json: {e}"))
}

/// The timed run: end-to-end metrics.
pub fn run(
    def: &BatchDef,
    scale: Scale,
    seed: u64,
    seconds: f64,
    work: &Path,
) -> Result<Report, String> {
    let mut report = Report::default();
    let mut committed = committed_figures(def, scale, seed)?;

    let mut setups = Vec::with_capacity(SETUPS);
    let mut prep = None;
    for _ in 0..SETUPS {
        drop(prep.take());
        let t = Instant::now();
        prep = Some(prepare(def, scale, seed)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let prep = prep.expect("set up at least once");

    // Passes until the run has measured `seconds` and holds enough cell
    // latencies for a p95; the last pass may end up to half a pass early.
    let need = min_samples_for(95.0);
    let (mut walls, mut mops, mut latency) = (Vec::new(), Vec::new(), Vec::new());
    for k in 0.. {
        let dir = work.join(format!("{}-{k}", def.name));
        let pass = run_pass(&Session::new().with_cache_dir(&dir), &prep);
        walls.push(pass.wall_s);
        mops.push(prep.mem_ops as f64 / pass.wall_s / 1e6);
        latency.extend_from_slice(&pass.latency_ms);
        check_pass(
            def,
            &prep,
            &pass,
            &dir,
            committed.take().as_deref(),
            &mut report,
        );
        let _ = std::fs::remove_dir_all(&dir);
        let measured: f64 = walls.iter().sum();
        let mean = measured / walls.len() as f64;
        if latency.len() >= need && measured + mean / 2.0 >= seconds {
            break;
        }
    }
    let measured: f64 = walls.iter().sum();
    eprintln!(
        "perfbench: {}: {} cell latencies over {measured:.1} s, pass walls {walls:.2?} s",
        def.name,
        latency.len(),
    );
    report.metric("setup_s", median(&setups), "s");
    report.metric("wall_s", median(&walls), "s");
    report.metric("sim_mops", median(&mops), "Mop/s");
    report.metric("req_p50_ms", median(&latency), "ms");
    report.metric("req_p95_ms", tail_percentile(&latency, 95.0)?, "ms");
    report.metric("req_per_s", latency.len() as f64 / measured, "1/s");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    Ok(report)
}

/// The traced run: per-layer metrics, and assertions that the workload
/// stresses the layers it claims to.
pub fn run_traced(def: &BatchDef, scale: Scale, seed: u64, work: &Path) -> Result<Report, String> {
    let mut report = Report::default();
    let committed = committed_figures(def, scale, seed)?;
    let prep = prepare(def, scale, seed)?;
    // Digest cost on its own, outside the compile that also pays it.
    let t = Instant::now();
    for cell in prep
        .plan
        .cells
        .iter()
        .filter(|c| c.protocol == def.protocols[0])
    {
        if cell.system.network == NetworkModelKind::Analytic {
            cell.workload
                .content_digest()
                .map_err(|e| format!("cannot digest {}: {e}", cell.label))?;
        }
    }
    let digest_ms = ms(t);

    // Every cell runs once untraced and once traced, interleaved.
    let recorder = Arc::new(FlightRecorder::new());
    let sink = SpanSink::new(Arc::clone(&recorder) as _, def.name);
    let untraced_dir = work.join(format!("{}-untraced", def.name));
    let traced_dir = work.join(format!("{}-traced", def.name));
    let mut passes = run_passes(
        &[
            Session::new().with_cache_dir(&untraced_dir),
            Session::new()
                .with_cache_dir(&traced_dir)
                .with_recorder(sink),
        ],
        &prep,
    );
    let traced = passes.pop().expect("traced pass");
    let untraced = passes.pop().expect("untraced pass");
    check_pass(
        def,
        &prep,
        &untraced,
        &untraced_dir,
        committed.as_deref(),
        &mut report,
    );
    check_pass(def, &prep, &traced, &traced_dir, None, &mut report);
    let figures = |p: &Pass| tw_bench::plan_figures_json(&p.outcome).ok();
    report.op(figures(&traced) == figures(&untraced), || {
        format!("{}: recording changed the figures", def.name)
    });
    for dir in [&untraced_dir, &traced_dir] {
        let _ = std::fs::remove_dir_all(dir);
    }

    report.metric("workloads.gen_ms", prep.gen_ms, "ms");
    report.metric("workloads.digest_ms", digest_ms, "ms");
    report.metric("workloads.mem_ops", prep.mem_ops as f64, "count");
    report.metric("trace.encode_ms", 0.0, "ms");
    report.metric("trace.decode_ms", 0.0, "ms");
    report.metric("trace.bytes", 0.0, "bytes");
    report.metric("experiment.compile_ms", prep.compile_ms, "ms");
    report.metric(
        "experiment.execute_ms",
        traced.latency_ms.iter().sum(),
        "ms",
    );
    let spans: Vec<SpanRec> = recorder.spans().iter().map(SpanRec::from_span).collect();
    let summary = record_cell_layers(&spans, &cells_of(&prep.plan), &mut report);
    let t = Instant::now();
    let figures = tw_bench::plan_figures_json(&traced.outcome).unwrap_or_default();
    report.metric("figures.encode_ms", ms(t), "ms");
    report.metric("figures.bytes", figures.len() as f64, "bytes");
    report.metric("daemon.queue_ms", 0.0, "ms");
    report.metric("daemon.exec_ms", 0.0, "ms");
    report.metric("daemon.wire_ms", 0.0, "ms");
    let busy = |p: &Pass| p.latency_ms.iter().sum::<f64>();
    report.metric(
        "obs.overhead_pct",
        (busy(&traced) / busy(&untraced) - 1.0) * 100.0,
        "%",
    );

    // The workload stresses the layers it claims to.
    let cells = prep.plan.cells.len() as u64;
    report.op(
        summary.outcome("simulated") == cells
            && summary.runs == cells
            && summary.unknown_tracks == 0,
        || {
            format!(
                "{}: not every cell was simulated once ({summary:?})",
                def.name
            )
        },
    );
    if def.is_matrix() {
        let timed = summary
            .simulated_by_network
            .iter()
            .filter(|(n, _)| **n != NetworkModelKind::Analytic.name())
            .map(|(_, c)| c)
            .sum::<u64>();
        report.op(timed == 0, || {
            format!("{}: {timed} cells ran a timed network", def.name)
        });
    } else {
        let flit = summary
            .sim_us_by_network
            .get(NetworkModelKind::FlitLevel.name())
            .copied()
            .unwrap_or(0);
        let total: u64 = summary.sim_us_by_network.values().sum();
        report.op(2 * flit > total, || {
            format!("{}: flit cells hold only {flit} of {total} µs", def.name)
        });
    }
    Ok(report)
}
