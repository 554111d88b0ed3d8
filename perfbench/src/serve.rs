//! The serving workload: a closed loop of warm submits to the daemon.
//!
//! One client connection submits one-benchmark Scaled specs, each over a
//! protocol subset, to an in-process daemon with one worker whose result
//! cache already holds every cell. Some specs generate their input (`bench`
//! sources); others replay a seeded DNVT file (`trace` sources). Every reply
//! is a cache hit, so the timed part pays what every warm submit pays:
//! compile (generate or decode, then digest), cache probe and decode, figure
//! encoding and the wire.
//!
//! Requests come in sweeps of [`SWEEP`]: every sweep holds each latency
//! class exactly [`Class::per_sweep`] times, in a seeded order, so the p50
//! and p95 land inside a class on every seed instead of on the boundary
//! between two.

use crate::inputs::{generate, ms, Rng, Scale};
use crate::report::{peak_rss_mb, Report};
use crate::spans::{cells_of, record_cell_layers, CellInfo, SpanRec};
use crate::stats::{median, min_samples_for, tail_percentile};
use denovo_waste::{CompiledPlan, ExperimentSpec, Session, WorkloadSet, WorkloadSpec};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tw_bench::daemon::{self, client::Client, client::SubmitReply};
use tw_types::ProtocolKind;
use tw_workloads::BenchmarkKind;

/// Times set-up is repeated per run; `setup_s` is the median.
const SETUPS: usize = 3;

/// Where a request's workload comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Source {
    /// Generated by the daemon from the benchmark's built-in seed.
    Bench(BenchmarkKind),
    /// Replayed from the DNVT file the benchmark wrote for this seed.
    Trace(BenchmarkKind),
}

impl Source {
    fn name(self) -> String {
        match self {
            Source::Bench(kind) => kind.name().to_string(),
            Source::Trace(kind) => format!("{}-trace", kind.name()),
        }
    }
}

use ProtocolKind::{DBypFull, DBypL2, DeNovo, MMemL1, Mesi};

/// A set of requests with similar warm latency.
struct Class {
    name: &'static str,
    /// Requests of this class in every sweep.
    per_sweep: usize,
    /// The distinct specs of the class: a source and a protocol subset
    /// (always holding MESI, the figures' baseline).
    specs: &'static [(Source, &'static [ProtocolKind])],
}

/// The request mix, lightest class first. With these per-sweep counts the
/// p50 sits a third of the way into `medium` and the p95 in the middle of
/// `radix`, away from the latency steps between classes.
const CLASSES: &[Class] = &[
    Class {
        name: "light",
        per_sweep: 40,
        specs: &[
            (Source::Bench(BenchmarkKind::Lu), &[Mesi, MMemL1]),
            (Source::Bench(BenchmarkKind::Lu), &[Mesi, DeNovo, DBypFull]),
            (Source::Bench(BenchmarkKind::Fluidanimate), &[Mesi, DeNovo]),
            (
                Source::Trace(BenchmarkKind::Fluidanimate),
                &[Mesi, DBypFull],
            ),
        ],
    },
    Class {
        name: "medium",
        per_sweep: 30,
        specs: &[
            (Source::Trace(BenchmarkKind::KdTree), &[Mesi, MMemL1]),
            (Source::Trace(BenchmarkKind::Barnes), &[Mesi, DBypFull]),
        ],
    },
    Class {
        name: "fft",
        per_sweep: 20,
        specs: &[(Source::Bench(BenchmarkKind::Fft), &[Mesi, DBypL2])],
    },
    Class {
        name: "radix",
        per_sweep: 10,
        specs: &[(Source::Bench(BenchmarkKind::Radix), &[Mesi, DBypL2])],
    },
];

/// Requests per sweep.
const SWEEP: usize = 100;

/// One distinct request.
struct Request {
    class: usize,
    source: Source,
    spec: ExperimentSpec,
    json: String,
    /// Σ over the spec's cells of the workload's memory operations.
    mem_ops: u64,
    /// `plan_figures_json` of a direct `Session` run of the same spec.
    expected: Vec<u8>,
}

/// A running in-process daemon and the benchmark's one connection to it.
struct Daemon {
    client: Client,
    thread: JoinHandle<Result<(), String>>,
}

impl Daemon {
    /// Starts a one-worker daemon on `socket` over `cache`, recording a
    /// flight trace to `record` when set, and connects to it.
    fn start(socket: &Path, cache: &Path, record: Option<PathBuf>) -> Result<Daemon, String> {
        let config = daemon::Config {
            socket: socket.to_path_buf(),
            cache_dir: Some(cache.to_path_buf()),
            workers: 1,
            queue_cap: 64,
            record,
        };
        let thread = std::thread::spawn(move || daemon::serve(&config));
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if let Ok(mut client) = Client::connect(socket) {
                client.ping()?;
                return Ok(Daemon { client, thread });
            }
            if thread.is_finished() || Instant::now() > deadline {
                let why = match thread.join() {
                    Ok(Err(e)) => e,
                    _ => "the daemon did not come up".to_string(),
                };
                return Err(format!("cannot start the daemon: {why}"));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Shuts the daemon down and waits for it to end.
    fn stop(mut self) -> Result<(), String> {
        self.client.shutdown()?;
        drop(self.client);
        self.thread
            .join()
            .map_err(|_| "the daemon panicked".to_string())?
    }
}

/// Builds the distinct requests for trace files under `dir`.
fn requests(scale: Scale, dir: &Path) -> Vec<Request> {
    let mut out = Vec::new();
    for (class, c) in CLASSES.iter().enumerate() {
        for (source, protocols) in c.specs {
            let workload = match *source {
                Source::Bench(kind) => WorkloadSpec::bench(kind),
                Source::Trace(kind) => WorkloadSpec::trace(source.name(), trace_path(dir, kind)),
            };
            let spec = ExperimentSpec {
                name: format!("serve-{}", out.len()),
                scale: scale.profile(),
                protocols: protocols.to_vec(),
                workloads: vec![workload],
                variants: Vec::new(),
                networks: Vec::new(),
                baseline: Default::default(),
            };
            out.push(Request {
                class,
                source: *source,
                json: spec.to_json(),
                spec,
                mem_ops: 0,
                expected: Vec::new(),
            });
        }
    }
    out
}

fn trace_path(dir: &Path, kind: BenchmarkKind) -> PathBuf {
    dir.join(format!("{}.dnvt", kind.name()))
}

/// Every cell the mix reads, once, in one plan: each source under the
/// union of the protocols its requests use.
fn fill_plan(reqs: &[Request]) -> Result<CompiledPlan, String> {
    let mut by_source: Vec<(Source, ExperimentSpec)> = Vec::new();
    for r in reqs {
        match by_source.iter_mut().find(|(s, _)| *s == r.source) {
            Some((_, spec)) => {
                for p in &r.spec.protocols {
                    if !spec.protocols.contains(p) {
                        spec.protocols.push(*p);
                    }
                }
            }
            None => by_source.push((r.source, r.spec.clone())),
        }
    }
    let mut plan: Option<CompiledPlan> = None;
    for (_, spec) in by_source {
        let part = spec
            .compile(&WorkloadSet::new())
            .map_err(|e| format!("cannot compile {}: {e}", spec.name))?;
        match &mut plan {
            None => plan = Some(part),
            Some(plan) => {
                plan.rows.extend(part.rows);
                plan.cells.extend(part.cells);
            }
        }
    }
    plan.ok_or_else(|| "the request mix is empty".to_string())
}

/// A set-up's inputs and what it measured.
struct SetUp {
    dir: PathBuf,
    reqs: Vec<Request>,
    encode_ms: f64,
    trace_bytes: u64,
}

impl SetUp {
    fn cache(&self) -> PathBuf {
        self.dir.join("cache")
    }

    fn socket(&self) -> PathBuf {
        self.dir.join("daemon.sock")
    }
}

/// Set-up: daemon start, seeded trace files, cache fill, one warm pass.
fn set_up(
    scale: Scale,
    seed: u64,
    dir: &Path,
    report: &mut Report,
) -> Result<(SetUp, Daemon), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let mut setup = SetUp {
        dir: dir.to_path_buf(),
        reqs: requests(scale, dir),
        encode_ms: 0.0,
        trace_bytes: 0,
    };
    let mut daemon = Daemon::start(&setup.socket(), &setup.cache(), None)?;
    let mut written = Vec::new();
    for r in &setup.reqs {
        let Source::Trace(kind) = r.source else {
            continue;
        };
        if written.contains(&kind) {
            continue;
        }
        written.push(kind);
        let wl = generate(kind, scale, seed);
        let t = Instant::now();
        let bytes = wl
            .to_trace()
            .to_binary_bytes()
            .map_err(|e| format!("cannot encode {kind}: {e}"))?;
        setup.encode_ms += ms(t);
        setup.trace_bytes += bytes.len() as u64;
        let path = trace_path(dir, kind);
        std::fs::write(&path, bytes)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    // At seed 0 a DNVT file holds the same workload as its bench source,
    // so two cells can share a key; each distinct key simulates once.
    let (simulated, keys) = {
        let plan = fill_plan(&setup.reqs)?;
        let filler = Session::new().with_cache_dir(setup.cache());
        let keys: BTreeSet<_> = plan.cells.iter().map(|c| filler.key_of(c)).collect();
        let fill = filler
            .execute(&plan)
            .map_err(|e| format!("cannot fill the cache: {e}"))?;
        (fill.cache.misses, keys.len() as u64)
    };
    report.op(simulated == keys, || {
        format!("the cache fill simulated {simulated} cells for {keys} distinct keys")
    });
    for r in &setup.reqs {
        daemon.client.submit(&r.json)?;
    }
    Ok((setup, daemon))
}

/// Expected bytes and op counts, from a direct in-process run per request.
fn expect(setup: &mut SetUp, report: &mut Report) -> Result<(), String> {
    let session = Session::new().with_cache_dir(setup.cache());
    for r in &mut setup.reqs {
        let plan = r
            .spec
            .compile(&WorkloadSet::new())
            .map_err(|e| format!("cannot compile {}: {e}", r.spec.name))?;
        let outcome = session
            .execute(&plan)
            .map_err(|e| format!("cannot run {}: {e}", r.spec.name))?;
        report.op(outcome.cache.misses == 0, || {
            format!("direct run of {} simulated", r.spec.name)
        });
        r.expected = tw_bench::plan_figures_json(&outcome)
            .map_err(|e| format!("no figures for {}: {e}", r.spec.name))?
            .into_bytes();
        r.mem_ops = plan
            .cells
            .iter()
            .map(|c| c.workload.total_mem_ops() as u64)
            .sum();
    }
    Ok(())
}

/// One request's measurement.
struct Sample {
    request: usize,
    latency_ms: f64,
    reply: Option<SubmitReply>,
}

/// The closed loop: sweeps until `seconds` are measured and at least
/// `min_requests` replies are in. With several clients, every request goes
/// to each of them back to back; the samples come back per client.
fn closed_loop(
    clients: &mut [&mut Client],
    reqs: &[Request],
    rng: &mut Rng,
    seconds: f64,
    min_requests: usize,
    report: &mut Report,
) -> (Vec<Vec<Sample>>, Vec<f64>) {
    let mut sweep: Vec<usize> = Vec::with_capacity(SWEEP);
    for (class, c) in CLASSES.iter().enumerate() {
        let ids: Vec<usize> = (0..reqs.len())
            .filter(|&i| reqs[i].class == class)
            .collect();
        let offset = rng.next_u64() as usize;
        sweep.extend((0..c.per_sweep).map(|k| ids[(offset + k) % ids.len()]));
    }
    let k = clients.len();
    let mut samples: Vec<Vec<Sample>> = (0..k).map(|_| Vec::new()).collect();
    let mut walls = Vec::new();
    let mut turns = vec![0usize; reqs.len()];
    loop {
        rng.shuffle(&mut sweep);
        let started = Instant::now();
        for &i in &sweep {
            // A repeat of a request runs faster right after its twin, so
            // each request takes turns going first.
            let turn = turns[i];
            turns[i] += 1;
            for j in 0..k {
                let c = (turn + j) % k;
                let t = Instant::now();
                let reply = clients[c].submit(&reqs[i].json);
                samples[c].push(Sample {
                    request: i,
                    latency_ms: ms(t),
                    reply: reply.ok(),
                });
            }
        }
        walls.push(started.elapsed().as_secs_f64());
        let measured: f64 = walls.iter().sum();
        let mean = measured / walls.len() as f64;
        if samples[0].len() >= min_requests && measured + mean / 2.0 >= seconds {
            break;
        }
    }
    for s in samples.iter().flatten() {
        let r = &reqs[s.request];
        let ok = s
            .reply
            .as_ref()
            .is_some_and(|reply| reply.misses == 0 && reply.figures == r.expected);
        report.op(ok, || {
            format!("reply to {} is wrong or missing", r.spec.name)
        });
    }
    (samples, walls)
}

/// The timed run: end-to-end metrics.
pub fn run(scale: Scale, seed: u64, seconds: f64, work: &Path) -> Result<Report, String> {
    let mut report = Report::default();
    let mut setups = Vec::with_capacity(SETUPS);
    let mut kept: Option<(SetUp, Daemon)> = None;
    for k in 0..SETUPS {
        if let Some((old, daemon)) = kept.take() {
            daemon.stop()?;
            let _ = std::fs::remove_dir_all(&old.dir);
        }
        let t = Instant::now();
        kept = Some(set_up(
            scale,
            seed,
            &work.join(format!("serve-{k}")),
            &mut report,
        )?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let (mut setup, mut daemon) = kept.expect("set up at least once");
    expect(&mut setup, &mut report)?;

    let mut rng = Rng::new(seed, 2);
    let (mut samples, walls) = closed_loop(
        &mut [&mut daemon.client],
        &setup.reqs,
        &mut rng,
        seconds,
        min_samples_for(95.0),
        &mut report,
    );
    let samples = samples.pop().expect("one client");
    let rss = peak_rss_mb();
    daemon.stop()?;
    log_classes(&setup.reqs, &samples);
    eprintln!("perfbench: serve_warm: set-ups {setups:.2?} s, sweep walls {walls:.2?} s");

    let latency: Vec<f64> = samples.iter().map(|s| s.latency_ms).collect();
    let measured: f64 = walls.iter().sum();
    // Every sweep answers the same requests, so the same memory ops.
    let sweep_ops: f64 = samples
        .iter()
        .map(|s| setup.reqs[s.request].mem_ops as f64)
        .sum::<f64>()
        / walls.len() as f64;
    let mops: Vec<f64> = walls.iter().map(|w| sweep_ops / w / 1e6).collect();
    report.metric("setup_s", median(&setups), "s");
    report.metric("wall_s", median(&walls), "s");
    report.metric("sim_mops", median(&mops), "Mop/s");
    report.metric("req_p50_ms", median(&latency), "ms");
    report.metric("req_p95_ms", tail_percentile(&latency, 95.0)?, "ms");
    report.metric("req_per_s", latency.len() as f64 / measured, "1/s");
    report.metric("peak_rss_mb", rss, "MB");
    Ok(report)
}

/// Median latency per class, on standard error.
fn log_classes(reqs: &[Request], samples: &[Sample]) {
    for (class, c) in CLASSES.iter().enumerate() {
        let lat: Vec<f64> = samples
            .iter()
            .filter(|s| reqs[s.request].class == class)
            .map(|s| s.latency_ms)
            .collect();
        if !lat.is_empty() {
            eprintln!(
                "perfbench: serve_warm: class {:<6} {:>5} requests, median {:.2} ms",
                c.name,
                lat.len(),
                median(&lat)
            );
        }
    }
}

/// The traced run: per-layer metrics, from a plain and a recording daemon
/// over the same filled cache.
pub fn run_traced(scale: Scale, seed: u64, seconds: f64, work: &Path) -> Result<Report, String> {
    let mut report = Report::default();
    let (mut setup, daemon) = set_up(scale, seed, &work.join("serve-traced"), &mut report)?;
    expect(&mut setup, &mut report)?;
    // Two fresh daemons over the same cache, one recording; every request
    // goes to both, back to back. (The set-up daemon is not reused: a
    // daemon that served the warm pass answers measurably slower than a
    // fresh one, which would swamp the recorder's cost.)
    daemon.stop()?;
    let mut daemon = Daemon::start(&setup.socket(), &setup.cache(), None)?;
    let flight = setup.dir.join("flight.jsonl");
    let mut recording = Daemon::start(
        &setup.dir.join("recording.sock"),
        &setup.cache(),
        Some(flight.clone()),
    )?;
    let mut rng = Rng::new(seed, 3);
    let (mut samples, _) = closed_loop(
        &mut [&mut daemon.client, &mut recording.client],
        &setup.reqs,
        &mut rng,
        seconds,
        1,
        &mut report,
    );
    daemon.stop()?;
    recording.stop()?;
    let traced = samples.pop().expect("recording client");
    let plain = samples.pop().expect("plain client");
    let busy = |s: &[Sample]| s.iter().map(|s| s.latency_ms).sum::<f64>();
    report.metric(
        "obs.overhead_pct",
        (busy(&traced) / busy(&plain) - 1.0) * 100.0,
        "%",
    );
    let replies: Vec<(f64, &SubmitReply)> = plain
        .iter()
        .filter_map(|s| s.reply.as_ref().map(|r| (s.latency_ms, r)))
        .collect();
    let mean = |f: &dyn Fn(f64, &SubmitReply) -> f64| {
        replies.iter().map(|(l, r)| f(*l, r)).sum::<f64>() / replies.len().max(1) as f64
    };
    report.metric(
        "daemon.queue_ms",
        mean(&|_, r| r.queue_us as f64 / 1e3),
        "ms",
    );
    report.metric("daemon.exec_ms", mean(&|_, r| r.exec_us as f64 / 1e3), "ms");
    report.metric(
        "daemon.wire_ms",
        mean(&|l, r| l - (r.queue_us + r.exec_us) as f64 / 1e3),
        "ms",
    );
    let text = std::fs::read_to_string(&flight).map_err(|e| format!("no flight trace: {e}"))?;
    let spans = SpanRec::from_jsonl(&text)?;

    // Direct calls into each layer for every distinct request, weighted by
    // the request's share of a sweep: per-request means.
    let session = Session::new().with_cache_dir(setup.cache());
    let mut layer: BTreeMap<&str, f64> = BTreeMap::new();
    let mut cells: BTreeMap<String, CellInfo> = BTreeMap::new();
    for r in &setup.reqs {
        let class = &CLASSES[r.class];
        let w = class.per_sweep as f64 / class.specs.len() as f64 / SWEEP as f64;
        let mut add = |name, t: Instant| *layer.entry(name).or_default() += w * ms(t);
        let t = Instant::now();
        let wl = match r.source {
            Source::Bench(kind) => {
                let wl = generate(kind, scale, 0);
                add("workloads.gen_ms", t);
                wl
            }
            Source::Trace(kind) => {
                let doc = tw_trace::TraceDocument::load(&trace_path(&setup.dir, kind))
                    .map_err(|e| format!("cannot decode {kind}: {e}"))?;
                add("trace.decode_ms", t);
                tw_workloads::Workload::from_trace(doc).map_err(|e| e.to_string())?
            }
        };
        let t = Instant::now();
        wl.content_digest().map_err(|e| e.to_string())?;
        add("workloads.digest_ms", t);
        let t = Instant::now();
        let plan = ExperimentSpec::from_json(&r.json)
            .and_then(|s| s.compile(&WorkloadSet::new()))
            .map_err(|e| e.to_string())?;
        add("experiment.compile_ms", t);
        let t = Instant::now();
        let outcome = session.execute(&plan).map_err(|e| e.to_string())?;
        add("experiment.execute_ms", t);
        let t = Instant::now();
        let figures = tw_bench::plan_figures_json(&outcome).map_err(|e| e.to_string())?;
        add("figures.encode_ms", t);
        *layer.entry("figures.bytes").or_default() += w * figures.len() as f64;
        cells.extend(cells_of(&plan));
    }
    for name in [
        "workloads.gen_ms",
        "workloads.digest_ms",
        "trace.decode_ms",
        "experiment.compile_ms",
        "experiment.execute_ms",
        "figures.encode_ms",
    ] {
        report.metric(name, layer.get(name).copied().unwrap_or(0.0), "ms");
    }
    report.metric("figures.bytes", layer["figures.bytes"], "bytes");
    let answered: u64 = traced.iter().map(|s| setup.reqs[s.request].mem_ops).sum();
    report.metric("workloads.mem_ops", answered as f64, "count");
    report.metric("trace.encode_ms", setup.encode_ms, "ms");
    report.metric("trace.bytes", setup.trace_bytes as f64, "bytes");
    let summary = record_cell_layers(&spans, &cells, &mut report);

    // Serving simulates nothing while timed: every cell of every traced
    // request is a disk hit, and no run span exists.
    let served: u64 = traced
        .iter()
        .filter_map(|s| s.reply.as_ref().map(|r| r.cells))
        .sum();
    let requests = spans.iter().filter(|s| s.name == "request").count();
    report.op(
        summary.runs == 0
            && summary.outcome("simulated") == 0
            && summary.outcome("disk_hit") == served
            && requests == traced.len(),
        || format!("serve_warm simulated or lost cells while timed ({summary:?})"),
    );
    Ok(report)
}
