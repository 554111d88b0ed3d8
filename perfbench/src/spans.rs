//! Per-layer numbers read from flight-recorder spans.
//!
//! The traced run arms the program's existing recorder and reads back the
//! spans it already emits: `cell` spans from the session (outcome, probe,
//! simulate and store times), `run` spans from the simulator (work counts
//! per cell) and `request` spans from the daemon. Spans arrive either in
//! memory ([`tw_obs::FlightRecorder::spans`]) or as the daemon's JSONL
//! trace; both become [`SpanRec`]s.

use crate::report::Report;
use denovo_waste::{CompiledPlan, Json};
use std::collections::BTreeMap;
use tw_obs::AttrValue;
use tw_types::{NetworkModelKind, ProtocolKind};

/// One span, reduced to what the benchmark reads.
#[derive(Debug, Clone, Default)]
pub struct SpanRec {
    /// The span's track (`<row label>/<protocol>` for cell and run spans).
    pub track: String,
    /// The span kind (`cell`, `run`, `phase`, `request`).
    pub name: String,
    nums: BTreeMap<String, u64>,
    strs: BTreeMap<String, String>,
    timing: BTreeMap<String, u64>,
}

impl SpanRec {
    /// From an in-memory span.
    pub fn from_span(span: &tw_obs::Span) -> SpanRec {
        let mut rec = SpanRec {
            track: span.track.clone(),
            name: span.name.clone(),
            ..SpanRec::default()
        };
        for (key, value) in &span.attrs {
            match value {
                AttrValue::U64(v) => {
                    rec.nums.insert(key.clone(), *v);
                }
                AttrValue::Str(s) => {
                    rec.strs.insert(key.clone(), s.clone());
                }
            }
        }
        rec.timing = span.timing.iter().cloned().collect();
        rec
    }

    /// Every span of a JSONL flight trace.
    pub fn from_jsonl(text: &str) -> Result<Vec<SpanRec>, String> {
        tw_obs::validate_trace(text).map_err(|e| e.to_string())?;
        text.lines()
            .skip(1)
            .filter(|l| !l.is_empty())
            .map(|line| {
                let doc = Json::parse(line)?;
                let mut rec = SpanRec {
                    track: doc.require("track")?.as_str()?.to_string(),
                    name: doc.require("name")?.as_str()?.to_string(),
                    ..SpanRec::default()
                };
                for (key, value) in doc.require("attrs")?.as_obj()? {
                    match value {
                        Json::UInt(v) => {
                            rec.nums.insert(key.clone(), *v);
                        }
                        other => {
                            rec.strs.insert(key.clone(), other.as_str()?.to_string());
                        }
                    }
                }
                for (key, value) in doc.require("timing")?.as_obj()? {
                    rec.timing.insert(key.clone(), value.as_u64()?);
                }
                Ok(rec)
            })
            .collect()
    }

    /// A numeric attribute (0 when absent).
    pub fn num(&self, key: &str) -> u64 {
        self.nums.get(key).copied().unwrap_or(0)
    }

    /// A string attribute ("" when absent).
    pub fn text(&self, key: &str) -> &str {
        self.strs.get(key).map_or("", String::as_str)
    }

    /// A timing field in microseconds (0 when absent).
    pub fn us(&self, key: &str) -> u64 {
        self.timing.get(key).copied().unwrap_or(0)
    }
}

/// What the benchmark knows about the cell behind a track.
#[derive(Debug, Clone)]
pub struct CellInfo {
    /// Memory operations of the cell's workload.
    pub ops: u64,
    /// The cell's protocol.
    pub protocol: ProtocolKind,
    /// The cell's network model.
    pub network: NetworkModelKind,
    /// The cell's workload name (a timed cell's analytic twin shares it).
    pub workload: String,
}

/// Track → cell for every cell of a compiled plan (the session records a
/// cell's spans under `<row label>/<protocol>`).
pub fn cells_of(plan: &CompiledPlan) -> BTreeMap<String, CellInfo> {
    plan.cells
        .iter()
        .map(|c| {
            (
                format!("{}/{}", c.label, c.protocol.name()),
                CellInfo {
                    ops: c.workload.total_mem_ops() as u64,
                    protocol: c.protocol,
                    network: c.system.network,
                    workload: c.workload_ref.name.clone(),
                },
            )
        })
        .collect()
}

/// What the cell and run spans say a run did; the traced run asserts on it.
#[derive(Debug, Default)]
pub struct CellSummary {
    /// Cell spans by outcome (`simulated`, `disk_hit`, `coalesced`).
    pub outcomes: BTreeMap<String, u64>,
    /// Run spans (one per simulated cell).
    pub runs: u64,
    /// Simulated cells per network model name.
    pub simulated_by_network: BTreeMap<&'static str, u64>,
    /// Simulation microseconds per network model name.
    pub sim_us_by_network: BTreeMap<&'static str, u64>,
    /// Spans whose track names no known cell.
    pub unknown_tracks: u64,
}

impl CellSummary {
    /// Cell spans with the given outcome.
    pub fn outcome(&self, outcome: &str) -> u64 {
        self.outcomes.get(outcome).copied().unwrap_or(0)
    }
}

/// Reads the experiment, sim and noc layer metrics from cell and run spans
/// and records them on `report`.
pub fn record_cell_layers(
    spans: &[SpanRec],
    cells: &BTreeMap<String, CellInfo>,
    report: &mut Report,
) -> CellSummary {
    let mut summary = CellSummary::default();
    let (mut probe_us, mut store_us, mut cell_spans) = (0u64, 0u64, 0u64);
    let mut sim_ms_max = 0.0f64;
    // (workload, protocol, network) -> (sim µs, ops) of simulated cells.
    let mut sims: BTreeMap<(String, ProtocolKind, NetworkModelKind), (u64, u64)> = BTreeMap::new();
    let (mut probes, mut resizes, mut phases, mut cycles, mut sends, mut queue_hw) =
        (0u64, 0u64, 0u64, 0u64, 0u64, 0u64);
    for span in spans {
        if span.name != "cell" && span.name != "run" {
            continue;
        }
        let Some(cell) = cells.get(&span.track) else {
            summary.unknown_tracks += 1;
            continue;
        };
        if span.name == "run" {
            summary.runs += 1;
            probes += span.num("map_probes");
            resizes += span.num("map_resizes");
            phases += span.num("phases");
            cycles += span.num("cycles");
            sends += span.num("sends");
            queue_hw = queue_hw.max(span.num("queue_hw"));
            continue;
        }
        let outcome = span.text("outcome").to_string();
        cell_spans += 1;
        probe_us += span.us("probe_us");
        if outcome == "simulated" {
            let sim_us = span.us("sim_us");
            store_us += span.us("store_us");
            sim_ms_max = sim_ms_max.max(sim_us as f64 / 1e3);
            *summary
                .simulated_by_network
                .entry(cell.network.name())
                .or_default() += 1;
            *summary
                .sim_us_by_network
                .entry(cell.network.name())
                .or_default() += sim_us;
            let slot = sims
                .entry((cell.workload.clone(), cell.protocol, cell.network))
                .or_default();
            slot.0 += sim_us;
            slot.1 += cell.ops;
        }
        *summary.outcomes.entry(outcome).or_default() += 1;
    }

    let simulated = summary.outcome("simulated");
    let per = |total: u64, n: u64| {
        if n == 0 {
            0.0
        } else {
            total as f64 / 1e3 / n as f64
        }
    };
    report.metric("experiment.probe_ms", per(probe_us, cell_spans), "ms");
    report.metric("experiment.store_ms", per(store_us, simulated), "ms");
    let hits = summary.outcome("disk_hit") + summary.outcome("coalesced");
    let hit_ratio = if cell_spans == 0 {
        0.0
    } else {
        hits as f64 / cell_spans as f64
    };
    report.metric("experiment.hit_ratio", hit_ratio, "ratio");
    report.metric("experiment.cells_simulated", simulated as f64, "count");
    report.metric(
        "experiment.cells_disk_hit",
        summary.outcome("disk_hit") as f64,
        "count",
    );
    report.metric(
        "experiment.cells_coalesced",
        summary.outcome("coalesced") as f64,
        "count",
    );

    // Engine cost per memory op, on the analytic network only so the timed
    // models' cost stays in the noc layer.
    let ns_per_op = |keep: &dyn Fn(ProtocolKind, NetworkModelKind) -> bool| {
        let (us, ops) = sims
            .iter()
            .filter(|((_, p, n), _)| keep(*p, *n))
            .fold((0u64, 0u64), |(u, o), (_, (su, so))| (u + su, o + so));
        if ops == 0 {
            0.0
        } else {
            us as f64 * 1e3 / ops as f64
        }
    };
    let analytic = NetworkModelKind::Analytic;
    report.metric(
        "sim.ns_per_op.mesi_family",
        ns_per_op(&|p, n| p.is_mesi() && n == analytic),
        "ns/op",
    );
    report.metric(
        "sim.ns_per_op.denovo_family",
        ns_per_op(&|p, n| p.is_denovo() && n == analytic),
        "ns/op",
    );
    report.metric(
        "sim.ns_per_op.dragon",
        ns_per_op(&|p, n| p.is_update_based() && n == analytic),
        "ns/op",
    );
    report.metric("sim.cell_ms_max", sim_ms_max, "ms");
    report.metric("sim.map_probes", probes as f64, "count");
    report.metric("sim.map_resizes", resizes as f64, "count");
    report.metric("sim.phases", phases as f64, "count");
    report.metric("sim.cycles", cycles as f64, "count");

    // A timed model's own cost: its cell's ns/op minus the analytic twin's,
    // averaged over the timed cells whose twin was simulated too.
    for (model, name) in [
        (NetworkModelKind::FlitLevel, "noc.ns_per_op.flit"),
        (NetworkModelKind::SnoopBus, "noc.ns_per_op.bus"),
    ] {
        let deltas: Vec<f64> = sims
            .iter()
            .filter(|((_, _, n), _)| *n == model)
            .filter_map(|((w, p, _), (us, ops))| {
                let (tus, tops) = sims.get(&(w.clone(), *p, analytic))?;
                Some(*us as f64 * 1e3 / *ops as f64 - *tus as f64 * 1e3 / *tops as f64)
            })
            .collect();
        let mean = if deltas.is_empty() {
            0.0
        } else {
            deltas.iter().sum::<f64>() / deltas.len() as f64
        };
        report.metric(name, mean, "ns/op");
    }
    report.metric("noc.sends", sends as f64, "count");
    report.metric("noc.queue_hw", queue_hw as f64, "count");
    summary
}
