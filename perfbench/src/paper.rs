//! The `paper-ff` and `paper-emb` workloads: the paper's flows on the
//! paper's benchmark suite, cache off, run sequentially in passes.

use crate::calib::Clock;
use crate::metrics::{Quality, RunResult};
use crate::replay::{replay, Fingerprint, FlowKind};
use crate::stats;
use crate::trace::Tracer;
use emb_fsm::flow::{
    emb_clock_controlled_flow, emb_flow, ff_flow, FlowConfig, FlowError, FlowReport,
};
use emb_fsm::map::EmbOptions;
use fsm_model::stg::Stg;
use logic_synth::synth::{synthesize, SynthOptions};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// The benchmark left out of `paper-ff`'s timed set: its FF anneal alone
/// would take two thirds of a run. It still counts towards `ff_luts`.
const FF_SKIPPED: &str = "tbk";

/// The small machines whose FF flows give `ff_mw` on workloads that do
/// not run the FF flow themselves (about one second in all).
const FF_PROBE: [&str; 3] = ["prep4", "dk16", "donfile"];

/// Wall time of one pass on the 2-core machine the benchmark was sized on
/// (sustained load). The pass count of a run is fixed from `--seconds`
/// and this, not by a deadline, so every run at a given `--seconds` does
/// the same ops and its percentiles fall on the same ops.
fn nominal_pass_s(which: Paper) -> f64 {
    match which {
        Paper::Ff => 26.0,
        Paper::Emb => 2.5,
    }
}

/// Passes of an untraced run: at least two, so every op's result is
/// compared across passes.
fn passes(which: Paper, seconds: f64) -> usize {
    ((seconds / nominal_pass_s(which)).round() as usize).max(2)
}

/// One timed operation: one flow call on one machine.
pub struct Op {
    pub stg: Stg,
    pub kind: FlowKind,
}

/// Which paper workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Paper {
    Ff,
    Emb,
}

/// The ops of one pass, in suite order.
fn pass_ops(which: Paper) -> Vec<Op> {
    let mut ops = Vec::new();
    for stg in paper_bench::suite() {
        match which {
            Paper::Ff if stg.name() != FF_SKIPPED => ops.push(Op {
                stg,
                kind: FlowKind::Ff,
            }),
            Paper::Ff => {}
            Paper::Emb => {
                ops.push(Op {
                    stg: stg.clone(),
                    kind: FlowKind::Emb,
                });
                ops.push(Op {
                    stg,
                    kind: FlowKind::Cc,
                });
            }
        }
    }
    ops
}

fn config(seed: u64) -> FlowConfig {
    let mut cfg = paper_bench::paper_config();
    cfg.seed = seed;
    cfg
}

/// Runs one op through the library flow.
///
/// # Errors
///
/// The flow's own error.
pub fn run_op(stg: &Stg, kind: FlowKind, cfg: &FlowConfig) -> Result<FlowReport, FlowError> {
    let opts = EmbOptions::default();
    match kind {
        FlowKind::Ff => ff_flow(stg, SynthOptions::default(), &kind.stimulus(), cfg),
        FlowKind::Emb => emb_flow(stg, &opts, &kind.stimulus(), cfg),
        FlowKind::Cc => emb_clock_controlled_flow(stg, &opts, &kind.stimulus(), cfg),
    }
}

/// Total power (mW) at 50 MHz.
fn mw50(r: &FlowReport) -> f64 {
    r.power_at(50.0)
        .map_or(f64::NAN, powermodel::PowerReport::total_mw)
}

/// FF-baseline LUTs of every paper benchmark by synthesis, FF netlist
/// construction and packing (no placement).
///
/// # Errors
///
/// The first synthesis failure.
pub fn ff_luts_by_synthesis() -> Result<BTreeMap<String, usize>, String> {
    let mut out = BTreeMap::new();
    for stg in paper_bench::suite() {
        let synth = synthesize(&stg, SynthOptions::default())
            .map_err(|e| format!("{}: synth: {e}", stg.name()))?;
        let (netlist, _) = emb_fsm::baseline::ff_netlist(&synth, false);
        let luts = fpga_fabric::pack::pack(&netlist).area(&netlist).luts;
        out.insert(stg.name().to_string(), luts);
    }
    Ok(out)
}

/// Runs `kind` on each named paper benchmark (or all nine when `names`
/// is empty) at `seed`, outside any timed phase.
///
/// # Errors
///
/// The first flow failure.
pub fn probe(kind: FlowKind, names: &[&str], seed: u64) -> Result<Vec<FlowReport>, String> {
    let cfg = config(seed);
    paper_bench::suite()
        .into_iter()
        .filter(|s| names.is_empty() || names.contains(&s.name()))
        .map(|stg| run_op(&stg, kind, &cfg).map_err(|e| format!("probe: {e}")))
        .collect()
}

/// The quality figures from probes alone, for workloads that do not run
/// the paper flows themselves.
///
/// # Errors
///
/// The first probe failure.
pub fn probe_quality(seed: u64) -> Result<Quality, String> {
    let emb = probe(FlowKind::Emb, &[], seed)?;
    let ff = probe(FlowKind::Ff, &FF_PROBE, seed)?;
    let designs: Vec<&FlowReport> = emb.iter().chain(&ff).collect();
    Ok(Quality {
        emb_mw: stats::geomean(&emb.iter().map(mw50).collect::<Vec<_>>()),
        ff_mw: stats::geomean(&ff.iter().map(mw50).collect::<Vec<_>>()),
        ff_luts: ff_luts_by_synthesis()?.values().sum::<usize>() as f64,
        wirelength: designs.iter().map(|r| r.total_wirelength as f64).sum(),
        fmax_mhz: stats::geomean(
            &designs
                .iter()
                .map(|r| r.timing.fmax_mhz)
                .collect::<Vec<_>>(),
        ),
    })
}

/// The committed Table 2 golden rows: benchmark → columns.
fn golden_rows() -> Result<BTreeMap<String, Vec<String>>, String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../results/table2_golden.txt");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let body = text
        .split_once("\n---")
        .map(|(_, b)| b)
        .ok_or("table2 golden: no header rule")?;
    Ok(body
        .lines()
        .skip(1)
        .filter_map(|l| {
            let cols: Vec<String> = l.split_whitespace().map(str::to_string).collect();
            (cols.len() == 10).then(|| (cols[0].clone(), cols))
        })
        .collect())
}

/// At the default seed, the timed rows must reproduce the committed
/// Table 2: FF power columns for `paper-ff`, EMB power and fmax columns
/// for `paper-emb`. (The Δfmax column needs a wirelength-only flow that
/// neither workload runs.)
fn check_golden(reports: &[(FlowKind, FlowReport)], out: &mut RunResult) {
    let golden = match golden_rows() {
        Ok(g) => g,
        Err(e) => return out.problem(format!("table2 golden unreadable: {e}")),
    };
    for (kind, r) in reports {
        let Some(row) = golden.get(&r.name) else {
            out.problem(format!("{}: no table2 golden row", r.name));
            continue;
        };
        let p = |f: f64| {
            r.power_at(f)
                .map_or(f64::NAN, powermodel::PowerReport::total_mw)
        };
        let (cols, got): (&[String], Vec<String>) = match kind {
            FlowKind::Ff => (
                &row[1..4],
                vec![
                    paper_bench::mw(p(50.0)),
                    paper_bench::mw(p(85.0)),
                    paper_bench::mw(p(100.0)),
                ],
            ),
            FlowKind::Emb => (
                &row[4..8],
                vec![
                    paper_bench::mw(p(50.0)),
                    paper_bench::mw(p(85.0)),
                    paper_bench::mw(p(100.0)),
                    format!("{:.1}", r.timing.fmax_mhz),
                ],
            ),
            FlowKind::Cc => continue,
        };
        if cols != got.as_slice() {
            out.fail(format!(
                "{} {kind:?}: table2 golden {cols:?}, measured {got:?}",
                r.name
            ));
        }
    }
}

/// Builds the workload's inputs: one pass's ops and the flow
/// configuration.
fn setup(which: Paper, seed: u64) -> (Vec<Op>, FlowConfig) {
    (pass_ops(which), config(seed))
}

/// The untraced run: [`passes`] passes over the workload's ops.
#[must_use]
pub fn run(which: Paper, seed: u64, seconds: f64, process_start: Instant) -> RunResult {
    let (ops, cfg) = setup(which, seed);
    // `setup_s` is the median of a sample from process start and one
    // repeated set-up after every op, so that the samples see the host
    // the ops see.
    let (mut clock, first_setup) = Clock::started_at(process_start);
    let mut setup_samples = vec![first_setup.ms / 1e3];
    let mut out = RunResult::default();
    // Per op: its times at reference host speed, one per pass.
    let mut latencies: Vec<Vec<f64>> = vec![Vec::new(); ops.len()];
    let mut wall_ms = 0.0;
    let mut first: Vec<Option<(FlowKind, FlowReport)>> = vec![None; ops.len()];
    let mut pass_s = Vec::new();
    for pass in 0..passes(which, seconds) {
        let pass_start = Instant::now();
        for (i, op) in ops.iter().enumerate() {
            out.attempted += 1;
            let (result, timing) = clock.time(|| run_op(&op.stg, op.kind, &cfg));
            let (_, set_up) = clock.time(|| std::hint::black_box(setup(which, seed)));
            setup_samples.push(set_up.ms / 1e3);
            let report = match result {
                Ok(r) => r,
                Err(e) => {
                    out.fail(format!("{} {:?}: {e}", op.stg.name(), op.kind));
                    continue;
                }
            };
            if report.cache.hits + report.cache.misses > 0 {
                out.fail(format!(
                    "{}: flow cache is on ({})",
                    op.stg.name(),
                    report.cache
                ));
                continue;
            }
            match &first[i] {
                None => first[i] = Some((op.kind, report)),
                Some((_, reference)) if Fingerprint::of(reference) != Fingerprint::of(&report) => {
                    out.fail(format!(
                        "{} {:?}: pass {pass} differs from pass 0: {:?} vs {:?}",
                        op.stg.name(),
                        op.kind,
                        Fingerprint::of(&report),
                        Fingerprint::of(reference)
                    ));
                    continue;
                }
                Some(_) => {}
            }
            latencies[i].push(timing.ms);
            wall_ms += timing.wall_ms;
        }
        pass_s.push(pass_start.elapsed().as_secs_f64());
    }
    let completed: usize = latencies.iter().map(Vec::len).sum();
    let timed_s = latencies.iter().flatten().sum::<f64>() / 1e3;
    let per_op: Vec<f64> = latencies
        .iter()
        .filter(|l| !l.is_empty())
        .map(|l| stats::median(l))
        .collect();
    out.notes.push(format!(
        "{} pass(es) of {} op(s), pass wall times (s) {pass_s:?}; ops took {:.3} s wall, {timed_s:.3} s at reference host speed",
        pass_s.len(),
        ops.len(),
        wall_ms / 1e3
    ));
    let reports: Vec<(FlowKind, FlowReport)> = first.into_iter().flatten().collect();
    if seed == paper_bench::paper_config().seed {
        check_golden(&reports, &mut out);
    }
    let q = quality(which, &reports, seed).unwrap_or_else(|e| {
        out.problem(e);
        Quality::default()
    });
    out.end_to_end(completed, timed_s, &per_op, &setup_samples, q);
    out
}

/// Quality figures from the first pass's reports, completed by probes
/// for the flows this workload does not run.
fn quality(which: Paper, reports: &[(FlowKind, FlowReport)], seed: u64) -> Result<Quality, String> {
    let ff_luts = ff_luts_by_synthesis()?;
    let all: Vec<&FlowReport> = reports.iter().map(|(_, r)| r).collect();
    let wirelength = all.iter().map(|r| r.total_wirelength as f64).sum();
    let fmax_mhz = stats::geomean(&all.iter().map(|r| r.timing.fmax_mhz).collect::<Vec<_>>());
    let of_kind = |k: FlowKind| {
        reports
            .iter()
            .filter(move |(kind, _)| *kind == k)
            .map(|(_, r)| r)
    };
    let (emb_mw, ff_mw) = match which {
        Paper::Ff => {
            // The flows' packed LUT counts must agree with the synthesis
            // count that stands in for the skipped machine.
            for r in of_kind(FlowKind::Ff) {
                if ff_luts.get(&r.name) != Some(&r.area.luts) {
                    return Err(format!(
                        "{}: flow LUTs {} but synthesis gives {:?}",
                        r.name,
                        r.area.luts,
                        ff_luts.get(&r.name)
                    ));
                }
            }
            let emb = probe(FlowKind::Emb, &[], seed)?;
            (
                stats::geomean(&emb.iter().map(mw50).collect::<Vec<_>>()),
                stats::geomean(&of_kind(FlowKind::Ff).map(mw50).collect::<Vec<_>>()),
            )
        }
        Paper::Emb => {
            let ff = probe(FlowKind::Ff, &FF_PROBE, seed)?;
            (
                stats::geomean(&of_kind(FlowKind::Emb).map(mw50).collect::<Vec<_>>()),
                stats::geomean(&ff.iter().map(mw50).collect::<Vec<_>>()),
            )
        }
    };
    Ok(Quality {
        emb_mw,
        ff_mw,
        ff_luts: ff_luts.values().sum::<usize>() as f64,
        wirelength,
        fmax_mhz,
    })
}

/// The traced run: each op runs through the library flow (untraced) and
/// then through the replay (traced); the two results must agree. Half
/// the untraced run's passes (each op runs twice), at least one.
#[must_use]
pub fn run_traced(which: Paper, seed: u64, seconds: f64, spans_path: &Path) -> RunResult {
    let (ops, cfg) = setup(which, seed);
    let mut out = RunResult::default();
    let mut t = Tracer::new();
    let (mut flow_ms, mut replay_ms) = (0.0, 0.0);
    let mut stage = [0.0f64; 4];
    let mut cache_stats = (0u64, 0u64);
    let mut done = 0usize;
    for _ in 0..(passes(which, seconds) / 2).max(1) {
        for op in &ops {
            out.attempted += 1;
            t.set_op(done);
            done += 1;
            let t0 = Instant::now();
            let report = run_op(&op.stg, op.kind, &cfg);
            flow_ms += t0.elapsed().as_secs_f64() * 1e3;
            let t1 = Instant::now();
            let replayed = replay(op.kind, op.stg.name(), &cfg, &mut t);
            replay_ms += t1.elapsed().as_secs_f64() * 1e3;
            match (report, replayed) {
                (Ok(r), Ok(fp)) if Fingerprint::of(&r) == fp => {
                    let s = r.stage_ms;
                    for (acc, v) in
                        stage
                            .iter_mut()
                            .zip([s.synth_ms, s.verify_ms, s.place_ms, s.route_ms])
                    {
                        *acc += v;
                    }
                    cache_stats.0 += r.cache.hits;
                    cache_stats.1 += r.cache.misses;
                }
                (Ok(r), Ok(fp)) => out.fail(format!(
                    "{} {:?}: replay fidelity: flow {:?}, replay {fp:?}",
                    op.stg.name(),
                    op.kind,
                    Fingerprint::of(&r)
                )),
                (r, fp) => out.fail(format!(
                    "{} {:?}: flow {:?} / replay {:?}",
                    op.stg.name(),
                    op.kind,
                    r.err().map(|e| e.to_string()),
                    fp.err()
                )),
            }
        }
    }
    let n = done as f64;
    let busy = t.self_ms();
    let b = |name: &str| busy.get(name).copied().unwrap_or(0.0);
    let c = |name: &str| t.counter(name);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    out.zero_layers();
    out.flow_stages(stage, n);
    let m = &mut out.metrics;
    for (key, span) in [
        ("place.busy_ms", "place"),
        ("place_eco.busy_ms", "place_eco"),
        ("verify.busy_ms", "verify"),
        ("synth.busy_ms", "synth"),
        ("map.busy_ms", "map"),
        ("clock_control.busy_ms", "clock_control"),
        ("pack.busy_ms", "pack"),
        ("route.busy_ms", "route"),
        ("sta.busy_ms", "sta"),
        ("sim.busy_ms", "sim"),
        ("power.busy_ms", "power"),
        ("oracle.busy_ms", "oracle"),
        ("generate.busy_ms", "generate"),
        ("cache.codec_ms", "cache"),
    ] {
        m.insert(key, b(span) / n);
    }
    for key in [
        "place.moves",
        "place.budget_exhausted",
        "place_eco.delta_entities",
        "verify.edges",
        "synth.cubes",
        "synth.luts",
        "map.brams",
        "pack.entities",
        "route.wirelength",
        "route.failures",
        "sim.cycles",
    ] {
        m.insert(key, c(key) / n);
    }
    m.insert("place.moves_per_ms", ratio(c("place.moves"), b("place")));
    m.insert(
        "place_eco.success_ratio",
        ratio(c("place_eco.successes"), c("place_eco.attempts")),
    );
    m.insert(
        "verify.exhaustive_ratio",
        ratio(c("verify.exhaustive"), c("verify.calls")),
    );
    m.insert("cache.hits", cache_stats.0 as f64 / n);
    m.insert("cache.misses", cache_stats.1 as f64 / n);
    m.insert(
        "cache.hit_ratio",
        ratio(cache_stats.0 as f64, (cache_stats.0 + cache_stats.1) as f64),
    );
    m.insert(
        "trace.overhead_pct",
        100.0 * (replay_ms - flow_ms) / flow_ms,
    );
    out.notes.push(format!(
        "traced {done} op(s): flow {flow_ms:.1} ms untraced, replay {replay_ms:.1} ms traced; \
         per op: flow place {:.1} / replay place {:.1} ms, flow verify {:.1} / replay verify {:.1} ms",
        stage[2] / n,
        b("place") / n,
        stage[1] / n,
        b("verify") / n
    ));
    if let Err(e) = t.write_jsonl(spans_path) {
        out.problem(format!("writing spans to {}: {e}", spans_path.display()));
    }
    out
}
