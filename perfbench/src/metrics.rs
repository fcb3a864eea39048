//! The metric catalogue (mirrored by `BENCHMARK.json`) and the result
//! record every workload returns.

use crate::stats;
use std::collections::BTreeMap;

/// End-to-end metrics, printed by every untraced run: (name, unit).
pub const END_TO_END: &[(&str, &str)] = &[
    ("fsms_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("emb_mw", "mW"),
    ("ff_mw", "mW"),
    ("ff_luts", "count"),
    ("wirelength", "count"),
    ("fmax_mhz", "MHz"),
];

/// Per-layer metrics, printed by every traced run: (name, unit). Times
/// and counts are means per op; ratios are over the whole traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("place.busy_ms", "ms"),
    ("place.moves", "count"),
    ("place.moves_per_ms", "1/ms"),
    ("place.budget_exhausted", "count"),
    ("place_eco.busy_ms", "ms"),
    ("place_eco.delta_entities", "count"),
    ("place_eco.success_ratio", "ratio"),
    ("verify.busy_ms", "ms"),
    ("verify.edges", "count"),
    ("verify.exhaustive_ratio", "ratio"),
    ("synth.busy_ms", "ms"),
    ("synth.cubes", "count"),
    ("synth.luts", "count"),
    ("map.busy_ms", "ms"),
    ("map.brams", "count"),
    ("clock_control.busy_ms", "ms"),
    ("overlay.busy_ms", "ms"),
    ("overlay.fit_ratio", "ratio"),
    ("pack.busy_ms", "ms"),
    ("pack.entities", "count"),
    ("route.busy_ms", "ms"),
    ("route.wirelength", "count"),
    ("route.failures", "count"),
    ("sta.busy_ms", "ms"),
    ("sim.busy_ms", "ms"),
    ("sim.cycles", "count"),
    ("power.busy_ms", "ms"),
    ("oracle.busy_ms", "ms"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.codec_ms", "ms"),
    ("generate.busy_ms", "ms"),
    ("fabric.overhead_ms", "ms"),
    ("fabric.rejects", "count"),
    ("flow.synth_ms", "ms"),
    ("flow.verify_ms", "ms"),
    ("flow.place_ms", "ms"),
    ("flow.route_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// The program's own per-stage timings (`FlowReport::stage_ms`), in
/// `StageTimings` field order: synth, verify, place, route.
pub const FLOW_STAGES: [&str; 4] = [
    "flow.synth_ms",
    "flow.verify_ms",
    "flow.place_ms",
    "flow.route_ms",
];

/// Result-quality figures of a run; deterministic at a fixed seed.
#[derive(Debug, Clone, Copy, Default)]
pub struct Quality {
    pub emb_mw: f64,
    pub ff_mw: f64,
    pub ff_luts: f64,
    pub wirelength: f64,
    pub fmax_mhz: f64,
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    /// Failed output checks; any entry makes the run incorrect.
    pub problems: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Extra human-readable summary lines.
    pub notes: Vec<String>,
}

impl RunResult {
    /// Records a failed op or check.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.problems.push(why);
    }

    /// Records a failed check that is not an op of its own.
    pub fn problem(&mut self, why: String) {
        self.problems.push(why);
    }

    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// Starts the per-layer metrics at 0: a layer the workload does not
    /// exercise reads 0.
    pub fn zero_layers(&mut self) {
        for &(key, _) in PER_LAYER {
            self.metrics.insert(key, 0.0);
        }
    }

    /// Per-op means of the summed `FlowReport::stage_ms` columns.
    pub fn flow_stages(&mut self, summed_ms: [f64; 4], ops: f64) {
        for (key, v) in FLOW_STAGES.into_iter().zip(summed_ms) {
            self.metrics.insert(key, v / ops);
        }
    }

    /// Fills the end-to-end metrics: `ops` completed ops took `timed_s`
    /// seconds, and `latencies_ms` is the latency sample of the p50 (one
    /// figure per op, its median over the run's repetitions); all times
    /// at reference host speed (see `calib`). Then the set-up samples
    /// and the quality figures.
    pub fn end_to_end(
        &mut self,
        ops: usize,
        timed_s: f64,
        latencies_ms: &[f64],
        setup_samples_s: &[f64],
        q: Quality,
    ) {
        let n = latencies_ms.len();
        let m = &mut self.metrics;
        m.insert("fsms_per_s", ops as f64 / timed_s);
        m.insert("latency_p50_ms", stats::median(latencies_ms));
        m.insert("setup_s", stats::median(setup_samples_s));
        m.insert("peak_rss_mb", stats::peak_rss_mb());
        m.insert("emb_mw", q.emb_mw);
        m.insert("ff_mw", q.ff_mw);
        m.insert("ff_luts", q.ff_luts);
        m.insert("wirelength", q.wirelength);
        m.insert("fmax_mhz", q.fmax_mhz);
        let failed_frac = self.failed as f64 / self.attempted.max(1) as f64;
        // The tail percentile is printed, not gated: paper-ff has too few
        // ops for ten samples to lie beyond it.
        self.notes.push(format!(
            "latency_p90_ms {} ms ({n} sample(s), {} beyond p90); throughput: {ops} op(s) in {timed_s:.3} s",
            stats::percentile(latencies_ms, 90.0),
            stats::beyond(latencies_ms, 90.0),
        ));
        self.notes.push(format!(
            "failed_frac {failed_frac} ratio ({} of {} attempted); {} set-up sample(s) (s): first {:?}, range {:?}..{:?}",
            self.failed,
            self.attempted,
            setup_samples_s.len(),
            setup_samples_s.first().copied().unwrap_or(f64::NAN),
            stats::percentile(setup_samples_s, 0.0),
            stats::percentile(setup_samples_s, 100.0),
        ));
    }
}

/// Renders `metrics` restricted to `catalogue` as the result JSON's
/// `metrics` object. A missing or non-finite value is an error: the
/// result would not be a complete measurement.
///
/// # Errors
///
/// The name of the first missing or non-finite metric.
pub fn render(
    metrics: &BTreeMap<&'static str, f64>,
    catalogue: &[(&str, &str)],
) -> Result<String, String> {
    let mut parts = Vec::new();
    for &(name, unit) in catalogue {
        match metrics.get(name) {
            Some(v) if v.is_finite() => {
                parts.push(format!(
                    "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
                ));
            }
            Some(v) => return Err(format!("metric {name} is not finite ({v})")),
            None => return Err(format!("metric {name} was not measured")),
        }
    }
    Ok(format!("{{{}}}", parts.join(", ")))
}
