//! Flow profiles and outcome rows for the synthetic corpus.
//!
//! `fsm_model::corpus` owns the *machine-space* side of the corpus (tier
//! parameter grids, the self-describing item-name codec); this module
//! owns the *flow* side: which device, mapping options, budgets and
//! stimulus each tier is pushed through, chosen so every tier reliably
//! exercises its target rung of the degradation ladder. [`run_item`] is
//! the single work function every stress pass (sequential / threads /
//! process workers / daemon) shares — it reconstructs the machine from
//! the item name alone, so it runs identically in any process.
//!
//! Outcome rows carry exactly one measurement column — the per-stage
//! wall-clock breakdown, always last — and are otherwise deterministic:
//! stripped of that final column they must be byte-identical across
//! backends and cache warmth, which is what lets `corpus_stress`
//! histogram them and `scripts/verify.sh` diff two runs. Cache counters
//! stay out of rows entirely.

use crate::paper_config;
use emb_fsm::flow::{
    emb_clock_controlled_flow, emb_flow_with_fallback, FlowConfig, FlowReport, ImplKind,
    MapBackend, Stimulus,
};
use emb_fsm::map::{map_fsm_into_embs, EmbOptions};
use fpga_fabric::device::Device;
use fpga_fabric::place::PlaceOptions;
use fsm_model::corpus::decode_spec;
use fsm_model::generate::{generate, StgSpec};
use logic_synth::synth::SynthOptions;

/// Which flow a tier drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowChoice {
    /// `emb_flow_with_fallback`: the full mapping ladder with the FF
    /// baseline as the last rung.
    Fallback,
    /// `emb_clock_controlled_flow`: the Sec. 6 clock-controlled flow with
    /// ECO placement (the only flow that can record `EcoFallback`).
    ClockControlled,
}

/// Everything needed to push one tier's machines through the flow.
#[derive(Debug, Clone)]
pub struct TierProfile {
    /// Flow configuration (device, budgets, verify horizon).
    pub cfg: FlowConfig,
    /// Mapping options (rung gates).
    pub emb_opts: EmbOptions,
    /// FF-baseline synthesis options (budget gates).
    pub synth_opts: SynthOptions,
    /// Stimulus driving the power simulation.
    pub stimulus: Stimulus,
    /// Which flow to run.
    pub flow: FlowChoice,
}

/// The flow profile for a tier. Unknown tiers get the `nominal` profile
/// (they only arise from hand-built item names). `spec` lets the
/// squeeze tiers size their budgets to the machine — a fixed budget
/// cannot sit between "ECO route exhausts it" and "full route fits it"
/// for every machine in a tier at once.
#[must_use]
pub fn profile(tier: &str, spec: &StgSpec) -> TierProfile {
    // A deliberately cheap base: corpus throughput runs push thousands of
    // machines, so simulate/verify lengths are a fraction of the paper
    // config's. All values are fixed here — never from the environment —
    // so outcome rows are reproducible anywhere. The one exception is the
    // mapping backend, which stays ambient (see [`run_item_with_backend`]);
    // the placer starts from its defaults, not from `paper_config`'s
    // place-tuning knobs.
    let mut cfg = paper_config();
    cfg.cycles = 240;
    cfg.verify_cycles = 120;
    cfg.freqs_mhz = vec![100.0];
    cfg.place = PlaceOptions {
        effort: 2.0,
        ..PlaceOptions::default()
    };
    let mut p = TierProfile {
        cfg,
        emb_opts: EmbOptions::default(),
        synth_opts: SynthOptions::default(),
        stimulus: Stimulus::IdleBiased(0.5),
        flow: FlowChoice::Fallback,
    };
    match tier {
        "series-cascade" => {
            // Forbid the compaction escape so the wide address must be
            // split into series banks.
            p.emb_opts.allow_compaction = false;
        }
        "always-on" => {
            // Clock control on machines that are never idle: the gating
            // logic is pure overhead, which is exactly the scenario the
            // ROADMAP wants covered. Random stimulus ≈ 0 idle occupancy.
            p.stimulus = Stimulus::Random;
            p.flow = FlowChoice::ClockControlled;
        }
        "wide-input" => {
            // 13–16 input machines with the exhaustive horizon pulled
            // down: rewrite verification must take the sampled rung.
            p.cfg.exhaustive_verify_max_inputs = 10;
        }
        "tight-device" => {
            // Start on the smallest family member with the compaction
            // escape closed: the full-width ROM cannot fit XC2V40's
            // BRAM budget, so the ladder has to upsize. Falls back to
            // the nominal device if the family ever loses the member
            // (the coverage test would flag the lost upsizes loudly).
            if let Some(d) = Device::by_name("XC2V40") {
                p.cfg.device = d;
            }
            p.emb_opts.allow_compaction = false;
        }
        "ff-fallback" => {
            // No compaction, no series: >14 address bits cannot fit, so
            // the ladder lands on the FF baseline — whose synthesis gets
            // a tiny espresso budget, covering SynthBudgetExhausted too.
            p.emb_opts.allow_compaction = false;
            p.emb_opts.allow_series = false;
            p.synth_opts.max_minimize_cubes = 8;
        }
        "budget-squeeze" => {
            // A move budget far below what these machines need: the
            // anneal stops mid-flight and keeps the best-seen placement.
            p.cfg.place.max_moves = 200;
        }
        "eco-squeeze" => {
            // Route-expansion budget sized (empirically, pinned by the
            // coverage test) so the pinned-base ECO placement of the
            // clock-control cone exhausts it on some machines while the
            // fully annealed placement still routes: a deterministic
            // EcoFallback. The budget scales with the machine — route
            // cost does too, so no constant separates the two placements
            // across the whole tier.
            p.flow = FlowChoice::ClockControlled;
            p.cfg.route.max_expansions = 50 * spec.states as u64;
        }
        _ => {}
    }
    p
}

/// One corpus outcome: the deterministic, backend-independent record of
/// pushing one item through its tier's flow.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The self-describing item name.
    pub item: String,
    /// Tier the item belongs to (`"-"` for undecodable names).
    pub tier: String,
    /// `ok`, `gen-error:<kind>`, `flow-error:<stage>`, or `bad-item`.
    pub status: String,
    /// Final implementation style (`-` when no report was produced).
    pub impl_kind: String,
    /// Device the flow finished on (`-` when no report was produced).
    pub device: String,
    /// Mapping rung: `direct` / `compacted` / `series` / `overlay` /
    /// `ff` / `-`.
    pub rung: String,
    /// `+`-joined downgrade kinds in record order, `none` when empty.
    pub downgrades: String,
    /// Per-stage wall-clock `synth/verify/place/route` in ms, each
    /// rounded to one decimal at this formatting boundary (`-` when no
    /// report was produced). Always the LAST column: it is measurement,
    /// not outcome, so identity checks strip it (see
    /// [`Outcome::deterministic_columns`]).
    pub stage_ms: String,
}

impl Outcome {
    /// Number of row columns (the runner's placeholder width).
    pub const COLUMNS: usize = 8;

    /// Columns that must be byte-identical across backends and cache
    /// warmth: everything except the trailing wall-clock column.
    pub const DETERMINISTIC_COLUMNS: usize = Self::COLUMNS - 1;

    /// The outcome as a checkpoint/report row.
    #[must_use]
    pub fn row(self) -> Vec<String> {
        vec![
            self.item,
            self.tier,
            self.status,
            self.impl_kind,
            self.device,
            self.rung,
            self.downgrades,
            self.stage_ms,
        ]
    }

    /// The deterministic prefix of a row: the wall-clock column dropped.
    #[must_use]
    pub fn deterministic_columns(row: &[String]) -> &[String] {
        &row[..Self::DETERMINISTIC_COLUMNS.min(row.len())]
    }

    fn skeleton(item: &str, tier: &str, status: String) -> Outcome {
        Outcome {
            item: item.to_string(),
            tier: tier.to_string(),
            status,
            impl_kind: "-".to_string(),
            device: "-".to_string(),
            rung: "-".to_string(),
            downgrades: "-".to_string(),
            stage_ms: "-".to_string(),
        }
    }
}

/// Renders a report's stage timings as the row's `synth/verify/place/
/// route` column (one decimal each — the rounding policy lives at this
/// formatting boundary, the report keeps full precision).
fn stage_column(report: &FlowReport) -> String {
    let s = report.stage_ms;
    format!(
        "{:.1}/{:.1}/{:.1}/{:.1}",
        s.synth_ms, s.verify_ms, s.place_ms, s.route_ms
    )
}

/// Pushes one corpus item through its tier's flow. Every failure mode is
/// folded into the outcome row — this function never returns `Err` to
/// the runner, so "zero coordinator failures" means exactly that.
#[must_use]
pub fn run_item(item: &str) -> Outcome {
    run_item_with_backend(item, None)
}

/// [`run_item`] with the mapping backend forced. `None` keeps the tier
/// profile's backend (the ambient [`paper_config`] resolution);
/// `Some(MapBackend::Auto)` is what the overlay stress pass uses — every
/// item either compiles onto its overlay class or records the
/// `overlay-capacity` downgrade on the direct path. Clock-controlled
/// tiers ignore the override (that flow is direct-only: its enable cone
/// is netlist-specific, so it cannot share a class base).
#[must_use]
pub fn run_item_with_backend(item: &str, backend: Option<MapBackend>) -> Outcome {
    let Some((tier, spec)) = decode_spec(item) else {
        return Outcome::skeleton(item, "-", "bad-item".to_string());
    };
    let stg = match generate(&spec) {
        Ok(stg) => stg,
        Err(e) => return Outcome::skeleton(item, &tier, format!("gen-error:{e}")),
    };
    let mut p = profile(&tier, &spec);
    if let Some(b) = backend {
        p.cfg.backend = b;
    }
    let report = match p.flow {
        FlowChoice::Fallback => {
            emb_flow_with_fallback(&stg, &p.emb_opts, p.synth_opts, &p.stimulus, &p.cfg)
        }
        FlowChoice::ClockControlled => {
            emb_clock_controlled_flow(&stg, &p.emb_opts, &p.stimulus, &p.cfg)
        }
    };
    let report = match report {
        Ok(r) => r,
        Err(e) => return Outcome::skeleton(item, &tier, format!("flow-error:{}", e.stage)),
    };
    let rung = match report.kind {
        ImplKind::Ff | ImplKind::FfClockGated => "ff".to_string(),
        ImplKind::EmbOverlay => "overlay".to_string(),
        ImplKind::Emb | ImplKind::EmbClockControlled => map_fsm_into_embs(&stg, &p.emb_opts)
            .map_or_else(|_| "ff".to_string(), |emb| emb.rung().label().to_string()),
    };
    let downgrades = if report.downgrades.is_empty() {
        "none".to_string()
    } else {
        report
            .downgrades
            .iter()
            .map(emb_fsm::flow::Downgrade::kind)
            .collect::<Vec<_>>()
            .join("+")
    };
    Outcome {
        item: item.to_string(),
        tier,
        status: "ok".to_string(),
        impl_kind: report.kind.to_string(),
        device: report.device.name.to_string(),
        rung,
        stage_ms: stage_column(&report),
        downgrades,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsm_model::corpus::{spec, TIERS};

    fn scratch_cache(tag: &str) {
        let dir = std::env::temp_dir().join(format!("corpus_profile_test_{tag}"));
        let _ = std::fs::create_dir_all(&dir);
        std::env::set_var("FLOW_CACHE_DIR", &dir);
    }

    #[test]
    fn profiles_cover_every_tier() {
        for t in &TIERS {
            let s = spec(t.name, 0, 1).expect("known tier");
            let p = profile(t.name, &s);
            assert!(p.cfg.cycles > 0, "{}", t.name);
        }
        // Unknown tiers take the nominal shape rather than panicking.
        let s = spec("nominal", 0, 1).expect("known tier");
        let p = profile("nonesuch", &s);
        assert_eq!(p.flow, FlowChoice::Fallback);
    }

    #[test]
    fn bad_items_and_gen_errors_become_rows() {
        let o = run_item("not-a-corpus-item");
        assert_eq!(o.status, "bad-item");
        assert_eq!(o.tier, "-");
        // A decodable name with a degenerate spec: states 0.
        let o = run_item("cx.nominal.s0.i2.o1.t8.un.b300.m0.qn.d0.k0.x0000000000000001");
        assert_eq!(o.tier, "nominal");
        assert!(o.status.starts_with("gen-error:"), "{}", o.status);
    }

    #[test]
    fn nominal_item_runs_clean_through_the_flow() {
        scratch_cache("nominal");
        let s = spec("nominal", 0, 7).expect("known tier");
        let o = run_item(&s.name);
        assert_eq!(o.status, "ok", "{o:?}");
        assert_eq!(o.tier, "nominal");
        assert_ne!(o.rung, "-");
        // And the outcome is deterministic across repeat runs (second run
        // is warm-cache: rows must not see the difference). The wall-clock
        // `stage_ms` column is a measurement, so it is left out.
        let (first, again) = (o.row(), run_item(&s.name).row());
        assert_eq!(
            Outcome::deterministic_columns(&first),
            Outcome::deterministic_columns(&again)
        );
    }
}
