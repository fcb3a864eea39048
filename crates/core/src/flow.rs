//! End-to-end implementation flows (the paper's Fig. 6).
//!
//! Each flow takes an STG all the way to a power number: build the
//! netlist (FF baseline or EMB mapping, with or without clock control),
//! verify it against the STG oracle, pack/place/route on the target
//! device, simulate the stimulus while recording switching activity, and
//! estimate power at each requested clock frequency plus the critical
//! path. The [`FlowReport`] rows are what the experiment harness prints
//! as the paper's tables.
//!
//! The five public flows are thin wrappers over one private pipeline.
//! A private `Front` value names the netlist to build, one per
//! [`ImplKind`]. One front-end resolves it through the flow cache (build,
//! verify, store on a miss; replay the recorded downgrades on a hit), and
//! one physical half places, routes, simulates and estimates it. The
//! overlay backend is [`emb_flow`] under [`FlowConfig::backend`]: its
//! front-end plans the class, and its physical step resolves the class
//! base instead of placing the netlist. Both fallbacks, overlay → direct
//! and EMB → FF, go through one fallback helper.

use crate::baseline::ff_netlist;
use crate::cache;
use crate::clock_control::{attach_emb_clock_control, attach_ff_clock_gating};
use crate::map::{map_fsm_into_embs, EmbOptions};
use crate::overlay::{overlay_fsm, OverlayClass, OverlayError};
use crate::verify::{
    verify_against_stg, verify_rewrite, OutputTiming, VerificationMethod, VerifyError,
};
use fpga_fabric::device::Device;
use fpga_fabric::netlist::Netlist;
use fpga_fabric::pack::{pack, pack_partitioned, AreaReport, PackedDesign};
use fpga_fabric::place::{
    place, place_incremental, verify_eco_placement, PinnedEntities, PlaceError, PlaceOptions,
    Placement,
};
use fpga_fabric::route::{route, RouteError, RouteOptions, RoutedDesign};
use fpga_fabric::timing::{analyze, DelayModel, TimingReport};
use fsm_model::simulate::{idle_fraction, trace};
use fsm_model::stg::Stg;
use logic_synth::synth::{synthesize, SynthBudget, SynthError, SynthOptions};
use netsim::kernel::BatchSimulator;
use netsim::stimulus as netstim;
use powermodel::{estimate, PowerParams, PowerReport};
use std::fmt;
use std::time::Instant;

/// Which EMB mapping backend [`emb_flow`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MapBackend {
    /// Per-FSM mapping and full place & route (the paper's Fig. 6 flow).
    #[default]
    Direct,
    /// The overlay backend: a pre-placed, pre-routed base per overlay
    /// class, per-FSM compile reduced to a memory-content update (see
    /// [`crate::overlay`]). Machines past the capacity ladder fail with
    /// a typed error.
    Overlay,
    /// Try the overlay backend; on a capacity failure fall back to the
    /// direct backend and record [`Downgrade::OverlayCapacity`].
    Auto,
}

impl MapBackend {
    /// Parses the `MAP_BACKEND` knob value (`direct` / `overlay` /
    /// `auto`). Unknown strings return `None` so callers can reject
    /// typos loudly instead of silently running the default.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "direct" => Some(MapBackend::Direct),
            "overlay" => Some(MapBackend::Overlay),
            "auto" => Some(MapBackend::Auto),
            _ => None,
        }
    }
}

impl fmt::Display for MapBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MapBackend::Direct => "direct",
            MapBackend::Overlay => "overlay",
            MapBackend::Auto => "auto",
        };
        f.write_str(s)
    }
}

/// Shared flow configuration.
#[derive(Debug, Clone)]
pub struct FlowConfig {
    /// Target device.
    pub device: Device,
    /// Placement options.
    pub place: PlaceOptions,
    /// Routing options.
    pub route: RouteOptions,
    /// Timing model.
    pub delay: DelayModel,
    /// Power model parameters.
    pub power: PowerParams,
    /// Clock frequencies to report power at (MHz) — the paper uses
    /// 50 / 85 / 100.
    pub freqs_mhz: Vec<f64>,
    /// Simulation length in cycles.
    pub cycles: usize,
    /// Verification length in cycles.
    pub verify_cycles: usize,
    /// Stimulus / verification seed.
    pub seed: u64,
    /// When the design does not fit `device`, retry on the next larger
    /// family member. Our FF baselines are larger than SIS-optimized ones
    /// (synthetic STGs compress less), so a few big benchmarks overflow
    /// the paper's XC2V250.
    pub allow_device_upsize: bool,
    /// Run state minimization before implementation. Verification still
    /// compares against the *original* machine, so this also checks the
    /// minimizer end to end.
    pub minimize_states: bool,
    /// Incremental (ECO) placement for the clock-controlled flow: reuse
    /// the plain design's placement, pin every base entity at those exact
    /// coordinates, and place only the enable-cone delta. Makes the
    /// gated-vs-plain timing comparison structural instead of statistical
    /// (Sec. 6); any ECO failure falls back to a full placement with a
    /// recorded [`Downgrade::EcoFallback`].
    pub eco_place: bool,
    /// Input-count cap for the exhaustive rewrite-verification proof:
    /// machines with at most this many inputs (and never more than 20)
    /// are verified by the product-walk oracle; wider machines fall back
    /// to sampling with a recorded [`Downgrade::VerifySampled`].
    pub exhaustive_verify_max_inputs: usize,
    /// Which mapping backend [`emb_flow`] runs: the per-FSM direct flow,
    /// the pre-placed overlay, or overlay-with-direct-fallback. Only the
    /// plain EMB flow honours this; the clock-controlled flow always
    /// runs direct (the enable cone is netlist-specific, so it cannot
    /// share a class base).
    pub backend: MapBackend,
}

impl FlowConfig {
    /// The placement options every flow placement (and its cache key)
    /// actually uses: [`FlowConfig::place`] with [`FlowConfig::delay`]
    /// substituted in, so the placer's criticality term and the post-route
    /// [`analyze`] agree on the delay model.
    #[must_use]
    pub fn place_opts(&self) -> PlaceOptions {
        PlaceOptions {
            delay: self.delay,
            ..self.place
        }
    }
}

impl Default for FlowConfig {
    fn default() -> Self {
        FlowConfig {
            device: Device::xc2v250(),
            place: PlaceOptions::default(),
            route: RouteOptions::default(),
            delay: DelayModel::default(),
            power: PowerParams::default(),
            freqs_mhz: vec![50.0, 85.0, 100.0],
            cycles: 2000,
            verify_cycles: 500,
            seed: 2004,
            allow_device_upsize: true,
            minimize_states: false,
            eco_place: true,
            exhaustive_verify_max_inputs: 20,
            backend: MapBackend::Direct,
        }
    }
}

/// The stimulus driving the power simulation.
#[derive(Debug, Clone)]
pub enum Stimulus {
    /// Uniform random vectors (paper Sec. 5 "large number of random
    /// inputs").
    Random,
    /// Idle-biased vectors targeting the given idle occupancy (paper
    /// Table 3's "average case with 50% idle").
    IdleBiased(f64),
    /// Caller-provided vectors.
    Replay(Vec<Vec<bool>>),
}

/// Which implementation a report describes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ImplKind {
    /// Conventional FF + LUT (Fig. 1a).
    Ff,
    /// FF + LUT with clock-enable gating on the state register.
    FfClockGated,
    /// EMB (BRAM) mapping (Fig. 1b).
    Emb,
    /// EMB mapping with the Sec. 6 enable-driven clock control.
    EmbClockControlled,
    /// EMB mapping compiled onto a pre-placed overlay base
    /// (see [`crate::overlay`]).
    EmbOverlay,
}

impl fmt::Display for ImplKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ImplKind::Ff => write!(f, "FF/LUT"),
            ImplKind::FfClockGated => write!(f, "FF/LUT+gate"),
            ImplKind::Emb => write!(f, "EMB"),
            ImplKind::EmbClockControlled => write!(f, "EMB+cc"),
            ImplKind::EmbOverlay => write!(f, "EMB/ovl"),
        }
    }
}

/// The result of one flow run.
#[derive(Debug, Clone)]
pub struct FlowReport {
    /// Benchmark name.
    pub name: String,
    /// Implementation style.
    pub kind: ImplKind,
    /// Area after packing (LUT/FF/slice/BRAM — Table 1).
    pub area: AreaReport,
    /// Power at each configured frequency (Table 2 / Table 3).
    pub power: Vec<PowerReport>,
    /// Timing analysis.
    pub timing: TimingReport,
    /// Idle fraction the stimulus actually achieved on the oracle.
    pub idle_fraction: f64,
    /// Clock-control overhead, when applicable (Table 4).
    pub clock_control: Option<ClockControlStats>,
    /// Routed wirelength (routing-resource pressure).
    pub total_wirelength: usize,
    /// The device the design was finally implemented on.
    pub device: Device,
    /// Graceful degradations taken to complete the flow (empty when the
    /// requested implementation succeeded as asked).
    pub downgrades: Vec<Downgrade>,
    /// Flow-artifact cache traffic attributable to this run (zero under
    /// `FLOW_CACHE=0`).
    pub cache: cache::CacheStats,
    /// Digest over the final placement's coordinates (CLB, BRAM, IOB site
    /// lists in entity order). Two reports with equal digests were placed
    /// identically — the hook the ECO gate compares against.
    pub coord_digest: String,
    /// Pre-route fmax estimate (MHz) from the placer's timing kernel over
    /// the final placement's bounding boxes — the quantity the
    /// timing-driven anneal optimizes, re-derived deterministically from
    /// the placement. `NaN` if the estimate could not be computed.
    pub place_fmax_est_mhz: f64,
    /// ECO placement evidence, present when the clock-controlled flow
    /// reused the plain design's placement (see [`FlowConfig::eco_place`]).
    pub eco: Option<EcoReport>,
    /// Wall-clock spent in each pipeline stage of this run. Cached
    /// stages report (near) zero — the point of the caches — so this is
    /// measurement evidence, not part of the deterministic result: the
    /// corpus harness excludes it from cross-backend identity checks.
    pub stage_ms: StageTimings,
    /// Overlay-backend evidence, present when this report came from the
    /// overlay path ([`ImplKind::EmbOverlay`]).
    pub overlay: Option<OverlayReport>,
}

/// Per-stage wall-clock breakdown of one flow run, in milliseconds.
///
/// `synth` covers the front-end netlist construction (synthesis or EMB /
/// overlay mapping); `verify` the oracle equivalence proof; `place` and
/// `route` the physical stages (for the overlay backend: resolving the
/// base artifact, which is the load time on a cache hit). Values are
/// unrounded here; renderers round at the last moment (the corpus row
/// uses one decimal).
#[derive(Debug, Clone, Copy, Default)]
pub struct StageTimings {
    /// Front-end netlist construction (synthesis / mapping) time.
    pub synth_ms: f64,
    /// Equivalence-proof time.
    pub verify_ms: f64,
    /// Placement time (overlay: base-artifact resolution).
    pub place_ms: f64,
    /// Routing time (overlay: zero on a base cache hit — the stored
    /// routing is reused).
    pub route_ms: f64,
}

impl StageTimings {
    /// The compile-turnaround metric the overlay backend optimizes:
    /// synthesis + place + route. Verification is excluded on both
    /// backends — the proof obligation is identical either way, so
    /// including it would only dilute the backend comparison.
    #[must_use]
    pub fn compile_ms(&self) -> f64 {
        self.synth_ms + self.place_ms + self.route_ms
    }
}

/// Evidence that a report came from the overlay backend: which class the
/// machine landed on and whether the class base came out of the cache.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OverlayReport {
    /// True when the base's placement + routing were loaded from the
    /// flow cache; false when this run built (and stored) them.
    pub base_cache_hit: bool,
    /// The canonical class label (e.g. `ovl_i4_s6_o2_b1`).
    pub class: String,
    /// Logical address bits the class consumes (`inputs + state_bits`).
    pub addr_bits: usize,
    /// Padded state width (a [`crate::overlay::STATE_BIT_RUNGS`] rung).
    pub state_bits: usize,
    /// Data bits per ROM word (`state_bits + outputs`).
    pub data_bits: usize,
    /// Series banks in the base (1, 2 or 4).
    pub banks: usize,
}

/// Evidence that a clock-controlled implementation was placed as an ECO on
/// top of the plain design: every base entity pinned at the plain
/// coordinates, only the enable-cone delta placed.
#[derive(Debug, Clone, PartialEq)]
pub struct EcoReport {
    /// Base entities pinned at the plain design's coordinates.
    pub pinned_entities: usize,
    /// Enable-cone entities placed by the range-limited local anneal.
    pub delta_entities: usize,
    /// Total HPWL of the nets touching at least one delta entity.
    pub delta_hpwl: f64,
    /// True when the base placement came out of the flow-artifact cache
    /// (the plain flow already ran); false when this run computed it.
    pub base_reuse_cache_hit: bool,
    /// Digest over the base (pinned) coordinates — byte-identical to the
    /// plain flow's [`FlowReport::coord_digest`] on the same device.
    pub base_coord_digest: String,
}

/// A graceful degradation recorded in a [`FlowReport`]: the flow completed,
/// but not exactly as requested.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Downgrade {
    /// EMB mapping failed at every rung (direct → compaction → series →
    /// upsize); the FF+LUT baseline was implemented instead.
    EmbToFf {
        /// Display of the mapping/fitting error that forced the fallback.
        reason: String,
    },
    /// The design did not fit the configured device and was implemented on
    /// a larger family member.
    DeviceUpsized {
        /// The originally requested device name.
        from: &'static str,
        /// The device actually used.
        to: &'static str,
    },
    /// The placer hit its move budget; the best-seen placement was kept.
    PlaceBudgetExhausted {
        /// Moves spent when the budget tripped.
        spent: u64,
    },
    /// Synthesis skipped espresso on oversized functions (exact but
    /// unminimized covers were kept).
    SynthBudgetExhausted {
        /// Number of functions left unminimized.
        skipped_functions: usize,
    },
    /// ECO placement was requested but could not be completed (partition,
    /// incremental-place, or routing failure on the ECO result); the flow
    /// fell back to a full from-scratch placement.
    EcoFallback {
        /// Display of the failure that forced the fallback.
        reason: String,
    },
    /// Rewrite verification could not take the exhaustive product-walk
    /// path (machine wider than the input cap) and fell back to sampled
    /// lockstep simulation.
    VerifySampled {
        /// The machine's primary-input count.
        inputs: usize,
    },
    /// The `auto` backend's overlay attempt failed for capacity (the
    /// machine exceeds the overlay ladder, or its base did not fit any
    /// device); the direct backend implemented it instead.
    OverlayCapacity {
        /// Display of the overlay failure that forced the fallback.
        reason: String,
    },
}

impl Downgrade {
    /// Stable payload-free label for histograms and JSON reports. New
    /// variants must pick a label here, which is what lets corpus
    /// coverage tests assert "every kind observed" without formatting.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Downgrade::EmbToFf { .. } => "emb-to-ff",
            Downgrade::DeviceUpsized { .. } => "device-upsized",
            Downgrade::PlaceBudgetExhausted { .. } => "place-budget",
            Downgrade::SynthBudgetExhausted { .. } => "synth-budget",
            Downgrade::EcoFallback { .. } => "eco-fallback",
            Downgrade::VerifySampled { .. } => "verify-sampled",
            Downgrade::OverlayCapacity { .. } => "overlay-capacity",
        }
    }

    /// All downgrade kind labels, in declaration order — the universe the
    /// corpus coverage gate checks against.
    #[must_use]
    pub fn all_kinds() -> &'static [&'static str] {
        &[
            "emb-to-ff",
            "device-upsized",
            "place-budget",
            "synth-budget",
            "eco-fallback",
            "verify-sampled",
            "overlay-capacity",
        ]
    }
}

impl fmt::Display for Downgrade {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Downgrade::EmbToFf { reason } => {
                write!(f, "EMB mapping fell back to FF baseline ({reason})")
            }
            Downgrade::DeviceUpsized { from, to } => {
                write!(f, "device upsized {from} -> {to}")
            }
            Downgrade::PlaceBudgetExhausted { spent } => {
                write!(f, "placement move budget exhausted after {spent} moves")
            }
            Downgrade::SynthBudgetExhausted { skipped_functions } => {
                write!(f, "{skipped_functions} function(s) left unminimized")
            }
            Downgrade::EcoFallback { reason } => {
                write!(f, "ECO placement fell back to full placement ({reason})")
            }
            Downgrade::VerifySampled { inputs } => {
                write!(
                    f,
                    "rewrite verification sampled ({inputs} inputs exceed the exhaustive cap)"
                )
            }
            Downgrade::OverlayCapacity { reason } => {
                write!(f, "overlay backend fell back to direct ({reason})")
            }
        }
    }
}

/// Area overhead of the clock-control logic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClockControlStats {
    /// LUTs used by the enable logic.
    pub luts: usize,
    /// Slices used.
    pub slices: usize,
    /// Idle cubes extracted from the STG.
    pub idle_cubes: usize,
}

impl FlowReport {
    /// Power at the given frequency, if it was configured.
    #[must_use]
    pub fn power_at(&self, freq_mhz: f64) -> Option<&PowerReport> {
        self.power
            .iter()
            .find(|p| (p.freq_mhz - freq_mhz).abs() < 1e-9)
    }
}

/// The stage of the Fig.-6 pipeline an error occurred in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlowStage {
    /// Optional state-minimization pre-pass.
    Prepare,
    /// Combinational synthesis (FF baseline).
    Synth,
    /// EMB (BRAM) mapping.
    Map,
    /// Clock-control / gating attachment.
    ClockControl,
    /// Oracle lockstep verification.
    Verify,
    /// Netlist validation and packing.
    Pack,
    /// Placement.
    Place,
    /// Routing.
    Route,
    /// Activity simulation.
    Simulate,
}

impl fmt::Display for FlowStage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FlowStage::Prepare => "prepare",
            FlowStage::Synth => "synth",
            FlowStage::Map => "map",
            FlowStage::ClockControl => "clock-control",
            FlowStage::Verify => "verify",
            FlowStage::Pack => "pack",
            FlowStage::Place => "place",
            FlowStage::Route => "route",
            FlowStage::Simulate => "simulate",
        };
        f.write_str(s)
    }
}

/// What went wrong (stage-specific payload).
#[derive(Debug)]
pub enum FlowErrorKind {
    /// FSM synthesis failed (FF baseline).
    Synth(SynthError),
    /// EMB mapping failed.
    Map(crate::map::MapFsmError),
    /// Overlay planning failed (machine exceeds the capacity ladder).
    Overlay(OverlayError),
    /// Clock-control synthesis failed.
    ClockControl(logic_synth::techmap::MapError),
    /// The implementation diverged from the oracle.
    Verify(VerifyError),
    /// Placement failed.
    Place(PlaceError),
    /// Routing failed.
    Route(RouteError),
    /// Netlist validation failed.
    Netlist(fpga_fabric::netlist::NetlistError),
    /// Power estimation was handed an activity record from a different
    /// netlist.
    Power(powermodel::ActivityMismatch),
    /// The state-minimization pre-pass failed.
    Minimize(String),
}

impl fmt::Display for FlowErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowErrorKind::Synth(e) => write!(f, "synthesis: {e}"),
            FlowErrorKind::Map(e) => write!(f, "mapping: {e}"),
            FlowErrorKind::Overlay(e) => write!(f, "overlay: {e}"),
            FlowErrorKind::ClockControl(e) => write!(f, "clock control: {e}"),
            FlowErrorKind::Verify(e) => write!(f, "verification: {e}"),
            FlowErrorKind::Place(e) => write!(f, "placement: {e}"),
            FlowErrorKind::Route(e) => write!(f, "routing: {e}"),
            FlowErrorKind::Netlist(e) => write!(f, "netlist: {e}"),
            FlowErrorKind::Power(e) => write!(f, "power estimation: {e}"),
            FlowErrorKind::Minimize(e) => write!(f, "state minimization: {e}"),
        }
    }
}

/// A flow failure, carrying the benchmark and pipeline stage it came from
/// so harness logs and checkpoints stay actionable without a backtrace.
#[derive(Debug)]
pub struct FlowError {
    /// The machine / netlist being implemented.
    pub benchmark: String,
    /// Where in the pipeline it failed.
    pub stage: FlowStage,
    /// The stage-specific cause.
    pub kind: FlowErrorKind,
}

impl FlowError {
    /// Builds an error tagged with benchmark and stage context.
    #[must_use]
    pub fn new(benchmark: impl Into<String>, stage: FlowStage, kind: FlowErrorKind) -> Self {
        FlowError {
            benchmark: benchmark.into(),
            stage,
            kind,
        }
    }

    /// True when the failure is a capacity/fitting exhaustion — the input
    /// machine is well-formed but does not fit the attempted resources —
    /// rather than a correctness failure. These are the failures the
    /// degradation ladder may absorb (see [`emb_flow_with_fallback`]).
    #[must_use]
    pub fn is_capacity(&self) -> bool {
        matches!(
            self.kind,
            FlowErrorKind::Map(_)
                | FlowErrorKind::Overlay(_)
                | FlowErrorKind::Place(_)
                | FlowErrorKind::Route(_)
        )
    }
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}]: {}", self.benchmark, self.stage, self.kind)
    }
}

impl std::error::Error for FlowError {}

/// Applies the optional state-minimization pre-pass.
fn prepared(stg: &Stg, cfg: &FlowConfig) -> Result<Stg, FlowError> {
    if cfg.minimize_states {
        Ok(fsm_model::minimize::minimize(stg)
            .map_err(|e| {
                FlowError::new(stg.name(), FlowStage::Prepare, FlowErrorKind::Minimize(e))
            })?
            .stg)
    } else {
        Ok(stg.clone())
    }
}

/// Runs the conventional FF/LUT flow (Fig. 1a / Fig. 6 left path).
///
/// # Errors
///
/// Any stage may fail; see [`FlowError`].
pub fn ff_flow(
    stg: &Stg,
    synth_opts: SynthOptions,
    stimulus: &Stimulus,
    cfg: &FlowConfig,
) -> Result<FlowReport, FlowError> {
    run(stg, Front::Ff(synth_opts), stimulus, cfg)
}

/// Runs the FF flow with clock-enable gating on the state register.
///
/// # Errors
///
/// Any stage may fail; see [`FlowError`].
pub fn ff_clock_gated_flow(
    stg: &Stg,
    synth_opts: SynthOptions,
    stimulus: &Stimulus,
    cfg: &FlowConfig,
) -> Result<FlowReport, FlowError> {
    run(stg, Front::FfGated(synth_opts), stimulus, cfg)
}

/// Runs the EMB flow (Fig. 1b) on the backend selected by
/// [`FlowConfig::backend`]: per-FSM place & route (`direct`), the
/// pre-placed overlay (`overlay`), or overlay with a direct fallback on
/// capacity failures (`auto`, recording
/// [`Downgrade::OverlayCapacity`]).
///
/// On the overlay backend the machine is compiled onto its overlay class
/// — a capacity check, a padded ROM image, and the usual
/// `verify_rewrite` proof — and the class's pre-placed, pre-routed base
/// supplies the physical design. The base is built (and cached) the
/// first time any machine of the class is compiled; after that, per-FSM
/// turnaround is O(memory-init), not O(place & route).
///
/// # Errors
///
/// Any stage may fail; see [`FlowError`]. The overlay backend fails with
/// a typed capacity error ([`FlowErrorKind::Overlay`]) when the machine
/// exceeds the overlay ladder. Under `auto`, overlay *capacity* failures
/// are absorbed; correctness failures propagate.
pub fn emb_flow(
    stg: &Stg,
    emb_opts: &EmbOptions,
    stimulus: &Stimulus,
    cfg: &FlowConfig,
) -> Result<FlowReport, FlowError> {
    let direct = || run(stg, Front::Emb(emb_opts), stimulus, cfg);
    let overlay = || run(stg, Front::Overlay, stimulus, cfg);
    match cfg.backend {
        MapBackend::Direct => direct(),
        MapBackend::Overlay => overlay(),
        MapBackend::Auto => fall_back(overlay, direct, |reason| Downgrade::OverlayCapacity {
            reason,
        }),
    }
}

/// Runs the EMB flow with the full degradation ladder: if mapping (or
/// fitting the mapped design) fails at every rung — direct, column
/// compaction, series join, device upsize — the machine is implemented as
/// the conventional FF+LUT baseline instead, and the downgrade is recorded
/// in the report. This mirrors the paper's framing of EMB mapping as an
/// *alternative* to the FF implementation: any well-formed machine
/// completes. Correctness failures (synthesis/verify bugs) still propagate.
///
/// # Errors
///
/// Only non-capacity failures — see [`FlowError::is_capacity`].
pub fn emb_flow_with_fallback(
    stg: &Stg,
    emb_opts: &EmbOptions,
    synth_opts: SynthOptions,
    stimulus: &Stimulus,
    cfg: &FlowConfig,
) -> Result<FlowReport, FlowError> {
    fall_back(
        || emb_flow(stg, emb_opts, stimulus, cfg),
        || ff_flow(stg, synth_opts, stimulus, cfg),
        |reason| Downgrade::EmbToFf { reason },
    )
}

/// Runs the EMB flow with Sec. 6 clock control.
///
/// # Errors
///
/// Any stage may fail; see [`FlowError`].
pub fn emb_clock_controlled_flow(
    stg: &Stg,
    emb_opts: &EmbOptions,
    stimulus: &Stimulus,
    cfg: &FlowConfig,
) -> Result<FlowReport, FlowError> {
    run(stg, Front::EmbCc(emb_opts), stimulus, cfg)
}

/// One rung of the degradation ladder: runs `first` and, when it fails
/// for capacity (see [`FlowError::is_capacity`]), runs `next` instead and
/// records `downgrade` with the first failure as its reason. Correctness
/// failures propagate from either rung.
fn fall_back(
    first: impl FnOnce() -> Result<FlowReport, FlowError>,
    next: impl FnOnce() -> Result<FlowReport, FlowError>,
    downgrade: fn(String) -> Downgrade,
) -> Result<FlowReport, FlowError> {
    let entry = cache::stats_snapshot();
    match first() {
        Err(e) if e.is_capacity() => {
            let mut report = next()?;
            report.downgrades.push(downgrade(e.to_string()));
            // Span both attempts: the first rung's misses belong to this
            // run too.
            report.cache = cache::stats_snapshot().since(entry);
            Ok(report)
        }
        result => result,
    }
}

/// The netlist a flow builds, one variant per [`ImplKind`].
#[derive(Clone, Copy)]
enum Front<'a> {
    /// Conventional FF + LUT synthesis.
    Ff(SynthOptions),
    /// FF + LUT with clock-enable gating on the state register.
    FfGated(SynthOptions),
    /// Per-FSM EMB mapping.
    Emb(&'a EmbOptions),
    /// EMB mapping with the Sec. 6 clock control.
    EmbCc(&'a EmbOptions),
    /// EMB mapping compiled onto an overlay class.
    Overlay,
}

impl Front<'_> {
    fn kind(self) -> ImplKind {
        match self {
            Front::Ff(_) => ImplKind::Ff,
            Front::FfGated(_) => ImplKind::FfClockGated,
            Front::Emb(_) => ImplKind::Emb,
            Front::EmbCc(_) => ImplKind::EmbClockControlled,
            Front::Overlay => ImplKind::EmbOverlay,
        }
    }

    /// Whether the netlist carries clock control (so its cache record
    /// must carry the overhead stats).
    fn gated(self) -> bool {
        matches!(self, Front::FfGated(_) | Front::EmbCc(_))
    }
}

/// A verified front-end netlist and what the physical half needs with it.
struct Built {
    netlist: Netlist,
    clock_control: Option<ClockControlStats>,
    downgrades: Vec<Downgrade>,
    stage: StageTimings,
    /// The planned overlay class ([`Front::Overlay`] only).
    class: Option<OverlayClass>,
}

/// The one flow pipeline: the front-end, then — for the clock-controlled
/// kind under [`FlowConfig::eco_place`] — the plain EMB front-end as the
/// ECO base, then the physical half. The report's cache counters cover
/// every lookup of the run.
fn run(
    stg: &Stg,
    front: Front<'_>,
    stimulus: &Stimulus,
    cfg: &FlowConfig,
) -> Result<FlowReport, FlowError> {
    let entry = cache::stats_snapshot();
    let mut built = frontend(stg, front, cfg)?;
    // The ECO base: the plain design this clock-controlled netlist extends.
    // Resolving it can only fail if the plain mapping fails, in which case
    // the gated flow still completes with a full placement.
    let eco_base = match front {
        Front::EmbCc(emb_opts) if cfg.eco_place => match frontend(stg, Front::Emb(emb_opts), cfg) {
            Ok(plain) => Some(plain.netlist),
            Err(e) => {
                built.downgrades.push(Downgrade::EcoFallback {
                    reason: e.to_string(),
                });
                None
            }
        },
        _ => None,
    };
    let mut report = physical(stg, built, front.kind(), stimulus, cfg, eco_base.as_ref())?;
    report.cache = cache::stats_snapshot().since(entry);
    Ok(report)
}

/// The one front-end. It looks the kind's record up in the flow cache;
/// a hit replays the recorded synth-budget and sampled-verification
/// downgrades, and a gated record without its clock-control stats is
/// rebuilt. On a miss it builds the netlist, verifies it — lockstep
/// against the STG for the FF kinds, the `verify_rewrite` ladder for the
/// EMB kinds (exhaustive product walk up to
/// [`FlowConfig::exhaustive_verify_max_inputs`] inputs, sampled beyond) —
/// and stores it. The plain EMB record is shared by [`emb_flow`] and the
/// clock-controlled flow's ECO base, so both resolve the same netlist.
///
/// The overlay kind plans its class before the lookup: planning is pure
/// arithmetic on the port/state counts, so a capacity reject counts no
/// cache miss and the record stays netlist-only. Every other kind runs
/// the state-minimization pre-pass only on a miss.
fn frontend(stg: &Stg, front: Front<'_>, cfg: &FlowConfig) -> Result<Built, FlowError> {
    let fail = |stage, kind| FlowError::new(stg.name(), stage, kind);
    let (planned, class) = match front {
        Front::Overlay => {
            let impl_stg = prepared(stg, cfg)?;
            let class = OverlayClass::plan(
                impl_stg.num_inputs(),
                impl_stg.num_states(),
                impl_stg.num_outputs(),
            )
            .map_err(|e| fail(FlowStage::Map, FlowErrorKind::Overlay(e)))?;
            (Some(impl_stg), Some(class))
        }
        _ => (None, None),
    };
    let min = cfg.minimize_states;
    let key = match front {
        Front::Ff(o) => cache::ff_frontend_key("ff", stg, o, min),
        Front::FfGated(o) => cache::ff_frontend_key("ffg", stg, o, min),
        Front::Emb(o) => cache::emb_frontend_key("emb", stg, o, min),
        Front::EmbCc(o) => cache::emb_frontend_key("embcc", stg, o, min),
        Front::Overlay => cache::overlay_frontend_key(stg, min),
    };
    let gated = front.gated();
    let mut stage = StageTimings::default();
    if let Some(fe) = cache::load_frontend(&key).filter(|fe| !gated || fe.clock_control.is_some()) {
        return Ok(Built {
            netlist: fe.netlist,
            clock_control: fe.clock_control.filter(|_| gated),
            downgrades: replayed(fe.synth_skipped_functions, fe.verify_sampled_inputs),
            stage,
            class,
        });
    }

    let t = Instant::now();
    let impl_stg = match planned {
        Some(impl_stg) => impl_stg,
        None => prepared(stg, cfg)?,
    };
    let clock_control_err = |e| fail(FlowStage::ClockControl, FlowErrorKind::ClockControl(e));
    let (netlist, control, skipped) = match front {
        Front::Ff(o) | Front::FfGated(o) => {
            let synth = synthesize(&impl_stg, o)
                .map_err(|e| fail(FlowStage::Synth, FlowErrorKind::Synth(e)))?;
            let skipped = match synth.budget {
                SynthBudget::Completed => None,
                SynthBudget::Exhausted {
                    skipped_functions, ..
                } => Some(skipped_functions),
            };
            if gated {
                let (netlist, control) =
                    attach_ff_clock_gating(&synth, &impl_stg, o.map).map_err(clock_control_err)?;
                (netlist, Some(control), skipped)
            } else {
                (ff_netlist(&synth, false).0, None, skipped)
            }
        }
        Front::Emb(o) | Front::EmbCc(o) => {
            let emb = map_fsm_into_embs(&impl_stg, o)
                .map_err(|e| fail(FlowStage::Map, FlowErrorKind::Map(e)))?;
            if gated {
                let (netlist, control) =
                    attach_emb_clock_control(&emb, o.lut_map).map_err(clock_control_err)?;
                (netlist, Some(control), None)
            } else {
                (emb.to_netlist(), None, None)
            }
        }
        Front::Overlay => {
            let ovl = overlay_fsm(&impl_stg)
                .map_err(|e| fail(FlowStage::Map, FlowErrorKind::Overlay(e)))?;
            (ovl.fsm_netlist(), None, None)
        }
    };
    stage.synth_ms = ms_since(t);

    let t = Instant::now();
    let verify_err = |e| fail(FlowStage::Verify, FlowErrorKind::Verify(e));
    let sampled = if matches!(front, Front::Ff(_) | Front::FfGated(_)) {
        let timing = OutputTiming::Combinational;
        verify_against_stg(&netlist, stg, timing, cfg.verify_cycles, cfg.seed)
            .map_err(verify_err)?;
        None
    } else {
        let method = verify_rewrite(
            &netlist,
            stg,
            OutputTiming::Registered,
            cfg.exhaustive_verify_max_inputs,
            cfg.verify_cycles,
            cfg.seed,
        )
        .map_err(verify_err)?;
        match method {
            VerificationMethod::Exhaustive(_) => None,
            VerificationMethod::Sampled { .. } => Some(stg.num_inputs()),
        }
    };
    stage.verify_ms = ms_since(t);

    let clock_control = control.map(|c| ClockControlStats {
        luts: c.num_luts(),
        slices: c.num_slices(),
        idle_cubes: c.idle_cubes,
    });
    cache::store_frontend(&key, &netlist, clock_control, skipped, sampled);
    Ok(Built {
        netlist,
        clock_control,
        downgrades: replayed(skipped, sampled),
        stage,
        class,
    })
}

/// Milliseconds elapsed since `t`.
fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// The downgrades a front-end carries: a synthesis budget overrun
/// (functions left unminimized) and a sampled, not exhaustive, rewrite
/// proof (the machine's input count).
fn replayed(skipped: Option<usize>, sampled: Option<usize>) -> Vec<Downgrade> {
    let budget =
        skipped.map(|skipped_functions| Downgrade::SynthBudgetExhausted { skipped_functions });
    let verify = sampled.map(|inputs| Downgrade::VerifySampled { inputs });
    budget.into_iter().chain(verify).collect()
}

/// The stimulus vectors plus the idle fraction the oracle achieves on
/// them.
fn oracle_vectors(stg: &Stg, stimulus: &Stimulus, cfg: &FlowConfig) -> (Vec<Vec<bool>>, f64) {
    let vectors: Vec<Vec<bool>> = match stimulus {
        Stimulus::Random => netstim::random(stg.num_inputs(), cfg.cycles, cfg.seed),
        Stimulus::IdleBiased(p) => crate::stimulus::idle_biased(stg, cfg.cycles, *p, cfg.seed),
        Stimulus::Replay(v) => v.clone(),
    };
    let oracle_trace = trace(stg, vectors.clone());
    let idle = idle_fraction(stg, &oracle_trace);
    (vectors, idle)
}

/// One device's worth of placement and routing.
struct Placed {
    placement: Placement,
    routed: RoutedDesign,
    /// The partitioned packing and the incremental-placement evidence,
    /// when the ECO path produced the placement.
    eco: Option<(PackedDesign, EcoReport)>,
    /// True when an overlay base came out of the flow cache.
    base_hit: bool,
}

/// The placer's pre-route fmax estimate (MHz) for a finished placement,
/// `NaN` when the kernel cannot be built for the netlist.
fn place_fmax_estimate(
    netlist: &Netlist,
    packed: &PackedDesign,
    placement: &Placement,
    delay: &DelayModel,
) -> f64 {
    fpga_fabric::sta::estimate_critical_ns(netlist, packed, placement, delay)
        .map_or(f64::NAN, |ns| 1000.0 / ns.max(f64::MIN_POSITIVE))
}

/// Attempts the ECO path on one device: reuse (or compute and cache) the
/// base netlist's placement, pack the gated netlist as base + delta, pin
/// every base entity, place only the delta, and route. Any failure is
/// returned as a display string for the [`Downgrade::EcoFallback`] record.
fn eco_on(
    netlist: &Netlist,
    netlist_bytes: &[u8],
    base: &Netlist,
    device: Device,
    cfg: &FlowConfig,
    stage: &mut StageTimings,
) -> Result<Placed, String> {
    let t = Instant::now();
    let placed = try_eco(netlist, netlist_bytes, base, device, cfg);
    stage.place_ms += ms_since(t);
    let (packed, eco, report) = placed?;
    let t = Instant::now();
    let routed = route(netlist, &packed, &eco.placement, cfg.route);
    stage.route_ms += ms_since(t);
    Ok(Placed {
        placement: eco.placement,
        routed: routed.map_err(|e| format!("routing: {e}"))?,
        eco: Some((packed, report)),
        base_hit: false,
    })
}

/// The placement half of [`eco_on`].
fn try_eco(
    netlist: &Netlist,
    netlist_bytes: &[u8],
    base: &Netlist,
    device: Device,
    cfg: &FlowConfig,
) -> Result<(PackedDesign, fpga_fabric::place::EcoPlacement, EcoReport), String> {
    let base_packed = pack(base);
    let base_bytes = cache::encode_netlist(base);
    let popts = cfg.place_opts();
    let bkey = cache::place_key(&base_bytes, &device, popts);
    let (base_placement, base_hit) = match cache::load_placement(&bkey) {
        Some(p) => (p, true),
        None => {
            let p = place(base, &base_packed, device, popts)
                .map_err(|e| format!("base placement: {e}"))?;
            cache::store_placement(&bkey, &p);
            (p, false)
        }
    };
    let packed = pack_partitioned(netlist, &base_packed, base.cells().len())
        .map_err(|e| format!("partitioned pack: {e}"))?;
    let pins = PinnedEntities::pin_base(&base_placement, &packed);
    let base_digest = cache::coords_digest(
        &base_placement.clb_loc,
        &base_placement.bram_loc,
        &base_placement.iob_loc,
    );
    let ekey = cache::eco_place_key(netlist_bytes, &device, popts, &base_digest);
    let eco = match cache::load_eco_placement(&ekey) {
        // A cached ECO placement must still honour today's pin map (the
        // key makes collisions unlikely; the check makes them harmless).
        Some(e)
            if e.placement.device.name == device.name
                && verify_eco_placement(&e.placement, &pins).is_ok() =>
        {
            e
        }
        _ => {
            let e = place_incremental(netlist, &packed, device, popts, &pins)
                .map_err(|e| format!("eco placement: {e}"))?;
            cache::store_eco_placement(&ekey, &e);
            e
        }
    };
    let report = EcoReport {
        pinned_entities: eco.pinned_entities,
        delta_entities: eco.delta_entities,
        delta_hpwl: eco.delta_hpwl,
        base_reuse_cache_hit: base_hit,
        base_coord_digest: base_digest,
    };
    Ok((packed, eco, report))
}

/// Resolves an overlay class base on one device: its placement + routing
/// come out of the flow cache, or are built and stored. The FSM netlist
/// shares the base's structure cell for cell and net for net — only the
/// BRAM init images differ, and neither placement nor routing reads
/// those — so the stored physical result is exact, not approximate.
/// Budget and upsize downgrades replay deterministically from the stored
/// artifact: the placement carries its own budget outcome, and the
/// device is part of the key.
fn overlay_on(
    name: &str,
    base: &Netlist,
    base_bytes: &[u8],
    device: Device,
    cfg: &FlowConfig,
    stage: &mut StageTimings,
) -> Result<Placed, FlowError> {
    let bkey = cache::overlay_base_key(base_bytes, &device, cfg.place_opts(), cfg.route);
    let t = Instant::now();
    let (b, base_hit) = match cache::load_overlay_base(&bkey) {
        Some(b) => {
            stage.place_ms += ms_since(t);
            (b, true)
        }
        None => {
            let (placement, routed) =
                place_route(name, base, &pack(base), device, cfg, None, stage)?;
            let b = cache::OverlayBase { placement, routed };
            cache::store_overlay_base(&bkey, &b);
            (b, false)
        }
    };
    Ok(Placed {
        placement: b.placement,
        routed: b.routed,
        eco: None,
        base_hit,
    })
}

/// Places `netlist` on `device` — through the placement cache under
/// `pkey`, when given — and routes it, charging both stages' wall-clock.
fn place_route(
    name: &str,
    netlist: &Netlist,
    packed: &PackedDesign,
    device: Device,
    cfg: &FlowConfig,
    pkey: Option<&cache::Key>,
    stage: &mut StageTimings,
) -> Result<(Placement, RoutedDesign), FlowError> {
    let t = Instant::now();
    let placement = match pkey.and_then(cache::load_placement) {
        Some(p) => Ok(p),
        None => {
            let placed = place(netlist, packed, device, cfg.place_opts());
            if let (Some(key), Ok(p)) = (pkey, &placed) {
                cache::store_placement(key, p);
            }
            placed
        }
    };
    stage.place_ms += ms_since(t);
    let placement =
        placement.map_err(|e| FlowError::new(name, FlowStage::Place, FlowErrorKind::Place(e)))?;
    let t = Instant::now();
    let routed = route(netlist, packed, &placement, cfg.route);
    stage.route_ms += ms_since(t);
    let routed =
        routed.map_err(|e| FlowError::new(name, FlowStage::Route, FlowErrorKind::Route(e)))?;
    Ok((placement, routed))
}

/// The physical half of every flow: pack, then place and route on the
/// first ladder device that takes the design — the ECO path first when
/// there is an ECO base, the class base for an overlay netlist, a full
/// placement otherwise — then record the device-upsize and place-budget
/// downgrades, analyze timing, simulate the stimulus for switching
/// activity, estimate power, and assemble the report.
fn physical(
    stg: &Stg,
    built: Built,
    kind: ImplKind,
    stimulus: &Stimulus,
    cfg: &FlowConfig,
    eco_base: Option<&Netlist>,
) -> Result<FlowReport, FlowError> {
    let Built {
        netlist,
        clock_control,
        mut downgrades,
        mut stage,
        class,
    } = built;
    let name = stg.name();
    netlist
        .validate()
        .map_err(|e| FlowError::new(name, FlowStage::Pack, FlowErrorKind::Netlist(e)))?;
    let packed = pack(&netlist);
    let netlist_bytes = cache::encode_netlist(&netlist);
    // One base per overlay class: the netlist with its memory images
    // zeroed, named after the class.
    let base = class.map(|class| {
        let mut base = netlist.with_zeroed_bram_init();
        base.name = class.label();
        let bytes = cache::encode_netlist(&base);
        (base, bytes)
    });
    let mut found = None;
    let mut last_err = None;
    let mut eco_failure: Option<String> = None;
    for &device in &device_ladder(cfg) {
        // ECO first: pin the base at the plain design's coordinates and
        // place only the delta. Any failure falls through to the full
        // placement on the same device.
        if let Some(eco_base) = eco_base {
            match eco_on(&netlist, &netlist_bytes, eco_base, device, cfg, &mut stage) {
                Ok(placed) => {
                    found = Some((device, placed));
                    break;
                }
                Err(reason) => eco_failure = Some(reason),
            }
        }
        let attempt = match &base {
            Some((base, base_bytes)) => overlay_on(name, base, base_bytes, device, cfg, &mut stage),
            None => {
                let pkey = cache::place_key(&netlist_bytes, &device, cfg.place_opts());
                place_route(
                    name,
                    &netlist,
                    &packed,
                    device,
                    cfg,
                    Some(&pkey),
                    &mut stage,
                )
                .map(|(placement, routed)| Placed {
                    placement,
                    routed,
                    eco: None,
                    base_hit: false,
                })
            }
        };
        match attempt {
            Ok(placed) => {
                found = Some((device, placed));
                break;
            }
            Err(e) => last_err = Some(e),
        }
    }
    let Some((device, placed)) = found else {
        return Err(last_err.unwrap_or_else(|| no_device_fits(name)));
    };
    let Placed {
        placement,
        routed,
        eco,
        base_hit,
    } = placed;
    let (packed, eco) = match eco {
        Some((eco_packed, report)) => (eco_packed, Some(report)),
        None => (packed, None),
    };
    // An ECO failure is only a downgrade if the flow did NOT end up on the
    // ECO path (a later device may have succeeded incrementally).
    if eco.is_none() {
        if let Some(reason) = eco_failure {
            downgrades.push(Downgrade::EcoFallback { reason });
        }
    }
    if device.name != cfg.device.name {
        downgrades.push(Downgrade::DeviceUpsized {
            from: cfg.device.name,
            to: device.name,
        });
    }
    if let fpga_fabric::place::BudgetOutcome::Exhausted { spent } = placement.budget {
        downgrades.push(Downgrade::PlaceBudgetExhausted { spent });
    }
    let timing = analyze(&netlist, &routed, &cfg.delay);

    // Activity recording runs on the bit-parallel kernel in single-lane
    // mode: the stimulus is one sequential stream, so only one lane
    // carries it, but toggle counting still goes through the word-wide
    // XOR/popcount path and is bit-identical to the scalar engine.
    let (vectors, idle) = oracle_vectors(stg, stimulus, cfg);
    let mut sim = BatchSimulator::new(&netlist)
        .map_err(|e| FlowError::new(name, FlowStage::Simulate, FlowErrorKind::Netlist(e)))?;
    sim.run_sequential(&vectors);
    let activity = sim.activity();
    let power: Vec<PowerReport> = cfg
        .freqs_mhz
        .iter()
        .map(|&f| {
            estimate(&netlist, &routed, activity, f, &cfg.power)
                .map_err(|e| FlowError::new(name, FlowStage::Simulate, FlowErrorKind::Power(e)))
        })
        .collect::<Result<_, _>>()?;

    Ok(FlowReport {
        name: name.to_string(),
        kind,
        area: packed.area(&netlist),
        power,
        timing,
        idle_fraction: idle,
        clock_control,
        total_wirelength: routed.total_wirelength,
        device,
        downgrades,
        cache: cache::CacheStats::default(),
        coord_digest: cache::coords_digest(
            &placement.clb_loc,
            &placement.bram_loc,
            &placement.iob_loc,
        ),
        place_fmax_est_mhz: place_fmax_estimate(&netlist, &packed, &placement, &cfg.delay),
        eco,
        stage_ms: stage,
        overlay: class.map(|class| OverlayReport {
            base_cache_hit: base_hit,
            class: class.label(),
            addr_bits: class.addr_bits(),
            state_bits: class.state_bits,
            data_bits: class.data_width(),
            banks: class.banks,
        }),
    })
}

/// The devices a flow may implement on: the configured device, then —
/// when upsizing is allowed — the rest of the family above it.
fn device_ladder(cfg: &FlowConfig) -> Vec<Device> {
    let family_from: Vec<Device> = fpga_fabric::device::FAMILY
        .iter()
        .copied()
        .skip_while(|d| d.name != cfg.device.name)
        .collect();
    if cfg.allow_device_upsize && !family_from.is_empty() {
        family_from
    } else {
        vec![cfg.device]
    }
}

/// The error reported when every ladder device was exhausted without a
/// stage-specific failure to blame.
fn no_device_fits(name: &str) -> FlowError {
    FlowError::new(
        name,
        FlowStage::Place,
        FlowErrorKind::Place(PlaceError::DoesNotFit {
            what: "devices",
            need: 1,
            have: 0,
        }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsm_model::benchmarks::{rotary_sequencer, sequence_detector_0101, traffic_light};

    fn quick_cfg() -> FlowConfig {
        FlowConfig {
            cycles: 600,
            verify_cycles: 200,
            place: PlaceOptions {
                seed: 1,
                effort: 2.0,
                ..PlaceOptions::default()
            },
            ..FlowConfig::default()
        }
    }

    #[test]
    fn ff_and_emb_flows_complete_and_compare() {
        let stg = sequence_detector_0101();
        let cfg = quick_cfg();
        let ff = ff_flow(&stg, SynthOptions::default(), &Stimulus::Random, &cfg).unwrap();
        let emb = emb_flow(&stg, &EmbOptions::default(), &Stimulus::Random, &cfg).unwrap();
        assert_eq!(ff.kind, ImplKind::Ff);
        assert_eq!(emb.kind, ImplKind::Emb);
        assert_eq!(ff.area.brams, 0);
        assert_eq!(emb.area.brams, 1);
        assert_eq!(emb.area.luts, 0, "tiny FSM needs no aux LUTs");
        assert!(ff.area.luts > 0);
        // Both report power at all three paper frequencies, and both carry
        // the placer's pre-route fmax estimate.
        for r in [&ff, &emb] {
            assert_eq!(r.power.len(), 3);
            assert!(r.power_at(85.0).is_some());
            assert!(r.power[0].total_mw() > 0.0);
            assert!(
                r.place_fmax_est_mhz.is_finite() && r.place_fmax_est_mhz > 0.0,
                "placer fmax estimate missing: {}",
                r.place_fmax_est_mhz
            );
        }
    }

    #[test]
    fn clock_controlled_flow_reports_overhead_and_saves_power() {
        // Rotary sequencer halted most of the time: the EMB+cc variant
        // must consume visibly less than the free-running EMB.
        let stg = rotary_sequencer();
        let cfg = quick_cfg();
        let stim = Stimulus::IdleBiased(0.7);
        let emb = emb_flow(&stg, &EmbOptions::default(), &stim, &cfg).unwrap();
        let cc = emb_clock_controlled_flow(&stg, &EmbOptions::default(), &stim, &cfg).unwrap();
        assert!(cc.clock_control.is_some());
        assert!(cc.clock_control.unwrap().luts >= 1);
        assert!(cc.idle_fraction > 0.4, "idle {:.2}", cc.idle_fraction);
        let p_emb = emb.power_at(100.0).unwrap().dynamic_mw();
        let p_cc = cc.power_at(100.0).unwrap().dynamic_mw();
        assert!(
            p_cc < p_emb,
            "clock control must save power: {p_cc:.2} vs {p_emb:.2}"
        );
    }

    #[test]
    fn eco_placement_pins_the_plain_design_exactly() {
        let stg = rotary_sequencer();
        let cfg = quick_cfg();
        let stim = Stimulus::IdleBiased(0.5);
        let emb = emb_flow(&stg, &EmbOptions::default(), &stim, &cfg).unwrap();
        let cc = emb_clock_controlled_flow(&stg, &EmbOptions::default(), &stim, &cfg).unwrap();
        let eco = cc
            .eco
            .as_ref()
            .expect("ECO path must engage on a fitting design");
        assert_eq!(
            eco.base_coord_digest, emb.coord_digest,
            "pinned base coordinates must be byte-identical to the plain placement"
        );
        assert!(eco.pinned_entities > 0, "base entities are pinned");
        assert!(eco.delta_entities > 0, "the enable cone is the delta");
        assert!(
            !cc.downgrades
                .iter()
                .any(|d| matches!(d, Downgrade::EcoFallback { .. })),
            "no fallback on the happy path: {:?}",
            cc.downgrades
        );
        // Opting out really opts out.
        let cfg_off = FlowConfig {
            eco_place: false,
            ..quick_cfg()
        };
        let full =
            emb_clock_controlled_flow(&stg, &EmbOptions::default(), &stim, &cfg_off).unwrap();
        assert!(full.eco.is_none());
    }

    #[test]
    fn ff_gated_flow_completes() {
        let stg = traffic_light();
        let cfg = quick_cfg();
        let r = ff_clock_gated_flow(
            &stg,
            SynthOptions::default(),
            &Stimulus::IdleBiased(0.5),
            &cfg,
        )
        .unwrap();
        assert_eq!(r.kind, ImplKind::FfClockGated);
        assert!(r.clock_control.is_some());
    }

    #[test]
    fn minimization_pre_pass_is_transparent() {
        // A machine with a redundant state: the flow minimizes it away yet
        // still verifies against the ORIGINAL oracle.
        let mut b = fsm_model::stg::StgBuilder::new("red", 1, 1);
        let a = b.state("A");
        let x = b.state("B");
        let y = b.state("B2"); // behaviourally identical to B
        b.transition(a, "1", x, "1");
        b.transition(a, "0", y, "1");
        b.transition(x, "-", a, "0");
        b.transition(y, "-", a, "0");
        let stg = b.build().unwrap();
        let cfg = FlowConfig {
            minimize_states: true,
            ..quick_cfg()
        };
        let r = emb_flow(&stg, &EmbOptions::default(), &Stimulus::Random, &cfg).unwrap();
        assert_eq!(r.area.brams, 1);
        // 2 states after minimization -> 1 state bit -> 2 address bits.
        let emb = crate::map::map_fsm_into_embs(
            &fsm_model::minimize::minimize(&stg).unwrap().stg,
            &EmbOptions::default(),
        )
        .unwrap();
        assert_eq!(emb.num_state_bits(), 1);
    }

    #[test]
    fn overlay_flow_shares_one_base_across_a_class() {
        // Two different machines of one overlay class: the second compile
        // must reuse the first's base artifact, landing on byte-identical
        // coordinates.
        let mk = |seed: u64| {
            let spec = fsm_model::generate::StgSpec {
                states: 6,
                inputs: 3,
                outputs: 2,
                transitions: 18,
                seed,
                ..fsm_model::generate::StgSpec::new(format!("ovlcls{seed}"))
            };
            fsm_model::generate::generate(&spec).unwrap()
        };
        let cfg = FlowConfig {
            backend: MapBackend::Overlay,
            ..quick_cfg()
        };
        let a = emb_flow(&mk(3), &EmbOptions::default(), &Stimulus::Random, &cfg).unwrap();
        let b = emb_flow(&mk(8), &EmbOptions::default(), &Stimulus::Random, &cfg).unwrap();
        assert_eq!(a.kind, ImplKind::EmbOverlay);
        let oa = a.overlay.as_ref().expect("overlay evidence");
        let ob = b.overlay.as_ref().expect("overlay evidence");
        assert_eq!(oa.class, ob.class);
        assert_eq!(oa.state_bits, 4, "6 states pad to the 4-bit rung");
        assert!(
            ob.base_cache_hit,
            "second machine of the class must reuse the stored base"
        );
        assert_eq!(
            a.coord_digest, b.coord_digest,
            "one base, one placement: identical coordinates for the class"
        );
        assert!(b.power[0].total_mw() > 0.0);
        assert!(b.stage_ms.compile_ms() >= 0.0);
    }

    #[test]
    fn overlay_flow_dispatches_through_emb_flow() {
        let stg = sequence_detector_0101();
        let cfg = FlowConfig {
            backend: MapBackend::Overlay,
            ..quick_cfg()
        };
        let r = emb_flow(&stg, &EmbOptions::default(), &Stimulus::Random, &cfg).unwrap();
        assert_eq!(r.kind, ImplKind::EmbOverlay);
        assert_eq!(r.overlay.as_ref().unwrap().class, "ovl_i1_s2_o1_b1");
        // The direct backend on the same machine reports no overlay
        // evidence and no stage regression.
        let d = emb_flow(
            &stg,
            &EmbOptions::default(),
            &Stimulus::Random,
            &quick_cfg(),
        )
        .unwrap();
        assert_eq!(d.kind, ImplKind::Emb);
        assert!(d.overlay.is_none());
    }

    #[test]
    fn auto_backend_downgrades_past_the_overlay_ladder() {
        // 13 inputs + 9 states (rung 4) = 17 logical address bits: past
        // the overlay ladder. `auto` must absorb the typed capacity error
        // and complete on the direct backend with the downgrade recorded;
        // `overlay` must surface it as a typed capacity failure.
        let spec = fsm_model::generate::StgSpec {
            states: 9,
            inputs: 13,
            outputs: 2,
            transitions: 40,
            max_support: Some(3),
            ..fsm_model::generate::StgSpec::new("wide13")
        };
        let stg = fsm_model::generate::generate(&spec).unwrap();
        let cfg = FlowConfig {
            backend: MapBackend::Auto,
            exhaustive_verify_max_inputs: 8,
            ..quick_cfg()
        };
        let r = emb_flow(&stg, &EmbOptions::default(), &Stimulus::Random, &cfg).unwrap();
        assert_eq!(r.kind, ImplKind::Emb, "fell back to the direct backend");
        assert!(
            r.downgrades
                .iter()
                .any(|d| matches!(d, Downgrade::OverlayCapacity { .. })),
            "downgrade missing: {:?}",
            r.downgrades
        );
        let cfg_ovl = FlowConfig {
            backend: MapBackend::Overlay,
            ..cfg
        };
        let err = emb_flow(&stg, &EmbOptions::default(), &Stimulus::Random, &cfg_ovl).unwrap_err();
        assert!(err.is_capacity(), "typed capacity failure: {err}");
        assert!(matches!(err.kind, FlowErrorKind::Overlay(_)));
    }

    #[test]
    fn map_backend_parses_the_knob_values() {
        assert_eq!(MapBackend::parse("direct"), Some(MapBackend::Direct));
        assert_eq!(MapBackend::parse("overlay"), Some(MapBackend::Overlay));
        assert_eq!(MapBackend::parse("auto"), Some(MapBackend::Auto));
        assert_eq!(MapBackend::parse("Overlay"), None);
        assert_eq!(format!("{}", MapBackend::Auto), "auto");
    }

    #[test]
    fn emb_timing_is_complexity_independent() {
        // Two machines of very different transition counts, same interface
        // scale: EMB critical paths should be close; FF paths should not.
        let small = sequence_detector_0101();
        let spec = fsm_model::generate::StgSpec {
            states: 30,
            inputs: 5,
            outputs: 4,
            transitions: 150,
            ..fsm_model::generate::StgSpec::new("big")
        };
        let big = fsm_model::generate::generate(&spec).expect("generates");
        let cfg = quick_cfg();
        let e_small = emb_flow(&small, &EmbOptions::default(), &Stimulus::Random, &cfg).unwrap();
        let e_big = emb_flow(&big, &EmbOptions::default(), &Stimulus::Random, &cfg).unwrap();
        let ratio = e_big.timing.critical_path_ns / e_small.timing.critical_path_ns;
        assert!(
            ratio < 1.6,
            "EMB timing should be ~flat across complexity, got {ratio:.2}"
        );
    }
}
