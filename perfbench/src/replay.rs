//! Traced replay of the paper flows.
//!
//! The library is not instrumented. Instead, each op of a traced paper
//! run is executed a second time here, by calling the same public layer
//! functions in the order `emb_fsm::flow` calls them (cache-off path:
//! every cache lookup misses, every store is the flow's no-op store, and
//! the codec work the flow does for keys and records is done here too),
//! with a span around each call. The replay's result fingerprint must
//! equal the flow's report for the same op; otherwise the replay
//! measures a different program and the traced run fails.

use crate::trace::Tracer;
use emb_fsm::baseline::ff_netlist;
use emb_fsm::cache;
use emb_fsm::clock_control::attach_emb_clock_control;
use emb_fsm::flow::{ClockControlStats, FlowConfig, FlowReport, Stimulus};
use emb_fsm::map::{map_fsm_into_embs, EmbOptions};
use emb_fsm::verify::{verify_against_stg, verify_rewrite, OutputTiming, VerificationMethod};
use fpga_fabric::device::{Device, FAMILY};
use fpga_fabric::netlist::Netlist;
use fpga_fabric::pack::{pack, pack_partitioned, AreaReport, PackedDesign};
use fpga_fabric::place::{place, place_incremental, PinnedEntities, Placement};
use fpga_fabric::route::{route, RoutedDesign};
use fpga_fabric::sta::estimate_critical_ns;
use fpga_fabric::timing::analyze;
use fsm_model::simulate::{idle_fraction, trace};
use fsm_model::stg::Stg;
use logic_synth::synth::{synthesize, SynthBudget, SynthOptions};
use netsim::kernel::BatchSimulator;

/// Which paper flow an op runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowKind {
    /// `ff_flow`, random stimulus.
    Ff,
    /// `emb_flow` (direct backend), random stimulus.
    Emb,
    /// `emb_clock_controlled_flow`, idle-biased stimulus, ECO placement.
    Cc,
}

impl FlowKind {
    /// The stimulus the workload drives this flow with.
    #[must_use]
    pub fn stimulus(self) -> Stimulus {
        match self {
            FlowKind::Ff | FlowKind::Emb => Stimulus::Random,
            FlowKind::Cc => Stimulus::IdleBiased(0.5),
        }
    }
}

/// The deterministic result fields an op is checked on.
#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    pub area: AreaReport,
    pub wirelength: usize,
    /// Total power (mW) at each configured frequency.
    pub power_mw: Vec<f64>,
    pub fmax_mhz: f64,
    pub coord_digest: String,
}

impl Fingerprint {
    #[must_use]
    pub fn of(report: &FlowReport) -> Self {
        Fingerprint {
            area: report.area,
            wirelength: report.total_wirelength,
            power_mw: report
                .power
                .iter()
                .map(powermodel::PowerReport::total_mw)
                .collect(),
            fmax_mhz: report.timing.fmax_mhz,
            coord_digest: report.coord_digest.clone(),
        }
    }
}

/// Replays one op of `kind` on the paper benchmark `name` with spans
/// recorded into `t`.
///
/// # Errors
///
/// A description of the first failing layer call, or of a cache hit
/// (the replay is only defined for the cache-off path).
pub fn replay(
    kind: FlowKind,
    name: &str,
    cfg: &FlowConfig,
    t: &mut Tracer,
) -> Result<Fingerprint, String> {
    let root = t.open("op");
    let out = replay_op(kind, name, cfg, t);
    t.close(root);
    out
}

fn replay_op(
    kind: FlowKind,
    name: &str,
    cfg: &FlowConfig,
    t: &mut Tracer,
) -> Result<Fingerprint, String> {
    let stg = t
        .span("generate", || fsm_model::benchmarks::by_name(name))
        .ok_or_else(|| format!("{name}: not a paper benchmark"))?;
    let opts = EmbOptions::default();
    match kind {
        FlowKind::Ff => {
            let netlist = ff_frontend(&stg, cfg, t)?;
            physical(&stg, &netlist, &kind.stimulus(), cfg, None, t)
        }
        FlowKind::Emb => {
            let netlist = emb_frontend(&stg, &opts, cfg, t)?;
            physical(&stg, &netlist, &kind.stimulus(), cfg, None, t)
        }
        FlowKind::Cc => {
            let netlist = cc_frontend(&stg, &opts, cfg, t)?;
            // The ECO base is the plain design; if it cannot be built the
            // flow places the gated design in full.
            let base = if cfg.eco_place {
                emb_frontend(&stg, &opts, cfg, t).ok()
            } else {
                None
            };
            physical(&stg, &netlist, &kind.stimulus(), cfg, base.as_ref(), t)
        }
    }
}

fn cache_off(hit: bool, what: &str) -> Result<(), String> {
    if hit {
        Err(format!("{what}: flow cache hit in a cache-off replay"))
    } else {
        Ok(())
    }
}

fn note_verify(t: &mut Tracer, method: &VerificationMethod) {
    t.count("verify.calls", 1.0);
    match method {
        VerificationMethod::Exhaustive(r) => {
            t.count("verify.exhaustive", 1.0);
            t.count("verify.edges", r.edges_checked as f64);
        }
        VerificationMethod::Sampled { cycles } => t.count("verify.edges", *cycles as f64),
    }
}

fn note_place(t: &mut Tracer, p: &Placement) {
    t.count("place.moves", p.moves as f64);
    if p.budget.is_exhausted() {
        t.count("place.budget_exhausted", 1.0);
    }
}

/// `ff_flow`'s front-end: synthesize, build the FF netlist, verify.
fn ff_frontend(stg: &Stg, cfg: &FlowConfig, t: &mut Tracer) -> Result<Netlist, String> {
    let synth_opts = SynthOptions::default();
    let key = t.span("cache", || {
        cache::ff_frontend_key("ff", stg, synth_opts, cfg.minimize_states)
    });
    cache_off(
        t.span("cache", || cache::load_frontend(&key)).is_some(),
        "ff front-end",
    )?;
    let (netlist, skipped, cubes, luts) = t.span("synth", || {
        let synth = synthesize(stg, synth_opts).map_err(|e| format!("synth: {e}"))?;
        let skipped = match synth.budget {
            SynthBudget::Completed => None,
            SynthBudget::Exhausted {
                skipped_functions, ..
            } => Some(skipped_functions),
        };
        let (netlist, _) = ff_netlist(&synth, false);
        Ok::<_, String>((netlist, skipped, synth.total_cubes, synth.luts.num_luts()))
    })?;
    t.count("synth.cubes", cubes as f64);
    t.count("synth.luts", luts as f64);
    t.span("verify", || {
        verify_against_stg(
            &netlist,
            stg,
            OutputTiming::Combinational,
            cfg.verify_cycles,
            cfg.seed,
        )
    })
    .map_err(|e| format!("verify: {e}"))?;
    note_verify(
        t,
        &VerificationMethod::Sampled {
            cycles: cfg.verify_cycles,
        },
    );
    t.span("cache", || {
        cache::store_frontend(&key, &netlist, None, skipped, None)
    });
    Ok(netlist)
}

/// The verification ladder every EMB rewrite goes through.
fn verify_emb(
    netlist: &Netlist,
    stg: &Stg,
    cfg: &FlowConfig,
    t: &mut Tracer,
) -> Result<Option<usize>, String> {
    let method = t
        .span("verify", || {
            verify_rewrite(
                netlist,
                stg,
                OutputTiming::Registered,
                cfg.exhaustive_verify_max_inputs,
                cfg.verify_cycles,
                cfg.seed,
            )
        })
        .map_err(|e| format!("verify: {e}"))?;
    note_verify(t, &method);
    Ok(match method {
        VerificationMethod::Exhaustive(_) => None,
        VerificationMethod::Sampled { .. } => Some(stg.num_inputs()),
    })
}

/// `emb_flow`'s direct front-end: map into BRAMs, verify.
fn emb_frontend(
    stg: &Stg,
    opts: &EmbOptions,
    cfg: &FlowConfig,
    t: &mut Tracer,
) -> Result<Netlist, String> {
    let key = t.span("cache", || {
        cache::emb_frontend_key("emb", stg, opts, cfg.minimize_states)
    });
    cache_off(
        t.span("cache", || cache::load_frontend(&key)).is_some(),
        "emb front-end",
    )?;
    let (netlist, brams) = t.span("map", || {
        let emb = map_fsm_into_embs(stg, opts).map_err(|e| format!("map: {e}"))?;
        Ok::<_, String>((emb.to_netlist(), emb.num_brams()))
    })?;
    t.count("map.brams", brams as f64);
    let sampled = verify_emb(&netlist, stg, cfg, t)?;
    t.span("cache", || {
        cache::store_frontend(&key, &netlist, None, None, sampled)
    });
    Ok(netlist)
}

/// `emb_clock_controlled_flow`'s front-end: map, attach the enable cone,
/// verify.
fn cc_frontend(
    stg: &Stg,
    opts: &EmbOptions,
    cfg: &FlowConfig,
    t: &mut Tracer,
) -> Result<Netlist, String> {
    let key = t.span("cache", || {
        cache::emb_frontend_key("embcc", stg, opts, cfg.minimize_states)
    });
    cache_off(
        t.span("cache", || cache::load_frontend(&key)).is_some(),
        "cc front-end",
    )?;
    let emb = t
        .span("map", || map_fsm_into_embs(stg, opts))
        .map_err(|e| format!("map: {e}"))?;
    t.count("map.brams", emb.num_brams() as f64);
    let (netlist, control) = t
        .span("clock_control", || {
            attach_emb_clock_control(&emb, opts.lut_map)
        })
        .map_err(|e| format!("clock control: {e}"))?;
    let sampled = verify_emb(&netlist, stg, cfg, t)?;
    let stats = ClockControlStats {
        luts: control.num_luts(),
        slices: control.num_slices(),
        idle_cubes: control.idle_cubes,
    };
    t.span("cache", || {
        cache::store_frontend(&key, &netlist, Some(stats), None, sampled)
    });
    Ok(netlist)
}

/// The flow's device ladder: the configured device, then (with upsizing
/// allowed) every larger family member.
fn device_ladder(cfg: &FlowConfig) -> Vec<Device> {
    let from: Vec<Device> = FAMILY
        .iter()
        .copied()
        .skip_while(|d| d.name != cfg.device.name)
        .collect();
    if cfg.allow_device_upsize && !from.is_empty() {
        from
    } else {
        vec![cfg.device]
    }
}

/// The ECO attempt on one device: place the base (cache off: always
/// recomputed), pack base + delta, pin the base, place the delta.
fn try_eco(
    netlist: &Netlist,
    netlist_bytes: &[u8],
    base: &Netlist,
    device: Device,
    cfg: &FlowConfig,
    t: &mut Tracer,
) -> Result<(PackedDesign, Placement), String> {
    let base_packed = t.span("pack", || pack(base));
    let base_bytes = t.span("cache", || cache::encode_netlist(base));
    let popts = cfg.place_opts();
    let bkey = t.span("cache", || cache::place_key(&base_bytes, &device, popts));
    cache_off(
        t.span("cache", || cache::load_placement(&bkey)).is_some(),
        "eco base placement",
    )?;
    let base_placement = t
        .span("place", || place(base, &base_packed, device, popts))
        .map_err(|e| format!("base placement: {e}"))?;
    note_place(t, &base_placement);
    t.span("cache", || cache::store_placement(&bkey, &base_placement));
    let packed = t
        .span("place_eco", || {
            pack_partitioned(netlist, &base_packed, base.cells().len())
        })
        .map_err(|e| format!("partitioned pack: {e}"))?;
    let pins = t.span("place_eco", || {
        PinnedEntities::pin_base(&base_placement, &packed)
    });
    let base_digest = t.span("cache", || {
        cache::coords_digest(
            &base_placement.clb_loc,
            &base_placement.bram_loc,
            &base_placement.iob_loc,
        )
    });
    let ekey = t.span("cache", || {
        cache::eco_place_key(netlist_bytes, &device, popts, &base_digest)
    });
    cache_off(
        t.span("cache", || cache::load_eco_placement(&ekey))
            .is_some(),
        "eco placement",
    )?;
    let eco = t
        .span("place_eco", || {
            place_incremental(netlist, &packed, device, popts, &pins)
        })
        .map_err(|e| format!("eco placement: {e}"))?;
    t.count("place_eco.delta_entities", eco.delta_entities as f64);
    t.span("cache", || cache::store_eco_placement(&ekey, &eco));
    Ok((packed, eco.placement))
}

/// The flow's physical half: oracle stimulus, pack, place (ECO first when
/// a base is given), route, then timing, activity simulation and power.
fn physical(
    stg: &Stg,
    netlist: &Netlist,
    stimulus: &Stimulus,
    cfg: &FlowConfig,
    eco_base: Option<&Netlist>,
    t: &mut Tracer,
) -> Result<Fingerprint, String> {
    let vectors = t.span("oracle", || {
        let vectors: Vec<Vec<bool>> = match stimulus {
            Stimulus::Random => netsim::stimulus::random(stg.num_inputs(), cfg.cycles, cfg.seed),
            Stimulus::IdleBiased(p) => {
                emb_fsm::stimulus::idle_biased(stg, cfg.cycles, *p, cfg.seed)
            }
            Stimulus::Replay(v) => v.clone(),
        };
        let oracle = trace(stg, vectors.clone());
        std::hint::black_box(idle_fraction(stg, &oracle));
        vectors
    });
    t.span("pack", || netlist.validate())
        .map_err(|e| format!("netlist: {e}"))?;
    let packed = t.span("pack", || pack(netlist));
    let bytes = t.span("cache", || cache::encode_netlist(netlist));
    let mut implemented: Option<(PackedDesign, Placement, RoutedDesign)> = None;
    for device in device_ladder(cfg) {
        if let Some(base) = eco_base {
            t.count("place_eco.attempts", 1.0);
            if let Ok((eco_packed, eco_placement)) = try_eco(netlist, &bytes, base, device, cfg, t)
            {
                match t.span("route", || {
                    route(netlist, &eco_packed, &eco_placement, cfg.route)
                }) {
                    Ok(routed) => {
                        t.count("place_eco.successes", 1.0);
                        implemented = Some((eco_packed, eco_placement, routed));
                        break;
                    }
                    Err(_) => t.count("route.failures", 1.0),
                }
            }
        }
        let pkey = t.span("cache", || {
            cache::place_key(&bytes, &device, cfg.place_opts())
        });
        cache_off(
            t.span("cache", || cache::load_placement(&pkey)).is_some(),
            "placement",
        )?;
        let Ok(placement) = t.span("place", || {
            place(netlist, &packed, device, cfg.place_opts())
        }) else {
            continue;
        };
        note_place(t, &placement);
        t.span("cache", || cache::store_placement(&pkey, &placement));
        match t.span("route", || route(netlist, &packed, &placement, cfg.route)) {
            Ok(routed) => {
                implemented = Some((packed.clone(), placement, routed));
                break;
            }
            Err(_) => t.count("route.failures", 1.0),
        }
    }
    let (packed, placement, routed) = implemented.ok_or("no device of the ladder fits")?;
    let coord_digest = t.span("cache", || {
        cache::coords_digest(&placement.clb_loc, &placement.bram_loc, &placement.iob_loc)
    });
    t.span("sta", || {
        std::hint::black_box(estimate_critical_ns(
            netlist, &packed, &placement, &cfg.delay,
        ))
    })
    .map_err(|e| format!("sta: {e}"))?;
    let timing = t.span("sta", || analyze(netlist, &routed, &cfg.delay));
    let mut sim = t
        .span("sim", || BatchSimulator::new(netlist))
        .map_err(|e| format!("sim: {e}"))?;
    t.span("sim", || sim.run_sequential(&vectors));
    let power_mw = t
        .span("power", || {
            cfg.freqs_mhz
                .iter()
                .map(|&f| {
                    powermodel::estimate(netlist, &routed, sim.activity(), f, &cfg.power)
                        .map(|p| p.total_mw())
                })
                .collect::<Result<Vec<f64>, _>>()
        })
        .map_err(|e| format!("power: {e}"))?;
    t.count("sim.cycles", sim.activity().cycles as f64);
    let area = t.span("pack", || packed.area(netlist));
    t.count("pack.entities", packed.num_entities() as f64);
    t.count("route.wirelength", routed.total_wirelength as f64);
    Ok(Fingerprint {
        area,
        wirelength: routed.total_wirelength,
        power_mw,
        fmax_mhz: timing.fmax_mhz,
        coord_digest,
    })
}
