//! Flow golden: exact reports of every public flow on a fixed case list,
//! cold and memory-warm, in one flow-artifact cache.
//!
//! The cases, in this order:
//!
//! * prep4, dk16 and donfile, each through `ff_flow`,
//!   `ff_clock_gated_flow`, `emb_flow` (direct), `emb_flow` (overlay)
//!   and `emb_clock_controlled_flow` (ECO placement on);
//! * `emb_flow` under the `auto` backend on the first `wide-input`
//!   corpus machine, which exceeds the overlay ladder and records an
//!   overlay-capacity downgrade;
//! * `emb_flow_with_fallback` on the first `ff-fallback` corpus machine
//!   with compaction and series off and a tiny espresso budget, which
//!   records the emb-to-ff and synth-budget downgrades.
//!
//! The whole list runs twice: once against an empty cache and once
//! memory-warm. Each report becomes one line: kind, device, area,
//! wirelength, coordinate digest, the bit patterns of fmax, of each power
//! total and of the placer's fmax estimate, the downgrades, the ECO and
//! overlay evidence, and the report's own cache hits/misses. Wall-clock
//! stage timings are left out. The expected lines were recorded once and
//! are not to be edited to follow a flow change: a change that alters
//! them alters the tables, the corpus rows or the cache traffic.
//!
//! This file holds a single test function on purpose: the cache reads its
//! environment once per process, so the variables must be set before any
//! flow in this binary touches the cache.

use romfsm::emb::flow::{
    emb_clock_controlled_flow, emb_flow, emb_flow_with_fallback, ff_clock_gated_flow, ff_flow,
    FlowConfig, FlowReport, MapBackend, Stimulus,
};
use romfsm::emb::map::EmbOptions;
use romfsm::fpga::place::PlaceOptions;
use romfsm::fsm::benchmarks::by_name;
use romfsm::fsm::corpus::spec;
use romfsm::fsm::generate::generate;
use romfsm::fsm::stg::Stg;
use romfsm::logic::synth::SynthOptions;
use std::path::PathBuf;

fn config() -> FlowConfig {
    FlowConfig {
        cycles: 240,
        verify_cycles: 120,
        freqs_mhz: vec![100.0],
        place: PlaceOptions {
            effort: 2.0,
            ..PlaceOptions::default()
        },
        ..FlowConfig::default()
    }
}

fn line(case: &str, r: &FlowReport) -> String {
    let power: Vec<String> = r
        .power
        .iter()
        .map(|p| format!("{:x}", p.total_mw().to_bits()))
        .collect();
    let downgrades: Vec<String> = r.downgrades.iter().map(ToString::to_string).collect();
    format!(
        "{case} {} {} {:?} wl={} coords={} fmax={:x} power=[{}] place_fmax={:x} \
         downgrades={downgrades:?} eco={:?} overlay={:?} cache={}/{}",
        r.kind,
        r.device.name,
        r.area,
        r.total_wirelength,
        r.coord_digest,
        r.timing.fmax_mhz.to_bits(),
        power.join(","),
        r.place_fmax_est_mhz.to_bits(),
        r.eco,
        r.overlay,
        r.cache.hits,
        r.cache.misses
    )
}

fn corpus_machine(tier: &str) -> Stg {
    let s = spec(tier, 0, 2004).expect("known tier");
    generate(&s).unwrap_or_else(|e| panic!("{tier}: {e}"))
}

fn run_cases(pass: &str, out: &mut Vec<String>) {
    let stim = Stimulus::IdleBiased(0.5);
    let synth = SynthOptions::default();
    let emb = EmbOptions::default();
    let direct = config();
    let overlay = FlowConfig {
        backend: MapBackend::Overlay,
        ..config()
    };
    for name in ["prep4", "dk16", "donfile"] {
        let stg = by_name(name).expect("suite benchmark");
        let c = |flow: &str| format!("{pass}/{name}/{flow}");
        let ok = |flow: &str, r: Result<FlowReport, _>| {
            line(&c(flow), &r.unwrap_or_else(|e| panic!("{}: {e}", c(flow))))
        };
        out.push(ok("ff", ff_flow(&stg, synth, &stim, &direct)));
        out.push(ok("ffg", ff_clock_gated_flow(&stg, synth, &stim, &direct)));
        out.push(ok("emb", emb_flow(&stg, &emb, &stim, &direct)));
        out.push(ok("ovl", emb_flow(&stg, &emb, &stim, &overlay)));
        out.push(ok(
            "embcc",
            emb_clock_controlled_flow(&stg, &emb, &stim, &direct),
        ));
    }

    let auto = FlowConfig {
        backend: MapBackend::Auto,
        ..config()
    };
    let wide = corpus_machine("wide-input");
    let r = emb_flow(&wide, &emb, &stim, &auto).expect("auto backend completes");
    out.push(line(&format!("{pass}/wide-input/auto"), &r));

    let no_rungs = EmbOptions {
        allow_compaction: false,
        allow_series: false,
        ..EmbOptions::default()
    };
    let tiny = SynthOptions {
        max_minimize_cubes: 8,
        ..SynthOptions::default()
    };
    let ff = corpus_machine("ff-fallback");
    let r = emb_flow_with_fallback(&ff, &no_rungs, tiny, &stim, &direct)
        .expect("fallback ladder completes");
    out.push(line(&format!("{pass}/ff-fallback/fallback"), &r));
}

#[test]
fn flow_reports_match_the_golden() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("target")
        .join(format!("itest_flow_golden_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::env::remove_var("FLOW_CACHE");
    std::env::remove_var("FLOW_CACHE_MAX_BYTES");
    std::env::set_var("FLOW_CACHE_DIR", &dir);

    let mut got = Vec::new();
    run_cases("cold", &mut got);
    run_cases("warm", &mut got);
    let _ = std::fs::remove_dir_all(&dir);

    let mismatches: Vec<String> = got
        .iter()
        .zip(GOLDEN)
        .filter(|(g, e)| g.as_str() != **e)
        .map(|(g, e)| format!("  expected {e}\n       got {g}"))
        .collect();
    assert!(
        mismatches.is_empty() && got.len() == GOLDEN.len(),
        "flow golden mismatch ({} cases, {} expected):\n{}\nall lines:\n{}",
        got.len(),
        GOLDEN.len(),
        mismatches.join("\n"),
        got.join("\n")
    );
}

const GOLDEN: &[&str] = &[
    "cold/prep4/ff FF/LUT XC2V250 AreaReport { luts: 208, ffs: 4, slices: 105, brams: 0 } wl=755 coords=589b7aaac367031950e3d12db069f74a fmax=405fce7e5f1ab515 power=[40524a916872b020] place_fmax=4060f00b19ab5c45 downgrades=[] eco=None overlay=None cache=0/2",
    "cold/prep4/ffg FF/LUT+gate XC2V250 AreaReport { luts: 210, ffs: 4, slices: 106, brams: 0 } wl=749 coords=34d11509f00d22acb90a7a6de988e93f fmax=405f7c74120e2fb6 power=[40527cddb22d0e56] place_fmax=40611f8fc7e3f1f9 downgrades=[] eco=None overlay=None cache=0/2",
    "cold/prep4/emb EMB XC2V250 AreaReport { luts: 23, ffs: 0, slices: 12, brams: 1 } wl=77 coords=3c4823a1b2d37a22e758819c3cb89a31 fmax=40648683fe518cd1 power=[4042b0f141205bc0] place_fmax=40648683fe518cd1 downgrades=[] eco=None overlay=None cache=0/2",
    "cold/prep4/ovl EMB/ovl XC2V250 AreaReport { luts: 0, ffs: 0, slices: 0, brams: 3 } wl=182 coords=6acc53ca0024536495ce9d4d078b9a77 fmax=407137b6a7d881c3 power=[405013b81d7dbf48] place_fmax=407137b6a7d881c3 downgrades=[] eco=None overlay=Some(OverlayReport { base_cache_hit: false, class: \"ovl_i8_s4_o8_b1\", addr_bits: 12, state_bits: 4, data_bits: 12, banks: 1 }) cache=0/2",
    "cold/prep4/embcc EMB+cc XC2V250 AreaReport { luts: 27, ffs: 0, slices: 14, brams: 1 } wl=80 coords=54326b85547979a09d8b32cb349f1633 fmax=40648683fe518cd1 power=[404224e83e425aee] place_fmax=40648683fe518cd1 downgrades=[] eco=Some(EcoReport { pinned_entities: 20, delta_entities: 1, delta_hpwl: 32.0, base_reuse_cache_hit: true, base_coord_digest: \"3c4823a1b2d37a22e758819c3cb89a31\" }) overlay=None cache=2/2",
    "cold/dk16/ff FF/LUT XC2V250 AreaReport { luts: 116, ffs: 5, slices: 59, brams: 0 } wl=268 coords=525df86d18e6f9ee0e28cd46afa48cfd fmax=406420faa4122373 power=[40445df6c8b43958] place_fmax=406583bec9cdc4f5 downgrades=[] eco=None overlay=None cache=0/2",
    "cold/dk16/ffg FF/LUT+gate XC2V250 AreaReport { luts: 118, ffs: 5, slices: 60, brams: 0 } wl=272 coords=c5d5a0e9c480cea8a346b1851b59eebb fmax=40639f8c41e8b0d3 power=[404547851eb851ec] place_fmax=4064a9419637021d downgrades=[] eco=None overlay=None cache=0/2",
    "cold/dk16/emb EMB XC2V250 AreaReport { luts: 0, ffs: 0, slices: 0, brams: 1 } wl=6 coords=6786eb314c628cb6c6e3e6882594e5a5 fmax=4073598f7481fb3e power=[403642e69ad42c3d] place_fmax=4073598f7481fb3e downgrades=[] eco=None overlay=None cache=0/2",
    "cold/dk16/ovl EMB/ovl XC2V250 AreaReport { luts: 0, ffs: 0, slices: 0, brams: 1 } wl=6 coords=6786eb314c628cb6c6e3e6882594e5a5 fmax=4073598f7481fb3e power=[40367d89a0275254] place_fmax=4073598f7481fb3e downgrades=[] eco=None overlay=Some(OverlayReport { base_cache_hit: false, class: \"ovl_i2_s6_o3_b1\", addr_bits: 8, state_bits: 6, data_bits: 9, banks: 1 }) cache=0/2",
    "cold/dk16/embcc EMB+cc XC2V250 AreaReport { luts: 2, ffs: 0, slices: 1, brams: 1 } wl=9 coords=8007f481d2bfcb72575ccddc6021d361 fmax=406c794b39bb3066 power=[4034c82474538ef3] place_fmax=406c794b39bb3066 downgrades=[] eco=Some(EcoReport { pinned_entities: 6, delta_entities: 1, delta_hpwl: 7.0, base_reuse_cache_hit: true, base_coord_digest: \"6786eb314c628cb6c6e3e6882594e5a5\" }) overlay=None cache=2/2",
    "cold/donfile/ff FF/LUT XC2V250 AreaReport { luts: 90, ffs: 5, slices: 46, brams: 0 } wl=179 coords=f77f0f512e0c7d3a44861e853888ff29 fmax=4066c4c793d15ea9 power=[404271851eb851ec] place_fmax=40671af8e6eba70a downgrades=[] eco=None overlay=None cache=0/2",
    "cold/donfile/ffg FF/LUT+gate XC2V250 AreaReport { luts: 92, ffs: 5, slices: 47, brams: 0 } wl=190 coords=b34ece8b7f219cf6e553042edf9b35e5 fmax=4065d0a4697023bd power=[40436a449ba5e354] place_fmax=40671af8e6eba70a downgrades=[] eco=None overlay=None cache=0/2",
    "cold/donfile/emb EMB XC2V250 AreaReport { luts: 0, ffs: 0, slices: 0, brams: 1 } wl=2 coords=a680d45c06b7aef48edd8dd4afb73c67 fmax=4073d75d75d75d75 power=[4035ab0d844d013a] place_fmax=4073d75d75d75d75 downgrades=[] eco=None overlay=None cache=0/2",
    "cold/donfile/ovl EMB/ovl XC2V250 AreaReport { luts: 0, ffs: 0, slices: 0, brams: 1 } wl=2 coords=a680d45c06b7aef48edd8dd4afb73c67 fmax=4073d75d75d75d75 power=[4035e5b089a02752] place_fmax=4073d75d75d75d75 downgrades=[] eco=None overlay=Some(OverlayReport { base_cache_hit: false, class: \"ovl_i2_s6_o1_b1\", addr_bits: 8, state_bits: 6, data_bits: 7, banks: 1 }) cache=0/2",
    "cold/donfile/embcc EMB+cc XC2V250 AreaReport { luts: 2, ffs: 0, slices: 1, brams: 1 } wl=4 coords=b421df2ebd8d33b071843de2f3ed6023 fmax=406d00980e41561f power=[40344d61e4f765fe] place_fmax=406d00980e41561f downgrades=[] eco=Some(EcoReport { pinned_entities: 4, delta_entities: 1, delta_hpwl: 3.0, base_reuse_cache_hit: true, base_coord_digest: \"a680d45c06b7aef48edd8dd4afb73c67\" }) overlay=None cache=2/2",
    "cold/wide-input/auto EMB XC2V250 AreaReport { luts: 10, ffs: 0, slices: 5, brams: 1 } wl=27 coords=dddb23d5b1ee92a8f3ad921ac37dbfbb fmax=40689b366cd9b367 power=[403e8790ff972474] place_fmax=40689b366cd9b367 downgrades=[\"overlay backend fell back to direct (cx.wide-input.s9.i14.o3.t27.u3.b214.m0.q0.d0.k0.x35faeb29a86dc750 [map]: overlay: FSM needs 18 overlay address bits, largest base has 16)\"] eco=None overlay=None cache=0/2",
    "cold/ff-fallback/fallback FF/LUT XC2V250 AreaReport { luts: 314, ffs: 6, slices: 158, brams: 0 } wl=1223 coords=4d5420ed21542658464a315761ca5f0b fmax=405b78f78f78f78d power=[404c1127ef9db22c] place_fmax=405e7ce0c7ce0c7a downgrades=[\"8 function(s) left unminimized\", \"EMB mapping fell back to FF baseline (cx.ff-fallback.s39.i11.o2.t117.u4.b287.m0.q0.d0.k0.xf3c352fbda41510a [map]: mapping: FSM needs 17 address bits, only 18 available)\"] eco=None overlay=None cache=0/3",
    "warm/prep4/ff FF/LUT XC2V250 AreaReport { luts: 208, ffs: 4, slices: 105, brams: 0 } wl=755 coords=589b7aaac367031950e3d12db069f74a fmax=405fce7e5f1ab515 power=[40524a916872b020] place_fmax=4060f00b19ab5c45 downgrades=[] eco=None overlay=None cache=2/0",
    "warm/prep4/ffg FF/LUT+gate XC2V250 AreaReport { luts: 210, ffs: 4, slices: 106, brams: 0 } wl=749 coords=34d11509f00d22acb90a7a6de988e93f fmax=405f7c74120e2fb6 power=[40527cddb22d0e56] place_fmax=40611f8fc7e3f1f9 downgrades=[] eco=None overlay=None cache=2/0",
    "warm/prep4/emb EMB XC2V250 AreaReport { luts: 23, ffs: 0, slices: 12, brams: 1 } wl=77 coords=3c4823a1b2d37a22e758819c3cb89a31 fmax=40648683fe518cd1 power=[4042b0f141205bc0] place_fmax=40648683fe518cd1 downgrades=[] eco=None overlay=None cache=2/0",
    "warm/prep4/ovl EMB/ovl XC2V250 AreaReport { luts: 0, ffs: 0, slices: 0, brams: 3 } wl=182 coords=6acc53ca0024536495ce9d4d078b9a77 fmax=407137b6a7d881c3 power=[405013b81d7dbf48] place_fmax=407137b6a7d881c3 downgrades=[] eco=None overlay=Some(OverlayReport { base_cache_hit: true, class: \"ovl_i8_s4_o8_b1\", addr_bits: 12, state_bits: 4, data_bits: 12, banks: 1 }) cache=2/0",
    "warm/prep4/embcc EMB+cc XC2V250 AreaReport { luts: 27, ffs: 0, slices: 14, brams: 1 } wl=80 coords=54326b85547979a09d8b32cb349f1633 fmax=40648683fe518cd1 power=[404224e83e425aee] place_fmax=40648683fe518cd1 downgrades=[] eco=Some(EcoReport { pinned_entities: 20, delta_entities: 1, delta_hpwl: 32.0, base_reuse_cache_hit: true, base_coord_digest: \"3c4823a1b2d37a22e758819c3cb89a31\" }) overlay=None cache=4/0",
    "warm/dk16/ff FF/LUT XC2V250 AreaReport { luts: 116, ffs: 5, slices: 59, brams: 0 } wl=268 coords=525df86d18e6f9ee0e28cd46afa48cfd fmax=406420faa4122373 power=[40445df6c8b43958] place_fmax=406583bec9cdc4f5 downgrades=[] eco=None overlay=None cache=2/0",
    "warm/dk16/ffg FF/LUT+gate XC2V250 AreaReport { luts: 118, ffs: 5, slices: 60, brams: 0 } wl=272 coords=c5d5a0e9c480cea8a346b1851b59eebb fmax=40639f8c41e8b0d3 power=[404547851eb851ec] place_fmax=4064a9419637021d downgrades=[] eco=None overlay=None cache=2/0",
    "warm/dk16/emb EMB XC2V250 AreaReport { luts: 0, ffs: 0, slices: 0, brams: 1 } wl=6 coords=6786eb314c628cb6c6e3e6882594e5a5 fmax=4073598f7481fb3e power=[403642e69ad42c3d] place_fmax=4073598f7481fb3e downgrades=[] eco=None overlay=None cache=2/0",
    "warm/dk16/ovl EMB/ovl XC2V250 AreaReport { luts: 0, ffs: 0, slices: 0, brams: 1 } wl=6 coords=6786eb314c628cb6c6e3e6882594e5a5 fmax=4073598f7481fb3e power=[40367d89a0275254] place_fmax=4073598f7481fb3e downgrades=[] eco=None overlay=Some(OverlayReport { base_cache_hit: true, class: \"ovl_i2_s6_o3_b1\", addr_bits: 8, state_bits: 6, data_bits: 9, banks: 1 }) cache=2/0",
    "warm/dk16/embcc EMB+cc XC2V250 AreaReport { luts: 2, ffs: 0, slices: 1, brams: 1 } wl=9 coords=8007f481d2bfcb72575ccddc6021d361 fmax=406c794b39bb3066 power=[4034c82474538ef3] place_fmax=406c794b39bb3066 downgrades=[] eco=Some(EcoReport { pinned_entities: 6, delta_entities: 1, delta_hpwl: 7.0, base_reuse_cache_hit: true, base_coord_digest: \"6786eb314c628cb6c6e3e6882594e5a5\" }) overlay=None cache=4/0",
    "warm/donfile/ff FF/LUT XC2V250 AreaReport { luts: 90, ffs: 5, slices: 46, brams: 0 } wl=179 coords=f77f0f512e0c7d3a44861e853888ff29 fmax=4066c4c793d15ea9 power=[404271851eb851ec] place_fmax=40671af8e6eba70a downgrades=[] eco=None overlay=None cache=2/0",
    "warm/donfile/ffg FF/LUT+gate XC2V250 AreaReport { luts: 92, ffs: 5, slices: 47, brams: 0 } wl=190 coords=b34ece8b7f219cf6e553042edf9b35e5 fmax=4065d0a4697023bd power=[40436a449ba5e354] place_fmax=40671af8e6eba70a downgrades=[] eco=None overlay=None cache=2/0",
    "warm/donfile/emb EMB XC2V250 AreaReport { luts: 0, ffs: 0, slices: 0, brams: 1 } wl=2 coords=a680d45c06b7aef48edd8dd4afb73c67 fmax=4073d75d75d75d75 power=[4035ab0d844d013a] place_fmax=4073d75d75d75d75 downgrades=[] eco=None overlay=None cache=2/0",
    "warm/donfile/ovl EMB/ovl XC2V250 AreaReport { luts: 0, ffs: 0, slices: 0, brams: 1 } wl=2 coords=a680d45c06b7aef48edd8dd4afb73c67 fmax=4073d75d75d75d75 power=[4035e5b089a02752] place_fmax=4073d75d75d75d75 downgrades=[] eco=None overlay=Some(OverlayReport { base_cache_hit: true, class: \"ovl_i2_s6_o1_b1\", addr_bits: 8, state_bits: 6, data_bits: 7, banks: 1 }) cache=2/0",
    "warm/donfile/embcc EMB+cc XC2V250 AreaReport { luts: 2, ffs: 0, slices: 1, brams: 1 } wl=4 coords=b421df2ebd8d33b071843de2f3ed6023 fmax=406d00980e41561f power=[40344d61e4f765fe] place_fmax=406d00980e41561f downgrades=[] eco=Some(EcoReport { pinned_entities: 4, delta_entities: 1, delta_hpwl: 3.0, base_reuse_cache_hit: true, base_coord_digest: \"a680d45c06b7aef48edd8dd4afb73c67\" }) overlay=None cache=4/0",
    "warm/wide-input/auto EMB XC2V250 AreaReport { luts: 10, ffs: 0, slices: 5, brams: 1 } wl=27 coords=dddb23d5b1ee92a8f3ad921ac37dbfbb fmax=40689b366cd9b367 power=[403e8790ff972474] place_fmax=40689b366cd9b367 downgrades=[\"overlay backend fell back to direct (cx.wide-input.s9.i14.o3.t27.u3.b214.m0.q0.d0.k0.x35faeb29a86dc750 [map]: overlay: FSM needs 18 overlay address bits, largest base has 16)\"] eco=None overlay=None cache=2/0",
    "warm/ff-fallback/fallback FF/LUT XC2V250 AreaReport { luts: 314, ffs: 6, slices: 158, brams: 0 } wl=1223 coords=4d5420ed21542658464a315761ca5f0b fmax=405b78f78f78f78d power=[404c1127ef9db22c] place_fmax=405e7ce0c7ce0c7a downgrades=[\"8 function(s) left unminimized\", \"EMB mapping fell back to FF baseline (cx.ff-fallback.s39.i11.o2.t117.u4.b287.m0.q0.d0.k0.xf3c352fbda41510a [map]: mapping: FSM needs 17 address bits, only 18 available)\"] eco=None overlay=None cache=2/1",
];
