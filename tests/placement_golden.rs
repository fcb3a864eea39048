//! Placement golden: exact coordinates, costs, move counts and budget
//! outcomes of `place` and `place_incremental` on the paper suite.
//!
//! Every placement the flows consume is a pure function of (netlist,
//! device, options), and the flow-artifact cache keys placements by
//! `ALGORITHM_VERSION`. A placer change that moves even one entity must
//! therefore either bump that version or show up here. The cases call
//! the placer directly (no flow, no cache):
//!
//! * the EMB netlist of each of the nine paper benchmarks, wirelength-only
//!   (`timing_weight` 0.0) and with the default timing term (0.5);
//! * each benchmark's clock-controlled netlist placed incrementally over
//!   that base with `PinnedEntities::pin_base`, under both weights (this
//!   pins ECO coordinates across code versions);
//! * the FF-baseline netlists of prep4, dk16 and donfile, both weights;
//! * the larger FF-baseline netlists of keyb (464 LUTs) and sand (919
//!   LUTs, nets of up to 39 pins), both weights. These are the designs
//!   whose high-fanout nets exercise the placer's incremental
//!   bounding-box bookkeeping.
//!
//! Each case records `cache::coords_digest` of the placement plus
//! `hpwl`, `hpwl_sq`, `moves` and `budget`. The expected lines were
//! recorded once and are not to be edited to follow a placer change: a
//! change that alters them alters every placement-derived table.

use romfsm::emb::baseline::ff_netlist;
use romfsm::emb::cache::coords_digest;
use romfsm::emb::clock_control::attach_emb_clock_control;
use romfsm::emb::map::{map_fsm_into_embs, EmbOptions};
use romfsm::fpga::device::{Device, FAMILY};
use romfsm::fpga::netlist::Netlist;
use romfsm::fpga::pack::{pack, pack_partitioned, PackedDesign};
use romfsm::fpga::place::{
    place, place_incremental, EcoPlaceError, PinnedEntities, PlaceError, PlaceOptions, Placement,
};
use romfsm::fsm::benchmarks::{by_name, PAPER_BENCHMARKS};
use romfsm::logic::synth::{synthesize, SynthOptions};

const WEIGHTS: [f64; 2] = [0.0, 0.5];

fn opts(timing_weight: f64) -> PlaceOptions {
    PlaceOptions {
        timing_weight,
        ..PlaceOptions::default()
    }
}

fn line(case: &str, p: &Placement) -> String {
    format!(
        "{case} {} {} hpwl={} hpwl_sq={} moves={} budget={:?}",
        p.device.name,
        coords_digest(&p.clb_loc, &p.bram_loc, &p.iob_loc),
        p.hpwl,
        p.hpwl_sq,
        p.moves,
        p.budget
    )
}

/// The flows' device ladder: the paper's XC2V250, then each larger
/// family member.
fn ladder() -> impl Iterator<Item = Device> {
    FAMILY
        .into_iter()
        .skip_while(|d| d.name != Device::xc2v250().name)
}

/// Places on the first ladder device the design fits.
fn place_fitting(netlist: &Netlist, packed: &PackedDesign, o: PlaceOptions) -> Placement {
    for device in ladder() {
        match place(netlist, packed, device, o) {
            Ok(p) => return p,
            Err(PlaceError::DoesNotFit { .. }) => continue,
        }
    }
    panic!("{}: fits no family member", netlist.name);
}

fn emb_lines(name: &str, out: &mut Vec<String>) {
    let stg = by_name(name).expect("suite benchmark");
    let emb_opts = EmbOptions::default();
    let emb = map_fsm_into_embs(&stg, &emb_opts).unwrap_or_else(|e| panic!("{name} maps: {e}"));
    let base = emb.to_netlist();
    let base_packed = pack(&base);
    let (gated, _) = attach_emb_clock_control(&emb, emb_opts.lut_map)
        .unwrap_or_else(|e| panic!("{name} clock control: {e}"));
    let packed = pack_partitioned(&gated, &base_packed, base.cells().len())
        .unwrap_or_else(|e| panic!("{name}: partitioned pack: {e}"));
    for w in WEIGHTS {
        let base_placement = place_fitting(&base, &base_packed, opts(w));
        out.push(line(&format!("emb/{name}/w{w}"), &base_placement));
        // The ECO runs on the base's device, falling through to larger
        // members only if the gated delta overflows it.
        let eco = ladder()
            .skip_while(|d| d.name != base_placement.device.name)
            .find_map(|device| {
                let base_here = if device.name == base_placement.device.name {
                    base_placement.clone()
                } else {
                    place(&base, &base_packed, device, opts(w)).ok()?
                };
                let pins = PinnedEntities::pin_base(&base_here, &packed);
                match place_incremental(&gated, &packed, device, opts(w), &pins) {
                    Ok(e) => Some(e),
                    Err(EcoPlaceError::DoesNotFit { .. }) => None,
                    Err(e) => panic!("{name}: eco placement: {e}"),
                }
            })
            .unwrap_or_else(|| panic!("{name}: gated design fits no family member"));
        out.push(format!(
            "{} pinned={} delta={} delta_hpwl={}",
            line(&format!("eco/{name}/w{w}"), &eco.placement),
            eco.pinned_entities,
            eco.delta_entities,
            eco.delta_hpwl
        ));
    }
}

fn ff_lines(name: &str, out: &mut Vec<String>) {
    let stg = by_name(name).expect("suite benchmark");
    let synth = synthesize(&stg, SynthOptions::default()).expect("synthesis");
    let netlist = ff_netlist(&synth, false).0;
    let packed = pack(&netlist);
    for w in WEIGHTS {
        out.push(line(
            &format!("ff/{name}/w{w}"),
            &place_fitting(&netlist, &packed, opts(w)),
        ));
    }
}

fn check(got: &[String], expected: &[&str]) {
    let mismatches: Vec<String> = got
        .iter()
        .zip(expected)
        .filter(|(g, e)| g.as_str() != **e)
        .map(|(g, e)| format!("  expected {e}\n       got {g}"))
        .collect();
    assert!(
        mismatches.is_empty() && got.len() == expected.len(),
        "placement golden mismatch ({} cases, {} expected):\n{}\nall lines:\n{}",
        got.len(),
        expected.len(),
        mismatches.join("\n"),
        got.join("\n")
    );
}

#[test]
fn emb_and_eco_placements_match_the_golden() {
    let mut got = Vec::new();
    for sig in PAPER_BENCHMARKS {
        emb_lines(sig.name, &mut got);
    }
    check(&got, EMB_GOLDEN);
}

#[test]
fn ff_placements_match_the_golden() {
    let mut got = Vec::new();
    for name in ["prep4", "dk16", "donfile"] {
        ff_lines(name, &mut got);
    }
    check(&got, FF_GOLDEN);
}

#[test]
fn large_ff_placements_match_the_golden() {
    let mut got = Vec::new();
    for name in ["keyb", "sand"] {
        ff_lines(name, &mut got);
    }
    check(&got, LARGE_FF_GOLDEN);
}

const EMB_GOLDEN: &[&str] = &[
    "emb/prep4/w0 XC2V250 6d740d6792550b6c343abf62e94ef1ff hpwl=78 hpwl_sq=270 moves=20088 budget=Completed",
    "eco/prep4/w0 XC2V250 49f6910f4f61cbeefe76d6257f3fc4fd hpwl=82 hpwl_sq=280 moves=608 budget=Completed pinned=20 delta=1 delta_hpwl=28",
    "emb/prep4/w0.5 XC2V250 6e44eff0d36c6422c162347000ef1031 hpwl=77 hpwl_sq=279 moves=40212 budget=Completed",
    "eco/prep4/w0.5 XC2V250 5fc25029d11ae1a0c039a45a90ec5e33 hpwl=80 hpwl_sq=284 moves=1248 budget=Completed pinned=20 delta=1 delta_hpwl=32",
    "emb/dk16/w0 XC2V250 35bf84b37c27dc36e3e4e894fe6a4625 hpwl=6 hpwl_sq=10 moves=2738 budget=Completed",
    "eco/dk16/w0 XC2V250 ed4571c258a09ef20c379fa18e5957e1 hpwl=9 hpwl_sq=15 moves=624 budget=Completed pinned=6 delta=1 delta_hpwl=7",
    "emb/dk16/w0.5 XC2V250 016121ecc2161a36ababdbf7a7b95825 hpwl=6 hpwl_sq=10 moves=4673 budget=Completed",
    "eco/dk16/w0.5 XC2V250 79d19992f22cd4b4d96d68ba8c7ca327 hpwl=9 hpwl_sq=15 moves=1184 budget=Completed pinned=6 delta=1 delta_hpwl=7",
    "emb/tbk/w0 XC2V250 eb55ac65a799b37473f9aaad118468e7 hpwl=20 hpwl_sq=60 moves=6596 budget=Completed",
    "eco/tbk/w0 XC2V250 0427120342359776385a3c3539118e65 hpwl=23 hpwl_sq=75 moves=544 budget=Completed pinned=10 delta=1 delta_hpwl=15",
    "emb/tbk/w0.5 XC2V250 becf6849742886f4f7446386ac09ed67 hpwl=20 hpwl_sq=60 moves=13068 budget=Completed",
    "eco/tbk/w0.5 XC2V250 be95806041c3e6f6bf803c4a7cae36e5 hpwl=23 hpwl_sq=65 moves=1120 budget=Completed pinned=10 delta=1 delta_hpwl=7",
    "emb/keyb/w0 XC2V250 1d53b4751b5d029fa89144b308797c4c hpwl=85 hpwl_sq=275 moves=11722 budget=Completed",
    "eco/keyb/w0 XC2V250 ffc63e5dba536a5b96312ba8c89d5708 hpwl=89 hpwl_sq=305 moves=544 budget=Completed pinned=15 delta=1 delta_hpwl=17",
    "emb/keyb/w0.5 XC2V250 7962642ef4a677199395b3fec35642ca hpwl=82 hpwl_sq=258 moves=23410 budget=Completed",
    "eco/keyb/w0.5 XC2V250 1ba74c4783196e9bea493284bf7b9ac8 hpwl=86 hpwl_sq=288 moves=1120 budget=Completed pinned=15 delta=1 delta_hpwl=17",
    "emb/donfile/w0 XC2V250 e11bb8956e7411f42ea5eb90be8c0567 hpwl=2 hpwl_sq=2 moves=876 budget=Completed",
    "eco/donfile/w0 XC2V250 9fad8c3b174570f6d08806ac709d77e5 hpwl=4 hpwl_sq=4 moves=592 budget=Completed pinned=4 delta=1 delta_hpwl=3",
    "emb/donfile/w0.5 XC2V250 87939a764def0ff41bac6472c8aa5767 hpwl=2 hpwl_sq=2 moves=1124 budget=Completed",
    "eco/donfile/w0.5 XC2V250 d7cd6c2fb03cf2f63e6d089e3f68a5e5 hpwl=4 hpwl_sq=4 moves=1184 budget=Completed pinned=4 delta=1 delta_hpwl=3",
    "emb/sand/w0 XC2V250 5d604365f7d6f1a2a07d398843959f31 hpwl=191 hpwl_sq=847 moves=36985 budget=Completed",
    "eco/sand/w0 XC2V250 d137bc47fc139ee67d5ae9418fac2475 hpwl=197 hpwl_sq=873 moves=640 budget=Completed pinned=31 delta=1 delta_hpwl=31",
    "emb/sand/w0.5 XC2V250 55f89034158aec03393ec35b1e53d3d0 hpwl=201 hpwl_sq=951 moves=73190 budget=Completed",
    "eco/sand/w0.5 XC2V250 9a8bd520ecc8d743e2bf743846dc2210 hpwl=207 hpwl_sq=1023 moves=1216 budget=Completed pinned=31 delta=1 delta_hpwl=74",
    "emb/styr/w0 XC2V250 97c6eb6ee5b5e12e876e5a265570923d hpwl=158 hpwl_sq=636 moves=30723 budget=Completed",
    "eco/styr/w0 XC2V250 2cfb24fbb51a39ea8fca3f91e73ce9f9 hpwl=166 hpwl_sq=670 moves=640 budget=Completed pinned=28 delta=1 delta_hpwl=40",
    "emb/styr/w0.5 XC2V250 6b1857ee0f71636c060d4c6ab92733ff hpwl=189 hpwl_sq=905 moves=60306 budget=Completed",
    "eco/styr/w0.5 XC2V250 669350a2b889ca6a8c68688c0bf1e179 hpwl=197 hpwl_sq=1003 moves=1184 budget=Completed pinned=28 delta=1 delta_hpwl=80",
    "emb/ex1/w0 XC2V250 eceb27eec671d77ca220928ffb3fc46f hpwl=232 hpwl_sq=1620 moves=34504 budget=Completed",
    "eco/ex1/w0 XC2V250 904ee6e5aa3fe3b8007c58ccd24280ab hpwl=243 hpwl_sq=1691 moves=624 budget=Completed pinned=35 delta=1 delta_hpwl=128",
    "emb/ex1/w0.5 XC2V250 4f52c2abfa8898626758fcc3ae976271 hpwl=263 hpwl_sq=1991 moves=67640 budget=Completed",
    "eco/ex1/w0.5 XC2V250 a226648c6166cb643d0d986243e165f7 hpwl=275 hpwl_sq=2197 moves=1184 budget=Completed pinned=35 delta=1 delta_hpwl=190",
    "emb/planet/w0 XC2V250 bb4018c7b914f3228a08d5dbd08c2731 hpwl=216 hpwl_sq=1332 moves=32504 budget=Completed",
    "eco/planet/w0 XC2V250 18ff33e10fb3bea4a455fc9cac327c37 hpwl=227 hpwl_sq=1441 moves=656 budget=Completed pinned=32 delta=1 delta_hpwl=124",
    "emb/planet/w0.5 XC2V250 8936ef8f9d39349be43c8e3e729dd4c8 hpwl=217 hpwl_sq=1483 moves=64872 budget=Completed",
    "eco/planet/w0.5 XC2V250 58617fd31f283e1db20e3be3c35293ce hpwl=228 hpwl_sq=1668 moves=1248 budget=Completed pinned=32 delta=1 delta_hpwl=151",
];

const FF_GOLDEN: &[&str] = &[
    "ff/prep4/w0 XC2V250 878a932da978d5c71f477923ee7a7794 hpwl=602 hpwl_sq=3056 moves=49060 budget=Completed",
    "ff/prep4/w0.5 XC2V250 a6f08dd6b8562d36dda404298f798f25 hpwl=630 hpwl_sq=3476 moves=93610 budget=Completed",
    "ff/dk16/w0 XC2V250 74da358268f77581a8c8ccd26d38f552 hpwl=235 hpwl_sq=845 moves=11644 budget=Completed",
    "ff/dk16/w0.5 XC2V250 525df86d18e6f9ee0e28cd46afa48cfd hpwl=234 hpwl_sq=828 moves=21780 budget=Completed",
    "ff/donfile/w0 XC2V250 fb538d253df496db53e20b32c593a488 hpwl=165 hpwl_sq=541 moves=6534 budget=Completed",
    "ff/donfile/w0.5 XC2V250 f77f0f512e0c7d3a44861e853888ff29 hpwl=159 hpwl_sq=471 moves=14067 budget=Completed",
];

const LARGE_FF_GOLDEN: &[&str] = &[
    "ff/keyb/w0 XC2V250 47330bad8175f7d35f404934f7b38e80 hpwl=1754 hpwl_sq=12688 moves=61765 budget=Completed",
    "ff/keyb/w0.5 XC2V250 c7809f569d8a41914ce5497f8026bec2 hpwl=1806 hpwl_sq=13208 moves=130372 budget=Completed",
    "ff/sand/w0 XC2V250 d0c7841511e496bf09abad0eb05224ac hpwl=5147 hpwl_sq=54763 moves=89668 budget=Completed",
    "ff/sand/w0.5 XC2V250 aefbce6ed16f45a73e9c13ba100f4bb4 hpwl=5040 hpwl_sq=52810 moves=212148 budget=Completed",
];
