//! Micro-benchmarks for the substrates: espresso minimization, LUT
//! technology mapping, simulated-annealing placement (full FF and EMB
//! netlists, and ECO),
//! routing, and cycle-based netlist simulation throughput. Runs on the
//! in-workspace `paper_bench::timing` harness (hermetic, no registry
//! deps); writes `results/bench_substrates.json`.

use emb_fsm::baseline::ff_netlist;
use emb_fsm::clock_control::attach_emb_clock_control;
use emb_fsm::map::{map_fsm_into_embs, EmbOptions};
use emb_fsm::verify::{verify_exhaustive, verify_exhaustive_scalar, OutputTiming};
use fpga_fabric::device::Device;
use fpga_fabric::pack::{pack, pack_partitioned};
use fpga_fabric::place::{place, place_incremental, PinnedEntities, PlaceOptions};
use fpga_fabric::route::{route, RouteOptions};
use logic_synth::cover::Cover;
use logic_synth::cube::Cube;
use logic_synth::decompose::decompose2;
use logic_synth::synth::{synthesize, SynthOptions};
use logic_synth::techmap::{map_luts, MapOptions};
use netsim::engine::Simulator;
use netsim::stimulus;
use paper_bench::timing::Harness;
use std::hint::black_box;

fn keyb_ff_netlist() -> fpga_fabric::netlist::Netlist {
    let stg = fsm_model::benchmarks::by_name("keyb").expect("keyb");
    let synth = synthesize(&stg, SynthOptions::default()).expect("synthesis");
    ff_netlist(&synth, false).0
}

fn bench_espresso(h: &mut Harness) {
    // A structured 10-var function: minterms of popcount >= 6.
    let mut onset = Cover::empty(10);
    for m in 0..1u64 << 10 {
        if m.count_ones() >= 6 {
            onset.push(Cube::minterm(10, m));
        }
    }
    h.bench("espresso/popcount10", || {
        logic_synth::espresso::minimize_exact_care(black_box(&onset))
    });
}

fn bench_synthesis(h: &mut Harness) {
    let stg = fsm_model::benchmarks::by_name("keyb").expect("keyb");
    h.bench("synthesize_fsm/keyb", || {
        synthesize(black_box(&stg), SynthOptions::default()).expect("synthesis")
    });
}

fn bench_techmap(h: &mut Harness) {
    let stg = fsm_model::benchmarks::by_name("keyb").expect("keyb");
    let synth = synthesize(&stg, SynthOptions::default()).expect("synthesis");
    let two = decompose2(&synth.network);
    h.bench("map_luts/keyb", || {
        map_luts(black_box(&two), MapOptions::default()).expect("maps")
    });
}

fn bench_place_route(h: &mut Harness) {
    let netlist = keyb_ff_netlist();
    let packed = pack(&netlist);
    let device = Device::xc2v250();
    // The gated anneal on the FF-baseline netlist: PlaceOptions::default()
    // has the criticality cost term enabled (timing_weight 0.5) — the
    // 1.25x regression gate in scripts/verify.sh holds with timing on.
    h.bench("place_sa_ff/keyb", || {
        place(
            black_box(&netlist),
            &packed,
            device,
            PlaceOptions {
                seed: 1,
                effort: 2.0,
                ..PlaceOptions::default()
            },
        )
        .expect("places")
    });
    // The same anneal wirelength-only: the ratio below records what the
    // timing term costs (or saves, via early-exit rejection) end to end.
    h.bench("place_sa_wl_ff/keyb", || {
        place(
            black_box(&netlist),
            &packed,
            device,
            PlaceOptions {
                seed: 1,
                effort: 2.0,
                timing_weight: 0.0,
                ..PlaceOptions::default()
            },
        )
        .expect("places")
    });
    h.record_ratio(
        "place_sa_wl_over_timing_ff/keyb",
        "place_sa_wl_ff/keyb",
        "place_sa_ff/keyb",
    );
    let placement = place(&netlist, &packed, device, PlaceOptions::default()).expect("places");
    h.bench("route/keyb", || {
        route(
            black_box(&netlist),
            &packed,
            &placement,
            RouteOptions::default(),
        )
        .expect("routes")
    });
}

fn bench_place_emb(h: &mut Harness) {
    // Full placement of keyb's plain EMB netlist (the design the EMB flow
    // places), then incremental (ECO) placement of its clock-controlled
    // netlist over that pinned base — the placement the clock-controlled
    // flow runs. For the ECO bench the base placement is set up once;
    // only the guarded delta anneal is timed.
    let stg = fsm_model::benchmarks::by_name("keyb").expect("keyb");
    let emb_opts = EmbOptions::default();
    let emb = map_fsm_into_embs(&stg, &emb_opts).expect("keyb maps");
    let base = emb.to_netlist();
    let base_packed = pack(&base);
    let (gated, _) = attach_emb_clock_control(&emb, emb_opts.lut_map).expect("clock control");
    let packed = pack_partitioned(&gated, &base_packed, base.cells().len()).expect("packs");
    let device = Device::xc2v250();
    let opts = PlaceOptions {
        seed: 1,
        effort: 2.0,
        ..PlaceOptions::default()
    };
    h.bench("place_sa_emb/keyb", || {
        place(black_box(&base), &base_packed, device, opts).expect("places")
    });
    let base_placement = place(&base, &base_packed, device, opts).expect("base places");
    let pins = PinnedEntities::pin_base(&base_placement, &packed);
    h.bench("place_eco/keyb", || {
        place_incremental(black_box(&gated), &packed, device, opts, &pins).expect("eco places")
    });
}

fn bench_timing_kernel(h: &mut Harness) {
    // The incremental STA kernel under a placer-move-like edit stream:
    // perturb a rotating window of wire delays, flush, and read back the
    // worst slack — the exact query pattern the timing-driven anneal
    // issues between moves.
    let netlist = keyb_ff_netlist();
    let model = fpga_fabric::timing::DelayModel::default();
    let mut kernel = fpga_fabric::sta::TimingKernel::new(&netlist, &model).expect("kernel builds");
    let nets = kernel.num_nets();
    let mut step = 0u64;
    h.bench("place_timing_kernel/keyb", || {
        let mut acc = 0.0f64;
        for k in 0..8u64 {
            let i = ((step.wrapping_mul(31).wrapping_add(k * 7)) % nets as u64) as usize;
            let bump = 0.01 * ((step + k) % 5) as f64;
            kernel.set_wire_delay(fpga_fabric::netlist::NetId(i as u32), model.net_base + bump);
        }
        kernel.flush();
        step = step.wrapping_add(1);
        acc += kernel.critical_ns();
        acc
    });
}

fn bench_simulation(h: &mut Harness) {
    let netlist = keyb_ff_netlist();
    let vectors = stimulus::random(netlist.inputs().len(), 1000, 3);
    h.bench("simulate_1k_cycles/keyb", || {
        let mut sim = Simulator::new(black_box(&netlist)).expect("simulator");
        for v in &vectors {
            sim.clock(v);
        }
        sim.activity().cycles
    });
}

fn bench_verify(h: &mut Harness) {
    let stg = fsm_model::benchmarks::by_name("keyb").expect("keyb");
    let netlist = keyb_ff_netlist();
    // The batched product walk (64 input vectors per word) against the
    // scalar walk on the same netlist: the ratio is the kernel's whole
    // reason to exist, so both are recorded and verify.sh gates on it.
    h.bench("verify_exhaustive/keyb", || {
        verify_exhaustive(black_box(&netlist), &stg, OutputTiming::Combinational, 16)
            .expect("keyb is exhaustively equivalent")
            .edges_checked
    });
    h.bench("verify_exhaustive_scalar/keyb", || {
        verify_exhaustive_scalar(black_box(&netlist), &stg, OutputTiming::Combinational, 16)
            .expect("keyb is exhaustively equivalent")
            .edges_checked
    });
}

fn main() {
    let mut h = Harness::new("substrates");
    bench_espresso(&mut h);
    bench_synthesis(&mut h);
    bench_techmap(&mut h);
    bench_place_route(&mut h);
    bench_place_emb(&mut h);
    bench_timing_kernel(&mut h);
    bench_simulation(&mut h);
    bench_verify(&mut h);
    h.finish();
}
