//! Corpus tier profiles must not pick up the place-tuning environment
//! knobs (`PLACE_TIMING_WEIGHT`, `PLACE_CRIT_EXP`,
//! `PLACE_RETIME_INTERVAL`) that `paper_config` applies: a corpus or
//! daemon run under those variables would otherwise emit different rows.
//!
//! This file holds a single test function on purpose: it sets process
//! environment variables, which must not race another test's reads.

use fpga_fabric::place::PlaceOptions;
use fsm_model::corpus::spec;
use paper_bench::corpus::profile;

#[test]
fn profile_place_options_ignore_the_place_tuning_env() {
    std::env::set_var("PLACE_TIMING_WEIGHT", "0.9");
    std::env::set_var("PLACE_CRIT_EXP", "3.5");
    std::env::set_var("PLACE_RETIME_INTERVAL", "7");
    let s = spec("nominal", 0, 2004).expect("known tier");
    let got = profile("nominal", &s).cfg.place;
    let want = PlaceOptions {
        effort: 2.0,
        ..PlaceOptions::default()
    };
    assert_eq!(format!("{got:?}"), format!("{want:?}"));
}
