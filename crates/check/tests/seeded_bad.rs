//! Acceptance tests: every seeded-bad artifact the issue names must be
//! flagged with its stable code, and both paper platform families must
//! pass the full preflight clean. Uses `bsim-soc` as a dev-dependency so
//! the checks run against the real Table 4/5 catalog, not mocks.

use bsim_soc::configs;
use bsim_soc::preflight::preflight;

#[test]
fn non_power_of_two_cache_is_cl001() {
    let mut cfg = configs::rocket1(1);
    cfg.hierarchy.l1d.sets = 65;
    let report = preflight(&cfg);
    assert!(report.has_code("CL001"), "got:\n{}", report.render());
    assert!(report.has_errors());
}

#[test]
fn drifted_k1_preset_is_pf010() {
    let mut cfg = configs::banana_pi_hw(1);
    cfg.freq_ghz = 2.4; // the K1 clocks at 1.6 GHz (Table 5)
    cfg.hierarchy.core_freq_ghz = 2.4; // keep SC004 quiet: this is drift, not a typo
    let report = preflight(&cfg);
    assert!(report.has_code("PF010"), "got:\n{}", report.render());
    assert!(
        !report.has_errors(),
        "drift is a warning: the §4 tuning loop moves knobs on purpose"
    );
}

#[test]
fn drifted_sg2042_preset_is_pf011() {
    let mut cfg = configs::milkv_hw(1);
    cfg.hierarchy.l1d.ways /= 2; // halves the 64 KiB L1D (Table 5)
    let report = preflight(&cfg);
    assert!(report.has_code("PF011"), "got:\n{}", report.render());
    assert!(!report.has_errors());
}

#[test]
fn every_catalog_platform_passes_clean() {
    for cfg in [
        configs::rocket1(4),
        configs::rocket2(4),
        configs::banana_pi_sim(4),
        configs::fast_banana_pi_sim(4),
        configs::small_boom(4),
        configs::medium_boom(4),
        configs::large_boom(4),
        configs::milkv_sim(4),
        configs::banana_pi_hw(4),
        configs::milkv_hw(4),
    ] {
        let report = preflight(&cfg);
        assert!(
            report.is_clean(),
            "{} must preflight clean:\n{}",
            cfg.name,
            report.render()
        );
    }
}
