//! Lane/scalar identity at smoke size on the application-workload path:
//! the LAMMPS LJ melt recorded once (`lj::record`) and replayed through
//! an unsampled single-lane `replay_world` must report exactly what the
//! scalar timed run (`lj::run`) reports. Both sides stream trace
//! synthesis straight into their sink (the recording arena or the
//! timing core), so this guards the streaming path in both modes, on an
//! in-order core (Banana Pi Sim Model) and an out-of-order one (MILK-V
//! Sim Model).

use silicon_bridge::mpi::NetConfig;
use silicon_bridge::soc::{configs, SocConfig};
use silicon_bridge::sweepx::replay_world;
use silicon_bridge::workloads::md::lj::{self, LjConfig};

fn json<T: serde::Serialize>(v: &T) -> String {
    serde_json::to_string(v).expect("reports serialize")
}

fn assert_lane_matches_scalar(cfg: SocConfig) {
    let ranks = 2;
    let net = NetConfig::shared_memory();
    let wl = LjConfig {
        cells: 3,
        steps: 2,
        ..LjConfig::default()
    };
    let scalar = lj::run(cfg.clone(), ranks, wl, net);
    let (recorded, trace) = lj::record(cfg.clone(), ranks, wl, net);
    assert!(trace.total_uops() > 0, "{}: empty recording", cfg.name);
    assert_eq!(
        (recorded.initial_energy, recorded.final_energy),
        (scalar.initial_energy, scalar.final_energy),
        "{}: recording changed the numerics",
        cfg.name
    );
    let lanes = replay_world(&trace, std::slice::from_ref(&cfg), net, None);
    assert_eq!(lanes.len(), 1);
    assert!(scalar.report.run.retired > 0);
    assert_eq!(
        json(&lanes[0].report),
        json(&scalar.report),
        "{}: lane replay drifted from the scalar run",
        cfg.name
    );
}

#[test]
fn lj_lane_replay_matches_scalar_on_an_in_order_core() {
    assert_lane_matches_scalar(configs::banana_pi_sim(2));
}

#[test]
fn lj_lane_replay_matches_scalar_on_an_ooo_core() {
    assert_lane_matches_scalar(configs::milkv_sim(2));
}
