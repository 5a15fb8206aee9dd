//! The benchmark's workloads: which paper figures each one regenerates,
//! the platform catalog and grid cells behind them, and the library
//! entry points that run them.
//!
//! The cell tables mirror the grids in `bsim_core::experiments` (same
//! platforms, same order, same problem sizes), so a cell's fused run
//! here is the exact call the figure's grid closure makes.

use silicon_bridge::core::experiments::{microbench_cell, Sizes};
use silicon_bridge::core::{run_figure, CellOutcome, FigureData, Parallelism, RetryPolicy};
use silicon_bridge::mpi::{NetConfig, WorldReport, WorldTrace};
use silicon_bridge::soc::{configs, preflight_all, RunReport, SocConfig};
use silicon_bridge::sweepx::{lint_lane_plan, partition, LaneOutcome, SampleCfg};
use silicon_bridge::workloads::md::lj::{self, LjConfig};
use silicon_bridge::workloads::microbench::{self, MicroKernel};
use silicon_bridge::workloads::npb::{cg, ep, is, mg};

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `bsim fig 2`: 39 MicroBench kernels x 5 platforms, scalar path.
    Fig2,
    /// `bsim fig 6`: LJ melt over 4 platforms x 1/2/4 ranks.
    Fig6,
    /// `bsim fig 3` + `bsim fig 4`: NPB CG/EP/IS/MG, five subfigures.
    Fig34,
    /// Record-once, sampled multi-lane replay of a 16-config CG cache
    /// sweep, as `bsim fig --lanes N --sample` and `bsim bench --sweepx`
    /// run it.
    CgSweep,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::Fig2,
        Workload::Fig6,
        Workload::Fig34,
        Workload::CgSweep,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig2 => "fig2-micro-boom",
            Workload::Fig6 => "fig6-lammps-lj",
            Workload::Fig34 => "fig34-npb",
            Workload::CgSweep => "cg-sweep-sampled",
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The `bsim fig` ids this workload regenerates (none for the sweep).
    pub fn figure_ids(self) -> &'static [&'static str] {
        match self {
            Workload::Fig2 => &["2"],
            Workload::Fig6 => &["6"],
            Workload::Fig34 => &["3", "4"],
            Workload::CgSweep => &[],
        }
    }
}

/// What one grid cell simulates.
#[derive(Clone, Copy, Debug)]
pub enum Job {
    /// A MicroBench kernel (index into [`microbench::evaluated`]).
    Micro(usize),
    /// One NPB kernel: 0 = CG, 1 = EP, 2 = IS, 3 = MG.
    Npb(usize),
    /// The LJ melt.
    Lj,
}

/// One decomposition cell: one workload on one platform config.
#[derive(Clone, Debug)]
pub struct Cell {
    /// Stable label (`fig2/Cca/Small BOOM`, ...).
    pub label: String,
    /// Platform config.
    pub cfg: SocConfig,
    /// MPI ranks (1 for MicroBench).
    pub ranks: usize,
    /// The simulated program.
    pub job: Job,
}

/// NPB kernel names in [`Job::Npb`] order.
const NPB_NAMES: [&str; 4] = ["CG", "EP", "IS", "MG"];

/// The network every figure runs on.
pub fn net() -> NetConfig {
    NetConfig::shared_memory()
}

/// The five fig3/fig4 subfigures: key, ranks, platforms (silicon
/// reference first), as `bsim_core::experiments::figure_plan` builds
/// them.
fn npb_subfigures() -> Vec<(&'static str, usize, Vec<SocConfig>)> {
    let rocket = |r: usize| {
        vec![
            configs::banana_pi_hw(r),
            configs::rocket1(r),
            configs::rocket2(r),
            configs::banana_pi_sim(r),
            configs::fast_banana_pi_sim(r),
        ]
    };
    let tuned = |r: usize| {
        vec![
            configs::milkv_hw(r),
            configs::large_boom(r),
            configs::milkv_sim(r),
        ]
    };
    vec![
        ("fig3a", 1, rocket(1)),
        ("fig3b", 4, rocket(4)),
        (
            "fig4a",
            1,
            vec![
                configs::milkv_hw(1),
                configs::small_boom(1),
                configs::medium_boom(1),
                configs::large_boom(1),
            ],
        ),
        ("fig4b1", 1, tuned(1)),
        ("fig4b4", 4, tuned(4)),
    ]
}

/// The fig2 platforms, silicon reference first.
fn fig2_platforms() -> Vec<SocConfig> {
    vec![
        configs::milkv_hw(1),
        configs::small_boom(1),
        configs::medium_boom(1),
        configs::large_boom(1),
        configs::milkv_sim(1),
    ]
}

/// The fig6 platforms (platform-major over 1/2/4 ranks).
const FIG6_PLATFORMS: [fn(usize) -> SocConfig; 4] = [
    configs::banana_pi_hw,
    configs::banana_pi_sim,
    configs::milkv_hw,
    configs::milkv_sim,
];
const FIG6_RANKS: [usize; 3] = [1, 2, 4];

/// The decomposition cells of an exact workload, in grid order. Empty
/// for the sweep, which runs as one lane group.
pub fn cells(w: Workload) -> Vec<Cell> {
    let mut out = Vec::new();
    match w {
        Workload::Fig2 => {
            let kernels = microbench::evaluated();
            let platforms = fig2_platforms();
            for (ki, k) in kernels.iter().enumerate() {
                for cfg in &platforms {
                    out.push(Cell {
                        label: format!("fig2/{}/{}", k.name, cfg.name),
                        cfg: cfg.clone(),
                        ranks: 1,
                        job: Job::Micro(ki),
                    });
                }
            }
        }
        Workload::Fig34 => {
            for (key, ranks, platforms) in npb_subfigures() {
                for cfg in platforms {
                    for (b, name) in NPB_NAMES.iter().enumerate() {
                        out.push(Cell {
                            label: format!("{key}/{}/{name}", cfg.name),
                            cfg: cfg.clone(),
                            ranks,
                            job: Job::Npb(b),
                        });
                    }
                }
            }
        }
        Workload::Fig6 => {
            for make in FIG6_PLATFORMS {
                for r in FIG6_RANKS {
                    let cfg = make(r);
                    out.push(Cell {
                        label: format!("fig6/{}/{r} ranks", cfg.name),
                        cfg,
                        ranks: r,
                        job: Job::Lj,
                    });
                }
            }
        }
        Workload::CgSweep => {}
    }
    out
}

/// Grid cells the figure runners schedule per subfigure key — the unit
/// `cells_ok_frac` counts (an NPB grid cell runs all four kernels).
pub fn grid_cells(key: &str) -> usize {
    match key {
        "fig2" => microbench::evaluated().len() * fig2_platforms().len(),
        "fig6" => FIG6_PLATFORMS.len() * FIG6_RANKS.len(),
        _ => npb_subfigures()
            .into_iter()
            .find(|(k, _, _)| *k == key)
            .map_or(1, |(_, _, p)| p.len()),
    }
}

/// The subfigure keys an exact workload produces, in plan order.
pub fn subfigure_keys(w: Workload) -> Vec<&'static str> {
    match w {
        Workload::Fig2 => vec!["fig2"],
        Workload::Fig6 => vec!["fig6"],
        Workload::Fig34 => npb_subfigures().into_iter().map(|(k, _, _)| k).collect(),
        Workload::CgSweep => Vec::new(),
    }
}

pub fn sizes() -> Sizes {
    Sizes::default()
}

pub fn cg_cfg(s: Sizes) -> cg::CgConfig {
    cg::CgConfig {
        n: s.cg_n,
        nnz_per_row: 11,
        iters: s.cg_iters,
    }
}

pub fn ep_cfg(s: Sizes, ranks: usize) -> ep::EpConfig {
    ep::EpConfig {
        pairs_per_rank: s.ep_pairs / ranks as u64,
    }
}

pub fn is_cfg(s: Sizes, ranks: usize) -> is::IsConfig {
    is::IsConfig {
        keys_per_rank: s.is_keys / ranks,
        max_key: (s.is_keys as u32 / 2).max(1024),
        iterations: 1,
    }
}

pub fn mg_cfg(s: Sizes) -> mg::MgConfig {
    mg::MgConfig {
        n: s.mg_n,
        levels: 3,
        cycles: s.mg_cycles,
    }
}

pub fn lj_cfg(s: Sizes) -> LjConfig {
    LjConfig {
        cells: s.lj_cells,
        steps: s.md_steps,
        ..LjConfig::default()
    }
}

/// Runs a cell the way the figure's grid closure does: functional
/// execution fused with timing, no trace materialised.
pub fn run_fused(cell: &Cell, kernels: &[MicroKernel]) -> RunReport {
    let s = sizes();
    let (cfg, r) = (cell.cfg.clone(), cell.ranks);
    let world: WorldReport = match cell.job {
        Job::Micro(k) => {
            return microbench_cell(cfg, kernels[k].name, s.micro_scale)
                .expect("evaluated kernels are in the suite")
        }
        Job::Npb(0) => cg::run(cfg, r, cg_cfg(s), net()).report,
        Job::Npb(1) => ep::run(cfg, r, ep_cfg(s, r), net()).report,
        Job::Npb(2) => {
            let res = is::run(cfg, r, is_cfg(s, r), net());
            assert!(res.sorted, "IS must verify on {}", cell.label);
            res.report
        }
        Job::Npb(_) => mg::run(cfg, r, mg_cfg(s), net()).report,
        Job::Lj => lj::run(cfg, r, lj_cfg(s), net()).report,
    };
    world.run
}

/// Records an MPI cell once with timing bypassed (the workload math
/// and trace synthesis the lane kernel shares across configs).
pub fn record_world(cell: &Cell) -> WorldTrace {
    let s = sizes();
    let (cfg, r) = (cell.cfg.clone(), cell.ranks);
    match cell.job {
        Job::Npb(0) => cg::record(cfg, r, cg_cfg(s), net()).1,
        Job::Npb(1) => ep::record(cfg, r, ep_cfg(s, r), net()).1,
        Job::Npb(2) => {
            let (res, trace) = is::record(cfg, r, is_cfg(s, r), net());
            assert!(res.sorted, "IS must verify on {}", cell.label);
            trace
        }
        Job::Npb(_) => mg::record(cfg, r, mg_cfg(s), net()).1,
        Job::Lj => lj::record(cfg, r, lj_cfg(s), net()).1,
        Job::Micro(_) => unreachable!("MicroBench cells record through the ISA"),
    }
}

/// Runs an exact workload through `bsim fig`'s library entry point with
/// its default flags: default sizes, sequential sweep, one attempt, no
/// checkpoint store.
pub fn run_figures(w: Workload) -> Vec<(String, CellOutcome<FigureData>)> {
    w.figure_ids()
        .iter()
        .flat_map(|id| {
            run_figure(
                id,
                sizes(),
                Parallelism::Sequential,
                &RetryPolicy::once(),
                None,
            )
            .expect("a run without a checkpoint store has no store errors")
        })
        .collect()
}

/// Panics with the rendered diagnostics when any config fails the
/// platform preflight, as the figure runners do before fan-out.
pub fn preflight(cfgs: &[SocConfig]) {
    let report = preflight_all(cfgs.iter());
    assert!(
        !report.has_errors(),
        "preflight failed:\n{}",
        report.render()
    );
}

/// Catalog build and grid preflight of an exact workload: every
/// platform config its cells use passes the platform preflight and the
/// default sizes pass their lint. Returns the config count.
pub fn preflight_grid(w: Workload) -> usize {
    let mut cfgs: Vec<SocConfig> = Vec::new();
    for c in cells(w) {
        if !cfgs
            .iter()
            .any(|x| x.name == c.cfg.name && x.cores == c.cfg.cores)
        {
            cfgs.push(c.cfg);
        }
    }
    preflight(&cfgs);
    let lint = sizes().lint("perfbench.sizes");
    assert!(!lint.has_errors(), "sizes failed lint:\n{}", lint.render());
    cfgs.len()
}

/// Set-up work of an exact workload, everything before the first
/// simulated cycle: [`preflight_grid`] and, for MicroBench, program
/// assembly. Returns a count so the work cannot be elided.
pub fn setup_exact(w: Workload) -> usize {
    let mut work = preflight_grid(w);
    if w == Workload::Fig2 {
        let scale = sizes().micro_scale;
        for k in microbench::evaluated() {
            work += std::hint::black_box(k.build(scale)).code.len();
        }
    }
    work
}

// ---------------------------------------------------------------------
// The sampled cache sweep.

/// MPI ranks per sweep config (as `bsim bench --sweepx`).
pub const SWEEP_RANKS: usize = 2;
/// Configs per sweep.
pub const SWEEP_CONFIGS: usize = 16;

/// The sweep's CG problem, as `bsim bench --sweepx` sizes it so the
/// sampler's per-stratum warm-up amortizes.
pub fn sweep_cg() -> cg::CgConfig {
    cg::CgConfig {
        n: 1024,
        nnz_per_row: 11,
        iters: 240,
    }
}

/// Prefetch degrees of the geometry pool; each `(L1, L2)` combination
/// comes with all four.
const POOL_PREFETCH: [u32; 4] = [0, 1, 2, 4];

/// The `(L1 sets, L2 sets)` combinations of the geometry pool: every L1
/// size with an L2 size outside `cache_tuning_grid` (512, 4096 sets),
/// and the tuning grid's L2 sizes with an L1 size outside it (32, 1024
/// sets). No pool geometry is one of the 16 on which the sweep's
/// sampling budget was calibrated.
fn pool_combos() -> Vec<(u32, u32)> {
    let mut combos = Vec::new();
    for l1 in [32u32, 64, 128, 256, 512, 1024] {
        combos.extend([(l1, 512u32), (l1, 4096)]);
    }
    for l1 in [32u32, 1024] {
        combos.extend([(l1, 1024u32), (l1, 2048)]);
    }
    combos
}

/// The pool of held-out Large BOOM cache geometries a sweep is drawn
/// from: [`pool_combos`] x [`POOL_PREFETCH`], combination-major.
pub fn geometry_pool() -> Vec<SocConfig> {
    let mut pool = Vec::new();
    for (l1, l2) in pool_combos() {
        for pf in POOL_PREFETCH {
            let mut cfg = configs::large_boom(SWEEP_RANKS);
            cfg.hierarchy.l1d.sets = l1;
            cfg.hierarchy.l1i.sets = l1;
            cfg.hierarchy.l2.sets = l2;
            cfg.hierarchy.prefetch_degree = pf;
            cfg.name = format!("Large BOOM L1s{l1} L2s{l2} pf{pf}");
            pool.push(cfg);
        }
    }
    pool
}

/// splitmix64: the seed expander for pool draws and sampler seeds.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seed of a run's `i`-th child. Each end-to-end child of a sweep
/// run draws its own sweep, so the run's median spans several draws
/// instead of resting on one draw's sampling cost; the exact workloads
/// ignore it.
pub fn draw_seed(seed: u64, i: usize) -> u64 {
    let mut state = seed ^ (i as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93);
    splitmix(&mut state)
}

/// One seeded sweep: which pool geometries it runs and the sampling
/// budget it runs them with.
pub struct Sweep {
    /// Indices into [`geometry_pool`], ascending.
    pub picks: Vec<usize>,
    /// The picked configs, in `picks` order.
    pub cfgs: Vec<SocConfig>,
    /// Sampling budget (the `bsim bench --sweepx` budget, seeded).
    pub sample: SampleCfg,
}

impl Sweep {
    /// Draws the sweep for `seed` and preflights it: platform lints,
    /// lane-plan lints (CL080/CL081) and sampling-budget lints
    /// (CL085-CL087). This is the sweep's whole set-up.
    pub fn new(seed: u64) -> Sweep {
        let pool = geometry_pool();
        let mut state = seed;
        // One geometry per (L1, L2) combination, the seed picking its
        // prefetch degree: every draw has the same cache-size mix, so
        // its sampling cost (which the hardest lane sets) barely moves.
        let picks: Vec<usize> = (0..pool_combos().len())
            .map(|c| {
                c * POOL_PREFETCH.len()
                    + (splitmix(&mut state) % POOL_PREFETCH.len() as u64) as usize
            })
            .collect();
        assert_eq!(picks.len(), SWEEP_CONFIGS, "one config per combination");
        let cfgs: Vec<SocConfig> = picks.iter().map(|&i| pool[i].clone()).collect();
        let sample = SampleCfg {
            extra_rate: 0.02,
            max_clusters: 64,
            seed: splitmix(&mut state),
            ..SampleCfg::default()
        };
        preflight(&cfgs);
        let plan = lint_lane_plan(&cfgs, SWEEP_RANKS, SWEEP_CONFIGS, "perfbench.sweep");
        assert!(!plan.has_errors(), "lane plan failed:\n{}", plan.render());
        let budget = sample.lint("perfbench.sample");
        assert!(
            !budget.has_errors(),
            "sampling budget failed:\n{}",
            budget.render()
        );
        let groups = partition(&cfgs, SWEEP_RANKS, SWEEP_CONFIGS);
        assert_eq!(groups.len(), 1, "the cache sweep lanes onto one recording");
        Sweep {
            picks,
            cfgs,
            sample,
        }
    }
}

/// Records the sweep's CG once (timing bypassed).
pub fn record_sweep(sw: &Sweep) -> WorldTrace {
    cg::record(sw.cfgs[0].clone(), SWEEP_RANKS, sweep_cg(), net()).1
}

/// Sampled multi-lane replay of every sweep config over one recording.
pub fn replay_sweep(sw: &Sweep, trace: &WorldTrace) -> Vec<LaneOutcome> {
    silicon_bridge::sweepx::replay_world(trace, &sw.cfgs, net(), Some(&sw.sample))
}

/// Sampled-vs-exact accuracy of one sweep: per-lane relative cycle
/// error, and whether it lies inside the lane's reported 95% bound
/// (1.96 reported standard errors).
pub fn sample_accuracy(lanes: &[LaneOutcome], exact_cycles: &[u64]) -> Vec<(f64, bool)> {
    lanes
        .iter()
        .zip(exact_cycles)
        .map(|(o, &exact)| {
            let err = (o.report.run.cycles as f64 - exact as f64).abs() / exact.max(1) as f64;
            let bound = o
                .sample
                .as_ref()
                .and_then(|s| s.rel_stderr("cycles"))
                .unwrap_or(0.0)
                * 1.96;
            (err, err <= bound)
        })
        .collect()
}
