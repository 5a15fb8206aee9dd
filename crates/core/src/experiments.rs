//! One generator per paper table/figure.
//!
//! Every generator returns [`FigureData`]: labeled points per series,
//! directly renderable with [`crate::table::render`] and serializable to
//! JSON. The bench harnesses in `bsim-bench` call these and print the
//! same rows/series the paper plots; EXPERIMENTS.md records the
//! paper-vs-measured comparison.

use crate::metrics::relative_speedup;
use crate::rate::{SimRate, SimRateMeter};
use bsim_mpi::NetConfig;
use bsim_resilience::snapshot::{restore_field, CkptError, Snapshot};
use bsim_soc::{configs, RunReport, Soc, SocConfig};
use bsim_telemetry::{CounterBlock, TelemetryConfig, TelemetrySnapshot};
use bsim_workloads::md::chain::{self, ChainConfig};
use bsim_workloads::md::lj::{self, LjConfig};
use bsim_workloads::microbench;
use bsim_workloads::npb::{cg, ep, is, mg};
use bsim_workloads::ume::{self, UmeConfig};
use serde::{Deserialize, Serialize, Value};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// One plotted series.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Series {
    /// Legend name (matches the paper's legends).
    pub name: String,
    /// `(x-label, value)` points.
    pub points: Vec<(String, f64)>,
}

/// One figure or table worth of data.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FigureData {
    /// Title (e.g. "Figure 1: MicroBench on Rocket models vs Banana Pi").
    pub title: String,
    /// Optional scaling/setup note.
    pub note: Option<String>,
    /// The series.
    pub series: Vec<Series>,
}

impl Snapshot for Series {
    fn save(&self) -> Value {
        Value::Map(vec![
            ("name".into(), self.name.save()),
            ("points".into(), self.points.save()),
        ])
    }
    fn restore(value: &Value) -> Result<Series, CkptError> {
        Ok(Series {
            name: restore_field(value, "name")?,
            points: restore_field(value, "points")?,
        })
    }
}

/// Figures checkpoint whole: a resumed `bsim fig` run replays completed
/// subfigures from the store byte-for-byte instead of re-simulating
/// their grids (see [`crate::resilient::run_figure`]).
impl Snapshot for FigureData {
    fn save(&self) -> Value {
        Value::Map(vec![
            ("title".into(), self.title.save()),
            ("note".into(), self.note.save()),
            ("series".into(), self.series.save()),
        ])
    }
    fn restore(value: &Value) -> Result<FigureData, CkptError> {
        Ok(FigureData {
            title: restore_field(value, "title")?,
            note: restore_field(value, "note")?,
            series: restore_field(value, "series")?,
        })
    }
}

/// Workload sizes for the figure generators (reduced, class-A-shaped;
/// see DESIGN.md §5).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct Sizes {
    /// MicroBench iteration scale.
    pub micro_scale: u32,
    /// CG matrix dimension.
    pub cg_n: usize,
    /// CG iterations.
    pub cg_iters: usize,
    /// EP total pairs (split over ranks).
    pub ep_pairs: u64,
    /// IS total keys (split over ranks).
    pub is_keys: usize,
    /// MG grid edge.
    pub mg_n: usize,
    /// MG V-cycles.
    pub mg_cycles: usize,
    /// UME zones per edge (paper: 32).
    pub ume_n: usize,
    /// LJ FCC cells per edge (paper: 20 → 32k atoms).
    pub lj_cells: usize,
    /// MD timesteps (paper: 100).
    pub md_steps: usize,
    /// Chain beads per edge.
    pub chain_cells: usize,
}

impl Default for Sizes {
    fn default() -> Sizes {
        Sizes {
            micro_scale: 1,
            cg_n: 1024,
            cg_iters: 10,
            ep_pairs: 1 << 16,
            is_keys: 1 << 15,
            mg_n: 32,
            mg_cycles: 1,
            ume_n: 10,
            lj_cells: 5,
            md_steps: 6,
            chain_cells: 10,
        }
    }
}

impl Sizes {
    /// Static lint over the workload sizes (`WL0xx` codes).
    ///
    /// `WL001` fires per zero-valued field: a zero size degenerates the
    /// workload (no iterations, no keys, empty mesh) so the figure runs
    /// instantly and reports meaningless speedups. Warnings, not errors —
    /// a deliberately empty axis can be a valid smoke probe.
    pub fn lint(&self, span: &str) -> bsim_check::Report {
        let mut report = bsim_check::Report::new();
        let fields: [(&str, u64); 11] = [
            ("micro_scale", self.micro_scale as u64),
            ("cg_n", self.cg_n as u64),
            ("cg_iters", self.cg_iters as u64),
            ("ep_pairs", self.ep_pairs),
            ("is_keys", self.is_keys as u64),
            ("mg_n", self.mg_n as u64),
            ("mg_cycles", self.mg_cycles as u64),
            ("ume_n", self.ume_n as u64),
            ("lj_cells", self.lj_cells as u64),
            ("md_steps", self.md_steps as u64),
            ("chain_cells", self.chain_cells as u64),
        ];
        for (name, v) in fields {
            if v == 0 {
                report.push(
                    bsim_check::Diagnostic::warning(
                        "WL001",
                        format!("{span}.{name}"),
                        format!("workload size {name} is 0: the benchmark degenerates to a no-op"),
                    )
                    .with_help("use Sizes::default() or Sizes::smoke() as a baseline"),
                );
            }
        }
        report
    }

    /// Parses a named preset (`default` or `smoke`), as service requests
    /// and env knobs spell them. Unknown names are `None`, not a panic —
    /// the caller turns them into an SV001-style diagnostic.
    pub fn parse(name: &str) -> Option<Sizes> {
        match name {
            "default" => Some(Sizes::default()),
            "smoke" => Some(Sizes::smoke()),
            _ => None,
        }
    }

    /// Even smaller sizes for CI-grade smoke runs.
    pub fn smoke() -> Sizes {
        Sizes {
            micro_scale: 1,
            cg_n: 256,
            cg_iters: 4,
            ep_pairs: 1 << 13,
            is_keys: 1 << 12,
            mg_n: 16,
            mg_cycles: 1,
            ume_n: 6,
            lj_cells: 3,
            md_steps: 3,
            chain_cells: 6,
        }
    }
}

/// How many host workers an experiment grid may use. The grid cells of
/// every paper table/figure (platform × workload × rank-count) are
/// independent simulations, so they fan out across a scoped thread pool;
/// results are always assembled in grid order (never completion order),
/// which keeps every figure bit-identical to a sequential run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Parallelism {
    /// One grid cell at a time (the pre-sweep-runner behavior).
    Sequential,
    /// One worker per available host core, capped at the cell count.
    Auto,
    /// Exactly this many workers (clamped to ≥ 1, capped at the cells).
    Workers(usize),
}

impl Parallelism {
    /// The worker count this knob resolves to for a `jobs`-cell grid.
    pub fn workers(self, jobs: usize) -> usize {
        let raw = match self {
            Parallelism::Sequential => 1,
            Parallelism::Auto => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            Parallelism::Workers(n) => n.max(1),
        };
        raw.min(jobs.max(1))
    }

    /// Parses a CLI/env flag: `seq`, `auto`, or a worker count.
    pub fn parse(s: &str) -> Option<Parallelism> {
        match s {
            "seq" | "sequential" => Some(Parallelism::Sequential),
            "auto" => Some(Parallelism::Auto),
            _ => s.parse::<usize>().ok().map(|n| {
                if n <= 1 {
                    Parallelism::Sequential
                } else {
                    Parallelism::Workers(n)
                }
            }),
        }
    }
}

/// The grid engine shared by every sweep entry point: runs `cell(i)`
/// for `i in 0..jobs` across a scoped worker pool (workers claim cells
/// from a shared counter, so an expensive cell never serializes the
/// cheap ones behind it) and returns the results **ordered by grid
/// index**. `cell` must not panic — the public wrappers catch per cell
/// before reaching this layer, which is what keeps a poisoned cell from
/// killing its worker thread and losing the cells that worker would
/// have claimed next.
pub(crate) fn drain_grid<R, F>(jobs: usize, par: Parallelism, cell: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let workers = par.workers(jobs);
    if workers <= 1 {
        return (0..jobs).map(cell).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = (0..jobs).map(|_| Mutex::new(None)).collect();
    crossbeam::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|_| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= jobs {
                    break;
                }
                let r = cell(i);
                *slots[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(r);
            });
        }
    })
    .expect("grid cells are caught per-cell; workers cannot panic");
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .expect("every grid cell ran")
        })
        .collect()
}

/// Runs `jobs` independent grid cells across a scoped worker pool and
/// returns the results **ordered by grid index**.
///
/// Every cell runs even when one panics: each cell is caught
/// individually, so a poisoned cell no longer kills its worker thread
/// (which previously could strand the rest of the grid when every
/// worker hit a poisoned cell) and no longer aborts a sequential sweep
/// at the first failure. The first panic payload — the *original*
/// payload, message intact — is re-raised only after the whole grid has
/// drained. Callers that want the completed cells *back* instead of a
/// panic use [`crate::resilient::run_grid_resilient`], which degrades
/// poisoned cells to [`bsim_resilience::CellOutcome::Failed`].
pub fn run_grid<T, F>(jobs: usize, par: Parallelism, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let cells = drain_grid(jobs, par, |i| {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(i)))
    });
    let mut out = Vec::with_capacity(cells.len());
    let mut first_panic: Option<Box<dyn std::any::Any + Send>> = None;
    for cell in cells {
        match cell {
            Ok(t) => out.push(t),
            Err(payload) => {
                first_panic.get_or_insert(payload);
            }
        }
    }
    if let Some(payload) = first_panic {
        std::panic::resume_unwind(payload);
    }
    out
}

/// Gate a sweep on the `bsim-check` platform preflight *before* any
/// cell fans out: a bad config inside the grid would otherwise panic in
/// a worker thread mid-sweep, after burning the cheap cells. Panics with
/// every platform's rendered diagnostics at once.
fn preflight_platforms(cfgs: &[SocConfig]) {
    let report = bsim_soc::preflight_all(cfgs.iter());
    if report.has_errors() {
        panic!(
            "platform preflight failed before sweep fan-out:\n{}",
            report.render()
        );
    }
}

/// Outcome of a metered sweep: per-cell results in grid order plus the
/// aggregate simulation rate across all workers — the `host.rate.*`
/// figure the paper's 60 MHz/15 MHz hosting-rate discussion maps to.
#[derive(Clone, Debug)]
pub struct SweepRun<T> {
    /// Per-cell results, ordered by grid index.
    pub results: Vec<T>,
    /// Aggregate target cycles vs host wall-clock across the whole grid.
    pub rate: SimRate,
    /// Worker threads the sweep actually used.
    pub workers: usize,
    /// Maximum configs ticked through one shared trace pass (0 when the
    /// sweep ran scalar cells; set by the `bsim-sweepx` lane runners).
    pub lanes: u64,
    /// Trace segments fast-forwarded by sampled simulation across the
    /// whole grid (0 when every cell ran in full detail).
    pub sampled_segments: u64,
}

impl<T> SweepRun<T> {
    /// Publishes the aggregate rate under `host.rate.*` and the pool
    /// shape under `host.sweep.*`.
    pub fn publish(&self, block: &mut CounterBlock) {
        self.rate.publish(block);
        block.set_named("host.sweep.workers", self.workers as u64);
        block.set_named("host.sweep.cells", self.results.len() as u64);
        block.set_named("host.sweep.lanes", self.lanes);
        block.set_named("host.sweep.sampled_segments", self.sampled_segments);
    }

    /// One-line host-sweep summary for figure notes.
    pub fn describe(&self) -> String {
        format!(
            "host sweep: {} cells on {} worker(s), {:.2} target-MHz aggregate",
            self.results.len(),
            self.workers,
            self.rate.mhz()
        )
    }
}

/// [`run_grid`] for cells that also report their simulated target
/// cycles; aggregates a [`SimRateMeter`] across the workers.
pub fn run_grid_metered<T, F>(jobs: usize, par: Parallelism, f: F) -> SweepRun<T>
where
    T: Send,
    F: Fn(usize) -> (T, u64) + Sync,
{
    let workers = par.workers(jobs);
    let mut meter = SimRateMeter::start();
    let cells = run_grid(jobs, par, f);
    let mut results = Vec::with_capacity(cells.len());
    let mut cycles = 0u64;
    for (t, c) in cells {
        results.push(t);
        cycles += c;
    }
    meter.add_cycles(cycles);
    SweepRun {
        results,
        rate: meter.finish(),
        workers,
        lanes: 0,
        sampled_segments: 0,
    }
}

/// [`run_grid_metered`] for sweeps whose natural scheduling unit is a
/// *chunk* of grid cells rather than a single cell — the lane runner's
/// unit is a [`bsim_sweepx`-style] lane group, which must stay together
/// on one worker because its cells share a recorded trace and one SoA
/// timing pass. `f(g, cells)` runs chunk `g` and returns one
/// `(result, cycles)` per cell of `chunks[g]`, in chunk order; results
/// come back **ordered by grid index**, so figures remain bit-identical
/// however the cells were chunked.
pub fn run_grid_chunks_metered<T, F>(chunks: &[Vec<usize>], par: Parallelism, f: F) -> SweepRun<T>
where
    T: Send,
    F: Fn(usize, &[usize]) -> Vec<(T, u64)> + Sync,
{
    let workers = par.workers(chunks.len());
    let mut meter = SimRateMeter::start();
    let per_chunk = run_grid(chunks.len(), par, |g| f(g, &chunks[g]));
    let total: usize = chunks.iter().map(Vec::len).sum();
    let mut slots: Vec<Option<T>> = (0..total).map(|_| None).collect();
    let mut cycles = 0u64;
    for (g, outs) in per_chunk.into_iter().enumerate() {
        assert_eq!(
            outs.len(),
            chunks[g].len(),
            "chunk {g} must yield one result per cell"
        );
        for (&cell, (t, c)) in chunks[g].iter().zip(outs) {
            cycles += c;
            assert!(
                slots[cell].replace(t).is_none(),
                "cell {cell} appears in more than one chunk"
            );
        }
    }
    meter.add_cycles(cycles);
    let results = slots
        .into_iter()
        .enumerate()
        .map(|(i, s)| s.unwrap_or_else(|| panic!("cell {i} missing from every chunk")))
        .collect();
    SweepRun {
        results,
        rate: meter.finish(),
        workers,
        lanes: 0,
        sampled_segments: 0,
    }
}

/// Runs one MicroBench kernel on one platform and returns the full
/// [`RunReport`] — the unit cell the service scheduler decomposes sweep
/// requests into (one cell per platform × kernel × seed tuple, keyed by
/// its canonical content hash). Returns `None` for an unknown kernel
/// name; service callers preflight names first and reject with SV001.
pub fn microbench_cell(cfg: SocConfig, kernel: &str, scale: u32) -> Option<RunReport> {
    let k = microbench::suite().into_iter().find(|k| k.name == kernel)?;
    let prog = k.build(scale);
    Some(Soc::new(cfg).run_program(0, &prog, u64::MAX))
}

fn microbench_figure(
    title: &str,
    sim_models: Vec<SocConfig>,
    hw: SocConfig,
    scale: u32,
    par: Parallelism,
) -> FigureData {
    let kernels = microbench::evaluated();
    // Grid: kernel-major over [hw, sim_models...]; one cell = one
    // (kernel, platform) simulation.
    let mut platforms = vec![hw.clone()];
    platforms.extend(sim_models.iter().cloned());
    preflight_platforms(&platforms);
    let np = platforms.len();
    let sweep = run_grid_metered(kernels.len() * np, par, |i| {
        let prog = kernels[i / np].build(scale);
        let mut soc = Soc::new(platforms[i % np].clone());
        let rep = soc.run_program(0, &prog, u64::MAX);
        assert_eq!(rep.exit_code, Some(0), "microbenchmark must exit cleanly");
        (rep.seconds, rep.cycles)
    });
    let mut series: Vec<Series> = sim_models
        .iter()
        .map(|m| Series {
            name: m.name.clone(),
            points: Vec::new(),
        })
        .collect();
    for (ki, k) in kernels.iter().enumerate() {
        let t_hw = sweep.results[ki * np];
        for (si, s) in series.iter_mut().enumerate() {
            let t_sim = sweep.results[ki * np + 1 + si];
            s.points
                .push((k.name.to_string(), relative_speedup(t_hw, t_sim)));
        }
    }
    FigureData {
        title: title.to_string(),
        note: Some(format!(
            "39 kernels (CRm excluded, as in the paper); relative speedup vs {} (1.0 = match); scale {scale}; {}",
            hw.name,
            sweep.describe()
        )),
        series,
    }
}

/// **Figure 1**: MicroBench relative performance of the Banana Pi Sim
/// Model and Fast Banana Pi Sim Model, normalized by Banana Pi hardware.
pub fn fig1_microbench_rocket(scale: u32) -> FigureData {
    fig1_microbench_rocket_par(scale, Parallelism::Sequential)
}

/// [`fig1_microbench_rocket`] with an explicit sweep-parallelism knob.
pub fn fig1_microbench_rocket_par(scale: u32, par: Parallelism) -> FigureData {
    microbench_figure(
        "Figure 1: MicroBench — Rocket models vs Banana Pi hardware",
        vec![configs::banana_pi_sim(1), configs::fast_banana_pi_sim(1)],
        configs::banana_pi_hw(1),
        scale,
        par,
    )
}

/// **Figure 2**: MicroBench relative performance of Small/Medium/Large
/// BOOM and the tuned MILK-V Sim Model, normalized by MILK-V hardware.
pub fn fig2_microbench_boom(scale: u32) -> FigureData {
    fig2_microbench_boom_par(scale, Parallelism::Sequential)
}

/// [`fig2_microbench_boom`] with an explicit sweep-parallelism knob.
pub fn fig2_microbench_boom_par(scale: u32, par: Parallelism) -> FigureData {
    microbench_figure(
        "Figure 2: MicroBench — BOOM models vs MILK-V hardware",
        vec![
            configs::small_boom(1),
            configs::medium_boom(1),
            configs::large_boom(1),
            configs::milkv_sim(1),
        ],
        configs::milkv_hw(1),
        scale,
        par,
    )
}

/// Runs the four NPB kernels on one platform, returning seconds per
/// benchmark in `[CG, EP, IS, MG]` order.
pub fn npb_seconds(cfg: SocConfig, ranks: usize, sizes: Sizes) -> [f64; 4] {
    npb_run(cfg, ranks, sizes).0
}

/// [`npb_seconds`] plus the total simulated cycles across the four
/// kernels, for sweep-rate aggregation.
fn npb_run(cfg: SocConfig, ranks: usize, sizes: Sizes) -> ([f64; 4], u64) {
    let net = NetConfig::shared_memory();
    let freq = cfg.freq_ghz;
    let sec = |cycles: u64| cycles as f64 / (freq * 1e9);
    let cg_r = cg::run(
        cfg.clone(),
        ranks,
        cg::CgConfig {
            n: sizes.cg_n,
            nnz_per_row: 11,
            iters: sizes.cg_iters,
        },
        net,
    );
    let ep_r = ep::run(
        cfg.clone(),
        ranks,
        ep::EpConfig {
            pairs_per_rank: sizes.ep_pairs / ranks as u64,
        },
        net,
    );
    let is_r = is::run(
        cfg.clone(),
        ranks,
        is::IsConfig {
            keys_per_rank: sizes.is_keys / ranks,
            max_key: (sizes.is_keys as u32 / 2).max(1024),
            iterations: 1,
        },
        net,
    );
    assert!(is_r.sorted, "IS must verify on {}", cfg.name);
    let mg_r = mg::run(
        cfg.clone(),
        ranks,
        mg::MgConfig {
            n: sizes.mg_n,
            levels: 3,
            cycles: sizes.mg_cycles,
        },
        net,
    );
    let cycles = [
        cg_r.report.run.cycles,
        ep_r.report.run.cycles,
        is_r.report.run.cycles,
        mg_r.report.run.cycles,
    ];
    (
        [
            sec(cycles[0]),
            sec(cycles[1]),
            sec(cycles[2]),
            sec(cycles[3]),
        ],
        cycles.iter().sum(),
    )
}

/// **E8 (Figure 4), instrumented**: runs NPB CG on `cfg` with telemetry
/// enabled and returns the full out-of-band export — branch, cache, DRAM,
/// token-stall and per-rank MPI counters plus the sampled timeline. This
/// is the observability path behind `examples/telemetry_gap.rs`.
pub fn cg_telemetry(cfg: SocConfig, ranks: usize, sizes: Sizes) -> TelemetrySnapshot {
    let cfg = cfg.with_telemetry(TelemetryConfig::counters());
    let r = cg::run(
        cfg,
        ranks,
        cg::CgConfig {
            n: sizes.cg_n,
            nnz_per_row: 11,
            iters: sizes.cg_iters,
        },
        NetConfig::shared_memory(),
    );
    r.report
        .run
        .telemetry
        .expect("telemetry enabled on the SoC config")
}

const NPB_NAMES: [&str; 4] = ["CG", "EP", "IS", "MG"];

fn npb_figure(
    title: &str,
    sim_models: Vec<SocConfig>,
    hw: SocConfig,
    ranks: usize,
    sizes: Sizes,
    par: Parallelism,
) -> FigureData {
    // Grid: one cell per platform, hardware reference first.
    let mut platforms = vec![hw.clone()];
    platforms.extend(sim_models.iter().cloned());
    preflight_platforms(&platforms);
    let sweep = run_grid_metered(platforms.len(), par, |i| {
        npb_run(platforms[i].clone(), ranks, sizes)
    });
    let hw_secs = sweep.results[0];
    let series = sim_models
        .iter()
        .enumerate()
        .map(|(si, m)| Series {
            name: m.name.clone(),
            points: NPB_NAMES
                .iter()
                .zip(sweep.results[si + 1].iter().zip(hw_secs.iter()))
                .map(|(n, (sim, hw))| (n.to_string(), relative_speedup(*hw, *sim)))
                .collect(),
        })
        .collect();
    FigureData {
        title: title.to_string(),
        note: Some(format!(
            "{ranks} MPI rank(s); relative speedup vs {} (1.0 = match); {}",
            hw.name,
            sweep.describe()
        )),
        series,
    }
}

/// **Figure 3** (a: 1 rank, b: 4 ranks): NPB on the Rocket-family
/// models vs Banana Pi hardware.
pub fn fig3_npb_rocket(ranks: usize, sizes: Sizes) -> FigureData {
    fig3_npb_rocket_par(ranks, sizes, Parallelism::Sequential)
}

/// [`fig3_npb_rocket`] with an explicit sweep-parallelism knob.
pub fn fig3_npb_rocket_par(ranks: usize, sizes: Sizes, par: Parallelism) -> FigureData {
    npb_figure(
        &format!(
            "Figure 3{}: NPB — Rocket models vs Banana Pi ({ranks} ranks)",
            if ranks == 1 { "a" } else { "b" }
        ),
        vec![
            configs::rocket1(ranks),
            configs::rocket2(ranks),
            configs::banana_pi_sim(ranks),
            configs::fast_banana_pi_sim(ranks),
        ],
        configs::banana_pi_hw(ranks),
        ranks,
        sizes,
        par,
    )
}

/// **Figure 4a**: NPB on stock Small/Medium/Large BOOM vs MILK-V.
pub fn fig4a_npb_boom(ranks: usize, sizes: Sizes) -> FigureData {
    fig4a_npb_boom_par(ranks, sizes, Parallelism::Sequential)
}

/// [`fig4a_npb_boom`] with an explicit sweep-parallelism knob.
pub fn fig4a_npb_boom_par(ranks: usize, sizes: Sizes, par: Parallelism) -> FigureData {
    npb_figure(
        &format!("Figure 4a: NPB — stock BOOM configs vs MILK-V ({ranks} ranks)"),
        vec![
            configs::small_boom(ranks),
            configs::medium_boom(ranks),
            configs::large_boom(ranks),
        ],
        configs::milkv_hw(ranks),
        ranks,
        sizes,
        par,
    )
}

/// **Figure 4b**: NPB on the tuned MILK-V Sim Model vs MILK-V.
pub fn fig4b_npb_boom(ranks: usize, sizes: Sizes) -> FigureData {
    fig4b_npb_boom_par(ranks, sizes, Parallelism::Sequential)
}

/// [`fig4b_npb_boom`] with an explicit sweep-parallelism knob.
pub fn fig4b_npb_boom_par(ranks: usize, sizes: Sizes, par: Parallelism) -> FigureData {
    npb_figure(
        &format!("Figure 4b: NPB — tuned MILK-V Sim Model vs MILK-V ({ranks} ranks)"),
        vec![configs::large_boom(ranks), configs::milkv_sim(ranks)],
        configs::milkv_hw(ranks),
        ranks,
        sizes,
        par,
    )
}

/// Runtime matrix for an app benchmark over 1/2/4 ranks on the two
/// platform pairs, as Figures 5–7 report. `run_on` returns the target
/// runtime in seconds plus the simulated cycles (for rate aggregation).
fn app_figure(
    title: &str,
    note: &str,
    par: Parallelism,
    run_on: impl Fn(SocConfig, usize) -> (f64, u64) + Sync,
) -> FigureData {
    let rank_counts = [1usize, 2, 4];
    let mut series = Vec::new();
    type PlatformMaker = (&'static str, fn(usize) -> SocConfig);
    let platforms: [PlatformMaker; 4] = [
        ("Banana Pi (hw)", configs::banana_pi_hw),
        ("Banana Pi Sim Model", configs::banana_pi_sim),
        ("MILK-V (hw)", configs::milkv_hw),
        ("MILK-V Sim Model", configs::milkv_sim),
    ];
    // Preflight every (platform, rank) config the grid will build.
    let grid_cfgs: Vec<SocConfig> = platforms
        .iter()
        .flat_map(|(_, make)| rank_counts.iter().map(move |&r| make(r)))
        .collect();
    preflight_platforms(&grid_cfgs);
    // Grid: platform-major × rank-count, 12 independent cells.
    let sweep = run_grid_metered(platforms.len() * rank_counts.len(), par, |i| {
        let (_, make) = platforms[i / rank_counts.len()];
        let r = rank_counts[i % rank_counts.len()];
        run_on(make(r), r)
    });
    let mut seconds = vec![Vec::new(); 4];
    for (pi, (name, _)) in platforms.iter().enumerate() {
        let mut points = Vec::new();
        for (k, &r) in rank_counts.iter().enumerate() {
            let s = sweep.results[pi * rank_counts.len() + k];
            seconds[pi].push(s);
            points.push((format!("{r} ranks"), s));
        }
        series.push(Series {
            name: format!("{name} runtime [s]"),
            points,
        });
    }
    // Relative-speedup series per platform pair (the figures' y-axis).
    for (hw_i, sim_i, pair) in [(0usize, 1usize, "Banana Pi"), (2, 3, "MILK-V")] {
        let points = rank_counts
            .iter()
            .enumerate()
            .map(|(k, r)| {
                (
                    format!("{r} ranks"),
                    relative_speedup(seconds[hw_i][k], seconds[sim_i][k]),
                )
            })
            .collect();
        series.push(Series {
            name: format!("{pair} rel. speedup"),
            points,
        });
    }
    FigureData {
        title: title.to_string(),
        note: Some(format!("{note}; {}", sweep.describe())),
        series,
    }
}

/// **Figure 5**: UME runtimes and relative speedups, 1/2/4 ranks.
pub fn fig5_ume(sizes: Sizes) -> FigureData {
    fig5_ume_par(sizes, Parallelism::Sequential)
}

/// [`fig5_ume`] with an explicit sweep-parallelism knob.
pub fn fig5_ume_par(sizes: Sizes, par: Parallelism) -> FigureData {
    app_figure(
        "Figure 5: UME — simulation models vs hardware",
        &format!(
            "{0}^3-zone mesh (paper: 32^3), kernels: gather + inverted + face-area",
            sizes.ume_n
        ),
        par,
        |cfg, ranks| {
            let freq = cfg.freq_ghz;
            let r = ume::run(
                cfg,
                ranks,
                UmeConfig {
                    n: sizes.ume_n,
                    passes: 2,
                },
                NetConfig::shared_memory(),
            );
            let cycles = r.report.run.cycles;
            (cycles as f64 / (freq * 1e9), cycles)
        },
    )
}

/// **Figure 6**: LAMMPS Lennard-Jones melt runtimes and relative
/// speedups, 1/2/4 ranks.
pub fn fig6_lammps_lj(sizes: Sizes) -> FigureData {
    fig6_lammps_lj_par(sizes, Parallelism::Sequential)
}

/// [`fig6_lammps_lj`] with an explicit sweep-parallelism knob.
pub fn fig6_lammps_lj_par(sizes: Sizes, par: Parallelism) -> FigureData {
    app_figure(
        "Figure 6: LAMMPS LJ melt — simulation models vs hardware",
        &format!(
            "{} atoms, {} steps (paper: 32,000 atoms, 100 steps)",
            4 * sizes.lj_cells.pow(3),
            sizes.md_steps
        ),
        par,
        |cfg, ranks| {
            let freq = cfg.freq_ghz;
            let r = lj::run(
                cfg,
                ranks,
                LjConfig {
                    cells: sizes.lj_cells,
                    steps: sizes.md_steps,
                    ..LjConfig::default()
                },
                NetConfig::shared_memory(),
            );
            let cycles = r.report.run.cycles;
            (cycles as f64 / (freq * 1e9), cycles)
        },
    )
}

/// **Figure 7**: LAMMPS polymer Chain runtimes and relative speedups,
/// 1/2/4 ranks.
pub fn fig7_lammps_chain(sizes: Sizes) -> FigureData {
    fig7_lammps_chain_par(sizes, Parallelism::Sequential)
}

/// [`fig7_lammps_chain`] with an explicit sweep-parallelism knob.
pub fn fig7_lammps_chain_par(sizes: Sizes, par: Parallelism) -> FigureData {
    app_figure(
        "Figure 7: LAMMPS Chain — simulation models vs hardware",
        &format!(
            "{} beads, {} steps (paper: 32,000 atoms, 100 steps)",
            sizes.chain_cells.pow(3),
            sizes.md_steps
        ),
        par,
        |cfg, ranks| {
            let freq = cfg.freq_ghz;
            let r = chain::run(
                cfg,
                ranks,
                ChainConfig {
                    cells: sizes.chain_cells,
                    chain_len: sizes.chain_cells,
                    steps: sizes.md_steps,
                    ..ChainConfig::default()
                },
                NetConfig::shared_memory(),
            );
            let cycles = r.report.run.cycles;
            (cycles as f64 / (freq * 1e9), cycles)
        },
    )
}

/// **Table 4**: the FireSim model catalog as a text table.
pub fn table4() -> String {
    let mut out = String::from(
        "== Table 4: FireSim Models ==\n\
         Model            Clock    Fetch/Decode  RoB   LSQ      L1 sets/ways  L2 banks  Bus\n",
    );
    let rows: Vec<(SocConfig, &str)> = vec![
        (configs::rocket1(4), "N/A"),
        (configs::rocket2(4), "N/A"),
        (configs::small_boom(4), "32"),
        (configs::medium_boom(4), "64"),
        (configs::large_boom(4), "96"),
    ];
    for (cfg, rob) in rows {
        let (fetch, decode, lsq) = match &cfg.core {
            bsim_soc::CoreModel::InOrder(c) => (c.fetch_width, 1, "N/A".to_string()),
            bsim_soc::CoreModel::Ooo(c) => (
                c.fetch_width,
                c.decode_width,
                format!("{}/{}", c.ldq, c.stq),
            ),
        };
        out.push_str(&format!(
            "{:16} {:.1} GHz  {}/{:<11} {:<5} {:<8} {}x{:<10} {:<9} {}-bit\n",
            cfg.name,
            cfg.freq_ghz,
            fetch,
            decode,
            rob,
            lsq,
            cfg.hierarchy.l1d.sets,
            cfg.hierarchy.l1d.ways,
            cfg.hierarchy.l2.banks,
            cfg.hierarchy.bus.width_bits,
        ));
    }
    out
}

/// **Table 5**: hardware vs simulation-model specs as a text table.
pub fn table5() -> String {
    let mut out = String::from("== Table 5: Platform specifications ==\n");
    for cfg in [
        configs::banana_pi_hw(4),
        configs::banana_pi_sim(4),
        configs::milkv_hw(4),
        configs::milkv_sim(4),
    ] {
        let h = &cfg.hierarchy;
        out.push_str(&format!(
            "{:22} {} cores @ {:.1} GHz | L1 {} KiB | L2 {} KiB | LLC {} | bus {}-bit | {} | prefetch {}\n",
            cfg.name,
            cfg.cores,
            cfg.freq_ghz,
            h.l1d.capacity() / 1024,
            h.l2.capacity() / 1024,
            h.llc
                .as_ref()
                .map(|l| format!("{} MiB", l.geometry.capacity() * l.slices as u64 / (1 << 20)))
                .unwrap_or_else(|| "none".into()),
            h.bus.width_bits,
            h.dram.name,
            h.prefetch_degree,
        ));
    }
    out
}

/// A keyed subfigure generator: the checkpoint key (`fig3a`, `fig4b4`,
/// …) plus the deferred computation producing that subfigure.
pub type Subfigure = (&'static str, Box<dyn Fn() -> FigureData + Send + Sync>);

/// The figure ids `figure_plan` accepts, in CLI order.
pub const FIGURE_IDS: [&str; 7] = ["1", "2", "3", "4", "5", "6", "7"];

/// The subfigures one `bsim fig <id>` invocation computes, keyed for
/// checkpoint storage. Returns `None` for an unknown id. Keys are
/// stable across releases — they are the `CkptStore` cell names a
/// resumed run looks up — so renaming one invalidates old checkpoints.
pub fn figure_plan(id: &str, sizes: Sizes, par: Parallelism) -> Option<Vec<Subfigure>> {
    fn sub(key: &'static str, f: impl Fn() -> FigureData + Send + Sync + 'static) -> Subfigure {
        (key, Box::new(f))
    }
    let plan = match id {
        "1" => vec![sub("fig1", move || {
            fig1_microbench_rocket_par(sizes.micro_scale, par)
        })],
        "2" => vec![sub("fig2", move || {
            fig2_microbench_boom_par(sizes.micro_scale, par)
        })],
        "3" => vec![
            sub("fig3a", move || fig3_npb_rocket_par(1, sizes, par)),
            sub("fig3b", move || fig3_npb_rocket_par(4, sizes, par)),
        ],
        "4" => vec![
            sub("fig4a", move || fig4a_npb_boom_par(1, sizes, par)),
            sub("fig4b1", move || fig4b_npb_boom_par(1, sizes, par)),
            sub("fig4b4", move || fig4b_npb_boom_par(4, sizes, par)),
        ],
        "5" => vec![sub("fig5", move || fig5_ume_par(sizes, par))],
        "6" => vec![sub("fig6", move || fig6_lammps_lj_par(sizes, par))],
        "7" => vec![sub("fig7", move || fig7_lammps_chain_par(sizes, par))],
        _ => return None,
    };
    Some(plan)
}

/// Assigns `cells` sweep cells to `ranks` workers, round-robin. Sweep
/// cells are independent and their costs are *ordered* — figure plans
/// put the heavy multi-rank subfigures next to each other — so striding
/// spreads the expensive neighbors across workers instead of handing one
/// worker the whole hot block. The assignment is pure arithmetic on
/// indices: every launcher, worker, and resumed recovery computes the
/// same map.
pub fn partition_cells(cells: usize, ranks: usize) -> Vec<usize> {
    assert!(ranks >= 1, "a sweep needs at least one worker");
    (0..cells).map(|i| i % ranks).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_cells_is_balanced_and_deterministic() {
        let a = partition_cells(10, 3);
        assert_eq!(a, vec![0, 1, 2, 0, 1, 2, 0, 1, 2, 0]);
        assert_eq!(a, partition_cells(10, 3));
        for ranks in 1..=5 {
            let counts = (0..ranks)
                .map(|r| {
                    partition_cells(11, ranks)
                        .iter()
                        .filter(|&&x| x == r)
                        .count()
                })
                .collect::<Vec<_>>();
            let (min, max) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
            assert!(max - min <= 1, "{counts:?}");
        }
        assert!(partition_cells(0, 2).is_empty());
    }

    #[test]
    fn table4_lists_all_five_models() {
        let t = table4();
        for name in [
            "Rocket 1",
            "Rocket 2",
            "Small BOOM",
            "Medium BOOM",
            "Large BOOM",
        ] {
            assert!(t.contains(name), "missing {name}:\n{t}");
        }
    }

    #[test]
    fn table5_shows_the_ddr_mismatch() {
        let t = table5();
        assert!(t.contains("DDR3-2000"));
        assert!(t.contains("DDR4-3200"));
        assert!(t.contains("LPDDR4-2666"));
    }

    #[test]
    fn run_grid_orders_results_by_grid_index() {
        let out = run_grid(32, Parallelism::Workers(8), |i| i * i);
        assert_eq!(out, (0..32).map(|i| i * i).collect::<Vec<_>>());
        // Degenerate shapes.
        assert!(run_grid(0, Parallelism::Auto, |i| i).is_empty());
        assert_eq!(run_grid(1, Parallelism::Workers(16), |i| i), vec![0]);
    }

    #[test]
    fn run_grid_metered_aggregates_cycles_and_publishes_host_rate() {
        let sweep = run_grid_metered(10, Parallelism::Workers(4), |i| (i as u64, 100u64));
        assert_eq!(sweep.results, (0..10u64).collect::<Vec<_>>());
        assert_eq!(sweep.rate.target_cycles, 1000);
        assert_eq!(sweep.workers, 4);
        let mut block = CounterBlock::new(true);
        sweep.publish(&mut block);
        assert_eq!(block.get("host.rate.target_cycles"), Some(1000));
        assert_eq!(block.get("host.sweep.workers"), Some(4));
        assert_eq!(block.get("host.sweep.cells"), Some(10));
        assert!(sweep.describe().contains("10 cells on 4 worker(s)"));
    }

    #[test]
    fn grid_worker_panic_propagates_with_payload() {
        let caught = std::panic::catch_unwind(|| {
            run_grid(8, Parallelism::Workers(4), |i| {
                assert!(i != 5, "grid cell 5 died");
                i
            })
        });
        let payload = caught.expect_err("the cell panic must propagate");
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("grid cell 5 died"), "got: {msg}");
    }

    #[test]
    fn grid_panic_no_longer_strands_unclaimed_cells() {
        // Poison the first `workers` cells: before the per-cell catch,
        // every worker died on its first claim and the rest of the grid
        // never ran. Now the whole grid drains, the panic propagates
        // after, and the sequential path behaves identically.
        for par in [Parallelism::Workers(2), Parallelism::Sequential] {
            let ran = AtomicUsize::new(0);
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_grid(8, par, |i| {
                    ran.fetch_add(1, Ordering::Relaxed);
                    assert!(i >= 2, "cell {i} poisoned");
                    i
                })
            }));
            assert!(caught.is_err(), "the cell panic must still propagate");
            assert_eq!(
                ran.load(Ordering::Relaxed),
                8,
                "every cell must run despite the poisoned ones ({par:?})"
            );
        }
    }

    #[test]
    fn figure_data_snapshot_roundtrips() {
        let fig = FigureData {
            title: "Figure T".into(),
            note: None,
            series: vec![Series {
                name: "model".into(),
                points: vec![("CG".into(), 0.5), ("EP".into(), 1.25)],
            }],
        };
        assert_eq!(FigureData::restore(&fig.save()).unwrap(), fig);
        let noted = FigureData {
            note: Some("4 ranks".into()),
            ..fig
        };
        assert_eq!(FigureData::restore(&noted.save()).unwrap(), noted);
    }

    #[test]
    fn figure_plan_covers_every_figure_with_stable_keys() {
        let mut keys = Vec::new();
        for id in FIGURE_IDS {
            let plan = figure_plan(id, Sizes::smoke(), Parallelism::Sequential)
                .unwrap_or_else(|| panic!("figure {id} missing from the plan"));
            assert!(!plan.is_empty());
            keys.extend(plan.iter().map(|(k, _)| *k));
        }
        assert_eq!(
            keys,
            [
                "fig1", "fig2", "fig3a", "fig3b", "fig4a", "fig4b1", "fig4b4", "fig5", "fig6",
                "fig7"
            ],
            "checkpoint keys are a stable on-disk contract"
        );
        assert!(figure_plan("9", Sizes::smoke(), Parallelism::Sequential).is_none());
    }

    #[test]
    fn parallelism_flag_parses() {
        assert_eq!(Parallelism::parse("seq"), Some(Parallelism::Sequential));
        assert_eq!(Parallelism::parse("auto"), Some(Parallelism::Auto));
        assert_eq!(Parallelism::parse("1"), Some(Parallelism::Sequential));
        assert_eq!(Parallelism::parse("6"), Some(Parallelism::Workers(6)));
        assert_eq!(Parallelism::parse("zero"), None);
        assert_eq!(Parallelism::Workers(5).workers(2), 2, "capped at the cells");
        assert_eq!(Parallelism::Workers(3).workers(100), 3);
        assert_eq!(Parallelism::Sequential.workers(100), 1);
        assert!(
            Parallelism::Auto.workers(100) >= 1,
            "auto is host-dependent"
        );
    }

    #[test]
    fn parallel_sweep_is_bit_identical_to_sequential() {
        // The sweep runner must order by grid index, so the figure's
        // series/points cannot depend on the worker count. (Notes carry
        // host-rate figures and legitimately differ.)
        let tiny = Sizes {
            lj_cells: 2,
            md_steps: 2,
            ..Sizes::smoke()
        };
        let seq = fig6_lammps_lj_par(tiny, Parallelism::Sequential);
        let par = fig6_lammps_lj_par(tiny, Parallelism::Auto);
        assert_eq!(seq.title, par.title);
        assert_eq!(seq.series.len(), par.series.len());
        for (a, b) in seq.series.iter().zip(par.series.iter()) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.points, b.points, "series {} moved", a.name);
        }
    }

    #[test]
    fn sizes_lint_flags_zero_fields_and_passes_the_presets() {
        assert!(Sizes::default().lint("sizes").is_clean());
        assert!(Sizes::smoke().lint("sizes").is_clean());
        let degenerate = Sizes {
            cg_iters: 0,
            md_steps: 0,
            ..Sizes::default()
        };
        let report = degenerate.lint("sizes");
        assert_eq!(report.warning_count(), 2, "one WL001 per zero field");
        assert!(report.has_code("WL001"));
        assert!(!report.has_errors(), "WL001 is a warning");
        assert!(report.render().contains("sizes.cg_iters"));
    }

    #[test]
    fn npb_smoke_runs_on_one_platform() {
        let s = npb_seconds(configs::rocket1(1), 1, Sizes::smoke());
        for (i, v) in s.iter().enumerate() {
            assert!(*v > 0.0, "benchmark {i} produced no time");
        }
    }

    #[test]
    fn cg_telemetry_exports_every_counter_family() {
        // Acceptance check for the instrumented E8 path: CG on a FireSim
        // BOOM config must export non-zero branch, cache, DRAM,
        // token-stall and MPI counters, and serialize to JSON.
        let snap = cg_telemetry(configs::large_boom(2), 2, Sizes::smoke());
        let nz = |n: &str| snap.counter(n).unwrap_or(0) > 0;
        assert!(nz("tile0.branch.lookups"), "branch counters");
        assert!(
            nz("mem.l1d.accesses") && nz("mem.l1d.misses"),
            "cache counters"
        );
        assert!(nz("mem.dram.reads"), "DRAM counters");
        assert!(
            nz("mem.dram.token_stall_cycles"),
            "token quantization stalls"
        );
        assert!(nz("mpi.wait_cycles"), "MPI wait counters");
        assert!(
            snap.counter("mpi.rank1.wait_cycles").is_some(),
            "per-rank MPI counters"
        );
        let json = snap.to_json();
        assert!(json.contains("mem.dram.token_stall_cycles"));
        assert!(json.contains("mpi.rank0.wait_cycles"));
    }

    #[test]
    fn fig4b_shape_ep_is_closest_to_parity() {
        // §5.2.2: "the EP benchmark demonstrated near performance parity"
        // while CG/IS/MG run slower on the simulation model.
        let fig = fig4b_npb_boom(1, Sizes::smoke());
        let milkv = fig
            .series
            .iter()
            .find(|s| s.name == "MILK-V Sim Model")
            .unwrap();
        let get = |n: &str| milkv.points.iter().find(|(l, _)| l == n).unwrap().1;
        let (cg, ep) = (get("CG"), get("EP"));
        assert!(
            (ep.ln().abs()) < (cg.ln().abs()) + 0.35,
            "EP ({ep:.2}) should be closer to 1.0 than CG ({cg:.2})"
        );
        assert!(ep > 0.4 && ep < 2.0, "EP must be near parity, got {ep:.2}");
    }
}
