//! The traced run: one workload decomposed into the public call into
//! each simulator layer, with a span around every call.
//!
//! Spans (name, start, end, parent, cell) are kept in memory and
//! written to `out/spans-<workload>-seed<n>.json` when the run ends. A
//! span's self time is its duration minus its children's; a layer's
//! time is the self time of its spans. Each cell's trace is
//! materialised one at a time, so the traced run is slower than the
//! fused path the figures take; the parent process reports that ratio
//! as `trace.overhead`.
//!
//! Three of the spans re-run part of a replay on its own, because the
//! replay interleaves those layers too finely to time from outside:
//! `mem.access` drives a fresh `MemoryHierarchy` with the trace's
//! fetches, loads and stores; `mem.dram.access` drives a fresh
//! `DramModel` with the accesses that pass served from DRAM; and
//! `mpi.replay` replays the trace with its compute segments removed.
//! `uarch.self_s` is the replay time minus those estimates.

use crate::grid::{self, Cell, Job, Sweep, Workload};
use crate::json::obj;
use crate::refs;
use serde_json::Value;
use silicon_bridge::core::{CkptStore, FigureData};
use silicon_bridge::mem::{AccessKind, DramModel, HitLevel, MemoryHierarchy};
use silicon_bridge::mpi::{Ev, WorldTrace};
use silicon_bridge::soc::{RunReport, SocConfig};
use silicon_bridge::sweepx::{record_program, replay_program, replay_world};
use silicon_bridge::uarch::MicroOp;
use silicon_bridge::workloads::microbench::{self, MicroKernel};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    cell: Option<usize>,
}

/// In-memory span recorder.
struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`. A span without a cell id
    /// inherits its parent's.
    fn span<T>(
        &mut self,
        name: &'static str,
        cell: Option<usize>,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        let parent = self.stack.last().copied();
        let cell = cell.or_else(|| parent.and_then(|p| self.spans[p].cell));
        let idx = self.spans.len();
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            cell,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now();
        out
    }

    /// [`Tracer::span`] for one grid cell: a panic inside the cell
    /// closes the cell's open spans and comes back as an error, so the
    /// remaining cells still run.
    fn cell<T>(&mut self, id: usize, f: impl FnOnce(&mut Tracer) -> T) -> Result<T, String> {
        let depth = self.stack.len();
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.span("core.cell", Some(id), f)
        }));
        run.map_err(|payload| {
            let end = self.now();
            while self.stack.len() > depth {
                let idx = self.stack.pop().expect("stack is deeper than depth");
                self.spans[idx].end_ns = end;
            }
            panic_message(payload.as_ref())
        })
    }

    fn dur(&self, i: usize) -> u64 {
        self.spans[i].end_ns - self.spans[i].start_ns
    }

    /// Self time of every span: duration minus its children's.
    fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = (0..self.spans.len()).map(|i| self.dur(i)).collect();
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(self.dur(i));
            }
        }
        own
    }

    /// Seconds of self time over every span named `name`.
    fn self_s(&self, own: &[u64], name: &str) -> f64 {
        self.spans
            .iter()
            .zip(own)
            .filter(|(s, _)| s.name == name)
            .map(|(_, &t)| t)
            .sum::<u64>() as f64
            / 1e9
    }

    fn to_json(&self) -> Value {
        let opt = |v: Option<usize>| v.map_or(Value::Null, |x| Value::U64(x as u64));
        Value::Seq(
            self.spans
                .iter()
                .map(|s| {
                    obj(vec![
                        ("name", Value::Str(s.name.into())),
                        ("start_ns", Value::U64(s.start_ns)),
                        ("end_ns", Value::U64(s.end_ns)),
                        ("parent", opt(s.parent)),
                        ("cell", opt(s.cell)),
                    ])
                })
                .collect(),
        )
    }
}

/// The message of a caught panic.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into())
}

/// Counts gathered at the layer boundaries.
#[derive(Default)]
struct Counts {
    isa_retired: u64,
    wl_uops: u64,
    arena_bytes: u64,
    replay_uops: u64,
    cycles: u64,
    retired: u64,
    mispredicts: u64,
    fetch_stall: u64,
    data_stall: u64,
    structural_stall: u64,
    l1d_accesses: u64,
    l1d_misses: u64,
    l2_accesses: u64,
    l2_misses: u64,
    llc_accesses: u64,
    mem_accesses: u64,
    dram_accesses: u64,
    dram_reqs: u64,
    dram_row_hits: u64,
    dram_token_stall: u64,
    mpi_events: u64,
    mpi_messages: u64,
    mpi_bytes: u64,
    lanes: u64,
    segments: u64,
    clusters: u64,
    sampled_frac: f64,
    sample_err_max: f64,
    sample_cover: f64,
    ckpt_bytes: u64,
}

impl Counts {
    fn arena(&mut self, uops: usize) {
        let bytes = (uops * std::mem::size_of::<MicroOp>()) as u64;
        self.arena_bytes = self.arena_bytes.max(bytes);
    }

    fn report(&mut self, rep: &RunReport) {
        self.cycles += rep.cycles;
        self.retired += rep.retired;
        for c in &rep.core_stats {
            self.mispredicts += c.mispredicts;
            self.fetch_stall += c.fetch_stall_cycles;
            self.data_stall += c.data_stall_cycles;
            self.structural_stall += c.structural_stall_cycles;
        }
        let m = &rep.mem_stats;
        self.l1d_accesses += m.l1d_accesses;
        self.l1d_misses += m.l1d_misses;
        self.l2_accesses += m.l2_accesses;
        self.l2_misses += m.l2_misses;
        self.llc_accesses += m.llc_accesses;
        self.dram_reqs += m.dram_reads + m.dram_writes;
        self.dram_row_hits += m.dram_row_hits;
        self.dram_token_stall += m.dram_token_stall_cycles;
    }
}

/// A line-granular DRAM request seen by the standalone hierarchy pass.
type DramReq = (u64, bool, u64);

/// Drives a fresh hierarchy with a trace's instruction-line fetches,
/// loads and stores, one op per cycle per core. Returns the access
/// count and the requests served from DRAM.
fn mem_pass<'a>(
    cfg: &SocConfig,
    segments: impl Iterator<Item = (usize, &'a [MicroOp])>,
) -> (u64, Vec<DramReq>) {
    let cores = cfg.hierarchy.cores;
    let mut h = MemoryHierarchy::new(cfg.hierarchy.clone());
    let mut now = vec![0u64; cores];
    let mut line = vec![u64::MAX; cores];
    let mut accesses = 0u64;
    let mut dram = Vec::new();
    for (core, ops) in segments {
        let core = core % cores;
        for u in ops {
            let t = now[core];
            if u.pc >> 6 != line[core] {
                line[core] = u.pc >> 6;
                accesses += 1;
                if h.access(core, u.pc, AccessKind::Ifetch, t).level == HitLevel::Dram {
                    dram.push((u.pc & !63, false, t));
                }
            }
            if let Some(addr) = u.mem_addr {
                let kind = if u.is_store {
                    AccessKind::Store
                } else {
                    AccessKind::Load
                };
                accesses += 1;
                if h.access(core, addr, kind, t).level == HitLevel::Dram {
                    dram.push((addr & !63, u.is_store, t));
                }
            }
            now[core] = t + 1;
        }
    }
    black_box(h.stats());
    (accesses, dram)
}

/// Drives a fresh DRAM model with the requests a hierarchy pass sent it.
fn dram_pass(cfg: &SocConfig, reqs: &[DramReq]) {
    let mut d = DramModel::new(cfg.hierarchy.dram.clone(), cfg.hierarchy.core_freq_ghz);
    for &(addr, write, now) in reqs {
        black_box(d.access(addr, write, now));
    }
}

/// The trace without its compute segments: what MPI replay alone costs.
fn comm_only(trace: &WorldTrace) -> WorldTrace {
    WorldTrace {
        ranks: trace.ranks,
        simd_lanes: trace.simd_lanes,
        compiler_overhead_per_mille: trace.compiler_overhead_per_mille,
        uops: Vec::new(),
        events: trace
            .events
            .iter()
            .filter(|e| !matches!(e, Ev::Consume { .. }))
            .copied()
            .collect(),
        messages: trace.messages,
        bytes: trace.bytes,
    }
}

/// Decomposes one exact cell: record (through the ISA or the workload
/// model), single-lane unsampled replay, then the standalone memory,
/// DRAM and MPI passes.
fn decompose(tr: &mut Tracer, cell: &Cell, kernels: &[MicroKernel], n: &mut Counts) -> RunReport {
    let cfg = std::slice::from_ref(&cell.cfg);
    let rep = match cell.job {
        Job::Micro(k) => {
            let scale = grid::sizes().micro_scale;
            let prog = tr.span("isa.asm", None, |_| kernels[k].build(scale));
            let trace = tr.span("isa.interp", None, |_| record_program(&prog, u64::MAX));
            assert_eq!(trace.exit_code, Some(0), "microbenchmark must exit cleanly");
            n.isa_retired += trace.uops.len() as u64;
            n.replay_uops += trace.uops.len() as u64;
            n.arena(trace.uops.len());
            let rep = tr.span("soc.replay", None, |_| {
                replay_program(&trace, cfg, None).remove(0).0
            });
            let (acc, dram) = tr.span("mem.access", None, |_| {
                mem_pass(&cell.cfg, std::iter::once((0, &trace.uops[..])))
            });
            tr.span("mem.dram.access", None, |_| dram_pass(&cell.cfg, &dram));
            n.mem_accesses += acc;
            n.dram_accesses += dram.len() as u64;
            rep
        }
        Job::Npb(_) | Job::Lj => {
            let trace = tr.span("workloads.record", None, |_| grid::record_world(cell));
            n.wl_uops += trace.uops.len() as u64;
            n.replay_uops += trace.uops.len() as u64;
            n.arena(trace.uops.len());
            let world = tr.span("soc.replay", None, |_| {
                replay_world(&trace, cfg, grid::net(), None)
                    .remove(0)
                    .report
            });
            let segments = trace.events.iter().filter_map(|e| match *e {
                Ev::Consume { rank, start, len } => {
                    Some((rank as usize, &trace.uops[start..start + len]))
                }
                _ => None,
            });
            let (acc, dram) = tr.span("mem.access", None, |_| mem_pass(&cell.cfg, segments));
            tr.span("mem.dram.access", None, |_| dram_pass(&cell.cfg, &dram));
            n.mem_accesses += acc;
            n.dram_accesses += dram.len() as u64;
            let comm = comm_only(&trace);
            drop(trace);
            tr.span("mpi.replay", None, |_| {
                black_box(replay_world(&comm, cfg, grid::net(), None))
            });
            n.mpi_events += comm.events.len() as u64;
            n.mpi_messages += comm.messages;
            n.mpi_bytes += comm.bytes;
            world.run
        }
    };
    n.report(&rep);
    rep
}

/// Re-saves results the e2e run checkpointed, the way `bsim fig
/// --ckpt` does: `Snapshot::save` per result, then `CkptStore::save`.
fn snapshot(figs: &[(String, FigureData)], tmp: &Path) -> u64 {
    let mut out = CkptStore::new();
    for (key, fig) in figs {
        out.put(key, fig);
    }
    out.save(tmp).expect("snapshot file is writable")
}

/// What a traced child reports.
pub struct Traced {
    pub metrics: Vec<(&'static str, f64)>,
    pub wall_s: f64,
    pub cells: u64,
    pub errors: Vec<String>,
    /// Sweep only: each lane's sampled cycles.
    pub lane_cycles: Vec<u64>,
}

/// Runs the traced decomposition of `w`. `store` is the checkpoint the
/// e2e run wrote (exact workloads); spans go to `spans_path`.
pub fn run(w: Workload, seed: u64, store: &Path, spans_path: &Path, tmp: &Path) -> Traced {
    let mut tr = Tracer::new();
    let mut n = Counts::default();
    let mut errors = Vec::new();
    let mut lane_cycles = Vec::new();
    let cells: u64;

    if w == Workload::CgSweep {
        let pool = refs::load_pool().unwrap_or_else(|e| panic!("{e}"));
        cells = grid::SWEEP_CONFIGS as u64;
        tr.span("run", None, |tr| {
            let sw: Sweep = tr.span("core.preflight", None, |_| Sweep::new(seed));
            let lanes = tr.cell(0, |tr| {
                let trace = tr.span("workloads.record", None, |_| grid::record_sweep(&sw));
                n.wl_uops += trace.uops.len() as u64;
                n.arena(trace.uops.len());
                tr.span("sweepx.replay", None, |_| grid::replay_sweep(&sw, &trace))
            });
            let lanes = match lanes {
                Ok(l) => l,
                Err(e) => {
                    errors.push(format!("sweep panicked: {e}"));
                    return;
                }
            };
            let exact: Vec<u64> = sw.picks.iter().map(|&i| pool.pool[i].0).collect();
            let acc = grid::sample_accuracy(&lanes, &exact);
            n.lanes = lanes.len() as u64;
            let reps: Vec<_> = lanes.iter().filter_map(|o| o.sample.as_ref()).collect();
            if let Some(r) = reps.first() {
                n.segments = r.segments as u64;
                n.clusters = r.clusters as u64;
            }
            n.sampled_frac =
                reps.iter().map(|r| r.measured_fraction()).sum::<f64>() / reps.len().max(1) as f64;
            n.sample_err_max = acc.iter().map(|a| a.0).fold(0.0, f64::max);
            n.sample_cover = acc.iter().filter(|a| a.1).count() as f64 / acc.len().max(1) as f64;
            lane_cycles = lanes.iter().map(|o| o.report.run.cycles).collect();
            let runs: Vec<(String, RunReport)> = lanes
                .into_iter()
                .enumerate()
                .map(|(i, o)| (format!("lane{i:02}"), o.report.run))
                .collect();
            n.ckpt_bytes = tr.span("resilience.snapshot", None, |_| {
                let mut out = CkptStore::new();
                for (key, rep) in &runs {
                    out.put(key, rep);
                }
                out.save(tmp).expect("snapshot file is writable")
            });
        });
    } else {
        let reference = refs::load_exact(w).unwrap_or_else(|e| panic!("{e}"));
        let store = CkptStore::load(store)
            .unwrap_or_else(|e| panic!("cannot load the e2e checkpoint {}: {e}", store.display()));
        let figs: Vec<(String, FigureData)> = grid::subfigure_keys(w)
            .into_iter()
            .filter_map(|k| {
                store
                    .get::<FigureData>(k)
                    .ok()
                    .flatten()
                    .map(|f| (k.to_string(), f))
            })
            .collect();
        let kernels = microbench::evaluated();
        let grid_cells = grid::cells(w);
        cells = grid_cells.len() as u64;
        tr.span("run", None, |tr| {
            tr.span("core.preflight", None, |_| grid::preflight_grid(w));
            for (i, cell) in grid_cells.iter().enumerate() {
                let (want_cycles, want_retired) = reference.cells[i];
                match tr.cell(i, |tr| decompose(tr, cell, &kernels, &mut n)) {
                    Ok(rep) if rep.cycles == want_cycles && rep.retired == want_retired => {}
                    Ok(rep) => errors.push(format!(
                        "{}: record+replay gave {} cycles / {} retired, the e2e cell {} / {}",
                        cell.label, rep.cycles, rep.retired, want_cycles, want_retired
                    )),
                    Err(e) => errors.push(format!("{}: panicked: {e}", cell.label)),
                }
            }
            n.ckpt_bytes = tr.span("resilience.snapshot", None, |_| snapshot(&figs, tmp));
        });
        if figs.len() != grid::subfigure_keys(w).len() {
            errors.push("the e2e checkpoint lacks a subfigure".into());
        }
        if errors.is_empty() && (n.cycles != reference.cycles() || n.retired != reference.retired())
        {
            errors.push(format!(
                "totals {} cycles / {} retired differ from the committed {} / {}",
                n.cycles,
                n.retired,
                reference.cycles(),
                reference.retired()
            ));
        }
    }

    let own = tr.self_times();
    let wall_s = tr.dur(0) as f64 / 1e9;
    let s = |name: &str| tr.self_s(&own, name);
    let per = |secs: f64, count: u64| {
        if count == 0 {
            0.0
        } else {
            secs * 1e9 / count as f64
        }
    };
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let mut cell_ms: Vec<f64> = tr
        .spans
        .iter()
        .enumerate()
        .filter(|(_, sp)| sp.name == "core.cell")
        .map(|(i, _)| tr.dur(i) as f64 / 1e6)
        .collect();
    cell_ms.sort_by(f64::total_cmp);
    let rank = |q: f64| {
        if cell_ms.is_empty() {
            0.0
        } else {
            cell_ms[((q * cell_ms.len() as f64).ceil() as usize).clamp(1, cell_ms.len()) - 1]
        }
    };
    let in_cells: f64 = cell_ms.iter().sum::<f64>() / 1e3;
    let layered: u64 = tr
        .spans
        .iter()
        .zip(&own)
        .filter(|(sp, _)| sp.name != "run" && sp.name != "core.cell")
        .map(|(_, &t)| t)
        .sum();
    let isa_interp = s("isa.interp");
    let record = s("workloads.record");
    let replay = s("soc.replay");
    let mem = s("mem.access");
    let mpi = s("mpi.replay");
    let sweep = w == Workload::CgSweep;
    let metrics = vec![
        ("isa.asm_s", s("isa.asm")),
        ("isa.interp_s", isa_interp),
        ("isa.retired", n.isa_retired as f64),
        ("isa.ns_per_inst", per(isa_interp, n.isa_retired)),
        ("workloads.record_s", record),
        ("workloads.uops", n.wl_uops as f64),
        ("workloads.ns_per_uop", per(record, n.wl_uops)),
        ("workloads.arena_mb", n.arena_bytes as f64 / 1e6),
        ("soc.replay_s", replay),
        ("soc.ns_per_uop", per(replay, n.replay_uops)),
        ("uarch.self_s", replay - mem - mpi),
        ("uarch.cycles", n.cycles as f64),
        ("uarch.ipc", ratio(n.retired, n.cycles)),
        ("uarch.mispredicts", n.mispredicts as f64),
        ("uarch.fetch_stall_cycles", n.fetch_stall as f64),
        ("uarch.data_stall_cycles", n.data_stall as f64),
        ("uarch.structural_stall_cycles", n.structural_stall as f64),
        ("mem.access_s", mem),
        ("mem.accesses", n.mem_accesses as f64),
        ("mem.ns_per_access", per(mem, n.mem_accesses)),
        ("mem.l1d_miss_rate", ratio(n.l1d_misses, n.l1d_accesses)),
        ("mem.l2_miss_rate", ratio(n.l2_misses, n.l2_accesses)),
        ("mem.llc_accesses", n.llc_accesses as f64),
        ("mem.dram.access_s", s("mem.dram.access")),
        ("mem.dram.accesses", n.dram_accesses as f64),
        ("mem.dram.row_hit_rate", ratio(n.dram_row_hits, n.dram_reqs)),
        ("mem.dram.token_stall_cycles", n.dram_token_stall as f64),
        ("mpi.replay_s", mpi),
        ("mpi.events", n.mpi_events as f64),
        ("mpi.messages", n.mpi_messages as f64),
        ("mpi.bytes", n.mpi_bytes as f64),
        ("sweepx.record_s", if sweep { record } else { 0.0 }),
        ("sweepx.replay_s", s("sweepx.replay")),
        ("sweepx.lanes", n.lanes as f64),
        ("sweepx.segments", n.segments as f64),
        ("sweepx.clusters", n.clusters as f64),
        ("sweepx.sampled_uop_frac", n.sampled_frac),
        ("sweepx.sample_err_max", n.sample_err_max),
        ("sweepx.sample_bound_cover", n.sample_cover),
        ("core.preflight_s", s("core.preflight")),
        ("core.cells", cells as f64),
        ("core.cell_p50_ms", rank(0.5)),
        ("core.cell_p90_ms", rank(0.9)),
        ("core.grid_overhead_s", wall_s - in_cells),
        ("resilience.snapshot_s", s("resilience.snapshot")),
        ("resilience.ckpt_bytes", n.ckpt_bytes as f64),
        ("trace.cover", layered as f64 / 1e9 / wall_s),
    ];

    let doc = obj(vec![
        ("workload", Value::Str(w.name().into())),
        ("seed", Value::U64(seed)),
        ("spans", tr.to_json()),
    ]);
    if let Err(e) = std::fs::write(spans_path, crate::json::line(&doc)) {
        errors.push(format!("cannot write {}: {e}", spans_path.display()));
    }
    Traced {
        metrics,
        wall_s,
        cells,
        errors,
        lane_cycles,
    }
}
