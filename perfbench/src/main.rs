//! `perfbench`: host time of the paper figures, end to end and split by
//! simulator layer. README.md describes the workloads and metrics.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench gen-refs [<workload>...]
//! ```
//!
//! With `--trace 0` the parent process times the workload end to end
//! in fresh child processes until `--seconds` is spent and prints the
//! end-to-end metrics; with `--trace 1` it runs one end-to-end child and
//! one traced child and prints the per-layer metrics. The last stdout line
//! is the result as one JSON object; a fuller record with provenance
//! lands in `perfbench/out/`.

mod child;
mod grid;
mod json;
mod refs;
mod traced;

use grid::Workload;
use json::{count, line, num, obj, strings};
use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n       perfbench gen-refs [<workload>...]";

/// Set-up children per run; `setup_s` is their median.
const SETUP_RUNS: usize = 9;

/// The smallest `trace.cover` the traced run accepts: below it, too
/// much of the traced wall time sits outside any layer span.
const MIN_COVER: f64 = 0.9;

/// End-to-end metrics, in `BENCHMARK.json` order.
const END_TO_END: [(&str, &str); 7] = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("target_mhz", "MHz"),
    ("sim_mips", "MIPS"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
    ("cells_ok_frac", "frac"),
];

/// Where results, spans and checkpoints go.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("child") => child::main(&args[1..]),
        Some("gen-refs") => refs::generate(&args[1..]),
        _ => measure(&args),
    }
}

fn usage() -> ! {
    eprintln!("{USAGE}");
    std::process::exit(2)
}

fn flag<T: std::str::FromStr>(args: &[String], name: &str) -> T {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| usage())
}

fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

/// Runs `perfbench child <mode> ...` and parses its JSON line.
fn spawn_child(mode: &str, w: Workload, seed: u64, store: Option<&Path>) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["child", mode, w.name(), &seed.to_string()]);
    // One malloc arena: rank threads otherwise spread their allocations
    // over per-thread arenas, and peak RSS of identical fig34 runs
    // scatters between 56 and 93 MB with where they landed.
    cmd.env("MALLOC_ARENA_MAX", "1");
    cmd.stdin(Stdio::null()).stderr(Stdio::inherit());
    let spawn_ns = child::epoch_ns();
    cmd.arg(spawn_ns.to_string());
    if let Some(p) = store {
        cmd.arg(p);
    }
    let out = cmd
        .output()
        .map_err(|e| format!("cannot run the {mode} child: {e}"))?;
    if !out.status.success() {
        return Err(format!("{mode} child exited with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let last = text.lines().last().unwrap_or("");
    serde_json::from_str(last).map_err(|e| format!("{mode} child printed no result: {e}"))
}

/// The checkout's git revision, read from `.git` in the working
/// directory; "unknown" outside a git checkout.
fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return if head.is_empty() {
            "unknown".into()
        } else {
            head.into()
        };
    };
    if let Ok(id) = std::fs::read_to_string(Path::new(".git").join(r)) {
        return id.trim().into();
    }
    std::fs::read_to_string(".git/packed-refs")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_suffix(r).map(|id| id.trim().to_string()))
        .unwrap_or_else(|| "unknown".into())
}

fn provenance(w: Workload, seed: u64, seconds: u64, trace: u8) -> Value {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| {
            l.strip_prefix("model name")
                .map(|m| m.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = Command::new("rustc")
        .arg("--version")
        .stderr(Stdio::null())
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let sizes = if w == Workload::CgSweep {
        let cg = grid::sweep_cg();
        obj(vec![
            ("cg_n", Value::U64(cg.n as u64)),
            ("cg_nnz_per_row", Value::U64(cg.nnz_per_row as u64)),
            ("cg_iters", Value::U64(cg.iters as u64)),
            ("ranks", Value::U64(grid::SWEEP_RANKS as u64)),
            ("configs", Value::U64(grid::SWEEP_CONFIGS as u64)),
            ("pool", Value::U64(grid::geometry_pool().len() as u64)),
        ])
    } else {
        serde::Serialize::to_value(&grid::sizes())
    };
    obj(vec![
        ("workload", Value::Str(w.name().into())),
        ("seed", Value::U64(seed)),
        ("seconds", Value::U64(seconds)),
        ("trace", Value::U64(trace as u64)),
        ("git_rev", Value::Str(git_rev())),
        ("nproc", Value::U64(nproc as u64)),
        ("cpu_model", Value::Str(cpu)),
        ("rustc", Value::Str(rustc)),
        ("sizes", sizes),
    ])
}

fn measure(args: &[String]) {
    let w = Workload::parse(&flag::<String>(args, "--workload")).unwrap_or_else(|| usage());
    let seed: u64 = flag(args, "--seed");
    let seconds: u64 = flag(args, "--seconds");
    let trace: u8 = flag(args, "--trace");
    if trace > 1 {
        usage();
    }
    let dir = out_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("cannot create {}: {e}", dir.display());
        std::process::exit(1);
    }
    let prov = provenance(w, seed, seconds, trace);
    let stem = format!("{}-seed{seed}", w.name());
    let (result, record) = if trace == 0 {
        end_to_end(w, seed, seconds)
    } else {
        traced(w, seed, &dir.join(format!("ckpt-{stem}.json")))
    };
    let doc = obj(vec![
        ("provenance", prov),
        ("result", result.clone()),
        ("runs", record),
    ]);
    let path = dir.join(format!("result-{stem}-trace{trace}.json"));
    if let Err(e) = std::fs::write(
        &path,
        serde_json::to_string_pretty(&doc).expect("total") + "\n",
    ) {
        eprintln!("cannot write {}: {e}", path.display());
    }
    println!("{}", line(&result));
}

/// Cells attempted and failed, and error messages, over a run's children.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Tally {
    /// Counts a child's cells and errors; returns its output if it ran.
    fn absorb(&mut self, child: Result<Value, String>) -> Option<Value> {
        match child {
            Ok(v) => {
                self.attempted += count(&v, "cells");
                self.failed += count(&v, "failed");
                self.errors.extend(strings(&v, "errors"));
                Some(v)
            }
            Err(e) => {
                self.errors.push(e);
                None
            }
        }
    }

    /// The result line; any error makes the run incorrect.
    fn result(mut self, ran: bool, metrics: Vec<(String, Value)>) -> (Value, Value) {
        for e in &self.errors {
            eprintln!("perfbench: {e}");
        }
        let correct = ran && self.errors.is_empty() && self.failed == 0;
        if !correct {
            self.failed = self.failed.max(1);
        }
        let result = obj(vec![
            ("correct", Value::Bool(correct)),
            (
                "attempted",
                Value::U64(self.attempted.max(self.failed).max(1)),
            ),
            ("failed", Value::U64(self.failed)),
            ("metrics", Value::Map(metrics)),
        ]);
        let errors = Value::Seq(self.errors.into_iter().map(Value::Str).collect());
        (result, errors)
    }
}

fn metric(name: &str, unit: &str, value: f64) -> (String, Value) {
    (
        name.to_string(),
        obj(vec![
            ("value", Value::F64(value)),
            ("unit", Value::Str(unit.into())),
        ]),
    )
}

/// `--trace 0`: set-up children, then end-to-end children until the
/// time budget is spent (at least one).
fn end_to_end(w: Workload, seed: u64, seconds: u64) -> (Value, Value) {
    let mut tally = Tally::default();
    let mut setups = Vec::new();
    for i in 0..SETUP_RUNS {
        if let Some(v) = tally.absorb(spawn_child("setup", w, grid::draw_seed(seed, i), None)) {
            setups.push(num(&v, "setup_s").unwrap_or(f64::NAN));
        }
    }
    let budget = seconds as f64;
    let start = Instant::now();
    let mut runs: Vec<Value> = Vec::new();
    for i in 0.. {
        let Some(v) = tally.absorb(spawn_child("e2e", w, grid::draw_seed(seed, i), None)) else {
            break;
        };
        let wall = num(&v, "wall_s").unwrap_or(budget);
        runs.push(v);
        if start.elapsed().as_secs_f64() + wall > budget {
            break;
        }
    }
    let per_run = |f: &dyn Fn(&Value) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
    let field = |k: &'static str| move |v: &Value| num(v, k).unwrap_or(0.0);
    let rate = |k: &'static str| {
        move |v: &Value| count(v, k) as f64 / num(v, "wall_s").unwrap_or(f64::INFINITY) / 1e6
    };
    let values = [
        per_run(&field("wall_s")),
        per_run(&field("cpu_s")),
        per_run(&rate("cycles")),
        per_run(&rate("retired")),
        per_run(&field("peak_rss_mb")),
        median(&setups),
        1.0 - tally.failed as f64 / tally.attempted.max(1) as f64,
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|((name, unit), v)| metric(name, unit, v))
        .collect();
    let ran = !runs.is_empty() && setups.len() == SETUP_RUNS;
    let (result, errors) = tally.result(ran, metrics);
    let record = obj(vec![
        (
            "setup_s",
            Value::Seq(setups.into_iter().map(Value::F64).collect()),
        ),
        ("e2e", Value::Seq(runs)),
        ("errors", errors),
    ]);
    (result, record)
}

/// Per-layer metrics and their units, in `BENCHMARK.json` order.
const PER_LAYER_UNITS: [(&str, &str); 48] = [
    ("isa.asm_s", "s"),
    ("isa.interp_s", "s"),
    ("isa.retired", "count"),
    ("isa.ns_per_inst", "ns"),
    ("workloads.record_s", "s"),
    ("workloads.uops", "count"),
    ("workloads.ns_per_uop", "ns"),
    ("workloads.arena_mb", "MB"),
    ("soc.replay_s", "s"),
    ("soc.ns_per_uop", "ns"),
    ("uarch.self_s", "s"),
    ("uarch.cycles", "count"),
    ("uarch.ipc", "ratio"),
    ("uarch.mispredicts", "count"),
    ("uarch.fetch_stall_cycles", "count"),
    ("uarch.data_stall_cycles", "count"),
    ("uarch.structural_stall_cycles", "count"),
    ("mem.access_s", "s"),
    ("mem.accesses", "count"),
    ("mem.ns_per_access", "ns"),
    ("mem.l1d_miss_rate", "ratio"),
    ("mem.l2_miss_rate", "ratio"),
    ("mem.llc_accesses", "count"),
    ("mem.dram.access_s", "s"),
    ("mem.dram.accesses", "count"),
    ("mem.dram.row_hit_rate", "ratio"),
    ("mem.dram.token_stall_cycles", "count"),
    ("mpi.replay_s", "s"),
    ("mpi.events", "count"),
    ("mpi.messages", "count"),
    ("mpi.bytes", "bytes"),
    ("sweepx.record_s", "s"),
    ("sweepx.replay_s", "s"),
    ("sweepx.lanes", "count"),
    ("sweepx.segments", "count"),
    ("sweepx.clusters", "count"),
    ("sweepx.sampled_uop_frac", "ratio"),
    ("sweepx.sample_err_max", "ratio"),
    ("sweepx.sample_bound_cover", "ratio"),
    ("core.preflight_s", "s"),
    ("core.cells", "count"),
    ("core.cell_p50_ms", "ms"),
    ("core.cell_p90_ms", "ms"),
    ("core.grid_overhead_s", "s"),
    ("resilience.snapshot_s", "s"),
    ("resilience.ckpt_bytes", "bytes"),
    ("trace.cover", "ratio"),
    ("trace.overhead", "ratio"),
];

/// `--trace 1`: one end-to-end child (it writes the checkpoint the
/// traced child re-snapshots), then one traced child.
fn traced(w: Workload, seed: u64, ckpt: &Path) -> (Value, Value) {
    let mut tally = Tally::default();
    let draw = grid::draw_seed(seed, 0);
    let e2e = tally.absorb(spawn_child("e2e", w, draw, Some(ckpt)));
    let tr = match e2e {
        Some(_) => tally.absorb(spawn_child("traced", w, draw, Some(ckpt))),
        None => None,
    };
    let layer = |k: &str| {
        tr.as_ref()
            .and_then(|v| v.get("metrics"))
            .and_then(|m| num(m, k))
    };
    let wall = |v: &Option<Value>| v.as_ref().and_then(|v| num(v, "wall_s"));
    let overhead = match (wall(&tr), wall(&e2e)) {
        (Some(t), Some(e)) if e > 0.0 => t / e,
        _ => 0.0,
    };
    let cover = layer("trace.cover").unwrap_or(0.0);
    if tr.is_some() && cover < MIN_COVER {
        tally
            .errors
            .push(format!("trace.cover {cover:.3} is below {MIN_COVER}"));
    }
    let lanes = |v: &Option<Value>| v.as_ref().and_then(|v| v.get("lane_cycles")).cloned();
    if w == Workload::CgSweep && tr.is_some() && lanes(&e2e) != lanes(&tr) {
        tally
            .errors
            .push("traced lane cycles differ from the e2e run's".into());
    }
    let metrics = PER_LAYER_UNITS
        .iter()
        .map(|(name, unit)| {
            let v = if *name == "trace.overhead" {
                overhead
            } else {
                layer(name).unwrap_or(0.0)
            };
            metric(name, unit, v)
        })
        .collect();
    let (result, errors) = tally.result(tr.is_some(), metrics);
    let record = obj(vec![
        ("e2e", e2e.unwrap_or(Value::Null)),
        ("traced", tr.unwrap_or(Value::Null)),
        ("errors", errors),
    ]);
    (result, record)
}
