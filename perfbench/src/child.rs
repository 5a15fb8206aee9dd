//! Child processes. The parent process runs every measurement in a fresh
//! process of its own, so peak RSS and set-up time belong to that one
//! workload: `perfbench child <setup|e2e|traced> <workload> <seed>
//! <spawn-ns> [<checkpoint>]` prints one JSON line.

use crate::grid::{self, Sweep, Workload};
use crate::json::{line, obj};
use crate::refs;
use crate::traced;
use serde_json::Value;
use silicon_bridge::core::CkptStore;
use std::path::{Path, PathBuf};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// Wall-clock nanoseconds since the Unix epoch: the one clock parent
/// and child share, used to time process start-up.
pub fn epoch_ns() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .expect("clock is past the epoch")
        .as_nanos() as u64
}

/// User + system CPU seconds of this process, all threads, from
/// `/proc/self/stat` (fields 14 and 15, in USER_HZ = 100 ticks).
fn cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let f: Vec<u64> = after
        .split_whitespace()
        .map(|x| x.parse().unwrap_or(0))
        .collect();
    (f.get(11).copied().unwrap_or(0) + f.get(12).copied().unwrap_or(0)) as f64 / 100.0
}

/// Peak resident set (VmHWM) of this process in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn strs(v: &[String]) -> Value {
    Value::Seq(v.iter().map(|s| Value::Str(s.clone())).collect())
}

pub fn main(args: &[String]) {
    let (mode, w, seed, spawn_ns) = match args {
        [mode, w, seed, spawn, ..] => (
            mode.as_str(),
            Workload::parse(w),
            seed.parse::<u64>().ok(),
            spawn.parse::<u64>().ok(),
        ),
        _ => ("", None, None, None),
    };
    let (Some(w), Some(seed), Some(spawn_ns)) = (w, seed, spawn_ns) else {
        eprintln!(
            "usage: perfbench child <setup|e2e|traced> <workload> <seed> <spawn-ns> [<checkpoint>]"
        );
        std::process::exit(2)
    };
    let store = args.get(4).map(PathBuf::from);
    let out = match mode {
        "setup" => {
            let work = if w == Workload::CgSweep {
                Sweep::new(seed).cfgs.len()
            } else {
                grid::setup_exact(w)
            };
            std::hint::black_box(work);
            let setup_s = epoch_ns().saturating_sub(spawn_ns) as f64 / 1e9;
            obj(vec![("setup_s", Value::F64(setup_s))])
        }
        "e2e" => e2e(w, seed, store.as_deref()),
        "traced" => {
            let store = store.unwrap_or_else(|| {
                eprintln!("the traced child needs the e2e checkpoint path");
                std::process::exit(2)
            });
            let stem = format!("{}-seed{seed}", w.name());
            let dir = crate::out_dir();
            let t = traced::run(
                w,
                seed,
                &store,
                &dir.join(format!("spans-{stem}.json")),
                &dir.join(format!("snapshot-{stem}.json")),
            );
            let metrics = t
                .metrics
                .iter()
                .map(|(k, v)| (k.to_string(), Value::F64(*v)))
                .collect();
            obj(vec![
                ("wall_s", Value::F64(t.wall_s)),
                ("cells", Value::U64(t.cells)),
                ("failed", Value::U64(t.errors.len() as u64)),
                ("errors", strs(&t.errors)),
                (
                    "lane_cycles",
                    Value::Seq(t.lane_cycles.iter().map(|&c| Value::U64(c)).collect()),
                ),
                ("metrics", Value::Map(metrics)),
            ])
        }
        _ => {
            eprintln!("unknown child mode '{mode}'");
            std::process::exit(2)
        }
    };
    println!("{}", line(&out));
}

/// One untraced end-to-end run: the workload's figures (or sweep) timed
/// from outside, then checked against the committed references.
fn e2e(w: Workload, seed: u64, store_path: Option<&Path>) -> Value {
    let mut errors = Vec::new();
    let mut cells = 0u64;
    let mut failed = 0u64;
    let mut store = CkptStore::new();
    let mut extra = Vec::new();
    let (cycles, retired, wall_s, cpu);
    if w == Workload::CgSweep {
        let pool = refs::load_pool().unwrap_or_else(|e| panic!("{e}"));
        let cpu0 = cpu_s();
        let t = Instant::now();
        let run = std::panic::catch_unwind(|| {
            let sw = Sweep::new(seed);
            let trace = grid::record_sweep(&sw);
            let lanes = grid::replay_sweep(&sw, &trace);
            (sw, lanes)
        });
        wall_s = t.elapsed().as_secs_f64();
        cpu = cpu_s() - cpu0;
        cells = grid::SWEEP_CONFIGS as u64;
        match run {
            Ok((sw, lanes)) => {
                let exact: Vec<(u64, u64)> = sw.picks.iter().map(|&i| pool.pool[i]).collect();
                cycles = exact.iter().map(|e| e.0).sum();
                retired = exact.iter().map(|e| e.1).sum();
                let exact_cycles: Vec<u64> = exact.iter().map(|e| e.0).collect();
                let acc = grid::sample_accuracy(&lanes, &exact_cycles);
                // Sampled cycles are estimates, so the lane check is the
                // sampler's bookkeeping: every lane returns a report
                // that accounts for each recorded micro-op as measured
                // or fast-forwarded. Accuracy is reported, not gated.
                for (i, cfg) in sw.cfgs.iter().enumerate() {
                    let total = lanes
                        .get(i)
                        .and_then(|o| o.sample.as_ref())
                        .map(|r| r.total_uops);
                    if total != Some(exact[i].1) {
                        failed += 1;
                        errors.push(format!(
                            "{}: sample report covers {total:?} micro-ops, the trace has {}",
                            cfg.name, exact[i].1
                        ));
                    }
                }
                let err_max = acc.iter().map(|a| a.0).fold(0.0, f64::max);
                let cover = acc.iter().filter(|a| a.1).count() as f64 / acc.len().max(1) as f64;
                extra.push(("sample_err_max", Value::F64(err_max)));
                extra.push(("sample_bound_cover", Value::F64(cover)));
                extra.push((
                    "lane_cycles",
                    Value::Seq(
                        lanes
                            .iter()
                            .map(|o| Value::U64(o.report.run.cycles))
                            .collect(),
                    ),
                ));
                extra.push((
                    "picks",
                    Value::Seq(sw.picks.iter().map(|&i| Value::U64(i as u64)).collect()),
                ));
                for (i, o) in lanes.iter().enumerate() {
                    store.put(&format!("lane{i:02}"), &o.report.run);
                }
            }
            Err(p) => {
                (cycles, retired) = (0, 0);
                failed = cells;
                errors.push(format!(
                    "sweep panicked: {}",
                    traced::panic_message(p.as_ref())
                ));
            }
        }
    } else {
        let reference = refs::load_exact(w).unwrap_or_else(|e| panic!("{e}"));
        cycles = reference.cycles();
        retired = reference.retired();
        let cpu0 = cpu_s();
        let t = Instant::now();
        let results = grid::run_figures(w);
        wall_s = t.elapsed().as_secs_f64();
        cpu = cpu_s() - cpu0;
        let keys = grid::subfigure_keys(w);
        if results
            .iter()
            .map(|(k, _)| k.as_str())
            .ne(keys.iter().copied())
        {
            errors.push(format!("subfigure keys differ from {keys:?}"));
        }
        for (key, outcome) in &results {
            let n = grid::grid_cells(key) as u64;
            cells += n;
            match outcome.value() {
                Some(fig) => {
                    let got = refs::digest(fig);
                    match reference.digest(key) {
                        Some(want) if want == got => store.put(key, fig),
                        want => {
                            failed += n;
                            errors.push(format!(
                                "{key}: digest {got}, committed {}",
                                want.unwrap_or("none")
                            ));
                        }
                    }
                }
                None => {
                    failed += n;
                    errors.push(format!("{key}: failed"));
                }
            }
        }
    }
    if let Some(path) = store_path {
        if let Err(e) = store.save(path) {
            errors.push(format!("cannot write {}: {e}", path.display()));
        }
    }
    let mut fields = vec![
        ("wall_s", Value::F64(wall_s)),
        ("cpu_s", Value::F64(cpu)),
        ("peak_rss_mb", Value::F64(peak_rss_mb())),
        ("cycles", Value::U64(cycles)),
        ("retired", Value::U64(retired)),
        ("cells", Value::U64(cells)),
        ("failed", Value::U64(failed)),
        ("errors", strs(&errors)),
    ];
    fields.extend(extra);
    obj(fields)
}
