//! Committed reference results (`perfbench/refs/<workload>.json`) and
//! the `gen-refs` command that produces them.
//!
//! An exact workload's reference holds one digest per subfigure and
//! the simulated cycles and retired micro-ops of every decomposition
//! cell, taken from the fused cell call the figure grid makes. The
//! sweep's reference holds the exact (unsampled) cycles of every
//! geometry in its pool. A change that only speeds the simulator up
//! must leave every one of these values identical.

use crate::grid::{self, Workload};
use crate::json::{obj, parse_file};
use serde_json::Value;
use silicon_bridge::core::FigureData;
use silicon_bridge::workloads::microbench;
use std::path::PathBuf;

/// Directory of the committed references.
fn dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("refs")
}

fn path(w: Workload) -> PathBuf {
    dir().join(format!("{}.json", w.name()))
}

/// FNV-1a over a figure's title, series names and points. The note is
/// left out: it carries the host sweep rate, which changes every run.
pub fn digest(fig: &FigureData) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(fig.title.as_bytes());
    eat(&[0xff]);
    for s in &fig.series {
        eat(s.name.as_bytes());
        eat(&[0xfe]);
        for (label, v) in &s.points {
            eat(label.as_bytes());
            eat(&[0xfd]);
            eat(&v.to_bits().to_le_bytes());
        }
    }
    format!("{h:016x}")
}

/// The reference of an exact workload.
pub struct ExactRef {
    /// `(subfigure key, digest)` in plan order.
    pub digests: Vec<(String, String)>,
    /// `(cycles, retired)` per decomposition cell, in grid order.
    pub cells: Vec<(u64, u64)>,
}

impl ExactRef {
    /// Total simulated target cycles over the workload's cells.
    pub fn cycles(&self) -> u64 {
        self.cells.iter().map(|c| c.0).sum()
    }

    /// Total retired micro-ops over the workload's cells.
    pub fn retired(&self) -> u64 {
        self.cells.iter().map(|c| c.1).sum()
    }

    /// The committed digest of subfigure `key`.
    pub fn digest(&self, key: &str) -> Option<&str> {
        self.digests
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, d)| d.as_str())
    }
}

/// The reference of the sampled sweep: exact `(cycles, retired)` per
/// pool geometry, in [`grid::geometry_pool`] order.
pub struct PoolRef {
    pub pool: Vec<(u64, u64)>,
}

fn u64_at(v: &Value, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("reference field '{key}' missing or not an integer"))
}

fn counts(v: &Value, key: &str) -> Result<Vec<(u64, u64)>, String> {
    v.get(key)
        .and_then(Value::as_seq)
        .ok_or_else(|| format!("reference field '{key}' missing"))?
        .iter()
        .map(|c| Ok((u64_at(c, "cycles")?, u64_at(c, "retired")?)))
        .collect()
}

/// Loads an exact workload's reference, checking it against the
/// current cell table.
pub fn load_exact(w: Workload) -> Result<ExactRef, String> {
    let v = parse_file(&path(w))?;
    let digests = match v.get("subfigures") {
        Some(Value::Map(entries)) => entries
            .iter()
            .map(|(k, d)| {
                d.as_str()
                    .map(|d| (k.clone(), d.to_string()))
                    .ok_or_else(|| format!("digest of {k} is not a string"))
            })
            .collect::<Result<Vec<_>, String>>()?,
        _ => return Err("reference has no subfigure digests".into()),
    };
    let cells = counts(&v, "cells")?;
    let want = grid::cells(w).len();
    if cells.len() != want {
        return Err(format!(
            "reference has {} cells, the grid has {want}",
            cells.len()
        ));
    }
    Ok(ExactRef { digests, cells })
}

/// Loads the sweep's pool reference.
pub fn load_pool() -> Result<PoolRef, String> {
    let pool = counts(&parse_file(&path(Workload::CgSweep))?, "pool")?;
    let want = grid::geometry_pool().len();
    if pool.len() != want {
        return Err(format!(
            "reference has {} pool geometries, the pool has {want}",
            pool.len()
        ));
    }
    Ok(PoolRef { pool })
}

fn cell_entry(label: &str, cycles: u64, retired: u64) -> Value {
    obj(vec![
        ("label", Value::Str(label.to_string())),
        ("cycles", Value::U64(cycles)),
        ("retired", Value::U64(retired)),
    ])
}

/// `perfbench gen-refs [<workload>...]`: recomputes the references
/// from the library's own entry points and writes them. Run it only
/// for a change that is meant to alter simulated results.
pub fn generate(args: &[String]) {
    let targets: Vec<Workload> = if args.is_empty() {
        Workload::ALL.to_vec()
    } else {
        args.iter()
            .map(|a| {
                Workload::parse(a).unwrap_or_else(|| {
                    eprintln!("unknown workload '{a}'");
                    std::process::exit(2)
                })
            })
            .collect()
    };
    for w in targets {
        let doc = if w == Workload::CgSweep {
            pool_reference()
        } else {
            exact_reference(w)
        };
        let text = serde_json::to_string_pretty(&doc).expect("shim renderer is total");
        std::fs::write(path(w), text + "\n")
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path(w).display()));
        eprintln!("wrote {}", path(w).display());
    }
}

fn exact_reference(w: Workload) -> Value {
    let mut digests = Vec::new();
    for (key, outcome) in grid::run_figures(w) {
        let fig = outcome
            .value()
            .unwrap_or_else(|| panic!("{key} failed; no reference written"));
        digests.push((key, Value::Str(digest(fig))));
    }
    let kernels = microbench::evaluated();
    let cells: Vec<Value> = grid::cells(w)
        .iter()
        .map(|c| {
            let rep = grid::run_fused(c, &kernels);
            cell_entry(&c.label, rep.cycles, rep.retired)
        })
        .collect();
    obj(vec![
        ("workload", Value::Str(w.name().into())),
        ("subfigures", Value::Map(digests)),
        ("cells", Value::Seq(cells)),
    ])
}

fn pool_reference() -> Value {
    let pool = grid::geometry_pool();
    grid::preflight(&pool);
    let (_, trace) = silicon_bridge::workloads::npb::cg::record(
        pool[0].clone(),
        grid::SWEEP_RANKS,
        grid::sweep_cg(),
        grid::net(),
    );
    let exact = silicon_bridge::sweepx::replay_world(&trace, &pool, grid::net(), None);
    let entries = pool
        .iter()
        .zip(&exact)
        .map(|(cfg, o)| cell_entry(&cfg.name, o.report.run.cycles, o.report.run.retired))
        .collect();
    obj(vec![
        ("workload", Value::Str(Workload::CgSweep.name().into())),
        ("pool", Value::Seq(entries)),
    ])
}
