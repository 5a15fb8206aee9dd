//! Cross-crate resilience tests: checkpoint/resume exercised end to end
//! through the public facade and the `bsim fig` CLI.

use std::process::Command;

use silicon_bridge::core::experiments::{FigureData, Sizes};
use silicon_bridge::core::{
    run_figure, run_grid_checkpointed, CellOutcome, CkptStore, Parallelism, RetryPolicy,
};
use silicon_bridge::resilience::Snapshot;
use silicon_bridge::soc::{configs, RunReport, Soc};
use silicon_bridge::workloads::microbench;

/// Figure 6 through the checkpointing path: `(value, attempts)`, where
/// `attempts == 0` means the figure was replayed from `store`.
fn fig6(sizes: Sizes, store: Option<&mut CkptStore>) -> (FigureData, u32) {
    let mut cells = run_figure(
        "6",
        sizes,
        Parallelism::Sequential,
        &RetryPolicy::once(),
        store,
    )
    .expect("checkpoint store is well-formed");
    match cells.remove(0).1 {
        CellOutcome::Ok { value, attempts } => (
            FigureData {
                note: None, // host-rate text, the one host-dependent field
                ..value
            },
            attempts,
        ),
        CellOutcome::Failed { diag, .. } => panic!("fig6 failed: {diag}"),
    }
}

/// A checkpoint written at one workload size must not answer a resume
/// at another: the figure is recomputed, and matches a fresh run at the
/// new size. A resume at the original size still replays.
#[test]
fn resume_at_other_sizes_recomputes_instead_of_replaying() {
    let small = Sizes {
        lj_cells: 2,
        md_steps: 2,
        ..Sizes::smoke()
    };
    let larger = Sizes {
        lj_cells: 3,
        ..small
    };
    let mut store = CkptStore::new();
    let (at_small, _) = fig6(small, Some(&mut store));
    let mut store = CkptStore::from_json(&store.to_json()).expect("wire format round-trips");

    let (resumed, attempts) = fig6(larger, Some(&mut store));
    assert!(
        attempts > 0,
        "a figure computed at other sizes was replayed from the checkpoint"
    );
    assert_eq!(resumed, fig6(larger, None).0, "recomputed figure drifted");
    assert_ne!(resumed, at_small, "the sizes must matter to fig6");

    let (replayed, attempts) = fig6(small, Some(&mut store));
    assert_eq!(attempts, 0, "a resume at the original sizes must replay");
    assert_eq!(replayed, at_small);
}

/// The `bsim fig` surface of the same property: a sampled `--lanes
/// --sample` checkpoint must not be replayed by an exact `--resume`,
/// while resuming the sampled invocation itself still replays.
#[test]
fn an_exact_resume_never_replays_a_sampled_checkpoint() {
    let dir = std::env::temp_dir().join(format!("bsim-ckpt-key-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir is writable");
    let ckpt = dir.join("c.json");
    let ckpt = ckpt.to_str().expect("temp path is UTF-8");
    let bsim = |args: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_bsim"))
            .args(args)
            .output()
            .expect("bsim runs");
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(out.status.success(), "bsim {args:?} failed:\n{stderr}");
        stderr
    };
    bsim(&[
        "fig", "5", "--smoke", "--lanes", "4", "--sample", "--ckpt", ckpt,
    ]);
    let exact = bsim(&["fig", "5", "--smoke", "--resume", ckpt]);
    assert!(
        !exact.contains("replayed from checkpoint"),
        "an exact resume replayed the sampled figure:\n{exact}"
    );
    let sampled = bsim(&[
        "fig", "5", "--smoke", "--lanes", "4", "--sample", "--resume", ckpt,
    ]);
    assert!(
        sampled.contains("fig5: replayed from checkpoint"),
        "the sampled resume recomputed:\n{sampled}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A checkpoint written mid-sweep resumes to
/// bit-identical `RunReport`s — the resumed cells replay from the store
/// and the freshly computed ones reproduce the original run exactly.
#[test]
fn mid_sweep_checkpoint_resumes_bit_identical_run_reports() {
    // A 2 platforms × 2 kernels grid, each cell a full SoC run.
    let platforms = [configs::rocket1(1), configs::small_boom(1)];
    let kernels: Vec<_> = microbench::evaluated()
        .into_iter()
        .filter(|k| ["EM5", "STc"].contains(&k.name))
        .collect();
    assert_eq!(kernels.len(), 2);
    let cell = |i: usize| -> RunReport {
        let cfg = platforms[i / kernels.len()].clone();
        let k = &kernels[i % kernels.len()];
        let mut soc = Soc::new(cfg);
        soc.run_program(0, &k.build(1), u64::MAX)
    };
    let jobs = platforms.len() * kernels.len();

    // The reference sweep, fully simulated.
    let mut full = CkptStore::new();
    let baseline = run_grid_checkpointed(
        &mut full,
        "grid",
        jobs,
        Parallelism::Workers(2),
        &RetryPolicy::once(),
        cell,
    )
    .unwrap();
    assert!(baseline.all_ok());
    assert_eq!(baseline.restored, 0);

    // Simulate a run killed after two cells: only their checkpoints
    // survive, round-tripped through the on-disk JSON wire format.
    let mut partial = CkptStore::new();
    for i in [0usize, 2] {
        let rep = baseline.outcomes[i].value().unwrap();
        partial.put(&format!("grid/cell{i}"), rep);
    }
    let mut resumed_store = CkptStore::from_json(&partial.to_json()).unwrap();
    let resumed = run_grid_checkpointed(
        &mut resumed_store,
        "grid",
        jobs,
        Parallelism::Sequential, // different host schedule on purpose
        &RetryPolicy::once(),
        cell,
    )
    .unwrap();
    assert!(resumed.all_ok());
    assert_eq!(resumed.restored, 2);

    for (i, (a, b)) in baseline
        .outcomes
        .iter()
        .zip(resumed.outcomes.iter())
        .enumerate()
    {
        let (a, b) = (a.value().unwrap(), b.value().unwrap());
        assert_eq!(a.cycles, b.cycles, "cell {i} cycles diverged");
        assert_eq!(a.retired, b.retired, "cell {i} retired diverged");
        assert_eq!(a.exit_code, b.exit_code, "cell {i} exit code diverged");
        // Bit-identical under the checkpoint serialization: the resumed
        // report's snapshot must equal the original's, whether the cell
        // was replayed from disk or re-simulated.
        assert_eq!(a.save(), b.save(), "cell {i} snapshot diverged");
    }
}
