//! The built-in fault-injection campaign behind `bsim faults`.
//!
//! Four in-process scenarios, each with a *typed expectation* and each
//! running a real MPI workload through `MpiWorld`, the path every
//! multi-rank figure takes: a degraded link must stretch virtual time, a
//! dead link must saturate timestamps instead of wrapping, a lost rank
//! must tear the world down loudly, and a zero-latency link must run but
//! be flagged. The CLI appends the scale-out and service rows. The
//! campaign renders a survival matrix; `--deny-unsurvived` turns any
//! expectation miss into a non-zero exit, which is what the CI `faults`
//! job gates on.
//!
//! Determinism: every expectation is exact — the matrix is reproducible
//! run-to-run, which is the property that makes fault injection usable
//! as a regression gate rather than a fuzzer.

use bsim_mpi::{MpiWorld, NetConfig, RankCtx};
use bsim_resilience::retry::panic_message;
use bsim_soc::configs;
use bsim_telemetry::CounterBlock;
use bsim_workloads::npb::ep;

/// One campaign scenario's verdict.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Scenario name (row label).
    pub name: &'static str,
    /// Injected fault, `FaultKind::label` spelling.
    pub fault: &'static str,
    /// The typed expectation the scenario asserts.
    pub expected: &'static str,
    /// What actually happened, one line.
    pub observed: String,
    /// Did the observation match the expectation?
    pub pass: bool,
}

/// The campaign's survival matrix.
#[derive(Clone, Debug)]
pub struct SurvivalMatrix {
    /// Seed the injection cycles/bits derive from.
    pub seed: u64,
    /// One row per scenario.
    pub scenarios: Vec<Scenario>,
}

impl SurvivalMatrix {
    /// True when every scenario behaved as its taxonomy entry predicts.
    pub fn all_pass(&self) -> bool {
        self.scenarios.iter().all(|s| s.pass)
    }

    /// Plain-text matrix, one row per scenario.
    pub fn render(&self) -> String {
        let mut out = format!(
            "== Fault-injection campaign (seed {}) ==\n{:<18} {:<18} {:<34} {:<7} observed\n",
            self.seed, "scenario", "fault", "expected", "verdict"
        );
        for s in &self.scenarios {
            out.push_str(&format!(
                "{:<18} {:<18} {:<34} {:<7} {}\n",
                s.name,
                s.fault,
                s.expected,
                if s.pass { "pass" } else { "MISS" },
                s.observed
            ));
        }
        out.push_str(&format!(
            "{}/{} scenarios behaved as specified\n",
            self.scenarios.iter().filter(|s| s.pass).count(),
            self.scenarios.len(),
        ));
        out
    }

    /// Publishes the campaign verdict under `host.resilience.campaign.*`.
    pub fn publish(&self, block: &mut CounterBlock) {
        block.set_named(
            "host.resilience.campaign.scenarios",
            self.scenarios.len() as u64,
        );
        block.set_named(
            "host.resilience.campaign.passed",
            self.scenarios.iter().filter(|s| s.pass).count() as u64,
        );
    }
}

/// The tiny MPI workload the link-fault scenarios run.
fn ep_cycles(net: NetConfig) -> u64 {
    let r = ep::run(
        configs::rocket1(2),
        2,
        ep::EpConfig {
            pairs_per_rank: 1 << 9,
        },
        net,
    );
    r.report.run.cycles
}

/// Runs the in-process scenarios. Wall-clock is dominated by the MPI
/// stall detector's deliberate rank-loss teardown.
pub fn run_campaign(seed: u64) -> SurvivalMatrix {
    let mut rows = Vec::new();

    // 1. Link degrade: the workload survives on a slower link and its
    //    virtual runtime stretches.
    let base_cycles = ep_cycles(NetConfig::shared_memory());
    let slow_cycles = ep_cycles(NetConfig::shared_memory().degrade(8));
    rows.push(Scenario {
        name: "link-degrade",
        fault: "link_degrade",
        expected: "survives; runtime stretches",
        observed: format!("EP cycles {base_cycles} -> {slow_cycles} at 8x degradation"),
        pass: slow_cycles > base_cycles,
    });

    // 2. Dead link (NC001 territory): bandwidth zero saturates every
    //    transfer to "never delivers" (`u64::MAX`). The safe-failure
    //    contract is that timestamps pin to MAX instead of wrapping —
    //    the run completes with an unmissably absurd cycle count, and
    //    NC001 is what flags the config before a cycle is simulated.
    let dead = NetConfig {
        bytes_per_cycle: 0.0,
        ..NetConfig::shared_memory()
    };
    let nc001 = dead.lint("campaign.dead").has_code("NC001");
    let dead_cycles = ep_cycles(dead);
    rows.push(Scenario {
        name: "link-dead",
        fault: "link_dead",
        expected: "NC001 + cycles saturate to MAX",
        observed: format!("lint NC001={nc001}; virtual time pinned to {dead_cycles}"),
        pass: nc001 && dead_cycles == u64::MAX,
    });

    // 3. Rank loss: a rank waits on a message that is never sent (its
    //    peer is gone). The MPI runtime's stall detector tears the
    //    world down with a typed "MPI deadlock" panic instead of
    //    hanging the host — the MPI-layer analog of the watchdog.
    let outcome = std::panic::catch_unwind(|| {
        MpiWorld::run(
            configs::rocket1(2),
            2,
            NetConfig::shared_memory(),
            |ctx: &mut RankCtx| {
                if ctx.rank() == 0 {
                    // The "lost" peer never answers.
                    let _ = ctx.recv(1, 7);
                }
            },
        )
    });
    rows.push(match outcome {
        Err(payload) => {
            let msg = panic_message(payload.as_ref());
            Scenario {
                name: "rank-loss",
                fault: "rank_loss",
                expected: "loud MPI deadlock teardown",
                observed: format!("torn down: {msg}"),
                pass: msg.contains("MPI deadlock"),
            }
        }
        Ok(_) => Scenario {
            name: "rank-loss",
            fault: "rank_loss",
            expected: "loud MPI deadlock teardown",
            observed: "unexpectedly completed".into(),
            pass: false,
        },
    });

    // 4. Zero-latency link (NC002): a survivable misconfiguration — the
    //    run completes, the lint is what makes the vacuous-model hazard
    //    visible.
    let zero = NetConfig::shared_memory().zero_latency();
    let nc002 = zero.lint("campaign.zero").has_code("NC002");
    let zero_cycles = ep_cycles(zero);
    rows.push(Scenario {
        name: "link-zero-lat",
        fault: "link_zero_latency",
        expected: "survives; NC002 diagnostic",
        observed: format!("lint NC002={nc002}; completed in {zero_cycles} cycles"),
        pass: nc002 && zero_cycles > 0 && zero_cycles <= base_cycles,
    });

    SurvivalMatrix {
        seed,
        scenarios: rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_is_deterministic_and_survives_as_specified() {
        let a = run_campaign(42);
        assert!(a.all_pass(), "matrix:\n{}", a.render());
        assert_eq!(a.scenarios.len(), 4);
        let render = a.render();
        for label in [
            "link_degrade",
            "link_dead",
            "rank_loss",
            "link_zero_latency",
        ] {
            assert!(render.contains(label), "{label} missing:\n{render}");
        }
        // Same seed, same verdicts and observations (host-time figures
        // are deliberately absent from the rows).
        let b = run_campaign(42);
        let rows = |m: &SurvivalMatrix| -> Vec<(String, bool)> {
            m.scenarios
                .iter()
                .map(|s| (s.observed.clone(), s.pass))
                .collect()
        };
        assert_eq!(rows(&a), rows(&b));

        let mut block = CounterBlock::new(true);
        a.publish(&mut block);
        assert_eq!(block.get("host.resilience.campaign.passed"), Some(4));
    }
}
