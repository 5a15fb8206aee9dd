//! Deterministic, seeded fault-injection plans.
//!
//! A [`FaultPlan`] is pure data: a list of [`FaultEvent`]s fixed before
//! the run starts. The MPI layer applies [`FaultKind::LinkDegrade`] and
//! [`FaultKind::LinkZeroLatency`] to its `NetConfig`; the scale-out and
//! service scenarios of `bsim faults` inject the remaining kinds at the
//! socket and store boundaries. Because every event is fixed by the plan,
//! an injected run is exactly as reproducible as a clean one.

/// The fault classes the campaign injects.
///
/// Survival semantics (asserted by `bsim faults`):
///
/// | kind | expectation |
/// |---|---|
/// | `LinkDegrade` | **survives**: virtual time stretches, results stay sound |
/// | `LinkZeroLatency` | **survives with diagnostic**: `NC002` warns that a zero-latency link makes every overlap conclusion vacuous |
/// | `WireBitFlip` | **survives**: the dist frame CRC32 detects the corruption, the connection is torn down as a typed loss, and the rank respawns from the checkpoint — the merged result stays byte-identical |
/// | `SlowPeer` | **survives**: guard socket timeouts convert a silent peer into a typed timeout error within the deadline budget instead of pinning a worker forever |
/// | `StoreCorrupt` | **survives**: the result-store entry checksum mismatches, the entry is quarantined (never served), and the value is recomputed |
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Divide the link bandwidth and multiply the link latency by this
    /// factor (applied to `NetConfig` by the MPI layer).
    LinkDegrade {
        /// Degradation factor (≥ 1).
        factor: u32,
    },
    /// Zero the link latency while bandwidth stays finite (`NC002`).
    LinkZeroLatency,
    /// XOR one bit into the raw byte stream of a dist socket —
    /// below the frame layer, so only the frame CRC can catch it.
    WireBitFlip {
        /// Bit index within the corrupted byte window.
        bit: u32,
    },
    /// A peer that accepts the connection and then goes silent for this
    /// many host milliseconds (slow-loris on the wire).
    SlowPeer {
        /// Host-time silence length in milliseconds.
        millis: u64,
    },
    /// Flip bytes inside a serialized result-store entry at rest.
    StoreCorrupt,
}

impl FaultKind {
    /// Stable lowercase label, used in campaign rows.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::LinkDegrade { .. } => "link_degrade",
            FaultKind::LinkZeroLatency => "link_zero_latency",
            FaultKind::WireBitFlip { .. } => "wire_bit_flip",
            FaultKind::SlowPeer { .. } => "slow_peer",
            FaultKind::StoreCorrupt => "store_corrupt",
        }
    }
}

/// What a fault event targets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultTarget {
    /// The MPI link model (link faults).
    Link,
}

/// One planned fault.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultEvent {
    /// What is hit.
    pub target: FaultTarget,
    /// Target cycle at which the fault fires (ignored for
    /// [`FaultTarget::Link`], which applies for the whole run).
    pub cycle: u64,
    /// The fault class.
    pub kind: FaultKind,
}

/// A deterministic, seeded set of [`FaultEvent`]s.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// Seed recorded for reproduction (0 for hand-built plans).
    pub seed: u64,
    /// The planned events, in insertion order.
    pub events: Vec<FaultEvent>,
}

/// `splitmix64` step — the same tiny deterministic generator the
/// workloads use for input synthesis; no dependence on host entropy.
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// An empty plan with a recorded seed.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            events: Vec::new(),
        }
    }

    /// Adds one event.
    pub fn inject(mut self, target: FaultTarget, cycle: u64, kind: FaultKind) -> FaultPlan {
        self.events.push(FaultEvent {
            target,
            cycle,
            kind,
        });
        self
    }

    /// Whether the plan has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events targeting the link model.
    pub fn link_events(&self) -> impl Iterator<Item = &FaultEvent> {
        self.events.iter().filter(|e| e.target == FaultTarget::Link)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_events_keep_insertion_order() {
        let plan = FaultPlan::new(1)
            .inject(FaultTarget::Link, 0, FaultKind::LinkDegrade { factor: 4 })
            .inject(FaultTarget::Link, 0, FaultKind::LinkZeroLatency);
        let kinds: Vec<&str> = plan.link_events().map(|e| e.kind.label()).collect();
        assert_eq!(kinds, ["link_degrade", "link_zero_latency"]);
        assert!(!plan.is_empty());
        assert!(FaultPlan::new(0).is_empty());
    }
}
