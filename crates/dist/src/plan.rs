//! The plan a coordinator distributes to workers.
//!
//! A plan is plain JSON inside a [`Frame::Plan`](crate::frame::Frame): a
//! **sweep** of independent [`WireCell`]s, indexed so results can be
//! collected and re-planned after a process loss.

use crate::cells::WireCell;
use serde::Value;

/// What a worker process is asked to do.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PlanSpec {
    /// Run these sweep cells (global cell index, cell) sequentially,
    /// reporting each as a `Cell` frame.
    Sweep { cells: Vec<(u32, WireCell)> },
}

impl PlanSpec {
    pub fn encode(&self) -> String {
        let tree = match self {
            PlanSpec::Sweep { cells } => Value::Map(vec![
                ("mode".into(), Value::Str("sweep".into())),
                (
                    "cells".into(),
                    Value::Seq(
                        cells
                            .iter()
                            .map(|(index, cell)| {
                                Value::Map(vec![
                                    ("index".into(), Value::U64(u64::from(*index))),
                                    ("cell".into(), cell.encode()),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
        };
        serde_json::to_string(&tree).expect("shim renderer is total")
    }

    pub fn decode(json: &str) -> Option<PlanSpec> {
        let tree = serde_json::from_str(json).ok()?;
        match tree.get("mode")?.as_str()? {
            "sweep" => {
                let cells = tree
                    .get("cells")?
                    .as_seq()?
                    .iter()
                    .map(|entry| {
                        let index = u32::try_from(entry.get("index")?.as_u64()?).ok()?;
                        Some((index, WireCell::decode(entry.get("cell")?)?))
                    })
                    .collect::<Option<Vec<_>>>()?;
                Some(PlanSpec::Sweep { cells })
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_plans_roundtrip() {
        let sweep = PlanSpec::Sweep {
            cells: vec![
                (
                    0,
                    WireCell::Fig {
                        id: "1".into(),
                        sizes: "smoke".into(),
                        index: 0,
                    },
                ),
                (3, WireCell::Tune { scale: 2 }),
            ],
        };
        assert_eq!(PlanSpec::decode(&sweep.encode()), Some(sweep));
        assert_eq!(PlanSpec::decode("{}"), None);
        assert_eq!(PlanSpec::decode("not json"), None);
    }
}
