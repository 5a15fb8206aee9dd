//! Content-addressed cell keys: a stable, field-order-independent hash
//! of *what a cell computes* — (canonicalized platform config ×
//! workload × seed × code/schema version) — so identical cells across
//! concurrent and historical requests collide in the result store and
//! are served instead of re-simulated.
//!
//! The hash is [`bsim_resilience::content_hash`] over the canonical
//! form documented there: sorted map keys, `telemetry` fields dropped
//! (telemetry never affects simulated timing), unified integers, and
//! tagged non-finite floats.
//!
//! Any *semantic* knob change — a cache way, the clock, the kernel
//! name, the seed — lands in the rendered text and therefore changes
//! the key; the unit tests pin both directions.

use bsim_resilience::content_hash;
use serde::{Serialize, Value};

/// Result-store schema the daemon persists: the same versioned-JSON
/// lineage as the bench export. Folded into every cell key so a schema
/// migration invalidates old entries by construction.
pub const STORE_SCHEMA: &str = "bsim-bench-v1";

/// Simulation code version folded into every cell key. Bump when a
/// model change makes previously stored results stale — old entries
/// then simply stop colliding instead of being served wrongly.
pub const CODE_VERSION: u64 = 1;

/// Renders a canonical tree's hash as the 16-hex-digit store key.
pub fn key_of(v: &Value) -> String {
    format!("{:016x}", content_hash(v))
}

fn versioned(kind: &str, mut fields: Vec<(String, Value)>) -> Value {
    fields.push(("kind".into(), Value::Str(kind.into())));
    fields.push(("schema".into(), Value::Str(STORE_SCHEMA.into())));
    fields.push(("code".into(), Value::U64(CODE_VERSION)));
    Value::Map(fields)
}

/// Key for one microbenchmark cell: platform config × kernel × scale ×
/// seed, under the current schema/code version.
pub fn micro_cell_key(cfg: &bsim_soc::SocConfig, kernel: &str, scale: u32, seed: u64) -> String {
    key_of(&versioned(
        "micro",
        vec![
            ("config".into(), cfg.to_value()),
            ("workload".into(), Value::Str(kernel.into())),
            ("scale".into(), Value::U64(u64::from(scale))),
            ("seed".into(), Value::U64(seed)),
        ],
    ))
}

/// Key for one figure subcell (e.g. `fig3a`) at a named size preset.
/// Host parallelism is deliberately absent: figures are bit-identical
/// across worker counts, so `--par` must not fragment the cache.
pub fn fig_cell_key(figure: &str, subkey: &str, sizes: &str, seed: u64) -> String {
    key_of(&versioned(
        "fig",
        vec![
            ("figure".into(), Value::Str(figure.into())),
            ("subkey".into(), Value::Str(subkey.into())),
            ("sizes".into(), Value::Str(sizes.into())),
            ("seed".into(), Value::U64(seed)),
        ],
    ))
}

/// Key for the §4 model-selection loop at a given probe scale.
pub fn tune_cell_key(scale: u32, seed: u64) -> String {
    key_of(&versioned(
        "tune",
        vec![
            ("scale".into(), Value::U64(u64::from(scale))),
            ("seed".into(), Value::U64(seed)),
        ],
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsim_soc::configs;
    use bsim_telemetry::TelemetryConfig;

    #[test]
    fn equal_configs_hash_identically_telemetry_stripped() {
        // Two differently-constructed but semantically equal platforms:
        // telemetry is observational only, so enabling it must not
        // fragment the cache.
        let plain = configs::rocket1(1);
        let observed = configs::rocket1(1).with_telemetry(TelemetryConfig::counters());
        assert_eq!(
            micro_cell_key(&plain, "EM5", 1, 0),
            micro_cell_key(&observed, "EM5", 1, 0)
        );
        // And a by-name catalog lookup of the same platform agrees with
        // direct construction.
        let by_name = configs::by_name("rocket 1", 1).unwrap();
        assert_eq!(
            micro_cell_key(&plain, "EM5", 1, 0),
            micro_cell_key(&by_name, "EM5", 1, 0)
        );
    }

    #[test]
    fn any_knob_change_changes_the_key() {
        let base = configs::rocket1(1);
        let k = micro_cell_key(&base, "EM5", 1, 0);

        let mut faster = configs::rocket1(1);
        faster.freq_ghz += 0.1;
        assert_ne!(k, micro_cell_key(&faster, "EM5", 1, 0), "clock knob");

        let wider = configs::rocket1(2);
        assert_ne!(k, micro_cell_key(&wider, "EM5", 1, 0), "core count");

        assert_ne!(k, micro_cell_key(&base, "STc", 1, 0), "workload");
        assert_ne!(k, micro_cell_key(&base, "EM5", 2, 0), "scale");
        assert_ne!(k, micro_cell_key(&base, "EM5", 1, 1), "seed");
        assert_ne!(
            k,
            micro_cell_key(&configs::rocket2(1), "EM5", 1, 0),
            "different platform"
        );
    }

    #[test]
    fn kinds_and_subkeys_do_not_collide() {
        assert_ne!(fig_cell_key("1", "fig1", "smoke", 0), tune_cell_key(1, 0));
        assert_ne!(
            fig_cell_key("3", "fig3a", "smoke", 0),
            fig_cell_key("3", "fig3b", "smoke", 0)
        );
        assert_ne!(
            fig_cell_key("1", "fig1", "smoke", 0),
            fig_cell_key("1", "fig1", "default", 0)
        );
    }

    #[test]
    fn keys_are_16_hex_digits() {
        let k = tune_cell_key(1, 42);
        assert_eq!(k.len(), 16);
        assert!(k.chars().all(|c| c.is_ascii_hexdigit()));
    }
}
