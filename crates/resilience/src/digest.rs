//! Canonical content hashing: a stable, field-order-independent 64-bit
//! FNV-1a digest of a [`Value`] tree. Two users share it so there is one
//! hasher in the workspace: `bsim fig --ckpt` keys each stored figure by
//! the digest of what shaped it ([`crate::ckpt`]), and the svc daemon
//! keys its result store by the digest of what a cell computes.
//!
//! The hash is taken over the deterministic JSON rendering of a
//! *canonicalized* [`Value`] tree:
//!
//! - map keys are sorted, so two maps built in different insertion
//!   orders (the shim's `Value::Map` is insertion-ordered) hash alike;
//! - any `telemetry` field is dropped — `bsim_soc::SocConfig`
//!   documents that telemetry never affects simulated timing, so two
//!   configs differing only in observability are semantically equal;
//! - non-negative integers unify to `U64` (the shim's `I64(3)` and
//!   `U64(3)` render identically anyway, but the canonical tree should
//!   not depend on that), and `-0.0` normalizes to `0.0`;
//! - non-finite floats normalize to the tagged strings `"__f64:nan"`,
//!   `"__f64:inf"`, and `"__f64:-inf"`. Every NaN — any sign, any
//!   payload — collapses to the *same* canonical form, so two configs
//!   that serialized NaN differently can never hash to distinct keys,
//!   while the two infinities stay distinct from each other and from
//!   every finite value. The `__f64:` prefix keeps the markers out of
//!   the namespace any plausible config string occupies.

use serde::Value;

/// Canonicalizes a value tree for hashing (see module docs).
fn canonicalize(v: &Value) -> Value {
    match v {
        Value::Map(entries) => {
            let mut es: Vec<(String, Value)> = entries
                .iter()
                .filter(|(k, _)| k != "telemetry")
                .map(|(k, val)| (k.clone(), canonicalize(val)))
                .collect();
            es.sort_by(|a, b| a.0.cmp(&b.0));
            Value::Map(es)
        }
        Value::Seq(s) => Value::Seq(s.iter().map(canonicalize).collect()),
        Value::I64(i) if *i >= 0 => Value::U64(*i as u64),
        Value::F64(f) if f.is_nan() => Value::Str("__f64:nan".into()),
        Value::F64(f) if *f == f64::INFINITY => Value::Str("__f64:inf".into()),
        Value::F64(f) if *f == f64::NEG_INFINITY => Value::Str("__f64:-inf".into()),
        Value::F64(f) if *f == 0.0 => Value::F64(0.0),
        other => other.clone(),
    }
}

/// 64-bit FNV-1a over the canonical JSON rendering. FNV is not
/// collision-resistant against adversaries, but cache keys here only
/// ever face honest configs, and 64 bits over a handful of entries is
/// far below birthday territory.
pub fn content_hash(v: &Value) -> u64 {
    let text = serde_json::to_string(&canonicalize(v)).expect("shim renderer is total");
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_key_order_does_not_matter() {
        let a = Value::Map(vec![
            ("x".into(), Value::U64(1)),
            ("y".into(), Value::Str("b".into())),
        ]);
        let b = Value::Map(vec![
            ("y".into(), Value::Str("b".into())),
            ("x".into(), Value::U64(1)),
        ]);
        assert_eq!(content_hash(&a), content_hash(&b));
        // ... including inside nested maps.
        let na = Value::Map(vec![("inner".into(), a)]);
        let nb = Value::Map(vec![("inner".into(), b)]);
        assert_eq!(content_hash(&na), content_hash(&nb));
    }

    #[test]
    fn numeric_and_zero_normalization() {
        assert_eq!(
            content_hash(&Value::I64(7)),
            content_hash(&Value::U64(7)),
            "non-negative ints unify"
        );
        assert_eq!(
            content_hash(&Value::F64(-0.0)),
            content_hash(&Value::F64(0.0))
        );
        assert_ne!(content_hash(&Value::I64(-7)), content_hash(&Value::U64(7)));
    }

    #[test]
    fn non_finite_floats_canonicalize() {
        // Every NaN — negated, payload-carrying, the default — is the
        // same canonical value, so serialization differences cannot
        // fragment the cache.
        let quiet = f64::NAN;
        let negated = -f64::NAN;
        let payload = f64::from_bits(f64::NAN.to_bits() | 0xdead);
        assert!(payload.is_nan());
        let h = content_hash(&Value::F64(quiet));
        assert_eq!(h, content_hash(&Value::F64(negated)));
        assert_eq!(h, content_hash(&Value::F64(payload)));

        // The infinities stay distinct from each other, from NaN, and
        // from large finite values.
        let pinf = content_hash(&Value::F64(f64::INFINITY));
        let ninf = content_hash(&Value::F64(f64::NEG_INFINITY));
        assert_ne!(pinf, ninf);
        assert_ne!(pinf, h);
        assert_ne!(ninf, h);
        assert_ne!(pinf, content_hash(&Value::F64(f64::MAX)));

        // The markers live in a tagged namespace: an actual config
        // string "inf" does not collide with the float infinity.
        assert_ne!(pinf, content_hash(&Value::Str("inf".into())));
        assert_ne!(h, content_hash(&Value::Str("NaN".into())));
    }
}
