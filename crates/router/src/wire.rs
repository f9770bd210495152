//! Minimal field scanners for the protocol's JSON reply lines.
//!
//! The router reads replies produced by [`exactsim_service`]'s own
//! serializers, whose shapes are fixed and flat (one object per line), and
//! only ever needs a few top-level scalars: a reply's `epoch`, an error
//! `code`, a `staged` state. `simrank-client` reads `stats` counters and a
//! baseline artifact's `qps` with the same scanners. Scanning for
//! `"field":` is exact against that grammar, so a full JSON parser — which
//! the offline workspace does not have — is not needed. The scanners are
//! deliberately conservative: anything unexpected returns `None`, which the
//! router surfaces as an `internal` protocol error rather than a wrong
//! answer.

/// Everything after `"field":` in `json`, or `None` when absent.
fn after_field<'a>(json: &'a str, field: &str) -> Option<&'a str> {
    let needle = format!("\"{field}\":");
    let start = json.find(&needle)? + needle.len();
    Some(&json[start..])
}

/// The unsigned integer value of a top-level `"field":123`.
pub fn u64_field(json: &str, field: &str) -> Option<u64> {
    let rest = after_field(json, field)?;
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The float value of a top-level `"field":1.25`.
pub fn f64_field(json: &str, field: &str) -> Option<f64> {
    let rest = after_field(json, field)?;
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The string value of a top-level `"field":"value"`. Only used for values
/// the protocol never escapes (error codes, staged states, op names).
pub fn str_field<'a>(json: &'a str, field: &str) -> Option<&'a str> {
    let rest = after_field(json, field)?.strip_prefix('"')?;
    rest.split('"').next()
}

/// The machine-readable code of an `{"error": ..., "code": ...}` reply, or
/// `None` when the reply is not an error.
pub fn error_code(json: &str) -> Option<&str> {
    if json.contains("\"error\"") {
        str_field(json, "code")
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scans_integer_and_string_fields() {
        let json = "{\"epoch\":42,\"op\":\"commit\",\"advanced\":true}";
        assert_eq!(u64_field(json, "epoch"), Some(42));
        assert_eq!(str_field(json, "op"), Some("commit"));
        assert_eq!(u64_field(json, "missing"), None);
        assert_eq!(
            f64_field("{\"qps\":1234.5,\"p50_us\":64}", "qps"),
            Some(1234.5)
        );
        assert_eq!(f64_field(json, "epoch"), Some(42.0));
        assert_eq!(f64_field(json, "missing"), None);
        assert_eq!(str_field(json, "missing"), None);
    }

    #[test]
    fn error_code_only_fires_on_error_replies() {
        let err = "{\"error\":\"down\",\"code\":\"shard_unavailable\"}";
        assert_eq!(error_code(err), Some("shard_unavailable"));
        let ok = "{\"epoch\":3,\"code_like\":\"x\"}";
        assert_eq!(error_code(ok), None);
    }
}
