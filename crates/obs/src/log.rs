//! Leveled operational logger with text and JSON output.
//!
//! A deliberately small substitute for the `tracing`/`log` ecosystem (the
//! build environment is offline): a process-global output format,
//! structured key/value fields, and one line per event on stderr. Every
//! event is emitted: the levels are error, warn and info, and none is too
//! verbose to keep.
//! Text mode matches the `target: message` style the binaries have always
//! printed; JSON mode (`simrank-serve --log-json`) emits one object per line
//! so the stream can be shipped to a log pipeline unparsed.
//!
//! Rendering is a pure function ([`render`]) so formats are testable without
//! capturing stderr.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU8, Ordering};
use std::time::{SystemTime, UNIX_EPOCH};

use crate::json::escape_json;

/// Event severity, most severe first.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Level {
    /// The operation failed; an operator should look.
    Error,
    /// Something degraded but the process carries on.
    Warn,
    /// Normal operational milestones (startup, shutdown, recovery).
    Info,
}

impl Level {
    fn as_str(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
        }
    }
}

/// Output format for emitted events.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LogFormat {
    /// `target: message (k=v, ...)` — the human-facing default.
    Text,
    /// One JSON object per line: `{"ts_ms":..,"level":..,"target":..,...}`.
    Json,
}

static FORMAT: AtomicU8 = AtomicU8::new(0); // Text

/// Sets the process-global output format.
pub fn set_format(format: LogFormat) {
    FORMAT.store(matches!(format, LogFormat::Json) as u8, Ordering::Relaxed);
}

/// The current output format.
#[must_use]
pub fn format() -> LogFormat {
    if FORMAT.load(Ordering::Relaxed) == 1 {
        LogFormat::Json
    } else {
        LogFormat::Text
    }
}

/// A structured field value.
#[derive(Clone, Debug, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// String (escaped on output).
    Str(String),
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}

impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}

impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}

impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}

impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

/// Renders one event in the given format — pure, for tests; [`log`] adds the
/// timestamp and writes to stderr.
#[must_use]
pub fn render(
    format: LogFormat,
    ts_ms: u64,
    level: Level,
    target: &str,
    message: &str,
    fields: &[(&str, FieldValue)],
) -> String {
    match format {
        LogFormat::Text => {
            let mut line = format!("{target}: {message}");
            if !fields.is_empty() {
                line.push_str(" (");
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        line.push_str(", ");
                    }
                    let _ = match value {
                        FieldValue::U64(v) => write!(line, "{key}={v}"),
                        FieldValue::I64(v) => write!(line, "{key}={v}"),
                        FieldValue::F64(v) => write!(line, "{key}={v}"),
                        FieldValue::Bool(v) => write!(line, "{key}={v}"),
                        FieldValue::Str(v) => write!(line, "{key}={v}"),
                    };
                }
                line.push(')');
            }
            line
        }
        LogFormat::Json => {
            let mut line = format!(
                "{{\"ts_ms\":{ts_ms},\"level\":\"{}\",\"target\":\"{}\",\"msg\":\"{}\"",
                level.as_str(),
                escape_json(target),
                escape_json(message)
            );
            for (key, value) in fields {
                let _ = match value {
                    FieldValue::U64(v) => write!(line, ",\"{}\":{v}", escape_json(key)),
                    FieldValue::I64(v) => write!(line, ",\"{}\":{v}", escape_json(key)),
                    FieldValue::F64(v) => write!(line, ",\"{}\":{v}", escape_json(key)),
                    FieldValue::Bool(v) => write!(line, ",\"{}\":{v}", escape_json(key)),
                    FieldValue::Str(v) => {
                        write!(line, ",\"{}\":\"{}\"", escape_json(key), escape_json(v))
                    }
                };
            }
            line.push('}');
            line
        }
    }
}

/// Emits one event to stderr.
pub fn log(level: Level, target: &str, message: &str, fields: &[(&str, FieldValue)]) {
    let ts_ms = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX))
        .unwrap_or(0);
    eprintln!(
        "{}",
        render(format(), ts_ms, level, target, message, fields)
    );
}

/// Emits at [`Level::Error`].
pub fn error(target: &str, message: &str, fields: &[(&str, FieldValue)]) {
    log(Level::Error, target, message, fields);
}

/// Emits at [`Level::Warn`].
pub fn warn(target: &str, message: &str, fields: &[(&str, FieldValue)]) {
    log(Level::Warn, target, message, fields);
}

/// Emits at [`Level::Info`].
pub fn info(target: &str, message: &str, fields: &[(&str, FieldValue)]) {
    log(Level::Info, target, message, fields);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_format_matches_the_legacy_stderr_style() {
        let line = render(
            LogFormat::Text,
            0,
            Level::Info,
            "simrank-serve",
            "shutdown snapshot written",
            &[("epoch", FieldValue::U64(7))],
        );
        assert_eq!(line, "simrank-serve: shutdown snapshot written (epoch=7)");
        let bare = render(LogFormat::Text, 0, Level::Info, "t", "msg", &[]);
        assert_eq!(bare, "t: msg");
    }

    #[test]
    fn json_format_is_one_escaped_object_per_event() {
        let line = render(
            LogFormat::Json,
            1234,
            Level::Error,
            "simrank-serve",
            "write failed: \"disk\"",
            &[
                ("path", FieldValue::Str("/tmp/x".into())),
                ("attempts", FieldValue::U64(3)),
                ("fatal", FieldValue::Bool(true)),
            ],
        );
        assert_eq!(
            line,
            "{\"ts_ms\":1234,\"level\":\"error\",\"target\":\"simrank-serve\",\
             \"msg\":\"write failed: \\\"disk\\\"\",\"path\":\"/tmp/x\",\
             \"attempts\":3,\"fatal\":true}"
        );
    }

    #[test]
    fn field_values_convert_from_common_types() {
        assert_eq!(FieldValue::from(3u64), FieldValue::U64(3));
        assert_eq!(FieldValue::from(3usize), FieldValue::U64(3));
        assert_eq!(FieldValue::from(-3i64), FieldValue::I64(-3));
        assert_eq!(FieldValue::from(true), FieldValue::Bool(true));
        assert_eq!(FieldValue::from("x"), FieldValue::Str("x".into()));
    }
}
