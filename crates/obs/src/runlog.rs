//! Structured JSONL run telemetry, off by default.
//!
//! One event = one JSON object on one line:
//!
//! ```json
//! {"t_us":1234,"event":"train.epoch","epoch":3,"loss":0.0125}
//! ```
//!
//! The sink is process-global and set once. The intended setup path is
//! [`RunLog::init_from_env`]:
//!
//! * `FMML_LOG_FILE=path` — append JSONL events to `path`;
//! * `FMML_LOG=1` (or anything non-empty except `0`) — JSONL on stderr;
//! * neither — disabled.
//!
//! When disabled, the [`log_event!`](crate::log_event!) macro compiles
//! to a single relaxed atomic load: none of the field expressions are
//! evaluated, nothing is formatted, nothing allocates.

use std::fs::OpenOptions;
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static SINK: OnceLock<RunLog> = OnceLock::new();

/// Is a sink installed? One relaxed load; inlined into
/// [`log_event!`](crate::log_event!).
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

enum Sink {
    Stderr,
    File(Mutex<std::fs::File>),
}

/// The process-global structured event sink.
pub struct RunLog {
    sink: Sink,
    epoch: Instant,
}

impl RunLog {
    /// Install a sink according to `FMML_LOG` / `FMML_LOG_FILE`.
    /// Returns whether logging ended up enabled. Idempotent; the first
    /// installation wins.
    pub fn init_from_env() -> bool {
        if let Ok(path) = std::env::var("FMML_LOG_FILE") {
            if !path.is_empty() {
                return RunLog::init_file(&path).is_ok();
            }
        }
        match std::env::var("FMML_LOG") {
            Ok(v) if !v.is_empty() && v != "0" => {
                RunLog::init_stderr();
                true
            }
            _ => enabled(),
        }
    }

    /// Install the stderr sink.
    pub fn init_stderr() {
        SINK.get_or_init(|| RunLog {
            sink: Sink::Stderr,
            epoch: Instant::now(),
        });
        ENABLED.store(true, Ordering::Release);
    }

    /// Install a file sink appending to `path`.
    pub fn init_file(path: &str) -> std::io::Result<()> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        SINK.get_or_init(|| RunLog {
            sink: Sink::File(Mutex::new(file)),
            epoch: Instant::now(),
        });
        ENABLED.store(true, Ordering::Release);
        Ok(())
    }

    fn write_line(&self, line: &str) {
        match &self.sink {
            Sink::Stderr => eprintln!("{line}"),
            Sink::File(f) => {
                if let Ok(mut f) = f.lock() {
                    let _ = writeln!(f, "{line}");
                }
            }
        }
    }
}

/// A single event field value. Built via `From` impls so call sites can
/// write plain literals/expressions.
#[derive(Debug, Clone, Copy)]
pub enum Field<'a> {
    U64(u64),
    I64(i64),
    F64(f64),
    Bool(bool),
    Str(&'a str),
}

macro_rules! impl_field_from {
    ($($t:ty => $variant:ident as $cast:ty),*) => {$(
        impl<'a> From<$t> for Field<'a> {
            fn from(v: $t) -> Field<'a> {
                Field::$variant(v as $cast)
            }
        }
    )*};
}
impl_field_from!(
    u8 => U64 as u64, u16 => U64 as u64, u32 => U64 as u64, u64 => U64 as u64,
    usize => U64 as u64,
    i8 => I64 as i64, i16 => I64 as i64, i32 => I64 as i64, i64 => I64 as i64,
    isize => I64 as i64,
    f32 => F64 as f64, f64 => F64 as f64
);

impl<'a> From<bool> for Field<'a> {
    fn from(v: bool) -> Field<'a> {
        Field::Bool(v)
    }
}

impl<'a> From<&'a str> for Field<'a> {
    fn from(v: &'a str) -> Field<'a> {
        Field::Str(v)
    }
}

impl<'a> From<&'a String> for Field<'a> {
    fn from(v: &'a String) -> Field<'a> {
        Field::Str(v)
    }
}

/// Render one event as its JSONL line (no trailing newline). Pure —
/// this is the whole serialization path of [`emit`], factored out so
/// property tests can round-trip arbitrary events through a JSON parser
/// without installing a sink. Every control character, quote, and
/// backslash in `event`, keys, and string fields is escaped; non-finite
/// floats render as `null`.
pub fn format_event(t_us: u128, event: &str, fields: &[(&str, Field<'_>)]) -> String {
    let mut line = String::with_capacity(64 + 16 * fields.len());
    line.push_str(&format!("{{\"t_us\":{t_us},\"event\":"));
    crate::json::push_json_str(&mut line, event);
    for (k, v) in fields {
        line.push(',');
        crate::json::push_json_str(&mut line, k);
        line.push(':');
        match v {
            Field::U64(n) => line.push_str(&n.to_string()),
            Field::I64(n) => line.push_str(&n.to_string()),
            Field::Bool(b) => line.push_str(if *b { "true" } else { "false" }),
            Field::F64(x) => {
                if x.is_finite() {
                    line.push_str(&format!("{x}"));
                } else {
                    line.push_str("null");
                }
            }
            Field::Str(s) => crate::json::push_json_str(&mut line, s),
        }
    }
    line.push('}');
    line
}

/// Emit one event line. Call through [`log_event!`](crate::log_event!),
/// which guards this behind [`enabled`] so disabled runs never reach here.
pub fn emit(event: &str, fields: &[(&str, Field<'_>)]) {
    let Some(log) = SINK.get() else { return };
    let line = format_event(log.epoch.elapsed().as_micros(), event, fields);
    log.write_line(&line);
}

/// Emit a structured event if a sink is installed.
///
/// ```
/// fmml_obs::log_event!("train.epoch", "epoch" = 3usize, "loss" = 0.012f64);
/// ```
///
/// Field expressions are **not evaluated** when logging is disabled.
#[macro_export]
macro_rules! log_event {
    ($event:expr $(, $key:literal = $val:expr)* $(,)?) => {
        if $crate::runlog::enabled() {
            $crate::runlog::emit(
                $event,
                &[$(($key, $crate::runlog::Field::from($val))),*],
            );
        }
    };
}
