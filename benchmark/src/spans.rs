//! In-memory span recorder for the traced run.
//!
//! The harness wraps its *own* calls into the crates' public functions
//! (spans inside the crates are a later issue). Each thread owns one
//! [`Recorder`]; ids are disjoint by construction (`lane << 32`), so
//! merging is concatenation and every parent lives in the same lane as
//! its children. Nothing is written until the run ends.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// 0 = root.
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Recorder {
    epoch: Instant,
    base: u64,
    on: bool,
    spans: Vec<Span>,
}

impl Recorder {
    /// `lane` must be unique per recorder of one run; `on = false`
    /// makes every call a no-op (the untraced run shares the code path).
    pub fn new(epoch: Instant, lane: u32, on: bool) -> Recorder {
        Recorder {
            epoch,
            base: (lane as u64) << 32,
            on,
            spans: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Open a span now; children name the returned id as their parent.
    /// Returns 0 (the root id) when recording is off.
    pub fn open(&mut self, name: &'static str, parent: u64) -> u64 {
        self.open_at(name, parent, Instant::now())
    }

    pub fn open_at(&mut self, name: &'static str, parent: u64, start: Instant) -> u64 {
        if !self.on {
            return 0;
        }
        let id = self.base + self.spans.len() as u64 + 1;
        let start_ns = self.ns(start);
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    pub fn close(&mut self, id: u64) {
        self.close_at(id, Instant::now())
    }

    pub fn close_at(&mut self, id: u64, end: Instant) {
        if id == 0 {
            return;
        }
        let end_ns = self.ns(end);
        self.spans[(id - self.base - 1) as usize].end_ns = end_ns;
    }

    /// Time one call as a span and hand back its result and duration.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: u64,
        f: impl FnOnce() -> R,
    ) -> (R, std::time::Duration) {
        let start = Instant::now();
        let id = self.open_at(name, parent, start);
        let r = f();
        let end = Instant::now();
        self.close_at(id, end);
        (r, end - start)
    }

    pub fn absorb(&mut self, other: Recorder) {
        self.spans.extend(other.spans);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name `(count, total self time in ns)`: a span's self time is
    /// its duration minus what its direct children cover.
    pub fn self_times(&self) -> HashMap<&'static str, (u64, u64)> {
        let mut child_ns: HashMap<u64, u64> = HashMap::new();
        for s in &self.spans {
            if s.parent != 0 {
                *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
            }
        }
        let mut out: HashMap<&'static str, (u64, u64)> = HashMap::new();
        for s in &self.spans {
            let dur = s.end_ns - s.start_ns;
            let own = dur.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += own;
        }
        out
    }

    /// One JSON document: `{"workload":…,"seed":…,"spans":[…]}`.
    pub fn write_json(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(
            f,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":["
        )?;
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                f.write_all(b",")?;
            }
            write!(
                f,
                "\n{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns
            )?;
        }
        f.write_all(b"\n]}\n")?;
        f.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children_and_off_is_a_noop() {
        let epoch = Instant::now();
        let mut r = Recorder::new(epoch, 1, true);
        let p = r.open_at("parent", 0, epoch);
        let c = r.open_at("child", p, epoch + Duration::from_nanos(10));
        r.close_at(c, epoch + Duration::from_nanos(40));
        r.close_at(p, epoch + Duration::from_nanos(100));
        let st = r.self_times();
        assert_eq!(st["parent"], (1, 70));
        assert_eq!(st["child"], (1, 30));

        let mut off = Recorder::new(epoch, 2, false);
        let id = off.open("x", 0);
        off.close(id);
        assert_eq!(id, 0);
        assert!(off.spans().is_empty());
    }
}
