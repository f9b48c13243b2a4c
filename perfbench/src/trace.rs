//! Benchmark-side spans around every call into the program. Off in the
//! end-to-end runs (no clock is read); on in the traced run, which keeps
//! the spans in memory and writes them out when it ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct SpanRec {
    /// `<layer>.<call>`, e.g. `net.ingest`.
    pub name: &'static str,
    /// Index of the enclosing phase span (itself for a phase).
    pub parent: usize,
    pub start_ns: u64,
    pub dur_ns: u64,
}

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    phase: usize,
    pub spans: Vec<SpanRec>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            phase: 0,
            spans: Vec::new(),
        }
    }

    /// Time `f` as one call into the program.
    #[inline]
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let t0 = self.epoch.elapsed().as_nanos() as u64;
        let out = f();
        let t1 = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(SpanRec {
            name,
            parent: self.phase,
            start_ns: t0,
            dur_ns: t1 - t0,
        });
        out
    }

    /// Open a phase: spans recorded until [`Tracer::end_phase`] are its
    /// children.
    pub fn begin_phase(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        self.phase = self.spans.len();
        let t = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(SpanRec {
            name,
            parent: self.phase,
            start_ns: t,
            dur_ns: 0,
        });
    }

    pub fn end_phase(&mut self) {
        if !self.on {
            return;
        }
        let t = self.epoch.elapsed().as_nanos() as u64;
        let p = &mut self.spans[self.phase];
        p.dur_ns = t - p.start_ns;
    }

    /// Share of the phases' wall time not covered by any
    /// call into the program: the benchmark's own generator and
    /// bookkeeping.
    pub fn unattributed_share(&self) -> f64 {
        let (mut wall, mut covered) = (0u64, 0u64);
        for (i, s) in self.spans.iter().enumerate() {
            if s.parent == i {
                wall += s.dur_ns;
            } else {
                covered += s.dur_ns;
            }
        }
        1.0 - covered as f64 / wall.max(1) as f64
    }

    /// One JSON object per line: id, parent, name, start and duration.
    pub fn write(&self, path: &Path) -> Result<(), String> {
        let mut out = std::io::BufWriter::new(
            std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?,
        );
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\": {i}, \"parent\": {}, \"name\": \"{}\", \"start_ns\": {}, \"dur_ns\": {}}}",
                s.parent, s.name, s.start_ns, s.dur_ns
            )
            .map_err(|e| e.to_string())?;
        }
        out.flush().map_err(|e| e.to_string())
    }
}
