//! The metric tables and the report a run prints as its last line.
//!
//! Every name the benchmark can print is declared here once, and the
//! report refuses to print a name that is missing from the table or to
//! leave a declared one out. The package test `tests/names.rs` holds
//! these tables equal to `BENCHMARK.json`.

use std::collections::BTreeMap;

/// `(name, unit, better)` of each metric a run prints.
pub type Table = &'static [(&'static str, &'static str, &'static str)];

/// `(name, unit, better)` of every end-to-end metric (`--trace 0`).
pub const END_TO_END: Table = &[
    ("setup_s", "s", "lower"),
    ("ingest_cpu_ms_per_mbit", "ms/Mbit", "lower"),
    ("query_cpu_us", "us", "lower"),
    ("wire_bytes_per_kbit", "B/kbit", "lower"),
    ("server_rss_mb", "MB", "lower"),
];

/// `(name, unit, better)` of every per-layer metric (`--trace 1`).
pub const PER_LAYER: Table = &[
    ("served.setup_wall_s", "s", "lower"),
    ("served.ingest_mbit_s", "Mbit/s", "higher"),
    ("served.query_p50_us", "us", "lower"),
    ("served.query_p99_us", "us", "lower"),
    ("core.apply_ns_per_bit", "ns/bit", "lower"),
    ("core.push_bit_ns_per_bit", "ns/bit", "lower"),
    ("core.query_ns", "ns", "lower"),
    ("core.state_bytes_per_key", "B", "lower"),
    ("codec.encode_us_per_key", "us", "lower"),
    ("codec.decode_us_per_key", "us", "lower"),
    ("codec.bytes_per_key", "B", "lower"),
    ("frame.encode_ns_per_kbit", "ns/kbit", "lower"),
    ("frame.decode_ns_per_kbit", "ns/kbit", "lower"),
    ("frame.bytes_per_kbit", "B/kbit", "lower"),
    ("engine.ingest_ns_per_bit", "ns/bit", "lower"),
    ("engine.marginal_ns_per_bit", "ns/bit", "lower"),
    ("engine.key_create_us", "us", "lower"),
    ("engine.query_us", "us", "lower"),
    ("engine.apply_busy_share", "share", "lower"),
    ("engine.queue_depth_p50", "count", "lower"),
    ("store.append_ns_per_kbit", "ns/kbit", "lower"),
    ("store.fsync_us_p50", "us", "lower"),
    ("store.wal_bytes_per_kbit", "B/kbit", "lower"),
    ("store.disk_bytes_per_kbit", "B/kbit", "lower"),
    ("store.checkpoint_ms", "ms", "lower"),
    ("store.recover_s", "s", "lower"),
    ("store.replayed_batches", "count", "lower"),
    ("net.ping_rtt_us", "us", "lower"),
    ("net.flush_us", "us", "lower"),
    ("net.marginal_ns_per_bit", "ns/bit", "lower"),
    ("net.dispatch_busy_share", "share", "lower"),
    ("net.events_per_wake", "count", "higher"),
    ("cluster.ingest_us_per_event", "us", "lower"),
    ("cluster.replicate_ms_per_round", "ms", "lower"),
    ("cluster.ship_bytes_per_key", "B", "lower"),
    ("monitor.party_ns_per_bit", "ns/bit", "lower"),
    ("monitor.deltas_per_mbit", "1/Mbit", "lower"),
    ("monitor.install_us", "us", "lower"),
    ("monitor.combine_us", "us", "lower"),
    ("trace.unattributed_share", "share", "lower"),
    ("trace.overhead_pct", "%", "lower"),
];

/// Operation counts, the correctness verdict and the metric values of
/// one run.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// First correctness violation, if any.
    pub violation: Option<String>,
    values: Vec<(&'static str, f64)>,
}

impl Report {
    /// Record one answer's check: the first violation is kept.
    pub fn check(&mut self, outcome: Result<(), String>) {
        if let Err(e) = outcome {
            if self.violation.is_none() {
                eprintln!("perfbench: VIOLATION: {e}");
                self.violation = Some(e);
            }
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.retain(|(n, _)| *n != name);
        self.values.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// The final JSON line. Errors if the values are not exactly the
    /// declared metrics of `table`, or if one is not a finite number.
    pub fn to_json(&self, table: Table) -> Result<String, String> {
        for (name, _) in &self.values {
            if !table.iter().any(|(n, _, _)| n == name) {
                return Err(format!("metric {name} is not declared"));
            }
        }
        let mut metrics = Vec::with_capacity(table.len());
        for (name, unit, _) in table {
            let v = self
                .get(name)
                .ok_or_else(|| format!("declared metric {name} was not measured"))?;
            if !v.is_finite() {
                return Err(format!("metric {name} is {v}"));
            }
            metrics.push(format!(
                "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.violation.is_none(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        ))
    }
}

/// `q`-quantile (0..=1) of `v` by the nearest-rank rule; sorts `v`.
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    v.sort_by(|a, b| a.total_cmp(b));
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Median of `v`; sorts `v`.
pub fn median(v: &mut [f64]) -> f64 {
    quantile(v, 0.5)
}

/// Outside load on the shared machine (host steal, a busy neighbour)
/// only ever adds time: much wall time, and some CPU time through
/// lost cache and extra wake-ups. So a figure sampled over a run's
/// blocks or read windows is reported at the quartile nearer the
/// program's own cost: the CPU cost or latency a quarter of the samples
/// stay under, the rate a quarter of the blocks beat. Each block holds
/// whole periods of the program's periodic work (fsync, checkpoint,
/// replication, delta shipping), so a slower program moves every
/// sample, and with it the quartile.
pub const QUARTILE: f64 = 0.25;

/// Throughput over the timed ingest blocks: the upper quartile of the
/// blocks' rates (`(bits, seconds)` each).
pub fn block_rate(blocks: &[(u64, f64)]) -> f64 {
    let mut rates: Vec<f64> = blocks
        .iter()
        .map(|&(bits, secs)| bits as f64 / secs)
        .collect();
    quantile(&mut rates, 1.0 - QUARTILE)
}

/// Reads per window where reads run alone: ten lie beyond each
/// window's p99.
pub const READ_WINDOW: u64 = 1000;

/// The `q`-quantile of closed-loop read latency: each window's
/// `q`-quantile, and of those the lower quartile. `reads` are
/// `(window, latency)`.
pub fn windowed(reads: &[(u64, f64)], q: f64) -> f64 {
    let mut windows: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    for &(w, v) in reads {
        windows.entry(w).or_default().push(v);
    }
    let mut per_window: Vec<f64> = windows.values_mut().map(|v| quantile(v, q)).collect();
    quantile(&mut per_window, QUARTILE)
}
