//! The served path: each workload against `waves serve` processes,
//! closed loop, every answer checked. Produces the end-to-end metrics.
//!
//! A run is a sequence of rounds until `--seconds` are up: one ingest
//! block of a whole period, then one window of closed-loop reads. The
//! set-ups are spread evenly over the same time line. Each block, read
//! window and set-up is measured twice: in wall time, and in the CPU
//! time of the servers and of this process, which the kernel keeps free
//! of host steal. The benchmark's own answer checks run outside both.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use waves_cluster::{ClusterClient, ClusterConfig};
use waves_core::{DetWave, Estimate};
use waves_distributed::{MonitorConfig, PushParty};
use waves_net::{Client, Frame, SynopsisKind};
use waves_obs::Recorder;

use crate::err;
use crate::input::{entries, Epoch, Log, Rng};
use crate::metrics::{Report, READ_WINDOW};
use crate::oracle::{agree, exact_count, slack_contract, theorem1};
use crate::proc::{
    connect, connect_recorded, copy_dir, cpu_s, cpu_ticks, Serve, ServeOpts, WireBytes,
};
use crate::trace::Tracer;
use crate::workloads::{self as w, Spec};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;

/// Where a run keeps its files, which binary it serves with, and
/// whether the servers keep their metrics registry (`--stats`).
#[derive(Debug, Clone)]
pub struct Env {
    pub waves: PathBuf,
    pub work: PathBuf,
    pub stats: bool,
}

/// `(window, latency in µs)` of closed-loop reads.
pub type Reads = Vec<(u64, f64)>;

/// The raw end-to-end figures of one served run.
#[derive(Debug, Default)]
pub struct Served {
    /// Wall and CPU seconds of each set-up.
    pub setup_s: Vec<f64>,
    pub setup_cpu_s: Vec<f64>,
    /// `(stream bits, wall seconds)` of each timed ingest block, in
    /// order. A block is one period of the workload, each epoch closed
    /// by its `FLUSH` barrier (and replication round or `COMBINE`).
    pub blocks: Vec<(u64, f64)>,
    /// Host steal during each block, in % of the machine's CPU time (NaN
    /// where `/proc/stat` is unreadable).
    pub block_steal_pct: Vec<f64>,
    /// CPU seconds of each block.
    pub block_cpu_s: Vec<f64>,
    /// Closed-loop read latencies in µs, each with its window of
    /// `READ_WINDOW` reads.
    pub reads: Reads,
    /// CPU seconds of each read window.
    pub window_cpu_s: Vec<f64>,
    pub wire_bytes: u64,
    pub wire_bits: u64,
    pub rss_mb: f64,
}

/// The processes whose CPU time a measurement counts: the servers and
/// this one, which runs the program's clients and parties.
struct Cpu(Vec<u32>);

impl Cpu {
    fn of(servers: &[&Serve]) -> Self {
        let mut pids: Vec<u32> = servers.iter().map(|s| s.pid()).collect();
        pids.push(std::process::id());
        Cpu(pids)
    }

    fn now(&self) -> f64 {
        self.0.iter().map(|&p| cpu_s(p)).sum()
    }
}

/// Close a set-up begun at `t0` (wall) and `cpu0` (this process's CPU)
/// on the first answer from `servers`, which it started.
fn setup_done(out: &mut Served, t0: Instant, cpu0: f64, servers: &[&Serve]) {
    out.setup_s.push(t0.elapsed().as_secs_f64());
    out.setup_cpu_s.push(Cpu::of(servers).now() - cpu0);
}

fn self_cpu() -> f64 {
    cpu_s(std::process::id())
}

fn opts(spec: &Spec, env: &Env, persist: Option<PathBuf>) -> ServeOpts {
    ServeOpts {
        shards: spec.shards,
        window: spec.window,
        eps: spec.eps,
        persist,
        stats: env.stats,
    }
}

/// Truth of `key`'s newest `window` bits after the set-up prefix and
/// `done` timed epochs.
fn truth(log: &Log, key: u64, window: u64, done: u64) -> u64 {
    exact_count(log.history(key, done), window)
}

/// One epoch over a pipelined connection, then the `FLUSH` barrier that
/// bounds the unapplied backlog below the shard queue depth.
pub(crate) fn ingest_epoch<R: Recorder + Send + Sync + 'static>(
    client: &mut Client<R>,
    epoch: &Epoch,
    tr: &mut Tracer,
    rep: &mut Report,
) -> Result<(), String> {
    let replies = tr
        .span("net.ingest", || client.send_many(epoch, w::PIPELINE))
        .map_err(err("ingest"))?;
    rep.attempted += replies.len() as u64;
    for reply in replies {
        match reply {
            Frame::Ok => {}
            Frame::ErrorResp(e) => {
                eprintln!("perfbench: ingest refused: {e}");
                rep.failed += 1;
            }
            other => return Err(format!("ingest: unexpected reply {other:?}")),
        }
    }
    rep.attempted += 1;
    tr.span("net.flush", || client.flush())
        .map_err(err("flush"))
}

/// A closed-loop read: one outstanding request, timed call to reply in
/// µs.
fn timed<T>(tr: &mut Tracer, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = tr.span(name, f);
    (out, t0.elapsed().as_secs_f64() * 1e6)
}

/// A window of [`READ_WINDOW`] closed-loop reads; `read` makes one
/// and returns its latency in µs. The caller checks the answers after
/// the window, off its clocks.
fn read_window(
    out: &mut Served,
    cpu: &Cpu,
    mut read: impl FnMut() -> Result<f64, String>,
) -> Result<(), String> {
    let window = out.reads.len() as u64 / READ_WINDOW;
    let cpu0 = cpu.now();
    for _ in 0..READ_WINDOW {
        let us = read()?;
        out.reads.push((window, us));
    }
    out.window_cpu_s.push(cpu.now() - cpu0);
    Ok(())
}

/// The run's time line: set-ups spread evenly over `seconds`, the first
/// at the start, and rounds until the time is up.
struct Timeline {
    start: Instant,
    seconds: f64,
}

impl Timeline {
    fn start(seconds: f64) -> Self {
        Timeline {
            start: Instant::now(),
            seconds,
        }
    }

    fn elapsed(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Whether the next set-up is due before the next round. Set-ups
    /// still due when the time is up run back to back.
    fn setup_due(&self, out: &Served) -> bool {
        let done = out.setup_s.len();
        done < SETUPS && self.elapsed() >= self.seconds * done as f64 / SETUPS as f64
    }

    /// Whether the run is done: time up, every set-up made, and at
    /// least one round.
    fn over(&self, out: &Served) -> bool {
        out.setup_s.len() >= SETUPS && !out.blocks.is_empty() && self.elapsed() >= self.seconds
    }
}

/// One timed ingest block: its clocks leave out the benchmark's own
/// checks between epochs, and the wire bytes of the first
/// `byte_epochs` timed epochs, which lie in the first block, are
/// counted.
struct Block<'a> {
    cpu: &'a Cpu,
    t0: Instant,
    cpu0: f64,
    ticks: Option<(u64, u64)>,
    bytes0: u64,
    bits: u64,
    checking: Duration,
    checking_cpu: f64,
}

impl<'a> Block<'a> {
    fn start(bytes: &WireBytes, cpu: &'a Cpu) -> Self {
        Block {
            cpu,
            t0: Instant::now(),
            cpu0: cpu.now(),
            ticks: cpu_ticks(),
            bytes0: bytes.total(),
            bits: 0,
            checking: Duration::ZERO,
            checking_cpu: 0.0,
        }
    }

    /// Run a check off both clocks.
    fn off<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let (t0, cpu0) = (Instant::now(), self.cpu.now());
        let out = f();
        self.checking += t0.elapsed();
        self.checking_cpu += self.cpu.now() - cpu0;
        out
    }

    /// Count timed epoch `n` (0-based), just done.
    fn epoch(&mut self, spec: &Spec, n: u64, epoch: &Epoch, bytes: &WireBytes, out: &mut Served) {
        let bits = Log::epoch_bits(epoch);
        self.bits += bits;
        if n < spec.byte_epochs {
            out.wire_bits += bits;
            out.wire_bytes = bytes.total() - self.bytes0;
        }
    }

    fn end(self, out: &mut Served) {
        let secs = (self.t0.elapsed() - self.checking).as_secs_f64();
        out.blocks.push((self.bits, secs));
        out.block_cpu_s
            .push(self.cpu.now() - self.cpu0 - self.checking_cpu);
        out.block_steal_pct.push(match (self.ticks, cpu_ticks()) {
            (Some((s0, t0)), Some((s1, t1))) => 100.0 * (s1 - s0) as f64 / (t1 - t0).max(1) as f64,
            _ => f64::NAN,
        });
    }
}

/// Fail the run if a server shed any ingest: the pacing must keep every
/// shard queue below its depth. Under `--stats`, also print the
/// server's own counts and busy time.
fn health(
    addr: std::net::SocketAddr,
    env: &Env,
    tr: &mut Tracer,
    rep: &mut Report,
) -> Result<(), String> {
    let mut c = connect(addr)?;
    rep.attempted += 1;
    let snap = tr
        .span("net.snapshot", || c.snapshot())
        .map_err(err("snapshot"))?;
    if snap.dropped_items != 0 || snap.backpressure_events != 0 {
        return Err(format!(
            "server {addr} shed ingest: dropped_items {} backpressure_events {}",
            snap.dropped_items, snap.backpressure_events
        ));
    }
    if env.stats {
        rep.attempted += 1;
        let stats = tr.span("net.stats", || c.stats()).map_err(err("stats"))?;
        let count = |n: &str| stats.counter(n).unwrap_or(0);
        let busy_ms = |n: &str| stats.hist(n).map_or(0.0, |h| h.sum as f64 / 1e6);
        println!(
            "stats {addr}: {} batches, {} frames in, {} fsyncs, {} checkpoints; busy ms: apply {:.1}, dispatch {:.1}, wal {:.1}",
            count("engine_batches_ingested_total"),
            count("net_frames_received_total"),
            count("store_fsyncs_total"),
            count("store_checkpoints_total"),
            busy_ms("engine_ingest_batch_ns"),
            busy_ms("net_server_frame_ns"),
            busy_ms("store_wal_append_ns"),
        );
    }
    Ok(())
}

pub fn run(
    spec: &Spec,
    log: &Log,
    env: &Env,
    seed: u64,
    seconds: f64,
    tr: &mut Tracer,
    rep: &mut Report,
) -> Result<Served, String> {
    let mut rng = Rng::new(seed, 0x5EAD);
    match spec.name {
        "sparse-fanout" => sparse(spec, log, env, seconds, &mut rng, tr, rep),
        "dense-durable" => dense(spec, log, env, seconds, &mut rng, tr, rep),
        "cluster-replicated" => cluster(spec, log, env, seconds, &mut rng, tr, rep),
        "monitor-referee" => monitor(spec, log, env, seconds, tr, rep),
        other => Err(format!("no workload {other}")),
    }
}

/// Sparse set-up: a fresh server, the first touch of every key, and the
/// first answer.
fn sparse_setup(
    spec: &Spec,
    log: &Log,
    env: &Env,
    out: &mut Served,
    tr: &mut Tracer,
    rep: &mut Report,
) -> Result<(Serve, Client<WireBytes>, Arc<WireBytes>), String> {
    let bytes = Arc::new(WireBytes::default());
    let (t0, cpu0) = (Instant::now(), self_cpu());
    let srv = Serve::spawn(&env.waves, &opts(spec, env, None))?;
    let mut client = connect_recorded(srv.addr, Arc::clone(&bytes))?;
    for epoch in &log.setup {
        ingest_epoch(&mut client, epoch, tr, rep)?;
    }
    rep.attempted += 1;
    let est = tr
        .span("net.query", || client.query(0, spec.window))
        .map_err(err("query"))?;
    setup_done(out, t0, cpu0, &[&srv]);
    rep.check(theorem1(&est, truth(log, 0, spec.window, 0), spec.eps));
    Ok((srv, client, bytes))
}

/// A window of closed-loop `QUERY`s on one connection, each answer
/// checked against the truth after `done` timed epochs.
#[allow(clippy::too_many_arguments)]
fn query_window(
    spec: &Spec,
    log: &Log,
    client: &mut Client<WireBytes>,
    cpu: &Cpu,
    done: u64,
    rng: &mut Rng,
    out: &mut Served,
    tr: &mut Tracer,
    rep: &mut Report,
) -> Result<(), String> {
    let mut answers = Vec::with_capacity(READ_WINDOW as usize);
    read_window(out, cpu, || {
        let (key, window) = w::read(rng, spec);
        rep.attempted += 1;
        let (est, us) = timed(tr, "net.query", || client.query(key, window));
        answers.push((key, window, est.map_err(err("query"))?));
        Ok(us)
    })?;
    for (key, window, est) in answers {
        rep.check(theorem1(&est, truth(log, key, window, done), spec.eps));
    }
    Ok(())
}

/// Ingest one block of `spec.period` epochs from timed epoch `n` over a
/// pipelined connection; returns the epochs done.
#[allow(clippy::too_many_arguments)]
fn ingest_block(
    spec: &Spec,
    log: &Log,
    client: &mut Client<WireBytes>,
    bytes: &WireBytes,
    cpu: &Cpu,
    mut n: u64,
    out: &mut Served,
    tr: &mut Tracer,
    rep: &mut Report,
) -> Result<u64, String> {
    let mut block = Block::start(bytes, cpu);
    for _ in 0..spec.period {
        let epoch = log.timed(n);
        ingest_epoch(client, epoch, tr, rep)?;
        block.epoch(spec, n, epoch, bytes, out);
        n += 1;
    }
    block.end(out);
    Ok(n)
}

fn sparse(
    spec: &Spec,
    log: &Log,
    env: &Env,
    seconds: f64,
    rng: &mut Rng,
    tr: &mut Tracer,
    rep: &mut Report,
) -> Result<Served, String> {
    let mut out = Served::default();
    let line = Timeline::start(seconds);
    tr.begin_phase("phase.setup");
    let (srv, mut client, bytes) = sparse_setup(spec, log, env, &mut out, tr, rep)?;
    tr.end_phase();
    let cpu = Cpu::of(&[&srv]);
    let mut n = 0u64;
    loop {
        while line.setup_due(&out) {
            tr.begin_phase("phase.setup");
            let (other, _, _) = sparse_setup(spec, log, env, &mut out, tr, rep)?;
            other.shutdown()?;
            tr.end_phase();
        }
        if line.over(&out) {
            break;
        }
        tr.begin_phase("phase.ingest");
        n = ingest_block(spec, log, &mut client, &bytes, &cpu, n, &mut out, tr, rep)?;
        tr.end_phase();
        tr.begin_phase("phase.read");
        query_window(spec, log, &mut client, &cpu, n, rng, &mut out, tr, rep)?;
        tr.end_phase();
    }
    health(srv.addr, env, tr, rep)?;
    out.rss_mb = srv.peak_rss_mb()?;
    srv.shutdown()?;
    Ok(out)
}

/// The prepared run: ingest the first 8 set-up frames and stop cleanly
/// (a checkpoint), then the other 64 on a restarted server and
/// `SIGKILL` it. Every shard then holds a checkpoint plus exactly 64
/// WAL batches, which the default `every-64` policy has synced, so the
/// recovered state is the whole set-up stream.
pub fn prepare_crash_dir(
    spec: &Spec,
    log: &Log,
    env: &Env,
    dir: &Path,
    tr: &mut Tracer,
    rep: &mut Report,
) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dir);
    for (phase, epochs) in [&log.setup[..8], &log.setup[8..]].into_iter().enumerate() {
        let srv = Serve::spawn(&env.waves, &opts(spec, env, Some(dir.to_path_buf())))?;
        let mut client = connect(srv.addr)?;
        for epoch in epochs {
            ingest_epoch(&mut client, epoch, tr, rep)?;
        }
        if phase == 0 {
            srv.shutdown()?;
        } else {
            srv.kill()?;
        }
    }
    Ok(())
}

/// Dense set-up: recovery from a fresh copy of the crash-left
/// directory, up to the first answer, which must equal the synced
/// stream's.
#[allow(clippy::too_many_arguments)]
fn dense_setup(
    spec: &Spec,
    env: &Env,
    prepared: &Path,
    reference: &[DetWave],
    out: &mut Served,
    tr: &mut Tracer,
    rep: &mut Report,
) -> Result<(Serve, Client<WireBytes>, Arc<WireBytes>, PathBuf), String> {
    let dir = env.work.join(format!("serve-{}", out.setup_s.len()));
    copy_dir(prepared, &dir)?;
    let bytes = Arc::new(WireBytes::default());
    let (t0, cpu0) = (Instant::now(), self_cpu());
    let srv = Serve::spawn(&env.waves, &opts(spec, env, Some(dir.clone())))?;
    let mut client = connect_recorded(srv.addr, Arc::clone(&bytes))?;
    rep.attempted += 1;
    let est = tr
        .span("net.query", || client.query(0, spec.window))
        .map_err(err("query"))?;
    setup_done(out, t0, cpu0, &[&srv]);
    let want = reference[0].query(spec.window).map_err(err("reference"))?;
    rep.check(agree(&est, &want, "recovered key 0"));
    Ok((srv, client, bytes, dir))
}

fn dense(
    spec: &Spec,
    log: &Log,
    env: &Env,
    seconds: f64,
    rng: &mut Rng,
    tr: &mut Tracer,
    rep: &mut Report,
) -> Result<Served, String> {
    let mut out = Served::default();
    let prepared = env.work.join("prepared");
    prepare_crash_dir(spec, log, env, &prepared, tr, rep)?;
    // Reference: a synopsis per key fed the whole synced stream.
    let mut reference: Vec<DetWave> = (0..spec.keys)
        .map(|_| DetWave::new(spec.window, spec.eps))
        .collect::<Result<_, _>>()
        .map_err(err("reference"))?;
    for (key, bits) in log.stream(0) {
        reference[*key as usize].push_words(bits.as_ref());
    }
    let line = Timeline::start(seconds);
    tr.begin_phase("phase.setup");
    let (srv, mut client, bytes, _) =
        dense_setup(spec, env, &prepared, &reference, &mut out, tr, rep)?;
    // Recovered state must equal the synced stream, key by key.
    for key in 0..spec.keys {
        for window in [spec.window, 1 + rng.below(spec.window)] {
            rep.attempted += 1;
            let est = tr
                .span("net.query", || client.query(key, window))
                .map_err(err("query"))?;
            let want = reference[key as usize]
                .query(window)
                .map_err(err("reference"))?;
            rep.check(agree(&est, &want, "recovered state"));
            rep.check(theorem1(&est, truth(log, key, window, 0), spec.eps));
        }
    }
    tr.end_phase();
    let cpu = Cpu::of(&[&srv]);
    let mut n = 0u64;
    loop {
        while line.setup_due(&out) {
            tr.begin_phase("phase.setup");
            let (other, _, _, dir) =
                dense_setup(spec, env, &prepared, &reference, &mut out, tr, rep)?;
            other.shutdown()?;
            let _ = std::fs::remove_dir_all(&dir);
            tr.end_phase();
        }
        if line.over(&out) {
            break;
        }
        tr.begin_phase("phase.ingest");
        n = ingest_block(spec, log, &mut client, &bytes, &cpu, n, &mut out, tr, rep)?;
        tr.end_phase();
        tr.begin_phase("phase.read");
        query_window(spec, log, &mut client, &cpu, n, rng, &mut out, tr, rep)?;
        tr.end_phase();
    }
    health(srv.addr, env, tr, rep)?;
    out.rss_mb = srv.peak_rss_mb()?;
    srv.shutdown()?;
    Ok(out)
}

/// Two-way replication with synopses matching the servers'.
pub fn cluster_config(spec: &Spec) -> ClusterConfig {
    ClusterConfig {
        replication: 2,
        max_window: spec.window,
        eps: spec.eps,
        client: crate::proc::client_config(),
        ..ClusterConfig::default()
    }
}

/// Ingest one epoch of single-event requests through the cluster client,
/// then flush the primaries.
pub(crate) fn cluster_epoch<R: Recorder + Send + Sync + 'static>(
    cc: &mut ClusterClient<R>,
    epoch: &Epoch,
    tr: &mut Tracer,
    rep: &mut Report,
) -> Result<(), String> {
    for frame in epoch {
        for (key, bits) in entries(frame) {
            rep.attempted += 1;
            if let Err(e) = tr.span("cluster.ingest", || cc.ingest(*key, bits.clone())) {
                eprintln!("perfbench: cluster ingest refused: {e}");
                rep.failed += 1;
            }
        }
    }
    rep.attempted += 1;
    tr.span("cluster.flush", || cc.flush())
        .map_err(err("cluster flush"))
}

/// A replication round: every key's state to its follower. Returns the
/// keys shipped.
pub(crate) fn replicate<R: Recorder + Send + Sync + 'static>(
    cc: &mut ClusterClient<R>,
    spec: &Spec,
    tr: &mut Tracer,
    rep: &mut Report,
) -> u64 {
    let shipped = tr.span("cluster.replicate_all", || cc.replicate_all()) as u64;
    rep.attempted += spec.keys;
    rep.failed += spec.keys.saturating_sub(shipped);
    shipped
}

/// After a round: for sampled keys, the follower answers exactly as the
/// primary, and both bracket the truth.
#[allow(clippy::too_many_arguments)]
fn followers_agree<R: Recorder + Send + Sync + 'static>(
    cc: &ClusterClient<R>,
    checkers: &mut [Client],
    spec: &Spec,
    log: &Log,
    done: u64,
    rng: &mut Rng,
    tr: &mut Tracer,
    rep: &mut Report,
) -> Result<(), String> {
    for _ in 0..16 {
        let (key, window) = w::read(rng, spec);
        let nodes = cc.replicas_of(key);
        let mut answers: Vec<Estimate> = Vec::with_capacity(2);
        for &node in &nodes {
            rep.attempted += 1;
            let c = &mut checkers[node];
            answers.push(
                tr.span("net.query", || c.query(key, window))
                    .map_err(err("replica query"))?,
            );
        }
        rep.check(agree(&answers[0], &answers[1], "follower vs primary"));
        rep.check(theorem1(
            &answers[0],
            truth(log, key, window, done),
            spec.eps,
        ));
    }
    Ok(())
}

type Cluster = ([Serve; 2], ClusterClient<WireBytes>, Arc<WireBytes>);

/// Cluster set-up: two nodes, every key's first full window, the first
/// replication round, and the first answer.
fn cluster_setup(
    spec: &Spec,
    log: &Log,
    env: &Env,
    out: &mut Served,
    tr: &mut Tracer,
    rep: &mut Report,
) -> Result<Cluster, String> {
    let bytes = Arc::new(WireBytes::default());
    let (t0, cpu0) = (Instant::now(), self_cpu());
    let nodes = [
        Serve::spawn(&env.waves, &opts(spec, env, None))?,
        Serve::spawn(&env.waves, &opts(spec, env, None))?,
    ];
    let addrs = nodes.iter().map(|n| n.addr).collect();
    let mut cc = ClusterClient::new_recorded(addrs, cluster_config(spec), Arc::clone(&bytes))
        .map_err(err("cluster"))?;
    for epoch in &log.setup {
        cluster_epoch(&mut cc, epoch, tr, rep)?;
    }
    replicate(&mut cc, spec, tr, rep);
    rep.attempted += 1;
    let est = tr
        .span("cluster.query", || cc.query(0, spec.window))
        .map_err(err("cluster query"))?;
    setup_done(out, t0, cpu0, &[&nodes[0], &nodes[1]]);
    rep.check(theorem1(&est, truth(log, 0, spec.window, 0), spec.eps));
    Ok((nodes, cc, bytes))
}

fn cluster(
    spec: &Spec,
    log: &Log,
    env: &Env,
    seconds: f64,
    rng: &mut Rng,
    tr: &mut Tracer,
    rep: &mut Report,
) -> Result<Served, String> {
    let mut out = Served::default();
    let line = Timeline::start(seconds);
    tr.begin_phase("phase.setup");
    let (nodes, mut cc, bytes) = cluster_setup(spec, log, env, &mut out, tr, rep)?;
    tr.end_phase();
    let cpu = Cpu::of(&[&nodes[0], &nodes[1]]);
    let mut checkers = nodes
        .iter()
        .map(|n| connect(n.addr))
        .collect::<Result<Vec<_>, _>>()?;
    followers_agree(&cc, &mut checkers, spec, log, 0, rng, tr, rep)?;
    let mut n = 0u64;
    loop {
        while line.setup_due(&out) {
            tr.begin_phase("phase.setup");
            let ([a, b], _, _) = cluster_setup(spec, log, env, &mut out, tr, rep)?;
            a.shutdown()?;
            b.shutdown()?;
            tr.end_phase();
        }
        if line.over(&out) {
            break;
        }
        tr.begin_phase("phase.ingest");
        let mut block = Block::start(&bytes, &cpu);
        for _ in 0..spec.period {
            let epoch = log.timed(n);
            cluster_epoch(&mut cc, epoch, tr, rep)?;
            replicate(&mut cc, spec, tr, rep);
            block.epoch(spec, n, epoch, &bytes, &mut out);
            n += 1;
            block.off(|| followers_agree(&cc, &mut checkers, spec, log, n, rng, tr, rep))?;
        }
        block.end(&mut out);
        tr.end_phase();
        tr.begin_phase("phase.read");
        let mut answers = Vec::with_capacity(READ_WINDOW as usize);
        read_window(&mut out, &cpu, || {
            let (key, window) = w::read(rng, spec);
            rep.attempted += 1;
            let (est, us) = timed(tr, "cluster.query", || cc.query(key, window));
            answers.push((key, window, est.map_err(err("cluster query"))?));
            Ok(us)
        })?;
        for (key, window, est) in answers {
            rep.check(theorem1(&est, truth(log, key, window, n), spec.eps));
        }
        tr.end_phase();
    }
    drop(checkers);
    for node in &nodes {
        health(node.addr, env, tr, rep)?;
        out.rss_mb += node.peak_rss_mb()?;
    }
    let [a, b] = nodes;
    a.shutdown()?;
    b.shutdown()?;
    Ok(out)
}

pub fn monitor_config(spec: &Spec) -> MonitorConfig {
    MonitorConfig {
        max_window: spec.window,
        eps: spec.eps,
        eps_split: w::EPS_SPLIT,
        parties: w::PARTIES,
    }
}

/// One round: every party applies its batch and ships a delta if its
/// drift crossed its budget.
fn monitor_round<R: Recorder + Send + Sync + 'static>(
    parties: &mut [PushParty],
    client: &mut Client<R>,
    epoch: &Epoch,
    tr: &mut Tracer,
    rep: &mut Report,
) -> Result<(), String> {
    for frame in epoch {
        for (p, bits) in entries(frame) {
            let party = &mut parties[*p as usize];
            if let Some(d) = tr.span("monitor.push_words", || party.push_words(bits.as_ref())) {
                rep.attempted += 1;
                tr.span("net.push_delta", || {
                    client.push_delta(d.party, d.seq, d.slack, SynopsisKind::DetWave, d.bytes)
                })
                .map_err(err("push_delta"))?;
            }
        }
    }
    Ok(())
}

/// Exact count of the union of the parties' windows after `done` timed
/// rounds.
fn combined_truth(log: &Log, cfg: &MonitorConfig, done: u64) -> u64 {
    (0..cfg.parties)
        .map(|p| truth(log, p, cfg.max_window, done))
        .sum()
}

fn combine_check(answer: &Estimate, truth: u64, cfg: &MonitorConfig) -> Result<(), String> {
    slack_contract(answer.value, truth, cfg.eps_synopsis(), cfg.slack_total())
}

type Monitor = (Serve, Client<WireBytes>, Arc<WireBytes>, Vec<PushParty>);

/// Monitor set-up: every party's first full window, shipped, and the
/// referee's first combined answer.
fn monitor_setup(
    spec: &Spec,
    log: &Log,
    env: &Env,
    out: &mut Served,
    tr: &mut Tracer,
    rep: &mut Report,
) -> Result<Monitor, String> {
    let cfg = monitor_config(spec);
    let bytes = Arc::new(WireBytes::default());
    let (t0, cpu0) = (Instant::now(), self_cpu());
    let srv = Serve::spawn(&env.waves, &opts(spec, env, None))?;
    let mut client = connect_recorded(srv.addr, Arc::clone(&bytes))?;
    let mut parties = (0..cfg.parties)
        .map(|p| PushParty::new(&cfg, p))
        .collect::<Result<Vec<_>, _>>()
        .map_err(err("party"))?;
    for epoch in &log.setup {
        monitor_round(&mut parties, &mut client, epoch, tr, rep)?;
    }
    rep.attempted += 1;
    let est = tr
        .span("net.combine", || client.combine(spec.window))
        .map_err(err("combine"))?;
    setup_done(out, t0, cpu0, &[&srv]);
    rep.check(combine_check(&est, combined_truth(log, &cfg, 0), &cfg));
    Ok((srv, client, bytes, parties))
}

fn monitor(
    spec: &Spec,
    log: &Log,
    env: &Env,
    seconds: f64,
    tr: &mut Tracer,
    rep: &mut Report,
) -> Result<Served, String> {
    let mut out = Served::default();
    let cfg = monitor_config(spec);
    let line = Timeline::start(seconds);
    tr.begin_phase("phase.setup");
    let (srv, mut client, bytes, mut parties) = monitor_setup(spec, log, env, &mut out, tr, rep)?;
    tr.end_phase();
    let cpu = Cpu::of(&[&srv]);
    let mut n = 0u64;
    loop {
        while line.setup_due(&out) {
            tr.begin_phase("phase.setup");
            let (other, ..) = monitor_setup(spec, log, env, &mut out, tr, rep)?;
            other.shutdown()?;
            tr.end_phase();
        }
        if line.over(&out) {
            break;
        }
        // Rounds with a `COMBINE` every `COMBINE_EVERY`, checked against
        // the slack contract; the clocks cover the rounds and the
        // `COMBINE`s.
        tr.begin_phase("phase.ingest");
        let mut block = Block::start(&bytes, &cpu);
        for _ in 0..spec.period {
            let epoch = log.timed(n);
            monitor_round(&mut parties, &mut client, epoch, tr, rep)?;
            n += 1;
            if n.is_multiple_of(w::COMBINE_EVERY) {
                rep.attempted += 1;
                let est = tr
                    .span("net.combine", || client.combine(spec.window))
                    .map_err(err("combine"))?;
                block.off(|| rep.check(combine_check(&est, combined_truth(log, &cfg, n), &cfg)));
            }
            block.epoch(spec, n - 1, epoch, &bytes, &mut out);
        }
        block.end(&mut out);
        tr.end_phase();
        // The timed reads: closed-loop `COMBINE`s on the state so far.
        tr.begin_phase("phase.read");
        let mut answers = Vec::with_capacity(READ_WINDOW as usize);
        read_window(&mut out, &cpu, || {
            rep.attempted += 1;
            let (est, us) = timed(tr, "net.combine", || client.combine(spec.window));
            answers.push(est.map_err(err("combine"))?);
            Ok(us)
        })?;
        let truth = combined_truth(log, &cfg, n);
        for est in answers {
            rep.check(combine_check(&est, truth, &cfg));
        }
        tr.end_phase();
    }
    health(srv.addr, env, tr, rep)?;
    out.rss_mb = srv.peak_rss_mb()?;
    srv.shutdown()?;
    Ok(out)
}
