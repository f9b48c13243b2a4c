//! Per-layer replays: the workload's own seeded stream through each
//! layer alone, timed from outside by calls into the layer's public
//! functions. Every layer is measured on every workload's stream, so a
//! traced run prints the whole per-layer table.

use std::sync::Arc;
use std::time::Instant;

use waves_cluster::ClusterClient;
use waves_core::{Bits, DetWave};
use waves_distributed::{MonitorReferee, PushParty};
use waves_engine::{Engine, EngineConfig, IngestRequest, PersistConfig};
use waves_net::{Frame, WireCodec};
use waves_obs::{HistId, MetricId, MetricsRegistry, MetricsSnapshot};

use crate::err;
use crate::input::{entries, Epoch, Log, Rng};
use crate::metrics::{median, Report};
use crate::proc::{connect, dir_bytes, Serve, ServeOpts, WireBytes};
use crate::served::{cluster_config, cluster_epoch, monitor_config, replicate, Env};
use crate::trace::Tracer;
use crate::workloads::{self as w, Spec};

/// Pool passes replayed: enough that every layer handles at least
/// ~16 Mbit, at most eight passes.
fn passes(log: &Log) -> usize {
    let pool: u64 = log.pool.iter().map(Log::epoch_bits).sum();
    (16e6 / pool as f64).ceil().clamp(1.0, 8.0) as usize
}

/// The replayed epochs in stream order: set-up, then the pool passes.
fn epochs(log: &Log) -> impl Iterator<Item = &Epoch> {
    let pool = std::iter::repeat_n(&log.pool, passes(log)).flatten();
    log.setup.iter().chain(pool)
}

fn ns(t0: Instant) -> f64 {
    t0.elapsed().as_nanos() as f64
}

pub fn run(spec: &Spec, log: &Log, env: &Env, seed: u64, rep: &mut Report) -> Result<(), String> {
    let mut rng = Rng::new(seed, 0x1A7E);
    let reads: Vec<(u64, u64)> = (0..20_000).map(|_| w::read(&mut rng, spec)).collect();
    let bits: u64 = epochs(log).map(Log::epoch_bits).sum();
    core_and_codec(spec, log, &reads, bits, rep)?;
    frame(log, rep);
    engine(spec, log, env, &reads, bits, rep)?;
    store(spec, log, env, bits, rep)?;
    net(spec, log, env, bits, rep)?;
    cluster(spec, log, env, rep)?;
    monitor(spec, log, bits, rep)
}

fn core_and_codec(
    spec: &Spec,
    log: &Log,
    reads: &[(u64, u64)],
    bits: u64,
    rep: &mut Report,
) -> Result<(), String> {
    let template = DetWave::new(spec.window, spec.eps).map_err(err("wave"))?;
    let stream = || log.stream(passes(log));
    let mut waves = vec![template.clone(); spec.keys as usize];
    let t0 = Instant::now();
    for (key, b) in stream() {
        waves[*key as usize].push_words(b.as_ref());
    }
    rep.set("core.apply_ns_per_bit", ns(t0) / bits as f64);
    let mut per_bit = vec![template; spec.keys as usize];
    let t0 = Instant::now();
    for (key, b) in stream() {
        let wave = &mut per_bit[*key as usize];
        for bit in b.iter() {
            wave.push_bit(bit);
        }
    }
    rep.set("core.push_bit_ns_per_bit", ns(t0) / bits as f64);
    drop(per_bit);
    let t0 = Instant::now();
    for &(key, window) in reads {
        std::hint::black_box(waves[key as usize].query(window).map_err(err("query"))?);
    }
    rep.set("core.query_ns", ns(t0) / reads.len() as f64);
    let resident: usize = waves.iter().map(|w| w.space_report().resident_bytes).sum();
    rep.set(
        "core.state_bytes_per_key",
        resident as f64 / spec.keys as f64,
    );

    let t0 = Instant::now();
    let encoded: Vec<Vec<u8>> = waves.iter().map(DetWave::encode).collect();
    rep.set("codec.encode_us_per_key", ns(t0) / 1e3 / spec.keys as f64);
    let t0 = Instant::now();
    for bytes in &encoded {
        std::hint::black_box(DetWave::decode(bytes).map_err(err("decode"))?);
    }
    rep.set("codec.decode_us_per_key", ns(t0) / 1e3 / spec.keys as f64);
    let total: usize = encoded.iter().map(Vec::len).sum();
    rep.set("codec.bytes_per_key", total as f64 / spec.keys as f64);
    Ok(())
}

fn frame(log: &Log, rep: &mut Report) {
    let frames: Vec<&Frame> = log.setup.iter().chain(&log.pool).flatten().collect();
    let kbit: f64 = frames
        .iter()
        .map(|f| entries(f).iter().map(|(_, b)| b.len()).sum::<u64>())
        .sum::<u64>() as f64
        / 1e3;
    let t0 = Instant::now();
    let encoded: Vec<Vec<u8>> = frames.iter().map(|f| WireCodec::encode(f)).collect();
    rep.set("frame.encode_ns_per_kbit", ns(t0) / kbit);
    let t0 = Instant::now();
    for buf in &encoded {
        std::hint::black_box(WireCodec::decode(buf).expect("a frame just encoded decodes"));
    }
    rep.set("frame.decode_ns_per_kbit", ns(t0) / kbit);
    let bytes: usize = encoded.iter().map(Vec::len).sum();
    rep.set("frame.bytes_per_kbit", bytes as f64 / kbit);
}

fn engine_config(spec: &Spec, persist: Option<PersistConfig>) -> EngineConfig {
    let mut b = EngineConfig::builder()
        .num_shards(spec.shards)
        .max_window(spec.window)
        .eps(spec.eps);
    if let Some(p) = persist {
        b = b.persist_config(p);
    }
    b.build()
}

/// Blocking in-process ingest of one epoch, then the barrier.
fn engine_epoch<R: waves_obs::Recorder + Send + Sync + 'static>(
    engine: &Engine<DetWave, R>,
    epoch: &Epoch,
) {
    for frame in epoch {
        engine
            .ingest(IngestRequest::batch(entries(frame).to_vec()).blocking(true))
            .expect("blocking ingest never sheds");
    }
    engine.flush();
}

fn engine(
    spec: &Spec,
    log: &Log,
    env: &Env,
    reads: &[(u64, u64)],
    bits: u64,
    rep: &mut Report,
) -> Result<(), String> {
    let dir = env.work.join("engine-replay");
    let persist = spec.durable.then(|| PersistConfig::new(&dir));
    let reg = Arc::new(MetricsRegistry::new());
    let engine = Engine::new_recorded(engine_config(spec, persist), Arc::clone(&reg))
        .map_err(err("engine"))?;
    let mut all = epochs(log);
    let first = all.next().expect("set-up is not empty");
    let t0 = Instant::now();
    engine_epoch(&engine, first);
    let created: usize = first.iter().map(|f| entries(f).len()).sum();
    let first_ns = ns(t0);
    rep.set("engine.key_create_us", first_ns / 1e3 / created as f64);
    let t0 = Instant::now();
    for epoch in all {
        engine_epoch(&engine, epoch);
    }
    let wall = first_ns + ns(t0);
    let per_bit = wall / bits as f64;
    rep.set("engine.ingest_ns_per_bit", per_bit);
    rep.set(
        "engine.marginal_ns_per_bit",
        per_bit - rep.get("core.apply_ns_per_bit").unwrap_or(0.0),
    );
    let applying = reg.histogram(HistId::EngineIngestBatchNs).snapshot().sum;
    rep.set("engine.apply_busy_share", applying as f64 / wall);
    rep.set(
        "engine.queue_depth_p50",
        reg.histogram(HistId::EngineQueueDepth).snapshot().p50(),
    );
    let mut lat = Vec::with_capacity(2000);
    for &(key, window) in reads.iter().take(2000) {
        let t0 = Instant::now();
        std::hint::black_box(engine.query(key, window).map_err(err("engine query"))?);
        lat.push(ns(t0) / 1e3);
    }
    rep.set("engine.query_us", median(&mut lat));
    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

fn store(spec: &Spec, log: &Log, env: &Env, bits: u64, rep: &mut Report) -> Result<(), String> {
    let dir = env.work.join("store-replay");
    let _ = std::fs::remove_dir_all(&dir);
    let reg = Arc::new(MetricsRegistry::new());
    let engine = Engine::new_recorded(
        engine_config(spec, Some(PersistConfig::new(&dir))),
        Arc::clone(&reg),
    )
    .map_err(err("engine"))?;
    for epoch in epochs(log) {
        engine_epoch(&engine, epoch);
    }
    engine.checkpoint().map_err(err("checkpoint"))?;
    // A WAL tail after the checkpoint, as a crash would find it: half a
    // pool pass, short of the next automatic checkpoint on every
    // workload.
    let tail = &log.pool[..log.pool.len() / 2];
    for epoch in tail {
        engine_epoch(&engine, epoch);
    }
    let tail: u64 = tail.iter().map(Log::epoch_bits).sum();
    let kbit = (bits + tail) as f64 / 1e3;
    let appends = reg.histogram(HistId::StoreWalAppendNs).snapshot();
    rep.set("store.append_ns_per_kbit", appends.sum as f64 / kbit);
    rep.set(
        "store.fsync_us_p50",
        reg.histogram(HistId::StoreFsyncNs).snapshot().p50() / 1e3,
    );
    rep.set(
        "store.wal_bytes_per_kbit",
        reg.counter(MetricId::StoreWalBytes) as f64 / kbit,
    );
    rep.set(
        "store.checkpoint_ms",
        reg.histogram(HistId::StoreCheckpointNs).snapshot().p50() / 1e6,
    );
    rep.set("store.disk_bytes_per_kbit", dir_bytes(&dir) as f64 / kbit);
    engine.crash_on_drop();
    drop(engine);
    let reg = Arc::new(MetricsRegistry::new());
    let t0 = Instant::now();
    let recovered = Engine::new_recorded(
        engine_config(spec, Some(PersistConfig::new(&dir))),
        Arc::clone(&reg),
    )
    .map_err(err("recover"))?;
    rep.set("store.recover_s", ns(t0) / 1e9);
    rep.set(
        "store.replayed_batches",
        reg.counter(MetricId::StoreBatchesRecovered) as f64,
    );
    recovered.crash_on_drop();
    drop(recovered);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

fn hist_delta(before: &MetricsSnapshot, after: &MetricsSnapshot, name: &str) -> (u64, u64) {
    let get = |s: &MetricsSnapshot| s.hist(name).map_or((0, 0), |h| (h.count, h.sum));
    let (c0, s0) = get(before);
    let (c1, s1) = get(after);
    (c1 - c0, s1 - s0)
}

fn net(spec: &Spec, log: &Log, env: &Env, bits: u64, rep: &mut Report) -> Result<(), String> {
    let dir = env.work.join("net-replay");
    let _ = std::fs::remove_dir_all(&dir);
    let opts = ServeOpts {
        shards: spec.shards,
        window: spec.window,
        eps: spec.eps,
        persist: spec.durable.then(|| dir.clone()),
        stats: true,
    };
    let srv = Serve::spawn(&env.waves, &opts)?;
    let mut client = connect(srv.addr)?;
    let mut tr = Tracer::new(false);
    let mut sink = Report::default();
    let idle = |f: &mut dyn FnMut() -> Result<(), waves_core::WaveError>| -> Result<f64, String> {
        let mut lat: Vec<f64> = Vec::with_capacity(300);
        for _ in 0..300 {
            let t0 = Instant::now();
            f().map_err(err("idle request"))?;
            lat.push(ns(t0) / 1e3);
        }
        Ok(median(&mut lat))
    };
    let ping = idle(&mut || client.ping())?;
    let flush = idle(&mut || client.flush())?;
    rep.set("net.ping_rtt_us", ping);
    rep.set("net.flush_us", flush);
    let before = client.stats().map_err(err("stats"))?;
    let t0 = Instant::now();
    for epoch in epochs(log) {
        crate::served::ingest_epoch(&mut client, epoch, &mut tr, &mut sink)?;
    }
    let wall = ns(t0);
    let after = client.stats().map_err(err("stats"))?;
    if sink.failed > 0 {
        return Err("served replay: ingest refused".into());
    }
    let served = wall / bits as f64;
    rep.set(
        "net.marginal_ns_per_bit",
        served - rep.get("engine.ingest_ns_per_bit").unwrap_or(0.0),
    );
    let (_, busy) = hist_delta(&before, &after, "net_server_frame_ns");
    rep.set("net.dispatch_busy_share", busy as f64 / wall);
    let (wakes, events) = hist_delta(&before, &after, "poll_events_per_wake");
    rep.set("net.events_per_wake", events as f64 / wakes.max(1) as f64);
    drop(client);
    srv.shutdown()?;
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

/// The served cluster loop (`served::cluster_epoch` and
/// `served::replicate`) over the stream's first 4096 events, as eight
/// epochs of 512; its spans give the per-call times.
fn cluster(spec: &Spec, log: &Log, env: &Env, rep: &mut Report) -> Result<(), String> {
    let opts = ServeOpts {
        shards: spec.shards,
        window: spec.window,
        eps: spec.eps,
        persist: None,
        stats: false,
    };
    let nodes = [
        Serve::spawn(&env.waves, &opts)?,
        Serve::spawn(&env.waves, &opts)?,
    ];
    let bytes = Arc::new(WireBytes::default());
    let mut cc = ClusterClient::new_recorded(
        nodes.iter().map(|n| n.addr).collect(),
        cluster_config(spec),
        Arc::clone(&bytes),
    )
    .map_err(err("cluster"))?;
    let events: Vec<(u64, Bits)> = log
        .stream(passes(log))
        .take(8 * w::CLUSTER_EPOCH)
        .cloned()
        .collect();
    let epochs: Vec<Epoch> = events
        .chunks(w::CLUSTER_EPOCH)
        .map(|chunk| vec![Frame::Ingest(chunk.to_vec())])
        .collect();
    let mut tr = Tracer::new(true);
    let mut sink = Report::default();
    let (mut shipped, mut ship_bytes) = (0u64, 0u64);
    for epoch in &epochs {
        cluster_epoch(&mut cc, epoch, &mut tr, &mut sink)?;
        let b0 = bytes.total();
        // Not `sink`: a round ships only the keys seen so far, not all of
        // `spec.keys`, so its failure count means nothing here.
        shipped += replicate(&mut cc, spec, &mut tr, &mut Report::default());
        ship_bytes += bytes.total() - b0;
    }
    if sink.failed > 0 {
        return Err("cluster replay: ingest refused".into());
    }
    let span_ns = |name: &str| -> f64 {
        tr.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns as f64)
            .sum()
    };
    rep.set(
        "cluster.ingest_us_per_event",
        span_ns("cluster.ingest") / 1e3 / events.len() as f64,
    );
    rep.set(
        "cluster.replicate_ms_per_round",
        span_ns("cluster.replicate_all") / 1e6 / epochs.len() as f64,
    );
    rep.set(
        "cluster.ship_bytes_per_key",
        ship_bytes as f64 / shipped.max(1) as f64,
    );
    drop(cc);
    let [a, b] = nodes;
    a.shutdown()?;
    b.shutdown()
}

fn monitor(spec: &Spec, log: &Log, bits: u64, rep: &mut Report) -> Result<(), String> {
    // The monitor's own parties, or the workload's keys folded onto
    // eight parties over the workload's window.
    let cfg = monitor_config(spec);
    let mut parties = (0..cfg.parties)
        .map(|p| PushParty::new(&cfg, p))
        .collect::<Result<Vec<_>, _>>()
        .map_err(err("party"))?;
    let mut referee = MonitorReferee::new();
    let (mut push_ns, mut install_ns, mut combine_ns) = (0.0, 0.0, 0.0);
    let (mut deltas, mut combines) = (0u64, 0u64);
    for (i, (key, b)) in log.stream(passes(log)).enumerate() {
        let party = &mut parties[(key % cfg.parties) as usize];
        let t0 = Instant::now();
        let delta = party.push_words(b.as_ref());
        push_ns += ns(t0);
        if let Some(d) = delta {
            deltas += 1;
            let t0 = Instant::now();
            referee.install(&d).map_err(err("install"))?;
            install_ns += ns(t0);
        }
        if (i as u64 + 1).is_multiple_of(w::COMBINE_EVERY * w::PARTIES) {
            let t0 = Instant::now();
            std::hint::black_box(referee.combined());
            combine_ns += ns(t0);
            combines += 1;
        }
    }
    rep.set("monitor.party_ns_per_bit", push_ns / bits as f64);
    rep.set(
        "monitor.deltas_per_mbit",
        deltas as f64 / (bits as f64 / 1e6),
    );
    rep.set(
        "monitor.install_us",
        install_ns / 1e3 / deltas.max(1) as f64,
    );
    rep.set(
        "monitor.combine_us",
        combine_ns / 1e3 / combines.max(1) as f64,
    );
    Ok(())
}
