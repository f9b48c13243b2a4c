//! The repository's benchmark: one seeded workload against
//! `waves serve` processes, every answer checked, metrics printed as
//! one JSON object on the last line of standard output.
//!
//! ```text
//! perfbench --waves <waves binary> --work <dir> --workload <name>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics. `--trace 1` replays the
//! workload's stream through each layer alone, runs the served workload
//! untraced and traced, and prints the per-layer metrics. The exit code
//! is 0 only if every operation succeeded and every answer passed its
//! check. `run.py` builds everything and calls this.
//!
//! `perfbench --waves <bin> --seed <n> --prepare <dir>` only writes the
//! dense-durable workload's crash-left directory for seed `n` to `dir`.

mod input;
mod layers;
mod metrics;
mod oracle;
mod proc;
mod served;
mod trace;
mod workloads;

use std::path::PathBuf;

use metrics::{
    block_rate, median, quantile, windowed, Report, Table, END_TO_END, PER_LAYER, QUARTILE,
    READ_WINDOW,
};
use served::{Env, Served};
use trace::Tracer;

/// Label an error from a call into the program with what was called.
fn err<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

struct Args {
    waves: PathBuf,
    work: PathBuf,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Only write dense-durable's crash-left directory here and exit.
    prepare: Option<PathBuf>,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or(format!("{flag} needs a value"))
    };
    let prepare = get("--prepare").ok().map(PathBuf::from);
    if prepare.is_some() {
        return Ok(Args {
            waves: get("--waves")?.into(),
            work: PathBuf::new(),
            workload: "dense-durable".into(),
            seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            seconds: 0.0,
            trace: false,
            prepare,
        });
    }
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds {seconds} is outside (0, 60]"));
    }
    Ok(Args {
        waves: get("--waves")?.into(),
        work: get("--work")?.into(),
        workload: get("--workload")?,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        },
        prepare: None,
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let code = match parse(&argv) {
        Ok(args) => match run(&args) {
            Ok(code) => code,
            Err(e) => {
                eprintln!("perfbench: {e}");
                1
            }
        },
        Err(e) => {
            eprintln!("perfbench: {e}");
            2
        }
    };
    std::process::exit(code);
}

fn run(args: &Args) -> Result<i32, String> {
    oracle::self_test().map_err(|e| format!("oracle self-test failed: {e}"))?;
    let spec = workloads::spec(&args.workload).ok_or_else(|| {
        format!(
            "unknown workload {:?}; one of {:?}",
            args.workload,
            workloads::NAMES
        )
    })?;
    if let Some(dir) = &args.prepare {
        let env = Env {
            waves: args.waves.clone(),
            work: dir.clone(),
            stats: false,
        };
        let log = workloads::log(&spec, args.seed);
        served::prepare_crash_dir(
            &spec,
            &log,
            &env,
            dir,
            &mut Tracer::new(false),
            &mut Report::default(),
        )?;
        println!(
            "crash-left directory for seed {} written to {}",
            args.seed,
            dir.display()
        );
        return Ok(0);
    }
    let env = Env {
        waves: args.waves.clone(),
        work: args.work.join(format!("run-{}", std::process::id())),
        stats: false,
    };
    std::fs::create_dir_all(&env.work).map_err(|e| format!("{}: {e}", env.work.display()))?;
    let log = workloads::log(&spec, args.seed);
    let mut rep = Report::default();
    let outcome = if args.trace {
        traced(args, &spec, &log, &env, &mut rep)
    } else {
        untraced(args, &spec, &log, &env, &mut rep)
    };
    let _ = std::fs::remove_dir_all(&env.work);
    let table = outcome?;
    println!(
        "{}: {} operations attempted, {} failed, answers {}",
        spec.name,
        rep.attempted,
        rep.failed,
        if rep.violation.is_none() {
            "all correct"
        } else {
            "NOT correct"
        }
    );
    println!("{}", rep.to_json(table)?);
    Ok(if rep.violation.is_none() && rep.failed == 0 {
        0
    } else {
        1
    })
}

/// CPU milliseconds per Mbit ingested: the lower quartile over the
/// blocks.
fn ingest_cpu_ms_per_mbit(s: &Served) -> f64 {
    let mut per_block: Vec<f64> = s
        .blocks
        .iter()
        .zip(&s.block_cpu_s)
        .map(|(&(bits, _), cpu)| cpu * 1e3 / (bits as f64 / 1e6))
        .collect();
    quantile(&mut per_block, QUARTILE)
}

/// CPU microseconds per read: the lower quartile over the windows.
fn query_cpu_us(s: &Served) -> f64 {
    let mut per_window: Vec<f64> = s
        .window_cpu_s
        .iter()
        .map(|cpu| cpu * 1e6 / READ_WINDOW as f64)
        .collect();
    quantile(&mut per_window, QUARTILE)
}

/// Print a run's wall-clock figures next to the host steal it saw, and
/// return them as `served.*` per-layer metrics: set-up wall seconds,
/// the upper-quartile block rate and the windowed read latencies.
fn wall_figures(name: &str, s: &Served) -> [(&'static str, f64); 4] {
    let mut setup = s.setup_s.clone();
    let p99 = windowed(&s.reads, 0.99);
    let beyond = s.reads.iter().filter(|&&(_, us)| us > p99).count();
    let windows = s.reads.last().map_or(0, |&(w, _)| w + 1);
    let bits: u64 = s.blocks.iter().map(|b| b.0).sum();
    let secs: f64 = s.blocks.iter().map(|b| b.1).sum();
    let block_mbit_s: Vec<String> = s
        .blocks
        .iter()
        .zip(&s.block_steal_pct)
        .map(|(&(b, t), steal)| format!("{:.1} ({steal:.0}%)", b as f64 / t / 1e6))
        .collect();
    println!(
        "{name}: set-ups {:.3?} s wall, {:.3?} s CPU; {:.1} Mbit ingested in {secs:.3} s wall, {:.3} s CPU; block rates [{}] Mbit/s (steal); {} reads in {windows} windows, {:.3} s CPU, {beyond} beyond p99",
        s.setup_s,
        s.setup_cpu_s,
        bits as f64 / 1e6,
        s.block_cpu_s.iter().sum::<f64>(),
        block_mbit_s.join(", "),
        s.reads.len(),
        s.window_cpu_s.iter().sum::<f64>(),
    );
    [
        ("served.setup_wall_s", median(&mut setup)),
        ("served.ingest_mbit_s", block_rate(&s.blocks) / 1e6),
        ("served.query_p50_us", windowed(&s.reads, 0.5)),
        ("served.query_p99_us", p99),
    ]
}

fn untraced(
    args: &Args,
    spec: &workloads::Spec,
    log: &input::Log,
    env: &Env,
    rep: &mut Report,
) -> Result<Table, String> {
    let mut tr = Tracer::new(false);
    let ticks0 = proc::cpu_ticks();
    let mut s = served::run(spec, log, env, args.seed, args.seconds, &mut tr, rep)?;
    if let (Some((s0, t0)), Some((s1, t1))) = (ticks0, proc::cpu_ticks()) {
        let share = 100.0 * (s1 - s0) as f64 / (t1 - t0).max(1) as f64;
        println!(
            "{}: host steal {share:.1}% of CPU time during the run",
            spec.name
        );
    }
    wall_figures(spec.name, &s);
    rep.set("setup_s", median(&mut s.setup_cpu_s));
    rep.set("ingest_cpu_ms_per_mbit", ingest_cpu_ms_per_mbit(&s));
    rep.set("query_cpu_us", query_cpu_us(&s));
    rep.set(
        "wire_bytes_per_kbit",
        s.wire_bytes as f64 / (s.wire_bits as f64 / 1e3),
    );
    rep.set("server_rss_mb", s.rss_mb);
    Ok(END_TO_END)
}

fn traced(
    args: &Args,
    spec: &workloads::Spec,
    log: &input::Log,
    env: &Env,
    rep: &mut Report,
) -> Result<Table, String> {
    let half = args.seconds / 2.0;
    let mut off = Tracer::new(false);
    let plain = served::run(spec, log, env, args.seed, half, &mut off, rep)?;
    let mut tr = Tracer::new(true);
    let stats_env = Env {
        stats: true,
        ..env.clone()
    };
    let traced = served::run(spec, log, &stats_env, args.seed, half, &mut tr, rep)?;
    let spans = args
        .work
        .join(format!("trace-{}-seed{}.jsonl", spec.name, args.seed));
    tr.write(&spans)?;
    println!(
        "{}: {} spans written to {}",
        spec.name,
        tr.spans.len(),
        spans.display()
    );
    rep.set("trace.unattributed_share", tr.unattributed_share());
    for (name, value) in wall_figures(spec.name, &plain) {
        rep.set(name, value);
    }
    let (u, t) = (
        ingest_cpu_ms_per_mbit(&plain),
        ingest_cpu_ms_per_mbit(&traced),
    );
    rep.set("trace.overhead_pct", 100.0 * (t - u) / u);
    layers::run(spec, log, env, args.seed, rep)?;
    Ok(PER_LAYER)
}
