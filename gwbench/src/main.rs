//! One repetition of a gateway benchmark workload, in a fresh process.
//!
//! ```text
//! gwbench --workload <name> --seed <n> [--trace <0|1>] [--spans <file.jsonl>]
//! ```
//!
//! Phases: set-up (repeated, the last deployment kept); a closed-loop
//! warm-up; an open loop at the workload's offered rate; a closed-loop
//! saturation phase; quiescence, audit, scrape and heap reading. With
//! `--trace 1` it also replays the requests in-process, times the MDL
//! codecs, scrapes the HTTP endpoint and writes its spans.
//!
//! Prints one JSON object: the run's problems (empty when every output
//! checked out), sessions attempted and failed, every end-to-end and
//! per-layer reading, and each set-up time. `run.py` aggregates
//! repetitions into the benchmark's result line.

mod alloc;
mod check;
mod gen;
mod layers;
mod procfs;
mod rig;
mod stats;
mod trace;
mod workload;

use rig::Rig;
use stats::{median, percentile};
use std::fmt::Write as _;
use std::time::{Duration, Instant};
use trace::Tracer;
use workload::{Inputs, Workload};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Set-ups per repetition; `setup_s` is their median.
const SETUPS: usize = 5;
/// Garbage datagrams kept in the cycled pool.
const GARBAGE_POOL: usize = 1024;
/// Renders timed for `scrape_ms`.
const SCRAPES: usize = 11;
/// Sessions replayed in-process per engine configuration.
const REPLAY: usize = 6_000;

struct Args {
    workload: Workload,
    seed: u64,
    trace: bool,
    spans: Option<std::path::PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut trace = false;
    let mut spans = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(workload::named(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--trace" => trace = value == "1",
            "--spans" => spans = Some(value.into()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        trace,
        spans,
    })
}

/// What one repetition prints.
#[derive(Default)]
struct Report {
    problems: Vec<String>,
    attempted: usize,
    failed: usize,
    e2e: Vec<(&'static str, f64)>,
    layer: Vec<(String, f64)>,
    setup_s: Vec<f64>,
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("gwbench: {err}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(report) => println!("{}", to_json(&report)),
        Err(err) => {
            eprintln!("gwbench: {err}");
            std::process::exit(1);
        }
    }
}

/// Malformed datagrams the deployed SLP model rejects: candidates that
/// the MDL codec or the reference wire codec would accept are dropped,
/// so none of them can start a session.
fn garbage_pool(inputs: &Inputs, tracer: &mut Tracer) -> Result<Vec<Vec<u8>>, String> {
    let registry = rig::loaded_registry(tracer, 0)?;
    let codec = registry.framework().codec("SLP").ok_or("no SLP codec")?;
    let pool: Vec<Vec<u8>> = inputs
        .garbage_candidates(GARBAGE_POOL * 2)
        .into_iter()
        .filter(|g| codec.parse(g).is_err() && starlink_protocols::slp::decode(g).is_err())
        .take(GARBAGE_POOL)
        .collect();
    if pool.len() < GARBAGE_POOL {
        return Err(format!("only {} garbage datagrams survived the filter", pool.len()));
    }
    Ok(pool)
}

/// With two CPUs or more, pins the generator's thread to the first and
/// the program's threads to the second, so the two never compete.
fn place(groups: &rig::Groups, cpus: &[usize]) {
    if cpus.len() < 2 {
        return;
    }
    for &tid in groups.gateway.iter().chain(&groups.shard).chain(&groups.export) {
        procfs::pin(tid, &cpus[1..2]);
    }
    if let Some(tid) = procfs::current_tid() {
        procfs::pin(tid, &cpus[..1]);
    }
}

fn per(value: f64, sessions: usize) -> f64 {
    value / sessions.max(1) as f64
}

/// glibc serves allocations above a dynamic threshold with fresh
/// `mmap`s and raises the threshold the first time such a block is
/// freed. When that first free happens depends on thread timing, so a
/// fresh process would land in one of two allocator regimes at random
/// (a `/metrics` render then costs 0.4 or 1.9 ms). Freeing one large
/// block up front puts every run in the regime a long-lived process
/// reaches anyway. The block is allocated zeroed, so it is a fresh
/// `mmap` that is never touched and leaves `VmHWM` alone.
fn settle_allocator() {
    std::hint::black_box(vec![0u8; 16 << 20]);
}

fn run(args: &Args) -> Result<Report, String> {
    alloc::exclude_current_thread();
    settle_allocator();
    let w = args.workload;
    let inputs = Inputs::new(&w, args.seed);
    let mut tracer = Tracer::new(args.trace, Instant::now(), 2 * w.sessions() + 4 * REPLAY + 1024);
    let mut report = Report::default();

    // ---- Set-up, repeated; the last deployment serves the run ----
    let mut setups = Vec::with_capacity(SETUPS);
    let mut rig = None;
    for _ in 0..SETUPS {
        drop(rig.take());
        let (deployed, times) = Rig::deploy(&w, &inputs, &mut tracer)?;
        setups.push(times);
        rig = Some(deployed);
    }
    let rig = rig.expect("at least one set-up ran");
    report.setup_s = setups.iter().map(|t| t.total().as_secs_f64()).collect();
    let ms = |f: fn(&rig::SetupTimes) -> Duration| {
        let mut v: Vec<f64> = setups.iter().map(|t| f(t).as_secs_f64() * 1e3).collect();
        median(&mut v)
    };
    report.layer.push(("setup.load_check_ms".into(), ms(|t| t.load_check)));
    report.layer.push(("setup.deploy_ms".into(), ms(|t| t.deploy)));
    report.layer.push(("setup.launch_ms".into(), ms(|t| t.launch)));

    // From here on the generator and the program run on CPUs of their
    // own. Left to the scheduler, whether a wake-up crosses virtual CPUs
    // changes from run to run, and the open-loop median with it (about
    // 45 or 70 µs on `fused_discovery`); pinned, it stays near 55 µs.
    let cpus = procfs::allowed_cpus();
    place(&rig.groups, &cpus);
    procfs::tight_timer_slack();

    let pool =
        if w.garbage_per_legit > 0 { garbage_pool(&inputs, &mut tracer)? } else { Vec::new() };
    let mut client = gen::Client::new(rig.ingress, pool, w.garbage_per_legit)
        .map_err(|e| format!("client: {e}"))?;
    let heap0 = alloc::live_bytes();
    let faults0 = procfs::minor_faults().unwrap_or(0);
    let steal0 = procfs::steal_ticks(None).unwrap_or_default();

    // ---- Warm-up, open loop, saturation ----
    let io = |e: std::io::Error| format!("generator: {e}");
    let warm = client.closed_loop(&inputs, 0, w.warmup, w.window, &mut tracer).map_err(io)?;
    let drained = || rig.gateway.stats().datagrams_in;
    let open =
        client.open_loop(&inputs, w.warmup, w.open, w.rate, &drained, &mut tracer).map_err(io)?;
    let program_cpu = if cpus.len() >= 2 { Some(cpus[1]) } else { None };
    let sat_steal0 = procfs::steal_ticks(program_cpu).unwrap_or_default();
    let gw0 = rig.gateway.stats();
    let calls0 = alloc::program_calls();
    let cpu0 = procfs::CpuSnapshot::take();
    let first = w.warmup + w.open;
    let sat =
        client.closed_loop(&inputs, first, w.saturation, w.window, &mut tracer).map_err(io)?;
    let cpu1 = procfs::CpuSnapshot::take();
    let sat_steal1 = procfs::steal_ticks(program_cpu).unwrap_or_default();
    // Share of the saturation phase the host ran something else on the
    // program's CPU; capacity counts only the time the program had.
    let sat_steal = (sat_steal1.1.saturating_sub(sat_steal0.1)) as f64
        / (sat_steal1.0.saturating_sub(sat_steal0.0)).max(1) as f64;
    let calls1 = alloc::program_calls();
    let gw1 = rig.gateway.stats();

    // ---- Quiescence and audit ----
    rig.gateway.flush();
    let ledger = rig.deployed.stats();
    let settle = Instant::now() + Duration::from_secs(5);
    // The gateway counts a send after it returns, so the last reply can
    // reach the generator before its count lands.
    while (ledger.concurrency().active > 0 || rig.gateway.stats().datagrams_out < client.replies)
        && Instant::now() < settle
    {
        std::thread::sleep(Duration::from_millis(1));
    }
    for phase in [&warm, &open, &sat] {
        report.problems.extend(phase.problems.iter().cloned());
    }
    let gw_end = rig.gateway.stats();
    report.problems.extend(check::audit(&gw_end, &ledger.concurrency(), client.replies));
    report.problems.extend(client.garbage_answers());
    report.attempted = warm.sessions + open.sessions + sat.sessions;
    report.failed = report.attempted - (warm.completed + open.completed + sat.completed);

    let mut renders = Vec::with_capacity(SCRAPES);
    let mut page = String::new();
    for _ in 0..SCRAPES {
        let t = Instant::now();
        page = tracer
            .call("export.render_page", 0, || rig.hub.render_page("/metrics"))
            .ok_or("the hub serves no /metrics page")?;
        renders.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let trace_events: f64 = page
        .lines()
        .filter(|l| l.starts_with("starlink_trace_events_total{"))
        .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
        .sum();
    drop(page);
    let heap_live = alloc::live_bytes();
    let faults1 = procfs::minor_faults().unwrap_or(0);
    let hwm_kib = procfs::vm_hwm_kib().unwrap_or(0);
    let steal1 = procfs::steal_ticks(None).unwrap_or_default();

    // ---- End-to-end readings ----
    let mut lat: Vec<f64> = open.latency_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
    let mut late: Vec<f64> = open.late_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
    let done = sat.completed;
    let program_ns = cpu1.run_delta_except(&cpu0, &client.tids) as f64;
    let cpu_us = per(program_ns / 1e3, done);
    report.e2e = vec![
        ("setup_s", median(&mut report.setup_s.clone())),
        ("lat_p50_us", percentile(&mut lat, 50.0)),
        ("capacity_sps", done as f64 / (sat.elapsed.as_secs_f64() * (1.0 - sat_steal)).max(1e-9)),
        ("cpu_us_per_session", cpu_us),
        ("heap_live_mib", heap_live as f64 / (1 << 20) as f64),
        ("rss_peak_mib", hwm_kib as f64 / 1024.0),
        ("scrape_ms", median(&mut renders)),
    ];

    // ---- Per-layer readings ----
    let sessions = report.attempted;
    let groups = &rig.groups;
    let busy = |tids: &[u32]| cpu1.delta(&cpu0, tids);
    let (gw_run, gw_wait) = busy(&groups.gateway);
    let (sh_run, sh_wait) = busy(&groups.shard);
    let (ex_run, _) = busy(&groups.export);
    let (gen_run, _) = busy(&client.tids);
    let us = |ns: u64| per(ns as f64 / 1e3, done);
    let submits = gw1.submits.saturating_sub(gw0.submits).max(1) as f64;
    let layer = &mut report.layer;
    layer.push(("gateway.busy_us_per_session".into(), us(gw_run)));
    layer.push(("gateway.runq_us_per_session".into(), us(gw_wait)));
    layer.push((
        "gateway.datagrams_per_submit".into(),
        (gw1.datagrams_in - gw0.datagrams_in) as f64 / submits,
    ));
    layer.push(("net.ingress_lost".into(), client.sent.saturating_sub(gw_end.datagrams_in) as f64));
    layer.push(("shard.busy_us_per_session".into(), us(sh_run)));
    layer.push(("shard.runq_us_per_session".into(), us(sh_wait)));
    layer.push(("export.busy_us_per_session".into(), us(ex_run)));
    layer.push(("generator.busy_us_per_session".into(), us(gen_run)));
    layer.push(("budget.residual_us_per_session".into(), cpu_us - us(gw_run + sh_run + ex_run)));
    layer.push(("alloc.calls_per_session".into(), per(calls1.saturating_sub(calls0) as f64, done)));
    layer.push((
        "heap.retained_bytes_per_session".into(),
        per((heap_live - heap0) as f64, sessions),
    ));
    layer.push((
        "proc.minor_faults_per_ksession".into(),
        per(faults1.saturating_sub(faults0) as f64 * 1e3, sessions),
    ));
    layer.push(("stats.sessions_retained".into(), ledger.session_count() as f64));
    layer.push(("stats.errors_retained".into(), ledger.errors().len() as f64));
    layer.push(("metrics.trace_events_per_session".into(), per(trace_events, sessions)));
    layer.push(("generator.late_p99_us".into(), percentile(&mut late, 99.0)));
    layer.push(("generator.late_max_us".into(), percentile(&mut late, 100.0)));
    layer.push(("session.lat_p90_us".into(), percentile(&mut lat, 90.0)));
    layer.push(("session.lat_p99_us".into(), percentile(&mut lat, 99.0)));
    layer.push(("host.steal_pct.saturation".into(), 100.0 * sat_steal));
    let (all, stolen) = (steal1.0.saturating_sub(steal0.0), steal1.1.saturating_sub(steal0.1));
    layer.push(("host.steal_pct".into(), 100.0 * stolen as f64 / all.max(1) as f64));

    if args.trace {
        traced_extras(&w, &inputs, &rig, &mut tracer, &mut report)?;
        if let Some(path) = &args.spans {
            tracer.write_jsonl(path).map_err(|e| format!("write {}: {e}", path.display()))?;
        }
    }
    drop(rig);
    Ok(report)
}

/// The socket-free probes of a traced run.
fn traced_extras(
    w: &Workload,
    inputs: &Inputs,
    rig: &Rig,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<(), String> {
    let mut scrapes = Vec::with_capacity(SCRAPES);
    for _ in 0..SCRAPES {
        let (took, _) = tracer
            .call("export.http_get", 0, || layers::http_scrape(rig.server.port()))
            .map_err(|e| format!("scrape: {e}"))?;
        scrapes.push(took.as_secs_f64() * 1e3);
    }
    report.layer.push(("metrics.http_scrape_ms".into(), median(&mut scrapes)));

    let default = layers::replay(w, inputs, REPLAY, false, tracer)?;
    let interpreted = layers::replay(w, inputs, REPLAY, true, tracer)?;
    report.layer.push(("shard.inproc_us_per_session".into(), default.wall_us));
    report.layer.push(("engine.inproc_us_per_session.fused".into(), default.worker_us));
    report.layer.push(("engine.inproc_us_per_session.interpreted".into(), interpreted.worker_us));

    for (name, parse, compose) in layers::codec_ns(inputs, 5, 2_000, tracer)? {
        report.layer.push((format!("mdl.parse_ns.{name}"), parse));
        report.layer.push((format!("mdl.compose_ns.{name}"), compose));
    }
    Ok(())
}

fn json_str(out: &mut String, text: &str) {
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn json_map<'a>(out: &mut String, entries: impl Iterator<Item = (&'a str, f64)>) {
    out.push('{');
    for (i, (name, value)) in entries.enumerate() {
        if i > 0 {
            out.push(',');
        }
        json_str(out, name);
        // Non-finite readings (an empty phase) print as null.
        if value.is_finite() {
            let _ = write!(out, ":{value}");
        } else {
            out.push_str(":null");
        }
    }
    out.push('}');
}

fn to_json(report: &Report) -> String {
    let mut out = String::from("{\"problems\":[");
    for (i, p) in report.problems.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json_str(&mut out, p);
    }
    let _ =
        write!(out, "],\"attempted\":{},\"failed\":{},\"e2e\":", report.attempted, report.failed);
    json_map(&mut out, report.e2e.iter().map(|(n, v)| (*n, *v)));
    out.push_str(",\"layer\":");
    json_map(&mut out, report.layer.iter().map(|(n, v)| (n.as_str(), *v)));
    out.push_str(",\"setup_s\":[");
    for (i, s) in report.setup_s.iter().enumerate() {
        let _ = write!(out, "{}{s}", if i > 0 { "," } else { "" });
    }
    out.push_str("]}");
    out
}
