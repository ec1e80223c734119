//! `perfbench` — the repository's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fresh-closed|repeat-closed|skewed-paced|requote-stream> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One command drives a named workload (see [`workloads`]) through the
//! public APIs of `dls-protocol`, `dls-mechanism` and `dls-dlt`, checks
//! every output against an oracle (see [`check`]), and prints every metric
//! by name with its unit. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`.
//!
//! `--trace 0` measures the end-to-end metrics with no tracing:
//! `sessions_per_s`, `requotes_per_s`, `p50_ms`, `p99_ms`, `setup_s`
//! (median of [`workloads::SETUP_REPS`] set-ups) and `rss_mb` (peak
//! resident set, `VmHWM`, once [`drive::RSS_AT_SESSIONS`] sessions have
//! completed). A result line carries every end-to-end metric that
//! `BENCHMARK.json` lists, on every workload, so both throughput names are
//! printed everywhere: every
//! completed operation is one price quote, so on the session workloads
//! `requotes_per_s` equals `sessions_per_s`, and on `requote-stream`
//! `sessions_per_s` counts each re-quote as one repriced k-load session.
//!
//! Throughput is the median over blocks of [`Workload::block_ops`]
//! consecutive operations; on `skewed-paced` it is the fixed offered load
//! unless the service falls behind it. Latency runs from `submit` to result
//! on the closed loops, from the due time on the open loop, and over one
//! re-quote on `requote-stream`; `p50_ms` and `p99_ms` are taken over every
//! operation of the blocks. On the session workloads, latencies, closed-loop
//! throughput and set-up times are corrected for the host's speed (see
//! [`probe`]); the line before the result gives the sample count, the
//! median slowdown and the uncorrected figures. Failures (session errors,
//! refused submits, lost tickets, wrong outputs) are the result's `failed`
//! over `attempted`.
//!
//! `--trace 1` is a separate run that splits each workload's time across
//! the layers (see [`trace`]) and prints the per-layer metrics; spans are
//! written to `.bench_trace/<workload>-<seed>.jsonl`.

mod check;
mod drive;
mod probe;
mod report;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use drive::{Requote, SessionSetup, Tally};
use report::{median, percentile, Block, Metrics};
use trace::{Replayer, Totals, Tracer, Traffic};
use workloads::{Stream, Workload, FRESH, HEAVY, LIGHT, SETUP_REPS};

/// Key slot of the traced run's replay sessions: disjoint from every
/// set-up repetition, so replayed sessions sign under keys the measured
/// stream never used.
const TWIN_SLOT: u64 = 99;
/// Every `REQUOTE_TRACE_EVERY`-th re-quote of a traced run is traced; the
/// others, interleaved with them, are the untraced baseline.
const REQUOTE_TRACE_EVERY: u64 = 32;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|&s| s > 0)
            .ok_or("--seconds must be a positive integer")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let args = parse_args(std::env::args().skip(1))?;
    let w = args.workload;
    println!(
        "{}",
        report::host_line(
            w.name(),
            args.seed,
            args.seconds,
            drive::workers(),
            w.key_bits()
        )
    );
    let (tally, metrics) = if args.trace {
        traced(&args)?
    } else {
        timed(&args)?
    };
    eprint!("{}", metrics.pretty());
    for reason in &tally.reasons {
        eprintln!("failure: {reason}");
    }
    println!(
        "{}",
        report::result_line(tally.attempted, tally.failed, &metrics)
    );
    Ok(())
}

/// Throughput and latency of one run.
#[derive(Debug, Clone, Copy)]
struct Figures {
    rate: f64,
    p50_ms: f64,
    p99_ms: f64,
}

impl Figures {
    /// Figures from `blocks` of latencies: the median over blocks of the
    /// throughput `rate`, block `i`'s multiplied by `rate_scale[i]`, and
    /// latency percentiles over every operation in the blocks.
    fn of(blocks: &[Block], rate: impl Fn(&Block) -> f64, rate_scale: &[f64]) -> Self {
        let rates: Vec<f64> = blocks
            .iter()
            .zip(rate_scale.iter().chain(std::iter::repeat(&1.0)))
            .map(|(b, s)| rate(b) * s)
            .collect();
        let mut all: Vec<u64> = blocks
            .iter()
            .flat_map(|b| b.sorted.iter().copied())
            .collect();
        all.sort_unstable();
        Figures {
            rate: median(&rates),
            p50_ms: percentile(&all, 0.50) as f64 / 1e6,
            p99_ms: percentile(&all, 0.99) as f64 / 1e6,
        }
    }
}

/// Prints what the figures rest on, and the figures before the host-speed
/// correction, on the line before the result.
fn basis_line(blocks: &[Block], slow: &[f64], raw: &Figures, raw_setup_s: f64) {
    let samples: usize = blocks.iter().map(|b| b.sorted.len()).sum();
    println!(
        "{{\"latency_samples\": {samples}, \"blocks\": {}, \"host_slowdown\": {:?}, \"uncorrected\": {{\"rate_per_s\": {:?}, \"p50_ms\": {:?}, \"p99_ms\": {:?}, \"setup_s\": {:?}}}}}",
        blocks.len(),
        if slow.is_empty() { 1.0 } else { median(slow) },
        raw.rate,
        raw.p50_ms,
        raw.p99_ms,
        raw_setup_s
    );
}

fn end_to_end(m: &mut Metrics, f: &Figures, setup_s: f64, rss_mb: f64) {
    m.put("sessions_per_s", f.rate, "1/s");
    m.put("requotes_per_s", f.rate, "1/s");
    m.put("p50_ms", f.p50_ms, "ms");
    m.put("p99_ms", f.p99_ms, "ms");
    m.put("setup_s", setup_s, "s");
    m.put("rss_mb", rss_mb, "MiB");
}

/// The set-up repetitions of a session workload: when each started and
/// ended (ns since the first), and the host-speed probes taken meanwhile.
struct Setups {
    reps: Vec<(u64, u64)>,
    probe: Vec<probe::Sample>,
}

/// Prepares a session workload `reps` times, each under its own key slot,
/// and keeps the last; returns it with the repetitions.
fn setup_sessions(a: &Args, reps: usize) -> Result<(SessionSetup, Setups), String> {
    let t0 = Instant::now();
    let probe = probe::Probe::start(t0);
    let mut spans = Vec::new();
    let mut ready = None;
    for rep in 0..reps as u64 {
        let from = t0.elapsed().as_nanos() as u64;
        let (setup, _) = drive::prepare_sessions(a.workload, a.seed, rep)?;
        let svc = drive::start_service()?;
        spans.push((from, t0.elapsed().as_nanos() as u64));
        svc.shutdown();
        ready = Some(setup);
    }
    let setups = Setups {
        reps: spans,
        probe: probe.finish(),
    };
    Ok((ready.ok_or("no set-up ran")?, setups))
}

/// `requote-stream` set-up repetitions and the pause between two: an engine
/// build takes about 0.1 ms, so back-to-back builds would all fall in one
/// phase of the host's speed. Spread over a quarter second they sample
/// its phases, and `setup_s` is the median of the faster half.
const REQUOTE_SETUP_REPS: usize = 51;
const REQUOTE_SETUP_PAUSE: std::time::Duration = std::time::Duration::from_millis(5);

fn timed(a: &Args) -> Result<(Tally, Metrics), String> {
    if a.workload == Workload::RequoteStream {
        return timed_requote(a);
    }
    let (setup, setups) = setup_sessions(a, SETUP_REPS)?;
    // The service is started once more for the run; its start-up is part
    // of every set-up repetition above.
    let svc = drive::start_service()?;
    let stream = Stream::new(a.workload, a.seed, 0, setup.key_seed, setup.pool);
    let run = drive::stream(a.workload, &svc, &stream, a.seconds as f64, None);
    svc.shutdown();
    let run = run?;

    let fastest = run
        .probe
        .iter()
        .chain(&setups.probe)
        .map(|s| s.1)
        .min()
        .unwrap_or(1);
    let sd = probe::Slowdown::new(&run.probe, fastest);
    let ops = a.workload.block_ops();
    let raw_bs = report::blocks(&run.done, ops, run.span_ns);
    let bs = report::blocks(&sd.correct(&run.done), ops, run.span_ns);
    // A block's slowdown is its sessions' time over their corrected time.
    let slow: Vec<f64> = raw_bs
        .iter()
        .zip(&bs)
        .map(|(r, c)| r.sum as f64 / c.sum.max(1) as f64)
        .collect();
    // The open loop's throughput is its offered load, not a speed.
    let rate_scale = if a.workload == Workload::SkewedPaced {
        &[][..]
    } else {
        &slow[..]
    };
    let rate = |b: &Block| b.sorted.len() as f64 * 1e9 / b.span_ns().max(1) as f64;
    let f = Figures::of(&bs, rate, rate_scale);
    let raw = Figures::of(&raw_bs, rate, &[]);

    let setup_sd = probe::Slowdown::new(&setups.probe, fastest);
    let raw_setup: Vec<f64> = setups
        .reps
        .iter()
        .map(|&(from, to)| (to - from) as f64 / 1e9)
        .collect();
    let setup_s: Vec<f64> = setups
        .reps
        .iter()
        .zip(&raw_setup)
        .map(|(&(from, to), s)| s / setup_sd.over(from, to))
        .collect();
    basis_line(&bs, &slow, &raw, median(&raw_setup));
    let mut m = Metrics::default();
    end_to_end(&mut m, &f, median(&setup_s), run.rss_mb);
    Ok((run.tally, m))
}

/// `requote-stream`: no host-speed correction (see [`probe`]); the figures
/// come from the faster half of the blocks, and `setup_s` from the faster
/// half of the set-ups.
fn timed_requote(a: &Args) -> Result<(Tally, Metrics), String> {
    let mut times = Vec::new();
    let mut built = None;
    for _ in 0..REQUOTE_SETUP_REPS {
        std::thread::sleep(REQUOTE_SETUP_PAUSE);
        let t = Instant::now();
        let rq = Requote::build(a.seed)?;
        times.push(t.elapsed().as_secs_f64());
        built = Some(rq);
    }
    times.sort_by(f64::total_cmp);
    let setup_s = median(&times[..times.len().div_ceil(2)]);
    let mut rq = built.ok_or("no set-up ran")?;
    let run = drive::requote(&mut rq, a.seconds as f64);
    let bs = report::blocks(&run.ops, a.workload.block_ops(), run.span_ns);
    // A block's rate is re-quotes over the time spent in them, so the
    // generator's update draws and the oracle checks are left out.
    let rate = |b: &Block| b.sorted.len() as f64 * 1e9 / b.sum.max(1) as f64;
    let raw = Figures::of(&bs, rate, &[]);
    let f = Figures::of(&report::faster_half(&bs, rate), rate, &[]);
    basis_line(&bs, &[], &raw, median(&times));
    let mut m = Metrics::default();
    end_to_end(&mut m, &f, setup_s, run.rss_mb);
    Ok((run.tally, m))
}

/// Sessions between samples in the traced slices: enough samples for
/// stable layer means while the serial replay stays a few seconds. On
/// `skewed-paced` the period is prime to the heavy period, so heavy
/// sessions are sampled at their share of the stream and the per-session
/// means describe the stream's mix.
fn sample_every(w: Workload) -> u64 {
    match w {
        Workload::FreshClosed => 5,
        Workload::RepeatClosed => 50,
        _ => 7,
    }
}

/// Where a per-layer metric comes from.
#[derive(Debug, Clone, Copy)]
enum Source {
    /// Self time of the named span per session (or re-quote), in ns
    /// divided by the factor.
    SelfTime(&'static str, f64),
    /// Set by the traced run itself.
    Run,
}

use Source::{Run, SelfTime};

/// The per-layer metrics: name, unit and source, in the order
/// `BENCHMARK.json` lists them. Every traced run prints all of them, so a
/// layer a workload never enters reads 0.
const PER_LAYER: [(&str, &str, Source); 41] = [
    ("crypto.sign_us", "us", SelfTime("crypto.sign", 1e3)),
    ("crypto.verify_us", "us", SelfTime("crypto.verify", 1e3)),
    (
        "crypto.encode_us.bid",
        "us",
        SelfTime("crypto.encode.bid", 1e3),
    ),
    (
        "crypto.encode_us.grant",
        "us",
        SelfTime("crypto.encode.grant", 1e3),
    ),
    (
        "crypto.encode_us.payment",
        "us",
        SelfTime("crypto.encode.payment", 1e3),
    ),
    (
        "crypto.sha256_us.bid",
        "us",
        SelfTime("crypto.sha256.bid", 1e3),
    ),
    (
        "crypto.sha256_us.grant",
        "us",
        SelfTime("crypto.sha256.grant", 1e3),
    ),
    (
        "crypto.sha256_us.payment",
        "us",
        SelfTime("crypto.sha256.payment", 1e3),
    ),
    ("crypto.encode_bytes_per_session", "bytes", Run),
    ("crypto.signs_per_session", "count", Run),
    ("crypto.verifies_per_session", "count", Run),
    ("dlt.solve_ns", "ns", SelfTime("dlt.solve", 1.0)),
    ("dlt.update_bid_ns", "ns", SelfTime("dlt.update_bid", 1.0)),
    ("dlt.schedule_ns", "ns", SelfTime("dlt.schedule", 1.0)),
    (
        "mechanism.payments_ns",
        "ns",
        SelfTime("mechanism.payments", 1.0),
    ),
    (
        "referee.adjudicate_us",
        "us",
        SelfTime("referee.adjudicate", 1e3),
    ),
    ("referee.adjudicate_payments_us", "us", Run),
    ("executor.session_us", "us", Run),
    ("executor.residual_us", "us", Run),
    ("executor.messages_per_session", "count", Run),
    ("executor.bytes_per_session", "bytes", Run),
    ("executor.rounds_per_session", "count", Run),
    ("service.submit_us.p50", "us", Run),
    ("service.submit_us.p99", "us", Run),
    ("service.queue_wait_ms.p50", "ms", Run),
    ("service.queue_wait_ms.p99", "ms", Run),
    ("service.busy_frac", "frac", Run),
    ("service.steals", "count", Run),
    ("service.queue_depth_hwm", "count", Run),
    ("gen.late_ms_p99", "ms", Run),
    ("setup.keygen_s", "s", Run),
    ("setup.dataset_s", "s", Run),
    ("trace.overhead_frac", "frac", Run),
    ("trace.sessions", "count", Run),
    ("trace.spans", "count", Run),
    ("split.sign_frac", "frac", Run),
    ("split.crypto_frac", "frac", Run),
    ("split.dlt_mechanism_frac", "frac", Run),
    ("split.referee_frac", "frac", Run),
    ("split.residual_frac", "frac", Run),
    ("failed_frac", "frac", Run),
];

type Values = BTreeMap<&'static str, f64>;

fn per_layer(values: &Values) -> Metrics {
    let mut m = Metrics::default();
    for (name, unit, _) in PER_LAYER {
        m.put(name, values.get(name).copied().unwrap_or(0.0), unit);
    }
    m
}

fn traced(a: &Args) -> Result<(Tally, Metrics), String> {
    if a.workload == Workload::RequoteStream {
        return traced_requote(a);
    }
    let w = a.workload;
    let mut tally = Tally::default();
    let mut v = Values::new();

    let (setup, _) = setup_sessions(a, 1)?;
    let (_, twin_ran) = drive::prepare_sessions(w, a.seed, TWIN_SLOT)?;
    let twin_seed = workloads::key_seed(w, TWIN_SLOT);
    let blocks = match w {
        Workload::FreshClosed => vec![FRESH.blocks],
        Workload::RepeatClosed => vec![LIGHT.blocks],
        _ => vec![LIGHT.blocks, HEAVY.blocks],
    };
    let bits = w
        .key_bits()
        .first()
        .copied()
        .ok_or("workload has no keys")?;
    let (mut rp, rs) = Replayer::new(w.max_m(), bits, &blocks)?;
    v.insert("setup.keygen_s", rs.keygen_s);
    v.insert("setup.dataset_s", rs.dataset_s);
    for cfg in &twin_ran {
        trace::mark(&mut rp, cfg)?;
    }
    rp.bytes_encoded = 0;
    rp.signs = 0;
    rp.verifies = 0;
    rp.adjudicate_payments_ns = 0;
    rp.adjudicate_payments_calls = 0;

    let svc = drive::start_service()?;
    let stream = Stream::new(w, a.seed, 1, setup.key_seed, setup.pool);
    let opts = drive::TraceOpts {
        sample_every: sample_every(w),
    };
    let run = drive::stream(w, &svc, &stream, a.seconds as f64, Some(opts));
    svc.shutdown();
    let mut run = run?;

    // Replay the samples serially under the twin keys.
    let mut tr = Tracer::new();
    let (mut session_ns, mut queue_wait_ns) = (Vec::new(), Vec::new());
    let mut traffic = Traffic::default();
    for (sid, s) in run.samples.iter().enumerate() {
        let mut cfg = s.cfg.clone();
        cfg.seed = twin_seed;
        let res = trace::session(&mut tr, &mut rp, sid as u64, &cfg).map(|(ns, t)| {
            session_ns.push(ns);
            queue_wait_ns.push(s.latency_ns.saturating_sub(ns));
            traffic.messages += t.messages;
            traffic.bytes += t.bytes;
            traffic.rounds += t.rounds;
        });
        tally.record(res);
    }
    write_spans(&tr, a);

    let n = session_ns.len().max(1) as f64;
    let totals = tr.totals();
    layers(&mut v, &totals, "executor.session", n);
    v.insert(
        "crypto.encode_bytes_per_session",
        rp.bytes_encoded as f64 / n,
    );
    v.insert("crypto.signs_per_session", rp.signs as f64 / n);
    v.insert("crypto.verifies_per_session", rp.verifies as f64 / n);
    v.insert("executor.messages_per_session", traffic.messages as f64 / n);
    v.insert("executor.bytes_per_session", traffic.bytes as f64 / n);
    v.insert("executor.rounds_per_session", traffic.rounds as f64 / n);
    v.insert(
        "referee.adjudicate_payments_us",
        rp.adjudicate_payments_ns as f64 / rp.adjudicate_payments_calls.max(1) as f64 / 1e3,
    );

    run.submit_ns.sort_unstable();
    queue_wait_ns.sort_unstable();
    run.late_ns.sort_unstable();
    // `service.busy_frac` is an estimate, not a reading: the service does
    // not report its workers' run time, so the mean serial replay time of
    // the sampled sessions stands in for every session submitted in a
    // traced slice, over the workers times the traced slices' wall time.
    let traced_sessions = run.slice_latencies_ns[1].len() as f64;
    let busy = session_ns.iter().sum::<u64>() as f64 / n * traced_sessions
        / (drive::workers() as f64 * drive::traced_wall_ns(run.span_ns).max(1) as f64);
    v.insert(
        "service.submit_us.p50",
        percentile(&run.submit_ns, 0.50) as f64 / 1e3,
    );
    v.insert(
        "service.submit_us.p99",
        percentile(&run.submit_ns, 0.99) as f64 / 1e3,
    );
    v.insert(
        "service.queue_wait_ms.p50",
        percentile(&queue_wait_ns, 0.50) as f64 / 1e6,
    );
    v.insert(
        "service.queue_wait_ms.p99",
        percentile(&queue_wait_ns, 0.99) as f64 / 1e6,
    );
    v.insert("service.busy_frac", busy);
    v.insert("service.steals", run.stats.steals as f64);
    v.insert("service.queue_depth_hwm", run.stats.queue_depth_hwm as f64);
    v.insert(
        "gen.late_ms_p99",
        percentile(&run.late_ns, 0.99) as f64 / 1e6,
    );

    // Tracing overhead: traced slices against the untraced slices between
    // them — sessions completed on the closed loops, median latency on the
    // open loop (whose rate is fixed).
    let [plain, traced] = &mut run.slice_latencies_ns;
    let overhead = if w == Workload::SkewedPaced {
        plain.sort_unstable();
        traced.sort_unstable();
        percentile(traced, 0.5) as f64 / percentile(plain, 0.5).max(1) as f64 - 1.0
    } else {
        plain.len() as f64 / traced.len().max(1) as f64 - 1.0
    };
    v.insert("trace.overhead_frac", overhead);
    v.insert("trace.sessions", session_ns.len() as f64);
    v.insert("trace.spans", tr.len() as f64);
    tally.merge(run.tally);
    finish_layers(&mut v, &totals, "executor.session", &tally);
    Ok((tally, per_layer(&v)))
}

fn traced_requote(a: &Args) -> Result<(Tally, Metrics), String> {
    let mut rq = Requote::build(a.seed)?;
    let mut tally = Tally::default();
    let mut tr = Tracer::new();
    let (mut traced_ns, mut plain_ns) = (Vec::new(), Vec::new());
    let t0 = Instant::now();
    let mut k = 0u64;
    while t0.elapsed().as_secs_f64() < a.seconds as f64 {
        let (i, bid) = rq.next_update();
        k += 1;
        let res = if k.is_multiple_of(REQUOTE_TRACE_EVERY) {
            trace::requote_op(&mut tr, &mut rq, k, i, bid).map(|ns| traced_ns.push(ns))
        } else {
            let t = Instant::now();
            rq.op(i, bid)
                .map(|()| plain_ns.push(t.elapsed().as_nanos() as u64))
        };
        let res = if res.is_ok() && k.is_multiple_of(workloads::REQUOTE_CHECK_EVERY) {
            rq.check()
        } else {
            res
        };
        tally.record(res);
    }
    write_spans(&tr, a);
    let mean = |v: &[u64]| v.iter().sum::<u64>() as f64 / v.len().max(1) as f64;
    let n = traced_ns.len().max(1) as f64;
    let totals = tr.totals();
    let mut v = Values::new();
    layers(&mut v, &totals, "requote.op", n);
    v.insert(
        "trace.overhead_frac",
        mean(&traced_ns) / mean(&plain_ns).max(1.0) - 1.0,
    );
    v.insert("trace.sessions", traced_ns.len() as f64);
    v.insert("trace.spans", tr.len() as f64);
    finish_layers(&mut v, &totals, "requote.op", &tally);
    Ok((tally, per_layer(&v)))
}

/// Per-layer self times per session (or per re-quote), and the whole
/// (`root`'s duration) and residual (`root`'s self time).
fn layers(v: &mut Values, totals: &BTreeMap<&'static str, Totals>, root: &str, n: f64) {
    let self_ns = |name: &str| totals.get(name).map_or(0.0, |t| t.self_ns as f64) / n;
    for (metric, _, source) in PER_LAYER {
        if let SelfTime(span, per) = source {
            v.insert(metric, self_ns(span) / per);
        }
    }
    let whole = totals.get(root).map_or(0.0, |t| t.dur_ns as f64) / n;
    v.insert("executor.session_us", whole / 1e3);
    v.insert("executor.residual_us", self_ns(root) / 1e3);
}

/// The share of the whole each layer group takes, and the failure rate.
fn finish_layers(
    v: &mut Values,
    totals: &BTreeMap<&'static str, Totals>,
    root: &str,
    tally: &Tally,
) {
    let whole = totals.get(root).map_or(0.0, |t| t.dur_ns as f64).max(1.0);
    let group = |prefix: &str| {
        totals
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(_, t)| t.self_ns as f64)
            .sum::<f64>()
            / whole
    };
    v.insert("split.sign_frac", group("crypto.sign"));
    v.insert("split.crypto_frac", group("crypto."));
    v.insert(
        "split.dlt_mechanism_frac",
        group("dlt.") + group("mechanism."),
    );
    v.insert("split.referee_frac", group("referee."));
    v.insert("split.residual_frac", group(root));
    v.insert(
        "failed_frac",
        tally.failed as f64 / tally.attempted.max(1) as f64,
    );
}

fn write_spans(tr: &Tracer, a: &Args) {
    let path =
        PathBuf::from(".bench_trace").join(format!("{}-{}.jsonl", a.workload.name(), a.seed));
    match tr.write_jsonl(&path) {
        Ok(()) => eprintln!("spans written to {}", path.display()),
        Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Result<Args, String> {
        parse_args(v.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_command_line() {
        let a = args(&[
            "--workload",
            "skewed-paced",
            "--seed",
            "3",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, Workload::SkewedPaced);
        assert_eq!((a.seed, a.seconds, a.trace), (3, 10, true));
        assert!(args(&["--workload", "nope", "--seed", "1", "--seconds", "1"]).is_err());
        assert!(args(&["--workload", "fresh-closed", "--seconds", "1"]).is_err());
        assert!(args(&[
            "--workload",
            "fresh-closed",
            "--seed",
            "1",
            "--seconds",
            "0"
        ])
        .is_err());
        assert!(args(&["--trace"]).is_err());
    }

    #[test]
    fn per_layer_table_matches_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        let listed = json.split("\"per_layer\"").nth(1).unwrap_or_default();
        assert_eq!(listed.matches("\"name\"").count(), PER_LAYER.len());
        let mut rest = listed;
        for (name, unit, _) in PER_LAYER {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            let at = rest
                .find(&entry)
                .unwrap_or_else(|| panic!("{entry} missing or out of order"));
            rest = &rest[at..];
        }
    }
}
