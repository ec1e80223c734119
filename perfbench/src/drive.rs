//! Set-up and the measured drives: closed and open loops through the
//! session service, and the single-threaded re-quote loop.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use dls_dlt::{LoadSpec, SystemModel};
use dls_mechanism::{MultiLoadEngine, Payment};
use dls_protocol::config::SessionConfig;
use dls_protocol::run_session_vm;
use dls_protocol::service::{Completed, ServiceConfig, ServiceHandle};
use dls_protocol::supervisor::ServiceStats;

use crate::check::{self, Expect};
use crate::probe::{self, Probe};
use crate::report;
use crate::workloads::{
    self, Domain, Stream, Workload, ARRIVAL_PER_S, CLOSED_WINDOW, REQUOTE_CHECK_EVERY, REQUOTE_K,
    REQUOTE_M,
};

/// Failures seen while driving, with the first few reasons for stderr.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed (error, refusal, lost ticket, wrong output).
    pub failed: u64,
    /// The first reasons, for the log.
    pub reasons: Vec<String>,
}

impl Tally {
    /// Records one attempted operation and its verdict.
    pub fn record(&mut self, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(reason) = verdict {
            self.failed += 1;
            if self.reasons.len() < 8 {
                self.reasons.push(reason);
            }
        }
    }

    /// Adds another tally into this one.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for r in other.reasons {
            if self.reasons.len() < 8 {
                self.reasons.push(r);
            }
        }
    }
}

/// Service workers: never more than the cores the host reports.
pub fn workers() -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    workloads::MAX_WORKERS.min(cores).max(1)
}

/// A prepared session workload: the process-wide caches are warm for
/// `key_seed`, and the repeat pool's signatures are cached.
pub struct SessionSetup {
    /// Key seed the stream's sessions use.
    pub key_seed: u64,
    /// The repeat pool (empty on `fresh-closed`).
    pub pool: Vec<SessionConfig>,
}

/// Runs `cfg` once on the executor and checks it; used to warm caches.
fn warm(cfg: &SessionConfig) -> Result<(), String> {
    let out = run_session_vm(cfg).map_err(|e| format!("warm-up session failed: {e}"))?;
    check::session(&Expect::of(cfg), &out).map_err(|e| format!("warm-up session wrong: {e}"))
}

/// Prepares `workload` under key slot `slot`: generates keys and data sets
/// (through the executor's process-wide caches), runs the repeat pool once
/// so its signatures are cached, and runs warm-up markets whose seeds are
/// disjoint from every measured stream. Returns the configs it ran, so a
/// traced run can mark their bodies as already produced.
pub fn prepare_sessions(
    workload: Workload,
    seed: u64,
    slot: u64,
) -> Result<(SessionSetup, Vec<SessionConfig>), String> {
    let key_seed = workloads::key_seed(workload, slot);
    let pool = match workload {
        Workload::FreshClosed => Vec::new(),
        _ => workloads::repeat_pool(seed, key_seed)?,
    };
    let mut ran = pool.clone();
    match workload {
        Workload::FreshClosed => {
            for k in 0..2 {
                ran.push(workloads::fresh_market(
                    workload,
                    seed,
                    Domain::Warmup,
                    slot,
                    k,
                    key_seed,
                )?);
            }
        }
        Workload::SkewedPaced => {
            ran.push(workloads::fresh_market(
                workload,
                seed,
                Domain::Warmup,
                slot,
                0,
                key_seed,
            )?);
        }
        _ => {}
    }
    for cfg in &ran {
        warm(cfg)?;
    }
    Ok((SessionSetup { key_seed, pool }, ran))
}

/// Starts the session service with [`workers`] stealing workers.
pub fn start_service() -> Result<ServiceHandle, String> {
    ServiceHandle::start(ServiceConfig::stealing(workers()))
        .map_err(|e| format!("service failed to start: {e}"))
}

/// A sampled session: its config and its service latency.
pub struct Sample {
    /// The submitted config.
    pub cfg: SessionConfig,
    /// Enqueue→result latency inside the service, ns.
    pub latency_ns: u64,
}

/// Tracing of a stream: the stream alternates untraced and traced slices
/// of [`SLICE_NS`]; in traced slices every submit is timed and session `k`
/// is kept for replay when `k % sample_every == sample_every - 1`.
/// Comparing the two kinds of slice, which see the same host conditions,
/// gives the overhead.
#[derive(Debug, Clone, Copy)]
pub struct TraceOpts {
    /// Sampling period over the stream's session index.
    pub sample_every: u64,
}

/// Length of one traced or untraced slice of a traced stream.
pub const SLICE_NS: u64 = 250_000_000;

/// Wall time of the traced slices within the first `span_ns` of a stream.
pub fn traced_wall_ns(span_ns: u64) -> u64 {
    let whole = span_ns / (2 * SLICE_NS);
    let rest = span_ns % (2 * SLICE_NS);
    whole * SLICE_NS + rest.saturating_sub(SLICE_NS)
}

/// `rss_mb` is read once this many sessions have completed, so that it
/// measures the same work on every run: the executor's process-wide caches
/// grow with every never-seen market, and a whole-run peak would follow
/// the host's speed.
pub const RSS_AT_SESSIONS: u64 = 1000;

/// What one measured stream produced.
#[derive(Default)]
pub struct StreamRun {
    /// Failures.
    pub tally: Tally,
    /// Successful sessions.
    pub completed: u64,
    /// How long the generator submitted, ns: the span the measurement
    /// blocks cover (the drain after it is not measured).
    pub span_ns: u64,
    /// Per successful session: when it ended (ns since the first submit)
    /// and its latency, ns — submit→result (closed) or due→result (paced).
    pub done: Vec<(u64, u64)>,
    /// Peak resident set, MiB, once [`RSS_AT_SESSIONS`] sessions have
    /// completed (at the end if fewer did).
    pub rss_mb: f64,
    /// Latencies split by the slice the session was submitted in:
    /// `[untraced, traced]` (traced streams only).
    pub slice_latencies_ns: [Vec<u64>; 2],
    /// Duration of each timed `ServiceHandle::submit` call, ns.
    pub submit_ns: Vec<u64>,
    /// How late the generator submitted each arrival, ns (paced only).
    pub late_ns: Vec<u64>,
    /// Sampled sessions (traced streams only).
    pub samples: Vec<Sample>,
    /// Service counters at the end of the stream.
    pub stats: ServiceStats,
    /// Host-speed probe samples taken while the stream ran.
    pub probe: Vec<probe::Sample>,
}

struct Pending {
    ticket: u64,
    submitted_ns: u64,
    expect: Expect,
    late_ns: u64,
    traced: bool,
    sample: Option<SessionConfig>,
}

/// The generator side of one stream: tracing state and the pending
/// tickets, oldest first.
struct Generator<'a> {
    svc: &'a ServiceHandle,
    stream: &'a Stream,
    trace: Option<TraceOpts>,
    t0: Instant,
    pending: VecDeque<Pending>,
    run: StreamRun,
}

impl<'a> Generator<'a> {
    fn new(svc: &'a ServiceHandle, stream: &'a Stream, trace: Option<TraceOpts>) -> Self {
        Generator {
            svc,
            stream,
            trace,
            t0: Instant::now(),
            pending: VecDeque::new(),
            run: StreamRun::default(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Submits session `k`; a refusal is recorded as a failure.
    fn submit(&mut self, k: u64, late_ns: u64) -> Result<(), String> {
        let cfg = self.stream.session(k)?;
        let expect = Expect::of(&cfg);
        let traced = self.trace.is_some() && (self.now_ns() / SLICE_NS) % 2 == 1;
        let sample = self
            .trace
            .filter(|opts| traced && k % opts.sample_every == opts.sample_every - 1)
            .map(|_| cfg.clone());
        let submitted_ns = self.now_ns();
        let t = Instant::now();
        let res = self.svc.submit(cfg);
        if traced {
            self.run.submit_ns.push(t.elapsed().as_nanos() as u64);
        }
        match res {
            Ok(ticket) => self.pending.push_back(Pending {
                ticket,
                submitted_ns,
                expect,
                late_ns,
                traced,
                sample,
            }),
            Err(e) => self
                .run
                .tally
                .record(Err(format!("submit {k} refused: {e}"))),
        }
        Ok(())
    }

    /// Takes the oldest result, blocking until it is there.
    fn retire(&mut self) {
        if let Some(p) = self.pending.pop_front() {
            match self.svc.wait(p.ticket) {
                Some(done) => self.finish(p, done),
                None => self
                    .run
                    .tally
                    .record(Err(format!("ticket {} lost", p.ticket))),
            }
        }
    }

    /// Takes every result that is ready, in any order; `false` if none was.
    fn sweep(&mut self) -> bool {
        let mut took = false;
        for p in std::mem::take(&mut self.pending) {
            match self.svc.try_take(p.ticket) {
                Some(done) => {
                    self.finish(p, done);
                    took = true;
                }
                None => self.pending.push_back(p),
            }
        }
        took
    }

    /// Checks and records a taken result.
    fn finish(&mut self, p: Pending, done: Completed) {
        let run = &mut self.run;
        let verdict = match done.outcome {
            Err(e) => Err(format!("ticket {} failed: {e}", p.ticket)),
            Ok(out) => check::session(&p.expect, &out).map(|()| {
                let latency = p.late_ns + done.latency_ns;
                run.completed += 1;
                run.done.push((p.submitted_ns + done.latency_ns, latency));
                if run.completed == RSS_AT_SESSIONS {
                    run.rss_mb = report::peak_rss_mb();
                }
                if self.trace.is_some() {
                    run.slice_latencies_ns[usize::from(p.traced)].push(latency);
                }
                if let Some(cfg) = p.sample {
                    run.samples.push(Sample {
                        cfg,
                        latency_ns: done.latency_ns,
                    });
                }
            }),
        };
        run.tally.record(verdict);
    }

    /// Drains every pending ticket and closes the run.
    fn close(mut self, probe: Probe) -> StreamRun {
        self.run.span_ns = self.now_ns();
        self.run.probe = probe.finish();
        while !self.pending.is_empty() {
            self.retire();
        }
        if self.run.completed < RSS_AT_SESSIONS {
            self.run.rss_mb = report::peak_rss_mb();
        }
        self.run.stats = self.svc.stats();
        self.run
    }
}

/// How long the closed loop sleeps when no result is ready. Each worker
/// has several sessions queued behind the one it runs, so a refill this
/// late never leaves a worker idle.
const CLOSED_POLL: Duration = Duration::from_micros(100);

/// Closed loop: [`CLOSED_WINDOW`] sessions in flight; a new one is
/// submitted as soon as any returns, whatever its order, so the window
/// stays full. Runs for `seconds`, then drains.
pub fn closed(
    svc: &ServiceHandle,
    stream: &Stream,
    seconds: f64,
    trace: Option<TraceOpts>,
) -> Result<StreamRun, String> {
    let mut d = Generator::new(svc, stream, trace);
    let probe = Probe::start(d.t0);
    let budget_ns = (seconds * 1e9) as u64;
    let mut k = 0u64;
    while d.now_ns() < budget_ns {
        if d.pending.len() < CLOSED_WINDOW {
            d.submit(k, 0)?;
            k += 1;
        } else if !d.sweep() {
            std::thread::sleep(CLOSED_POLL);
        }
    }
    Ok(d.close(probe))
}

/// Open loop: arrival `k` is due at `k / ARRIVAL_PER_S` whatever the
/// service is doing. One generator thread submits on schedule and, while
/// waiting for the next due time, takes finished results.
/// Latency runs from the due time, so a late submit counts against it.
pub fn paced(
    svc: &ServiceHandle,
    stream: &Stream,
    seconds: f64,
    trace: Option<TraceOpts>,
) -> Result<StreamRun, String> {
    let mut d = Generator::new(svc, stream, trace);
    let probe = Probe::start(d.t0);
    let gap_ns = 1e9 / ARRIVAL_PER_S;
    let arrivals = (seconds * ARRIVAL_PER_S).ceil() as u64;
    for k in 0..arrivals {
        let due_ns = (k as f64 * gap_ns) as u64;
        loop {
            let now = d.now_ns();
            if now >= due_ns {
                break;
            }
            if !d.sweep() {
                std::thread::sleep(Duration::from_nanos((due_ns - now).min(200_000)));
            }
        }
        let late_ns = d.now_ns().saturating_sub(due_ns);
        d.run.late_ns.push(late_ns);
        d.submit(k, late_ns)?;
    }
    Ok(d.close(probe))
}

/// Runs one stream of a session workload on `svc`.
pub fn stream(
    workload: Workload,
    svc: &ServiceHandle,
    stream: &Stream,
    seconds: f64,
    trace: Option<TraceOpts>,
) -> Result<StreamRun, String> {
    match workload {
        Workload::SkewedPaced => paced(svc, stream, seconds, trace),
        _ => closed(svc, stream, seconds, trace),
    }
}

// ---------------------------------------------------------------------------
// requote-stream
// ---------------------------------------------------------------------------

/// The `requote-stream` engine and its seeded update stream.
pub struct Requote {
    /// The engine under test.
    pub engine: MultiLoadEngine,
    /// The current bids (also the observed rates: processors run truthfully).
    pub bids: Vec<f64>,
    /// Per-load payment vectors of the last re-quote.
    pub payments: Vec<Vec<Payment>>,
    /// Pipeline makespan of the last re-quote.
    pub makespan: f64,
    state: u64,
}

/// The model of the re-quote engine.
pub const REQUOTE_MODEL: SystemModel = SystemModel::NcpFe;

/// The k loads of the re-quote engine: volumes 1, 1.5, 2, … and bus
/// intensities cycling through four dyadic rates.
pub fn requote_loads() -> Vec<LoadSpec> {
    (0..REQUOTE_K)
        .map(|l| LoadSpec::new(1.0 + 0.5 * l as f64, 0.0625 * (1 + l % 4) as f64 / 2.0))
        .collect()
}

impl Requote {
    /// Builds the engine over bids drawn from `seed`.
    pub fn build(seed: u64) -> Result<Requote, String> {
        let bids = workloads::rates(
            REQUOTE_M,
            64,
            workloads::market_seed(seed, Domain::Requote, 0, 0),
        );
        let engine = MultiLoadEngine::new(REQUOTE_MODEL, &bids, &requote_loads())
            .map_err(|e| format!("engine rejected the bids: {e}"))?;
        Ok(Requote {
            engine,
            bids,
            payments: vec![Vec::new(); REQUOTE_K],
            makespan: 0.0,
            state: workloads::market_seed(seed, Domain::Requote, 1, 0),
        })
    }

    /// The next bid update of the seeded stream: a uniform processor and a
    /// fresh rate.
    pub fn next_update(&mut self) -> (usize, f64) {
        let i = (workloads::splitmix64(&mut self.state) % REQUOTE_M as u64) as usize;
        let r = workloads::rates(1, 64, workloads::splitmix64(&mut self.state));
        (i, r.first().copied().unwrap_or(1.0))
    }

    /// One re-quote: the bid update, per-load payments, and the pipeline.
    pub fn op(&mut self, i: usize, bid: f64) -> Result<(), String> {
        self.engine.submit_bid(i, bid).map_err(|e| e.to_string())?;
        if let Some(b) = self.bids.get_mut(i) {
            *b = bid;
        }
        for (l, out) in self.payments.iter_mut().enumerate() {
            self.engine
                .payments_into(l, &self.bids, out)
                .map_err(|e| e.to_string())?;
        }
        self.makespan = self.engine.schedule().makespan;
        Ok(())
    }

    /// Checks the last re-quote against the oracle.
    pub fn check(&mut self) -> Result<(), String> {
        check::requote(&mut self.engine, REQUOTE_MODEL, &self.bids, &self.payments)?;
        if self.makespan.is_finite() && self.makespan > 0.0 {
            Ok(())
        } else {
            Err(format!(
                "pipeline makespan {} is not positive",
                self.makespan
            ))
        }
    }
}

/// What the re-quote loop produced.
#[derive(Default)]
pub struct RequoteRun {
    /// Failures.
    pub tally: Tally,
    /// Per successful re-quote: when it ended (ns since the loop started)
    /// and how long it took, ns.
    pub ops: Vec<(u64, u64)>,
    /// How long the loop ran, ns.
    pub span_ns: u64,
    /// Peak resident set, MiB, after [`RSS_AT_SESSIONS`] re-quotes (at the
    /// end if fewer ran): the op log grows with the run.
    pub rss_mb: f64,
}

/// Runs re-quotes for `seconds` of wall time; every
/// [`REQUOTE_CHECK_EVERY`]-th is checked outside the timed region.
pub fn requote(rq: &mut Requote, seconds: f64) -> RequoteRun {
    let mut run = RequoteRun::default();
    let budget = Duration::from_secs_f64(seconds);
    let t0 = Instant::now();
    let mut n = 0u64;
    while t0.elapsed() < budget {
        let (i, bid) = rq.next_update();
        let t = Instant::now();
        let res = rq.op(i, bid);
        let ns = t.elapsed().as_nanos() as u64;
        let at = t0.elapsed().as_nanos() as u64;
        n += 1;
        if n == RSS_AT_SESSIONS {
            run.rss_mb = report::peak_rss_mb();
        }
        match res {
            Ok(()) if n.is_multiple_of(REQUOTE_CHECK_EVERY) => {
                run.ops.push((at, ns));
                run.tally.record(rq.check());
            }
            Ok(()) => {
                run.ops.push((at, ns));
                run.tally.record(Ok(()));
            }
            Err(e) => run.tally.record(Err(e)),
        }
    }
    run.span_ns = t0.elapsed().as_nanos() as u64;
    if n < RSS_AT_SESSIONS {
        run.rss_mb = report::peak_rss_mb();
    }
    run
}
