//! The daemon side of a workload: an in-process `Server::spawn`, an
//! open-loop QueryBatch generator and a closed-loop installer, on at most
//! two generator threads (the calling thread sends, one thread receives)
//! and two connections (reads, and installs plus admin ops).

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dpsc_dpcore::stream::derive_stream;
use dpsc_private_count::FrozenSynopsis;
use dpsc_serve::wire::{decode_response, encode_request, frame_len};
use dpsc_serve::{
    MetricsReport, Request, Response, Server, ServerConfig, ServerHandle, ShardManager,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::spec::{
    BATCH, CACHE_CAPACITY, DRAIN_TIMEOUT_S, PRESENT_FRAC, ROLLBACK_EVERY, TARGET_READ_FRAC,
    THROUGHPUT_WINDOW_MS, ZIPF_S,
};
use crate::stats::Outcome;

/// A shard the read traffic queries: its patterns (the Zipf universe, then
/// probes) and the expected answer bits of each, from the naive walk.
pub struct ReadShard {
    pub id: u32,
    pub patterns: Vec<Vec<u8>>,
    /// How many leading patterns form the Zipf universe.
    pub universe: usize,
    pub answers: Vec<u64>,
}

impl ReadShard {
    pub fn new(
        id: u32,
        (patterns, universe): (Vec<Vec<u8>>, usize),
        synopsis: &FrozenSynopsis,
    ) -> Self {
        let answers = patterns.iter().map(|p| synopsis.query_naive(p).to_bits()).collect();
        Self { id, patterns, universe, answers }
    }
}

/// The install target's read pool: present patterns drawn uniformly, with
/// the answers of both snapshots the installer alternates between.
pub struct TargetReads {
    pub id: u32,
    pub pool: Vec<Vec<u8>>,
    pub answers: [Vec<u64>; 2],
}

/// What the read generator sends.
pub struct Traffic {
    pub shards: Vec<ReadShard>,
    pub target: Option<TargetReads>,
}

/// One install the installer cycles through: a pre-encoded `LoadSnapshot`
/// frame, the node count the ack must report and which snapshot variant it
/// installs (for rollback bookkeeping).
pub struct InstallItem {
    pub shard: u32,
    pub frame: Vec<u8>,
    pub nodes: u64,
    pub variant: usize,
}

pub struct InstallPlan {
    pub items: Vec<InstallItem>,
    /// Whether every [`ROLLBACK_EVERY`]-th operation is a `Rollback`
    /// (needs a snapshot store).
    pub rollbacks: bool,
    /// The target's durable epoch and variant resident before the first
    /// install.
    pub initial: Option<(u64, usize)>,
    /// Installs start at most once per period; one that runs longer delays
    /// the next until its acknowledgement.
    pub period_ms: f64,
}

impl InstallItem {
    pub fn new(shard: u32, bytes: &Arc<[u8]>, nodes: u64, variant: usize) -> Self {
        let frame = encode_request(&Request::LoadSnapshot { shard, snapshot: Arc::clone(bytes) });
        Self { shard, frame, nodes, variant }
    }
}

/// The read load of a step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Load {
    None,
    /// Open loop: requests due at this many per second, each timed from
    /// its scheduled send.
    Rate(f64),
    /// Saturation: this many requests kept in flight.
    Window(usize),
}

/// One measured step: a read load, installs, or both.
pub struct Step {
    pub name: &'static str,
    pub load: Load,
    pub secs: f64,
    pub installs: bool,
}

/// What one step measured.
#[derive(Debug, Default)]
pub struct StepOut {
    pub name: &'static str,
    /// Latency of each answered request from its scheduled send time (ns).
    pub lat_ns: Vec<f64>,
    /// How late each request was written (ns).
    pub lag_ns: Vec<f64>,
    pub sent: u64,
    pub completed: u64,
    /// Requests sent but not answered when the step's time was up.
    pub backlog_end: u64,
    pub patterns: u64,
    /// Completions per second over consecutive windows of the step.
    pub window_rps: Vec<f64>,
}

/// What a daemon phase measured.
pub struct PhaseOut {
    pub steps: Vec<StepOut>,
    /// Client-observed install round trips (ns), with the step each
    /// started in.
    pub install_ns: Vec<(usize, f64)>,
    /// `Metrics` snapshots: before the first step, then after each step.
    pub reports: Vec<MetricsReport>,
    /// QueryBatch patterns the generator sent.
    pub patterns_sent: u64,
    /// How much the daemon's `patterns_total` grew over the phase.
    pub patterns_counted: u64,
}

/// A CPU affinity mask (`cpu_set_t`, 1024 CPUs).
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// The calling thread's affinity mask, if the kernel reports it.
fn affinity() -> Option<CpuSet> {
    let mut mask: CpuSet = [0; 16];
    // SAFETY: `mask` is a writable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut mask) };
    (rc == 0).then_some(mask)
}

/// Restricts the calling thread (and threads it spawns later) to `mask`.
fn set_affinity(mask: &CpuSet) {
    // SAFETY: `mask` is a readable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    let _ = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), mask) };
}

/// A mask holding only the `nth` CPU of `allowed`, if it has at least two.
fn nth_cpu(allowed: &CpuSet, nth: usize) -> Option<CpuSet> {
    let cpus: Vec<usize> = (0..1024).filter(|&c| allowed[c / 64] >> (c % 64) & 1 == 1).collect();
    if cpus.len() < 2 {
        return None;
    }
    let mut mask: CpuSet = [0; 16];
    let c = cpus[nth];
    mask[c / 64] |= 1 << (c % 64);
    Some(mask)
}

/// A running daemon and the benchmark's two connections to it. On a host
/// with two or more CPUs the daemon's threads run on the second CPU the
/// process may use and the generator on the first, so the two never trade
/// places between runs.
pub struct Daemon {
    handle: Option<ServerHandle>,
    reads: TcpStream,
    admin: TcpStream,
    store_dir: Option<PathBuf>,
    /// The calling thread's affinity before the daemon started.
    saved_affinity: Option<CpuSet>,
}

impl Daemon {
    /// Starts the daemon (default config: 8192-entry cache) and connects.
    pub fn start(store_dir: Option<PathBuf>) -> Result<Self, String> {
        if let Some(dir) = &store_dir {
            let _ = std::fs::remove_dir_all(dir);
            std::fs::create_dir_all(dir).map_err(|e| format!("store dir: {e}"))?;
        }
        let config = ServerConfig {
            cache_capacity: CACHE_CAPACITY,
            store_dir: store_dir.clone(),
            ..ServerConfig::default()
        };
        // Threads inherit their creator's affinity: spawn the daemon from
        // the second CPU, then move the generator to the first.
        let saved_affinity = affinity();
        let split = saved_affinity.and_then(|a| Some((nth_cpu(&a, 0)?, nth_cpu(&a, 1)?)));
        if let Some((_, daemon_cpu)) = &split {
            set_affinity(daemon_cpu);
        }
        let handle = Server::spawn(config, Arc::new(ShardManager::new()));
        if let Some((generator_cpu, _)) = &split {
            set_affinity(generator_cpu);
        }
        let handle = handle.map_err(|e| format!("daemon start: {e}"))?;
        let connect = || -> Result<TcpStream, String> {
            let s = TcpStream::connect(handle.addr()).map_err(|e| format!("connect: {e}"))?;
            s.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
            Ok(s)
        };
        let admin = connect()?;
        admin.set_read_timeout(Some(Duration::from_secs(30))).map_err(|e| e.to_string())?;
        let reads = connect()?;
        Ok(Self { handle: Some(handle), reads, admin, store_dir, saved_affinity })
    }

    /// A blocking request on the admin connection.
    pub fn call(&mut self, req: &Request) -> Result<Response, String> {
        self.admin.write_all(&encode_request(req)).map_err(|e| format!("admin write: {e}"))?;
        read_frame_blocking(&mut self.admin)
    }

    /// Installs `bytes` on `shard`; returns the epoch.
    pub fn ship(&mut self, shard: u32, bytes: &Arc<[u8]>, nodes: u64) -> Result<u64, String> {
        match self.call(&Request::LoadSnapshot { shard, snapshot: Arc::clone(bytes) })? {
            Response::LoadSnapshot { epoch, node_count } if node_count == nodes => Ok(epoch),
            other => Err(format!("ship of shard {shard}: unexpected {other:?}")),
        }
    }

    pub fn metrics(&mut self) -> Result<MetricsReport, String> {
        match self.call(&Request::Metrics)? {
            Response::Metrics(m) => Ok(*m),
            other => Err(format!("metrics: unexpected {other:?}")),
        }
    }

    /// Stops the daemon, joins its threads and removes its store.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        if let Some(handle) = self.handle.take() {
            let _ = self.reads.shutdown(std::net::Shutdown::Both);
            let _ = self.admin.shutdown(std::net::Shutdown::Both);
            handle.shutdown();
        }
        if let Some(dir) = self.store_dir.take() {
            let _ = std::fs::remove_dir_all(dir);
        }
        if let Some(mask) = self.saved_affinity.take() {
            set_affinity(&mask);
        }
    }

    /// Runs `steps` in order and returns what they measured.
    pub fn run(
        &mut self,
        traffic: &Traffic,
        plan: &InstallPlan,
        steps: &[Step],
        seed: u64,
        out: &mut Outcome,
    ) -> Result<PhaseOut, String> {
        let mut reports = vec![self.metrics()?];
        let reads_rx = self.reads.try_clone().map_err(|e| e.to_string())?;
        reads_rx.set_read_timeout(Some(Duration::from_millis(20))).map_err(|e| e.to_string())?;
        let (tx, rx) = mpsc::channel::<Pending>();
        let completed = AtomicU64::new(0);
        let stop = AtomicBool::new(false);
        let mut installer = Installer::new(plan);
        let mut step_outs = Vec::new();
        let mut recv_out = RecvOut::default();
        std::thread::scope(|scope| -> Result<(), String> {
            let receiver = scope.spawn(|| receive(reads_rx, rx, traffic, &completed, &stop));
            let mut sent_total = 0u64;
            let mut result = Ok(());
            for (si, step) in steps.iter().enumerate() {
                let tag = derive_stream(seed, 0x300 + si as u64);
                let mut gen = StreamGen::new(traffic, tag);
                let so =
                    self.send_step(si, step, &mut gen, &tx, &completed, &mut installer, sent_total);
                match so {
                    Ok(so) => {
                        sent_total += so.sent;
                        step_outs.push(so);
                    }
                    Err(e) => {
                        result = Err(e);
                        break;
                    }
                }
                // Let the last install finish before the snapshot of
                // counters (and before a step without installs).
                let deadline = Instant::now() + Duration::from_secs(10);
                while installer.busy() && Instant::now() < deadline {
                    installer.pump(&mut self.admin, false);
                    std::thread::sleep(Duration::from_micros(200));
                }
                if installer.busy() {
                    installer.fail("install unanswered after 10 s".into());
                    result = Err("install stuck".into());
                    break;
                }
                self.admin.set_nonblocking(false).map_err(|e| e.to_string())?;
                match self.metrics() {
                    Ok(r) => reports.push(r),
                    Err(e) => {
                        result = Err(e);
                        break;
                    }
                }
            }
            stop.store(true, Ordering::SeqCst);
            drop(tx);
            recv_out = receiver.join().expect("receiver thread");
            result
        })?;
        for (so, lat) in step_outs.iter_mut().zip(recv_out.lat_ns.iter_mut()) {
            so.lat_ns = std::mem::take(lat);
        }
        let sent: u64 = step_outs.iter().map(|s| s.sent).sum();
        out.attempted += sent;
        out.failed += recv_out.failed;
        out.problems.extend(recv_out.failures);
        let answered = recv_out.answered;
        if answered < sent {
            for _ in answered..sent {
                out.failed += 1;
            }
            out.problems.push(format!("{} requests unanswered", sent - answered));
        }
        out.attempted += installer.attempted;
        for why in installer.failures.drain(..) {
            out.fail(why);
        }
        let patterns_sent = step_outs.iter().map(|s| s.patterns).sum();
        let patterns_counted =
            reports.last().expect("report").patterns_total - reports[0].patterns_total;
        Ok(PhaseOut {
            steps: step_outs,
            install_ns: installer.lat_ns,
            reports,
            patterns_sent,
            patterns_counted,
        })
    }

    /// The calling thread's part of one step: send every request that is
    /// due at each wake-up, pump the installer, then wait for the backlog
    /// to drain.
    #[allow(clippy::too_many_arguments)]
    fn send_step(
        &mut self,
        si: usize,
        step: &Step,
        gen: &mut StreamGen,
        tx: &mpsc::Sender<Pending>,
        completed: &AtomicU64,
        installer: &mut Installer,
        sent_before: u64,
    ) -> Result<StepOut, String> {
        let mut so = StepOut { name: step.name, ..StepOut::default() };
        installer.step = si;
        tighten_timer_slack();
        if step.installs {
            self.admin.set_nonblocking(true).map_err(|e| e.to_string())?;
        }
        let t0 = Instant::now();
        let end = t0 + Duration::from_secs_f64(step.secs);
        let mut next = 0u64;
        let mut buf = Vec::new();
        let mut due = Vec::new();
        let mut window_start = (t0, sent_before);
        loop {
            let now = Instant::now();
            if now >= end {
                break;
            }
            let done = completed.load(Ordering::SeqCst);
            match step.load {
                Load::None => {}
                Load::Rate(rate) => {
                    while t0 + Duration::from_secs_f64(next as f64 / rate) <= now {
                        due.push(t0 + Duration::from_secs_f64(next as f64 / rate));
                        next += 1;
                    }
                }
                Load::Window(w) => {
                    let in_flight = (sent_before + so.sent + due.len() as u64).saturating_sub(done);
                    due.extend(std::iter::repeat_n(
                        now,
                        (w as u64).saturating_sub(in_flight) as usize,
                    ));
                    if now.duration_since(window_start.0)
                        >= Duration::from_millis(THROUGHPUT_WINDOW_MS)
                    {
                        let secs = now.duration_since(window_start.0).as_secs_f64();
                        so.window_rps.push((done - window_start.1) as f64 / secs);
                        window_start = (now, done);
                    }
                }
            }
            if !due.is_empty() {
                buf.clear();
                let write_at = Instant::now();
                for sched in due.drain(..) {
                    let desc = gen.next();
                    buf.extend_from_slice(&encode_request(&traffic_request(gen.traffic, &desc)));
                    if let Load::Rate(_) = step.load {
                        so.lag_ns.push(write_at.duration_since(sched).as_nanos() as f64);
                    }
                    so.sent += 1;
                    so.patterns += BATCH as u64;
                    tx.send(Pending { step: si, sched, desc }).map_err(|e| e.to_string())?;
                }
                self.reads.write_all(&buf).map_err(|e| format!("read conn write: {e}"))?;
            }
            if step.installs {
                installer.pump(&mut self.admin, true);
            }
            let now = Instant::now();
            let wake = match step.load {
                Load::Rate(rate) => end.min(t0 + Duration::from_secs_f64(next as f64 / rate)),
                Load::Window(_) => now + Duration::from_micros(100),
                Load::None => end,
            };
            let wake =
                if step.installs { wake.min(now + Duration::from_micros(250)) } else { wake };
            if wake > now {
                std::thread::sleep(wake - now);
            }
        }
        let sent_total = sent_before + so.sent;
        so.backlog_end = sent_total - completed.load(Ordering::SeqCst).min(sent_total);
        let drain_end = Instant::now() + Duration::from_secs_f64(DRAIN_TIMEOUT_S);
        while completed.load(Ordering::SeqCst) < sent_total && Instant::now() < drain_end {
            if step.installs {
                installer.pump(&mut self.admin, false);
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        so.completed = so.sent - (sent_total - completed.load(Ordering::SeqCst).min(sent_total));
        Ok(so)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Asks the kernel to wake the calling thread's sleeps with 1 ns of slack
/// instead of the default 50 us, so the sender runs close to its schedule.
/// Best effort: on failure the generator lag (reported) is larger.
fn tighten_timer_slack() {
    extern "C" {
        fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
    }
    const PR_SET_TIMERSLACK: i32 = 29;
    // SAFETY: PR_SET_TIMERSLACK reads only its integer argument and changes
    // only the calling thread's timer slack; no memory is passed.
    let _ = unsafe { prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0) };
}

/// A request in flight: its step, scheduled send time and content.
struct Pending {
    step: usize,
    sched: Instant,
    desc: Desc,
}

/// A QueryBatch by reference: `slot` indexes `Traffic::shards`, or equals
/// its length for the install target; `pats` index that shard's patterns.
#[derive(Debug, Clone, Copy)]
pub struct Desc {
    pub slot: usize,
    pub pats: [u32; BATCH],
}

pub fn traffic_request(traffic: &Traffic, desc: &Desc) -> Request {
    let (shard, patterns) = match traffic.shards.get(desc.slot) {
        Some(s) => (s.id, &s.patterns),
        None => {
            let t = traffic.target.as_ref().expect("target slot needs a target");
            (t.id, &t.pool)
        }
    };
    Request::QueryBatch {
        shard,
        patterns: desc.pats.iter().map(|&i| patterns[i as usize].clone()).collect(),
    }
}

/// Whether `values` answers `desc` bit for bit. A target batch must match
/// one snapshot in full: a batch is served from one epoch.
pub fn answers_match(traffic: &Traffic, desc: &Desc, values: &[f64]) -> bool {
    if values.len() != BATCH {
        return false;
    }
    let same = |answers: &[u64]| {
        desc.pats.iter().zip(values).all(|(&i, v)| answers[i as usize] == v.to_bits())
    };
    match traffic.shards.get(desc.slot) {
        Some(s) => same(&s.answers),
        None => traffic.target.as_ref().is_some_and(|t| t.answers.iter().any(|a| same(a))),
    }
}

/// Zipf(s) sampler over ranks `0..n` by inverse-CDF binary search.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let cdf = (0..n)
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(s);
                acc
            })
            .collect();
        Self { cdf }
    }

    fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen_range(0.0..*self.cdf.last().expect("non-empty universe"));
        self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1)
    }
}

/// The deterministic request stream of one step.
pub struct StreamGen<'a> {
    traffic: &'a Traffic,
    rng: StdRng,
    /// One sampler per read shard, over its universe.
    zipf: Vec<Zipf>,
}

impl<'a> StreamGen<'a> {
    pub fn new(traffic: &'a Traffic, seed: u64) -> Self {
        let zipf = traffic.shards.iter().map(|s| Zipf::new(s.universe, ZIPF_S)).collect();
        Self { traffic, rng: StdRng::seed_from_u64(seed), zipf }
    }

    pub fn next(&mut self) -> Desc {
        let mut pats = [0u32; BATCH];
        if let Some(t) = &self.traffic.target {
            if self.rng.gen_bool(TARGET_READ_FRAC) {
                for p in &mut pats {
                    *p = self.rng.gen_range(0..t.pool.len()) as u32;
                }
                return Desc { slot: self.traffic.shards.len(), pats };
            }
        }
        let slot = self.rng.gen_range(0..self.traffic.shards.len());
        let shard = &self.traffic.shards[slot];
        for p in &mut pats {
            *p = if self.rng.gen_bool(PRESENT_FRAC) {
                self.zipf[slot].sample(&mut self.rng) as u32
            } else {
                self.rng.gen_range(shard.universe..shard.patterns.len()) as u32
            };
        }
        Desc { slot, pats }
    }
}

#[derive(Default)]
struct RecvOut {
    lat_ns: Vec<Vec<f64>>,
    answered: u64,
    failed: u64,
    /// The first few failures, for the log.
    failures: Vec<String>,
}

impl RecvOut {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(why);
        }
    }
}

/// The receiving thread: reads response frames in order, times each from
/// its scheduled send and checks it against the expected answers.
fn receive(
    mut conn: TcpStream,
    rx: mpsc::Receiver<Pending>,
    traffic: &Traffic,
    completed: &AtomicU64,
    stop: &AtomicBool,
) -> RecvOut {
    let mut out = RecvOut::default();
    let mut buf: Vec<u8> = Vec::with_capacity(1 << 16);
    let mut chunk = vec![0u8; 1 << 16];
    loop {
        while let Ok(Some(len)) = frame_len(&buf) {
            let now = Instant::now();
            let Ok(p) = rx.recv() else {
                out.fail("response without a request".into());
                return out;
            };
            if out.lat_ns.len() <= p.step {
                out.lat_ns.resize_with(p.step + 1, Vec::new);
            }
            match decode_response(&buf[4..len]) {
                Ok(Response::QueryBatch { values }) if answers_match(traffic, &p.desc, &values) => {
                    out.lat_ns[p.step].push(now.duration_since(p.sched).as_nanos() as f64);
                }
                other => out.fail(format!("wrong answer or refusal: {other:?}")),
            }
            out.answered += 1;
            completed.fetch_add(1, Ordering::SeqCst);
            buf.drain(..len);
        }
        if let Err(e) = frame_len(&buf) {
            out.fail(format!("bad response frame: {e:?}"));
            return out;
        }
        match conn.read(&mut chunk) {
            Ok(0) => return out,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if stop.load(Ordering::SeqCst) {
                    return out;
                }
            }
            Err(e) => {
                out.fail(format!("read conn: {e}"));
                return out;
            }
        }
    }
}

fn read_frame_blocking(conn: &mut TcpStream) -> Result<Response, String> {
    let mut len = [0u8; 4];
    conn.read_exact(&mut len).map_err(|e| format!("admin read: {e}"))?;
    let mut body = vec![0u8; u32::from_le_bytes(len) as usize];
    conn.read_exact(&mut body).map_err(|e| format!("admin read: {e}"))?;
    decode_response(&body).map_err(|e| format!("admin decode: {e:?}"))
}

/// The closed-loop installer on the admin connection, driven without
/// blocking from the sending thread.
struct Installer<'a> {
    plan: &'a InstallPlan,
    ops: usize,
    loads: usize,
    /// The frame in flight: index into the plan, or an owned rollback frame.
    inflight: Option<Inflight>,
    ready_at: Instant,
    rbuf: Vec<u8>,
    /// Acknowledged epochs of the target and the variant each serves.
    history: VecDeque<(u64, usize)>,
    last_epoch: std::collections::HashMap<u32, u64>,
    lat_ns: Vec<(usize, f64)>,
    attempted: u64,
    failures: Vec<String>,
    /// The step installs now start in.
    step: usize,
}

struct Inflight {
    frame: Option<Vec<u8>>,
    item: Option<usize>,
    /// For a rollback: shard and the variant it restores.
    rollback: Option<(u32, usize)>,
    off: usize,
    started: Instant,
    step: usize,
}

impl<'a> Installer<'a> {
    fn new(plan: &'a InstallPlan) -> Self {
        let mut history = VecDeque::new();
        if let Some(initial) = plan.initial {
            history.push_back(initial);
        }
        Self {
            plan,
            ops: 0,
            loads: 0,
            inflight: None,
            ready_at: Instant::now(),
            rbuf: Vec::new(),
            history,
            last_epoch: Default::default(),
            lat_ns: Vec::new(),
            attempted: 0,
            failures: Vec::new(),
            step: 0,
        }
    }

    fn busy(&self) -> bool {
        self.inflight.is_some()
    }

    fn fail(&mut self, why: String) {
        self.failures.push(why);
    }

    fn start_next(&mut self) {
        let current = self.history.back().map(|&(_, v)| v);
        let rollback_to = if self.plan.rollbacks && (self.ops + 1).is_multiple_of(ROLLBACK_EVERY) {
            self.history.iter().rev().find(|&&(_, v)| Some(v) != current).copied()
        } else {
            None
        };
        let started = Instant::now();
        self.inflight = Some(match rollback_to {
            Some((epoch, variant)) => {
                let shard = self.plan.items[0].shard;
                Inflight {
                    frame: Some(encode_request(&Request::Rollback { shard, epoch })),
                    item: None,
                    rollback: Some((shard, variant)),
                    off: 0,
                    started,
                    step: self.step,
                }
            }
            None => {
                let item = self.loads % self.plan.items.len();
                self.loads += 1;
                Inflight {
                    frame: None,
                    item: Some(item),
                    rollback: None,
                    off: 0,
                    started,
                    step: self.step,
                }
            }
        });
        self.ops += 1;
        self.attempted += 1;
    }

    /// Advances the install in flight as far as the socket allows; starts
    /// the next one when `start` is set and the gap has passed.
    fn pump(&mut self, conn: &mut TcpStream, start: bool) {
        if self.inflight.is_none() {
            if !start || Instant::now() < self.ready_at || self.plan.items.is_empty() {
                return;
            }
            self.start_next();
        }
        let plan = self.plan;
        let inf = self.inflight.as_mut().expect("install in flight");
        let frame: &[u8] = match (&inf.frame, inf.item) {
            (Some(f), _) => f,
            (None, Some(i)) => &plan.items[i].frame,
            (None, None) => unreachable!("install without a frame"),
        };
        while inf.off < frame.len() {
            match conn.write(&frame[inf.off..]) {
                Ok(n) => inf.off += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) => {
                    let why = format!("install write: {e}");
                    self.inflight = None;
                    self.fail(why);
                    return;
                }
            }
        }
        let mut chunk = [0u8; 4096];
        loop {
            match conn.read(&mut chunk) {
                Ok(0) => {
                    self.inflight = None;
                    self.fail("admin connection closed".into());
                    return;
                }
                Ok(n) => self.rbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) => {
                    self.inflight = None;
                    self.fail(format!("install read: {e}"));
                    return;
                }
            }
        }
        let Ok(Some(len)) = frame_len(&self.rbuf) else { return };
        let now = Instant::now();
        let inf = self.inflight.take().expect("install in flight");
        self.lat_ns.push((inf.step, now.duration_since(inf.started).as_nanos() as f64));
        self.ready_at = (inf.started + Duration::from_secs_f64(plan.period_ms / 1e3)).max(now);
        let resp = decode_response(&self.rbuf[4..len]);
        self.rbuf.drain(..len);
        let (shard, variant, ok, epoch) = match (resp, inf.item, inf.rollback) {
            (Ok(Response::LoadSnapshot { epoch, node_count }), Some(i), None) => {
                let item = &plan.items[i];
                (item.shard, item.variant, node_count == item.nodes, epoch)
            }
            (Ok(Response::Rollback { epoch }), None, Some((shard, variant))) => {
                (shard, variant, true, epoch)
            }
            (other, _, _) => {
                self.fail(format!("install refused: {other:?}"));
                return;
            }
        };
        let last = self.last_epoch.insert(shard, epoch).unwrap_or(0);
        if !ok || epoch <= last {
            self.fail(format!(
                "install ack on shard {shard}: epoch {epoch} after {last}, nodes ok {ok}"
            ));
        }
        if plan.rollbacks {
            self.history.push_back((epoch, variant));
            if self.history.len() > 3 {
                self.history.pop_front();
            }
        }
    }
}

/// Closed-loop capacity of one connection: QueryBatch round trips of the
/// given traffic, one outstanding, for `secs`. Returns requests per second
/// and the median round trip in microseconds.
pub fn closed_loop_capacity(
    d: &mut Daemon,
    traffic: &Traffic,
    secs: f64,
    seed: u64,
) -> Result<(f64, f64), String> {
    let mut gen = StreamGen::new(traffic, seed);
    let mut rtts = Vec::new();
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < secs {
        let desc = gen.next();
        let t = Instant::now();
        d.reads
            .write_all(&encode_request(&traffic_request(traffic, &desc)))
            .map_err(|e| e.to_string())?;
        match read_frame_blocking(&mut d.reads)? {
            Response::QueryBatch { values } if answers_match(traffic, &desc, &values) => {}
            other => return Err(format!("calibration answer: {other:?}")),
        }
        rtts.push(t.elapsed().as_nanos() as f64 / 1e3);
    }
    Ok((rtts.len() as f64 / t0.elapsed().as_secs_f64(), crate::stats::median(&rtts)))
}
