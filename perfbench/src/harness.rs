//! The run loop every workload shares: seeded inputs, cold set-ups spread
//! across the run, load segments bracketed by host-speed probes, exact
//! percentiles, and the one-line JSON result.
//!
//! ## Host-speed scaling
//!
//! The reference host alternates between a fast and a slow phase every
//! 0.2–2 s, and the share of time spent slow drifts over minutes, so raw
//! wall times of the same code move by ±30% between runs. A fixed probe
//! owned by this benchmark (plain-Rust GEMV plus small allocations and
//! hash-map traffic, no `ft-*` code) slows down by the same factor as the
//! workloads. Every set-up and every segment is bracketed by a probe burst
//! on as many threads as the workload keeps busy, and each time measured
//! inside it is scaled by `REF_PROBE_MS / probe_ms`: the time it would
//! have taken on the reference host in its fast phase. The probe runs none
//! of the program's code, so a change to the program moves the scaled
//! figures as much as the raw ones. The median factor is reported as the
//! per-layer metric `host.speed_factor`, so raw figures can be recovered.

use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};

use ft_core::{BufferId, FractalTensor, Program};
use ft_passes::CompiledProgram;
use ft_tensor::Tensor;

use crate::trace::Tracer;

/// Cold set-ups per run, spread evenly across it; `setup_s` is their median.
pub const SETUPS: usize = 21;
/// Ops per block: p99 of a block has 10 samples beyond it.
const BLOCK_OPS: usize = 1000;
/// Reference probe burst time: a little under the fastest burst seen on
/// the reference host (2-vCPU x86-64).
pub const REF_PROBE_MS: f64 = 0.15;

/// End-to-end metrics, reported with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p99", "ms"),
    ("ttft_ms_p50", "ms"),
];

/// Per-layer metrics, reported with `--trace 1`. A layer the workload
/// does not drive reports 0. `peak_rss_mb` is here rather than end to
/// end: the allocator's high-water mark for `serve_ragged` moved by 24%
/// between two sets of runs of the same code.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("passes.compile_ms", "ms"),
    ("verify.verify_ms", "ms"),
    ("passes.poly_build_ms", "ms"),
    ("passes.poly_instance_us", "us"),
    ("passes.fusion_applied", "count"),
    ("exec.run_ms_p50.stacked_rnn", "ms"),
    ("exec.run_ms_p99.stacked_rnn", "ms"),
    ("exec.run_ms_p50.attention", "ms"),
    ("exec.run_ms_p99.attention", "ms"),
    ("exec.run_ms_p50.bigbird", "ms"),
    ("exec.run_ms_p99.bigbird", "ms"),
    ("exec.arena_grows_after_warmup", "count"),
    ("exec.leaf_clones", "count"),
    ("kernel.floor_ms.stacked_rnn", "ms"),
    ("exec.overhead_share.stacked_rnn", "ratio"),
    ("serve.admit_us_p50", "us"),
    ("serve.queue_wait_us_mean", "us"),
    ("serve.setup_us_mean", "us"),
    ("serve.exec_us_mean", "us"),
    ("serve.split_us_mean", "us"),
    ("serve.residual_us_mean", "us"),
    ("serve.mean_batch", "req/launch"),
    ("serve.batch_fallbacks", "count"),
    ("serve.ragged_fallbacks", "count"),
    ("serve.cache_misses_after_warmup", "count"),
    ("serve.arena_grows_after_warmup", "count"),
    ("session.open_us_p50", "us"),
    ("session.close_us_p50", "us"),
    ("session.step_admit_us_p50", "us"),
    ("session.state_copies_after_warmup", "count"),
    ("session.pinned_bytes_peak", "bytes"),
    ("trace.overhead_pct", "%"),
    ("host.speed_factor", "ratio"),
    ("host.effective_parallelism", "cores"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics taken straight from span durations:
/// (metric, span name, quantile, scale from seconds).
const SPAN_METRICS: &[(&str, &str, f64, f64)] = &[
    ("passes.compile_ms", "passes.compile", 0.5, 1e3),
    ("verify.verify_ms", "verify.verify", 0.5, 1e3),
    ("passes.poly_build_ms", "passes.poly_build", 0.5, 1e3),
    ("passes.poly_instance_us", "passes.poly_instance", 0.5, 1e6),
    (
        "exec.run_ms_p50.stacked_rnn",
        "exec.run.stacked_rnn",
        0.5,
        1e3,
    ),
    (
        "exec.run_ms_p99.stacked_rnn",
        "exec.run.stacked_rnn",
        0.99,
        1e3,
    ),
    ("exec.run_ms_p50.attention", "exec.run.attention", 0.5, 1e3),
    ("exec.run_ms_p99.attention", "exec.run.attention", 0.99, 1e3),
    ("exec.run_ms_p50.bigbird", "exec.run.bigbird", 0.5, 1e3),
    ("exec.run_ms_p99.bigbird", "exec.run.bigbird", 0.99, 1e3),
    (
        "kernel.floor_ms.stacked_rnn",
        "kernel.floor.stacked_rnn",
        0.5,
        1e3,
    ),
    ("serve.admit_us_p50", "serve.submit_wait", 0.5, 1e6),
    ("session.open_us_p50", "session.open", 0.5, 1e6),
    ("session.close_us_p50", "session.close", 0.5, 1e6),
    ("session.step_admit_us_p50", "session.decode_step", 0.5, 1e6),
];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    pub fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let bad = || format!("bad value for {flag}: {value}");
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = value.parse().map_err(|_| bad())?,
                "--seconds" => seconds = value.parse().map_err(|_| bad())?,
                "--trace" => trace = value.parse::<u8>().map_err(|_| bad())? != 0,
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if !(seconds > 0.0 && seconds <= 600.0) {
            return Err(format!("--seconds must be in (0, 600], got {seconds}"));
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds,
            trace,
        })
    }
}

/// SplitMix64: the benchmark's own seeded generator for extents, lifetimes
/// and per-input seeds.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }
}

/// Exact nearest-rank quantile; 0 for an empty sample.
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(|a, b| a.total_cmp(b));
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// The host-speed probe: fixed work that touches none of the program's
/// code (see the module docs).
struct Probe {
    x: Vec<f32>,
    w: Vec<f32>,
    s: Vec<f32>,
    c: Vec<f32>,
}

impl Probe {
    fn new() -> Self {
        Probe {
            x: (0..32).map(|i| i as f32 * 0.01).collect(),
            w: (0..32 * 32).map(|i| (i % 7) as f32 * 0.01).collect(),
            s: vec![0.1; 32],
            c: vec![0.0; 32],
        }
    }

    fn work(&mut self, reps: usize) -> u64 {
        let mut map: HashMap<u64, Vec<f32>> = HashMap::new();
        let mut acc = 0u64;
        for r in 0..reps {
            self.c.copy_from_slice(&self.s);
            for (k, &xk) in self.x.iter().enumerate() {
                for (c, w) in self.c.iter_mut().zip(&self.w[k * 32..k * 32 + 32]) {
                    *c += xk * w;
                }
            }
            let v: Vec<f32> = self.c.iter().map(|c| c * 0.5).collect();
            map.insert((r % 16) as u64, v);
            acc = acc.wrapping_add(
                map.get(&((r * 7 % 16) as u64))
                    .map_or(0, |v| v.len() as u64),
            );
        }
        std::hint::black_box(acc)
    }

    /// One burst; returns its wall time in ms.
    fn burst(&mut self) -> f64 {
        let t = Instant::now();
        for _ in 0..5 {
            self.work(200);
        }
        t.elapsed().as_secs_f64() * 1e3
    }
}

/// One probe burst on each of `threads` threads at once (on the calling
/// thread when `threads` is 1); returns the mean burst time in ms.
fn probe_burst(threads: usize) -> f64 {
    if threads == 1 {
        return Probe::new().burst();
    }
    let times: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| s.spawn(|| Probe::new().burst()))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("probe thread panicked"))
            .collect()
    });
    mean(&times)
}

/// Effective parallelism from a spin calibration: `nproc` threads each
/// run the probe's work; on `p` real cores they finish `p` times the work
/// of one thread in the same time.
pub fn effective_parallelism(nproc: usize) -> f64 {
    let spin = || {
        let mut p = Probe::new();
        let t = Instant::now();
        for _ in 0..400 {
            p.work(200);
        }
        t.elapsed().as_secs_f64()
    };
    let one = spin();
    let t = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..nproc {
            s.spawn(spin);
        }
    });
    (nproc as f64 * one / t.elapsed().as_secs_f64()).min(nproc as f64)
}

/// Peak resident set size (VmHWM) in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// `ft_passes::compile` then `ft_verify::verify`, each inside its span.
pub fn compile_verified(tr: &mut Tracer, program: &Program) -> Result<CompiledProgram, String> {
    let compiled = tr
        .span("passes.compile", || ft_passes::compile(program))
        .map_err(|e| format!("compile {}: {e}", program.name))?;
    tr.span("verify.verify", || {
        ft_verify::verify(&compiled).map_err(|e| e.to_string())
    })
    .map_err(|e| format!("verify {}: {e}", program.name))?;
    Ok(compiled)
}

/// True when two tensors have the same dims and bit-identical elements.
pub fn tensor_bits_eq(a: &Tensor, b: &Tensor) -> bool {
    if a.dims() != b.dims() {
        return false;
    }
    match (a.contiguous_slice(), b.contiguous_slice()) {
        (Some(x), Some(y)) => x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits()),
        _ => {
            let (x, y) = (a.to_vec(), b.to_vec());
            x.iter().zip(&y).all(|(p, q)| p.to_bits() == q.to_bits())
        }
    }
}

/// True when two fractal tensors have the same nesting and bit-identical leaves.
pub fn fractal_bits_eq(a: &FractalTensor, b: &FractalTensor) -> bool {
    match (a, b) {
        (FractalTensor::Leaves(x), FractalTensor::Leaves(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| tensor_bits_eq(p, q))
        }
        (FractalTensor::Nested(x), FractalTensor::Nested(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| fractal_bits_eq(p, q))
        }
        _ => false,
    }
}

/// True when `got` holds every buffer of `want`, bit for bit.
pub fn outputs_bits_eq(
    got: &HashMap<BufferId, FractalTensor>,
    want: &HashMap<BufferId, FractalTensor>,
) -> bool {
    want.iter()
        .all(|(id, w)| got.get(id).is_some_and(|g| fractal_bits_eq(g, w)))
}

/// Max |a - b| <= tol * max(1, max |b|) over equal-shaped tensors.
pub fn tensor_close(a: &Tensor, b: &Tensor, tol: f32) -> bool {
    if a.dims() != b.dims() {
        return false;
    }
    let (x, y) = (a.to_vec(), b.to_vec());
    let scale = y.iter().fold(1.0f32, |m, v| m.max(v.abs()));
    x.iter().zip(&y).all(|(p, q)| (p - q).abs() <= tol * scale)
}

/// What one load segment measured, in raw (unscaled) seconds.
#[derive(Default)]
pub struct Segment {
    /// Time the segment's ops were timed for (excludes output checks).
    pub busy_s: f64,
    /// Latency of every op that succeeded and passed its check.
    pub latency_s: Vec<f64>,
    /// Time to each op's first output (first step of a new session for
    /// decode; the whole result for one-shot ops).
    pub first_s: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
}

impl Segment {
    fn clear(&mut self) {
        self.busy_s = 0.0;
        self.latency_s.clear();
        self.first_s.clear();
        self.attempted = 0;
        self.failed = 0;
    }
}

/// Consecutive untraced ops, at least `BLOCK_OPS` of them. Each
/// end-to-end figure but `setup_s` is the median over blocks of the
/// block's figure, so a burst of host noise moves a few blocks and not
/// the result.
#[derive(Default)]
struct Block {
    busy_s: f64,
    latency_s: Vec<f64>,
    first_s: Vec<f64>,
}

/// Per-layer metric values, pre-filled with every [`PER_LAYER`] name.
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        let slot = self
            .0
            .get_mut(name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
        *slot = value;
    }
}

pub trait Workload {
    type System;

    /// Length of one load segment (the interval between probe bursts).
    const SEGMENT: Duration;
    /// Threads the workload keeps busy; the probe runs on as many.
    const BUSY_THREADS: usize;

    /// Pool widths the workload runs with, for the host record.
    fn pool_widths(&self) -> String;

    /// Builds the oracle outputs (not part of set-up). Errors when the
    /// program disagrees with its reference.
    fn prepare(&mut self, tr: &mut Tracer) -> Result<(), String>;

    /// One cold set-up: construction, cold compile and verify, family
    /// build, session opens, then warm-up until the arena stops growing.
    fn setup(&mut self, tr: &mut Tracer) -> Result<Self::System, String>;

    /// Takes a system out of service, adding its after-warm-up counters
    /// to the run's totals.
    fn retire(&mut self, sys: Self::System);

    /// Drives load until `until`, then lets in-flight ops finish.
    fn segment(
        &mut self,
        sys: &mut Self::System,
        until: Instant,
        tr: &mut Tracer,
        seg: &mut Segment,
    );

    /// Workload-specific per-layer metrics at the end of the run.
    fn layers(&mut self, layers: &mut Layers);
}

pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, &'static str, f64)>,
}

impl Report {
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            // A run whose ops all failed has no samples; keep the line valid JSON.
            .map(|(name, unit, v)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

pub fn run<W: Workload>(args: &Args, name: &str, mut w: W) -> Result<Report, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let effective = effective_parallelism(nproc);
    let host = format!(
        "{{\"workload\": \"{name}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {nproc}, \
         \"effective_parallelism\": {effective:.3}, \"simd_mode\": \"{}\", \"pool_widths\": \"{}\"}}",
        args.seed,
        args.seconds,
        args.trace,
        format!("{:?}", ft_simd::mode()).to_lowercase(),
        w.pool_widths()
    );
    eprintln!("perfbench host: {host}");

    let mut tr = Tracer::new();
    // Host-speed factor of each epoch (the prepare step, each set-up and
    // each segment), from the probe bursts on either side of it.
    let mut factors = Vec::new();
    let mut last_probe = probe_burst(W::BUSY_THREADS);
    let mut close_epoch = |tr: &mut Tracer, factors: &mut Vec<f64>| -> f64 {
        let p = probe_burst(W::BUSY_THREADS);
        let h = REF_PROBE_MS / ((last_probe + p) / 2.0);
        last_probe = p;
        factors.push(h);
        tr.epoch += 1;
        h
    };

    tr.recording = args.trace;
    w.prepare(&mut tr)?;
    close_epoch(&mut tr, &mut factors);

    // Load runs until `seconds` of segments have elapsed; set-up k is due
    // once k/SETUPS of that time has passed.
    let total = Duration::from_secs_f64(args.seconds);
    let mut load = Duration::ZERO;
    let mut setups = Vec::new();
    let mut sys: Option<W::System> = None;
    // Scaled op count and busy seconds of untraced [0] and traced [1]
    // segments, and the blocks of the untraced ones.
    let (mut ops, mut busy) = ([0usize; 2], [0.0f64; 2]);
    let mut blocks = vec![Block::default()];
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut seg = Segment::default();
    let mut segments = 0usize;
    let fusion_applied = ft_obs::Registry::global().counter("passes.fusion_applied");
    let mut fused_per_setup = Vec::new();
    while load < total {
        if setups.len() < SETUPS && load >= total.mul_f64(setups.len() as f64 / SETUPS as f64) {
            tr.recording = args.trace;
            let fused = fusion_applied.get();
            let t = Instant::now();
            let fresh = w.setup(&mut tr)?;
            let raw = t.elapsed().as_secs_f64();
            setups.push(raw * close_epoch(&mut tr, &mut factors));
            fused_per_setup.push((fusion_applied.get() - fused) as f64);
            // Each set-up becomes the system under load until the next
            // one, so a run averages over several runtimes' thread
            // placements instead of sampling one.
            if let Some(old) = sys.replace(fresh) {
                w.retire(old);
            }
            continue;
        }
        let traced = args.trace && segments.is_multiple_of(2);
        segments += 1;
        tr.recording = traced;
        seg.clear();
        let system = sys.as_mut().ok_or("no system was set up")?;
        let start = Instant::now();
        w.segment(system, start + W::SEGMENT, &mut tr, &mut seg);
        load += start.elapsed();
        let h = close_epoch(&mut tr, &mut factors);
        ops[traced as usize] += seg.latency_s.len();
        busy[traced as usize] += seg.busy_s * h;
        if !traced {
            if blocks
                .last()
                .is_some_and(|b| b.latency_s.len() >= BLOCK_OPS)
            {
                blocks.push(Block::default());
            }
            let block = blocks.last_mut().expect("blocks is never empty");
            block.busy_s += seg.busy_s * h;
            block.latency_s.extend(seg.latency_s.iter().map(|v| v * h));
            block.first_s.extend(seg.first_s.iter().map(|v| v * h));
        }
        attempted += seg.attempted;
        failed += seg.failed;
    }
    tr.recording = false;
    w.retire(sys.ok_or("no system was set up")?);

    let throughput = |traced: bool| ops[traced as usize] as f64 / busy[traced as usize];
    let mut metrics = Vec::new();
    if args.trace {
        let mut layers = Layers(PER_LAYER.iter().map(|&(n, _)| (n, 0.0)).collect());
        for &(metric, span, q, scale) in SPAN_METRICS {
            layers.set(
                metric,
                quantile(&mut tr.durations(span, &factors), q) * scale,
            );
        }
        w.layers(&mut layers);
        layers.set("passes.fusion_applied", quantile(&mut fused_per_setup, 0.5));
        layers.set(
            "trace.overhead_pct",
            (throughput(false) / throughput(true) - 1.0) * 100.0,
        );
        layers.set("host.speed_factor", quantile(&mut factors.clone(), 0.5));
        layers.set("host.effective_parallelism", effective);
        layers.set("peak_rss_mb", peak_rss_mb()?);
        write_trace(name, args.seed, &host, &tr, &factors)?;
        for &(n, unit) in PER_LAYER {
            metrics.push((n, unit, layers.0[n]));
        }
    } else {
        // A short last block joins the one before it.
        if blocks.len() > 1 && blocks.last().is_some_and(|b| b.latency_s.len() < BLOCK_OPS) {
            let last = blocks.pop().expect("checked above");
            let prev = blocks.last_mut().expect("checked above");
            prev.busy_s += last.busy_s;
            prev.latency_s.extend(last.latency_s);
            prev.first_s.extend(last.first_s);
        }
        let mut per_block = |f: &dyn Fn(&mut Block) -> f64| -> f64 {
            let mut v: Vec<f64> = blocks.iter_mut().map(f).collect();
            quantile(&mut v, 0.5)
        };
        let values = [
            quantile(&mut setups, 0.5),
            per_block(&|b| b.latency_s.len() as f64 / b.busy_s),
            per_block(&|b| quantile(&mut b.latency_s, 0.5) * 1e3),
            per_block(&|b| quantile(&mut b.latency_s, 0.99) * 1e3),
            per_block(&|b| quantile(&mut b.first_s, 0.5) * 1e3),
        ];
        eprintln!(
            "perfbench {name}: {attempted} ops, {failed} failed, {} blocks, {} set-ups, \
             pooled throughput {:.1}/s, median host-speed factor {:.3}",
            blocks.len(),
            setups.len(),
            throughput(false),
            quantile(&mut factors, 0.5)
        );
        for (&(n, unit), v) in END_TO_END.iter().zip(values) {
            metrics.push((n, unit, v));
        }
    }
    Ok(Report {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
    })
}

/// Writes the spans and the per-layer table under `.bench_trace/`.
fn write_trace(
    name: &str,
    seed: u64,
    host: &str,
    tr: &Tracer,
    factors: &[f64],
) -> Result<(), String> {
    let table = tr.table(factors);
    eprint!("{table}");
    let dir = std::path::Path::new(".bench_trace");
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join(format!("{name}-seed{seed}.jsonl"));
    let mut body = format!("{host}\n");
    body.push_str(&tr.jsonl());
    std::fs::write(&path, body).map_err(|e| format!("writing {}: {e}", path.display()))?;
    let path = dir.join(format!("{name}-seed{seed}.table.txt"));
    std::fs::write(&path, table).map_err(|e| format!("writing {}: {e}", path.display()))
}
