//! `serve_ragged`: closed loop through one `Runtime` (default config,
//! pool width 1). One client keeps a fixed window of 32 requests in
//! flight, so the queue always holds a full batch. Each request is a
//! stacked RNN with a seeded outer extent in 1..=8 at d=2 l=64 h=16, so
//! the runtime's ragged grouping fuses requests of different lengths.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ft_backend::Executor;
use ft_core::builders::stacked_rnn_program;
use ft_core::{BufferId, FractalTensor, Program};
use ft_obs::CompletionRecord;
use ft_pool::WorkerPool;
use ft_serve::{Request, Runtime, ServeConfig, ServeError, ServeStats};
use ft_tensor::Tensor;

use crate::harness::{self, Layers, Rng, Segment, Workload};
use crate::trace::Tracer;

const DLH: (usize, usize, usize) = (2, 64, 16);
/// Runtime pool width. The reference host has one effective core, and a
/// width of 2 served fewer requests per second (about 1300 against 1670)
/// with a wider run-to-run spread.
pub const RUNTIME_THREADS: usize = 1;
const MAX_EXTENT: usize = 8;
/// Requests the client keeps in flight.
const WINDOW: usize = 32;
/// Distinct pre-generated requests, cycled in order (a multiple of
/// `MAX_EXTENT`).
const POOL: usize = 64;

struct Item {
    extent: usize,
    inputs: HashMap<BufferId, FractalTensor>,
    /// A solo `Executor::run` of the same inputs on an exact compile.
    expected: HashMap<BufferId, FractalTensor>,
}

pub struct System {
    rt: Runtime,
    after_setup: ServeStats,
}

pub struct ServeRagged {
    programs: Vec<Arc<Program>>,
    items: Vec<Item>,
    next: usize,
    records: Vec<CompletionRecord>,
    counters: ServeCounters,
}

impl ServeRagged {
    pub fn new(seed: u64) -> Self {
        let (d, l, h) = DLH;
        let mut rng = Rng::new(seed);
        let ws = FractalTensor::from_flat(
            &Tensor::randn(&[d, h, h], rng.next_u64()).mul_scalar(0.2),
            1,
        )
        .expect("ws");
        // Every extent appears equally often, in seeded order, so the work
        // per request is the same for every seed.
        let mut extents: Vec<usize> = (0..POOL).map(|i| 1 + i % MAX_EXTENT).collect();
        for i in (1..POOL).rev() {
            extents.swap(i, rng.range(0, i));
        }
        let items = extents
            .into_iter()
            .map(|extent| {
                let xss = Tensor::randn(&[extent, l, 1, h], rng.next_u64());
                Item {
                    extent,
                    inputs: HashMap::from([
                        (BufferId(0), FractalTensor::from_flat(&xss, 2).expect("xss")),
                        (BufferId(1), ws.clone()),
                    ]),
                    expected: HashMap::new(),
                }
            })
            .collect();
        ServeRagged {
            programs: (1..=MAX_EXTENT)
                .map(|n| Arc::new(stacked_rnn_program(n, d, l, h)))
                .collect(),
            items,
            next: 0,
            records: Vec::new(),
            counters: ServeCounters::default(),
        }
    }

    fn request(&mut self) -> (usize, Request) {
        let idx = self.next % POOL;
        self.next += 1;
        let item = &self.items[idx];
        let program = Arc::clone(&self.programs[item.extent - 1]);
        (idx, Request::new(program, item.inputs.clone()))
    }

    /// Keeps `WINDOW` requests in flight until `until` passes or `max`
    /// requests were sent, then drains. Each response is checked after its
    /// latency is taken; returns (latency of each correct response, failed).
    fn drive(
        &mut self,
        rt: &Runtime,
        until: Option<Instant>,
        max: usize,
        tr: &mut Tracer,
    ) -> (Vec<f64>, u64) {
        let mut inflight = VecDeque::with_capacity(WINDOW);
        let (mut ok, mut failed) = (Vec::new(), 0);
        let mut sent = 0;
        loop {
            while inflight.len() < WINDOW && sent < max && until.is_none_or(|u| Instant::now() < u)
            {
                sent += 1;
                let (idx, req) = self.request();
                tr.op += 1;
                let t = Instant::now();
                match tr.span("serve.submit_wait", || rt.submit_wait(req)) {
                    Ok(ticket) => inflight.push_back((idx, ticket, t)),
                    Err(_) => failed += 1,
                }
            }
            let Some((idx, ticket, t)) = inflight.pop_front() else {
                break;
            };
            let res = tr.span("serve.wait", || ticket.wait());
            let lat = t.elapsed().as_secs_f64();
            match res {
                Ok(out) if harness::outputs_bits_eq(&out, &self.items[idx].expected) => {
                    ok.push(lat)
                }
                _ => failed += 1,
            }
        }
        (ok, failed)
    }
}

impl Workload for ServeRagged {
    type System = System;
    const SEGMENT: Duration = Duration::from_millis(200);
    const BUSY_THREADS: usize = 2;

    fn pool_widths(&self) -> String {
        format!("runtime={RUNTIME_THREADS}, client=1")
    }

    fn prepare(&mut self, tr: &mut Tracer) -> Result<(), String> {
        let exec = Executor::new().pool(Arc::new(WorkerPool::new(1)));
        let mut compiled = HashMap::new();
        for item in &mut self.items {
            let c = match compiled.entry(item.extent) {
                Entry::Occupied(e) => e.into_mut(),
                Entry::Vacant(e) => e.insert(harness::compile_verified(
                    tr,
                    &self.programs[item.extent - 1],
                )?),
            };
            item.expected = exec
                .run(c, &item.inputs)
                .map_err(|e| format!("solo run n={}: {e}", item.extent))?;
        }
        Ok(())
    }

    fn setup(&mut self, tr: &mut Tracer) -> Result<System, String> {
        let rt = tr
            .span("serve.runtime_new", new_runtime)
            .map_err(|e| format!("runtime: {e}"))?;
        // Warm-up passes over the request pool until one grows no arena.
        for _ in 0..8 {
            let before = rt.stats().arena_grows;
            let (_, failed) = self.drive(&rt, None, POOL, tr);
            if failed > 0 {
                return Err(format!("{failed} warm-up requests failed"));
            }
            if rt.stats().arena_grows == before {
                break;
            }
        }
        // The runtime's own cold plan acquisition (family build + verify).
        for r in rt.take_completions() {
            if !r.setup_cached {
                tr.record(
                    "passes.poly_build",
                    Duration::from_secs_f64(r.setup_us * 1e-6),
                );
            }
        }
        Ok(System {
            after_setup: rt.stats(),
            rt,
        })
    }

    fn segment(&mut self, sys: &mut System, until: Instant, tr: &mut Tracer, seg: &mut Segment) {
        let t = Instant::now();
        let (ok, failed) = self.drive(&sys.rt, Some(until), usize::MAX, tr);
        seg.busy_s = t.elapsed().as_secs_f64();
        seg.attempted = ok.len() as u64 + failed;
        seg.failed = failed;
        seg.first_s.clone_from(&ok);
        seg.latency_s = ok;
        let records = sys.rt.take_completions();
        if tr.recording {
            self.records.extend(records);
        }
    }

    fn retire(&mut self, sys: System) {
        self.counters.add(&sys.rt, &sys.after_setup);
    }

    fn layers(&mut self, layers: &mut Layers) {
        self.counters.set(&self.records, layers);
    }
}

/// A runtime in the default configuration except for its pool width.
pub fn new_runtime() -> Result<Runtime, ServeError> {
    Runtime::try_new(ServeConfig {
        threads: RUNTIME_THREADS,
        ..ServeConfig::default()
    })
}

/// `ServeStats` deltas since the end of set-up, summed over the retired
/// runtimes of a run. Shared by both serving workloads.
#[derive(Default)]
pub struct ServeCounters {
    batches: u64,
    batched: u64,
    batch_fallbacks: u64,
    ragged_fallbacks: u64,
    cache_misses: u64,
    arena_grows: u64,
    leaf_clones: u64,
    pub state_copies: u64,
}

impl ServeCounters {
    pub fn add(&mut self, rt: &Runtime, warm: &ServeStats) {
        let s = rt.stats();
        self.batches += s.batches - warm.batches;
        self.batched += s.batched_requests - warm.batched_requests;
        self.batch_fallbacks += s.batch_fallbacks - warm.batch_fallbacks;
        self.ragged_fallbacks += s.batch_ragged_fallbacks - warm.batch_ragged_fallbacks;
        self.cache_misses += s.cache_misses - warm.cache_misses;
        self.arena_grows += s.arena_grows - warm.arena_grows;
        self.leaf_clones += s.leaf_clones;
        self.state_copies += s.state_copies - warm.state_copies;
    }

    /// Sets the ft-serve per-layer metrics: these counters, plus phase
    /// means over the runtime's completion records.
    pub fn set(&self, records: &[CompletionRecord], layers: &mut Layers) {
        let field =
            |f: fn(&CompletionRecord) -> f64| -> Vec<f64> { records.iter().map(f).collect() };
        let queue = harness::mean(&field(|r| r.queue_wait_us));
        let setup = harness::mean(&field(|r| r.setup_us));
        let exec = harness::mean(&field(|r| r.exec_us));
        let split = harness::mean(&field(|r| r.split_us));
        let total = harness::mean(&field(|r| r.total_us));
        layers.set("serve.queue_wait_us_mean", queue);
        layers.set("serve.setup_us_mean", setup);
        layers.set("serve.exec_us_mean", exec);
        layers.set("serve.split_us_mean", split);
        layers.set(
            "serve.residual_us_mean",
            total - queue - setup - exec - split,
        );
        let mean_batch = if self.batches > 0 {
            self.batched as f64 / self.batches as f64
        } else {
            0.0
        };
        layers.set("serve.mean_batch", mean_batch);
        layers.set("serve.batch_fallbacks", self.batch_fallbacks as f64);
        layers.set("serve.ragged_fallbacks", self.ragged_fallbacks as f64);
        layers.set("serve.cache_misses_after_warmup", self.cache_misses as f64);
        layers.set("serve.arena_grows_after_warmup", self.arena_grows as f64);
        layers.set("exec.arena_grows_after_warmup", self.arena_grows as f64);
        layers.set("exec.leaf_clones", self.leaf_clones as f64);
    }
}
