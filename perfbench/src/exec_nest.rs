//! `exec_nest`: offline, closed loop. `Executor::run` back to back on
//! compiled stacked RNN (n=4 d=8 l=64 h=32), attention-tiny and
//! BigBird-tiny. One op is one round of the three programs, weighted
//! 1 : 15 : 20 so each takes about the same time on the reference host.
//! The executor and kernels do all the work; ft-serve does none.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ft_backend::Executor;
use ft_core::builders::stacked_rnn_program;
use ft_core::{BufferId, FractalTensor, Program};
use ft_passes::CompiledProgram;
use ft_pool::WorkerPool;
use ft_simd::EpiOp;
use ft_tensor::{slices, Tensor};
use ft_workloads::{attention, bigbird};

use crate::harness::{self, Layers, Rng, Segment, Workload};
use crate::trace::Tracer;

/// Executor pool width: the reference host has one effective core.
const POOL_WIDTH: usize = 1;
const RNN: (usize, usize, usize, usize) = (4, 8, 64, 32);

struct Prog {
    span: &'static str,
    weight: usize,
    program: Program,
    inputs: HashMap<BufferId, FractalTensor>,
    /// Executor outputs checked against the interpreter in `prepare`;
    /// every later run must reproduce them bit for bit.
    expected: HashMap<BufferId, FractalTensor>,
}

pub struct System {
    exec: Executor,
    compiled: Vec<Arc<CompiledProgram>>,
    grows_after_setup: u64,
}

pub struct ExecNest {
    progs: Vec<Prog>,
    floor: Floor,
    /// (floor, run) seconds of each traced RNN run and the floor beside it.
    floor_pairs: Vec<(f64, f64)>,
    /// Summed over retired systems.
    arena_grows_after_warmup: u64,
    leaf_clones: u64,
}

impl ExecNest {
    pub fn new(seed: u64) -> Self {
        let mut rng = Rng::new(seed);
        let (n, d, l, h) = RNN;
        let xss = Tensor::randn(&[n, l, 1, h], rng.next_u64());
        let ws = Tensor::randn(&[d, h, h], rng.next_u64()).mul_scalar(0.2);
        let rnn_inputs = HashMap::from([
            (BufferId(0), FractalTensor::from_flat(&xss, 2).expect("xss")),
            (BufferId(1), FractalTensor::from_flat(&ws, 1).expect("ws")),
        ]);
        let progs = vec![
            Prog {
                span: "exec.run.stacked_rnn",
                weight: 1,
                program: stacked_rnn_program(n, d, l, h),
                inputs: rnn_inputs,
                expected: HashMap::new(),
            },
            Prog {
                span: "exec.run.attention",
                weight: 15,
                program: attention::program(attention::AttnShape::tiny()),
                inputs: attention::inputs(attention::AttnShape::tiny(), rng.next_u64()),
                expected: HashMap::new(),
            },
            Prog {
                span: "exec.run.bigbird",
                weight: 20,
                program: bigbird::program(bigbird::BigBirdShape::tiny()),
                inputs: bigbird::inputs(bigbird::BigBirdShape::tiny(), rng.next_u64()),
                expected: HashMap::new(),
            },
        ];
        ExecNest {
            floor: Floor::new(&xss, &ws),
            progs,
            floor_pairs: Vec::new(),
            arena_grows_after_warmup: 0,
            leaf_clones: 0,
        }
    }

    fn run_round(&self, sys: &System) -> Result<(), String> {
        for (p, compiled) in self.progs.iter().zip(&sys.compiled) {
            sys.exec
                .run(compiled, &p.inputs)
                .map_err(|e| format!("{}: {e}", p.span))?;
        }
        Ok(())
    }
}

impl Workload for ExecNest {
    type System = System;
    /// One round per segment: the probe brackets every round, because
    /// host phases change faster than a longer segment.
    const SEGMENT: Duration = Duration::ZERO;
    const BUSY_THREADS: usize = 1;

    fn pool_widths(&self) -> String {
        format!("executor={POOL_WIDTH}")
    }

    fn prepare(&mut self, tr: &mut Tracer) -> Result<(), String> {
        let exec = Executor::new().pool(Arc::new(WorkerPool::new(POOL_WIDTH)));
        for p in &mut self.progs {
            let compiled = harness::compile_verified(tr, &p.program)?;
            let want = ft_core::interp::run_program(&p.program, &p.inputs)
                .map_err(|e| format!("{}: interpreter: {e}", p.span))?;
            let got = exec
                .run(&compiled, &p.inputs)
                .map_err(|e| format!("{}: {e}", p.span))?;
            for (id, w) in &want {
                let g = got
                    .get(id)
                    .ok_or(format!("{}: missing output {}", p.span, id.0))?;
                let (g, w) = (
                    g.to_flat().map_err(|e| e.to_string())?,
                    w.to_flat().map_err(|e| e.to_string())?,
                );
                if !harness::tensor_close(&g, &w, 1e-4) {
                    return Err(format!(
                        "{}: output {} differs from the interpreter",
                        p.span, id.0
                    ));
                }
            }
            p.expected = got;
        }
        Ok(())
    }

    fn setup(&mut self, tr: &mut Tracer) -> Result<System, String> {
        let exec = Executor::new().pool(Arc::new(WorkerPool::new(POOL_WIDTH)));
        let mut compiled = Vec::new();
        for p in &self.progs {
            let c = if p.span == "exec.run.stacked_rnn" {
                // The RNN comes from its shape-polymorphic family, as the
                // serving runtime builds it, instantiated at n.
                let (family, _) = tr
                    .span("passes.poly_build", || {
                        ft_verify::build_poly_verified(&p.program).map_err(|e| e.to_string())
                    })
                    .map_err(|e| format!("rnn family: {e}"))?;
                tr.span("passes.poly_instance", || family.instance(RNN.0))
                    .map_err(|e| format!("rnn instance: {e}"))?
            } else {
                Arc::new(harness::compile_verified(tr, &p.program)?)
            };
            compiled.push(c);
        }
        let mut sys = System {
            exec,
            compiled,
            grows_after_setup: 0,
        };
        for _ in 0..16 {
            let before = sys.exec.arena_stats().grows;
            tr.span("exec.warmup_round", || self.run_round(&sys))?;
            if sys.exec.arena_stats().grows == before {
                break;
            }
        }
        sys.grows_after_setup = sys.exec.arena_stats().grows;
        Ok(sys)
    }

    fn segment(&mut self, sys: &mut System, until: Instant, tr: &mut Tracer, seg: &mut Segment) {
        loop {
            tr.op += 1;
            seg.attempted += 1;
            let (mut round_s, mut first_s, mut ok) = (0.0, None, true);
            for (p, compiled) in self.progs.iter().zip(&sys.compiled) {
                for _ in 0..p.weight {
                    let t = Instant::now();
                    let out = tr.span(p.span, || sys.exec.run(compiled, &p.inputs));
                    let run_s = t.elapsed().as_secs_f64();
                    round_s += run_s;
                    first_s.get_or_insert(run_s);
                    ok &= out.is_ok_and(|o| harness::outputs_bits_eq(&o, &p.expected));
                    if tr.recording && p.span == "exec.run.stacked_rnn" {
                        let t = Instant::now();
                        tr.span("kernel.floor.stacked_rnn", || self.floor.run());
                        self.floor_pairs.push((t.elapsed().as_secs_f64(), run_s));
                    }
                }
            }
            seg.busy_s += round_s;
            if ok {
                seg.latency_s.push(round_s);
                seg.first_s.extend(first_s);
            } else {
                seg.failed += 1;
            }
            if Instant::now() >= until {
                break;
            }
        }
    }

    fn retire(&mut self, sys: System) {
        let arena = sys.exec.arena_stats();
        self.arena_grows_after_warmup += arena.grows - sys.grows_after_setup;
        self.leaf_clones += arena.leaf_clones;
    }

    fn layers(&mut self, layers: &mut Layers) {
        layers.set(
            "exec.arena_grows_after_warmup",
            self.arena_grows_after_warmup as f64,
        );
        layers.set("exec.leaf_clones", self.leaf_clones as f64);
        let mut shares: Vec<f64> = self.floor_pairs.iter().map(|(f, r)| 1.0 - f / r).collect();
        layers.set(
            "exec.overhead_share.stacked_rnn",
            harness::quantile(&mut shares, 0.5),
        );
    }
}

/// The stacked RNN's kernel floor: the same `ft_tensor::slices` kernel
/// the fused cell runs (`[1,h] @ [h,h]` with an `Add` epilogue), at the
/// same shapes, called once per point of the (n, d, l) nest in wavefront
/// dependence order, with no executor around it.
struct Floor {
    xss: Vec<f32>,
    ws: Vec<f32>,
    ys: Vec<f32>,
    x: Vec<f32>,
    s: Vec<f32>,
}

impl Floor {
    fn new(xss: &Tensor, ws: &Tensor) -> Self {
        let (n, d, l, h) = RNN;
        Floor {
            xss: xss.to_vec(),
            ws: ws.to_vec(),
            ys: vec![0.0; n * d * l * h],
            x: vec![0.0; h],
            s: vec![0.0; h],
        }
    }

    fn run(&mut self) {
        let (n, d, l, h) = RNN;
        let at = |i: usize, j: usize, t: usize| ((i * d + j) * l + t) * h;
        for i in 0..n {
            for j in 0..d {
                for t in 0..l {
                    let x = if j == 0 {
                        &self.xss[(i * l + t) * h..][..h]
                    } else {
                        &self.ys[at(i, j - 1, t)..][..h]
                    };
                    self.x.copy_from_slice(x);
                    if t == 0 {
                        self.s.fill(0.0);
                    } else {
                        let prev = at(i, j, t - 1);
                        self.s.copy_from_slice(&self.ys[prev..prev + h]);
                    }
                    let out = at(i, j, t);
                    slices::matmul_epi(
                        &self.x,
                        &self.ws[j * h * h..(j + 1) * h * h],
                        1,
                        h,
                        h,
                        &mut self.ys[out..out + h],
                        &[EpiOp::Add],
                        &[&self.s],
                    );
                }
            }
        }
        std::hint::black_box(&self.ys);
    }
}
