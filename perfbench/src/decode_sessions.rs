//! `decode_sessions`: 16 stateful sessions on one `Runtime` (default
//! config, pool width 1), one decode step in flight per session. Half are RNN-carry
//! sessions (d=2 h=16), half attention KV-append sessions (h=16,
//! cap=64). Each session closes after a seeded lifetime <= cap and a new
//! one opens in its place, so opens and closes run beside decode steps.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ft_backend::Executor;
use ft_core::builders::rnn_decode_step_program;
use ft_core::{BufferId, FractalTensor, Program};
use ft_obs::CompletionRecord;
use ft_pool::WorkerPool;
use ft_serve::{Runtime, ServeStats, SessionSpec, StateBinding, StateOp, Ticket};
use ft_tensor::Tensor;
use ft_workloads::decode::{self, buffers as attn};

use crate::harness::{self, Layers, Rng, Segment, Workload};
use crate::serve_ragged::{new_runtime, ServeCounters, RUNTIME_THREADS};
use crate::trace::Tracer;

const SESSIONS: usize = 16;
const RNN_DH: (usize, usize) = (2, 16);
const ATTN_H: usize = 16;
const CAP: usize = 64;
const MIN_LIFE: usize = 8;
/// Pre-generated token sequences per session kind, handed out in turn.
const SEQS: usize = 16;
/// Attention steps whose output is checked against the eager reference.
const ATTN_CHECK_EVERY: usize = 4;
const RNN_STATE: BufferId = BufferId(2);
const RNN_NEXT: BufferId = BufferId(3);

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Rnn,
    Attn,
}

struct Slot {
    kind: Kind,
    sid: u64,
    seq: usize,
    life: usize,
    step: usize,
    opened: Option<Instant>,
}

pub struct System {
    rt: Runtime,
    after_setup: ServeStats,
    slots: Vec<Option<Slot>>,
    pinned_peak: i64,
}

pub struct DecodeSessions {
    rng: Rng,
    rnn: Arc<Program>,
    attn: Arc<Program>,
    rnn_ws: FractalTensor,
    attn_ws: (FractalTensor, FractalTensor, FractalTensor),
    /// `[kind][seq][t]` token leaves.
    tokens: [Vec<Vec<FractalTensor>>; 2],
    /// `[seq][t]` hidden stack after step t (solo `Executor::run` carry).
    rnn_expected: Vec<Vec<FractalTensor>>,
    /// `[seq][t]` eager full-softmax output of step t (sampled steps).
    attn_expected: Vec<Vec<Option<Tensor>>>,
    next_seq: [usize; 2],
    records: Vec<CompletionRecord>,
    counters: ServeCounters,
    pinned_peak: i64,
}

impl DecodeSessions {
    pub fn new(seed: u64) -> Self {
        let mut rng = Rng::new(seed);
        let (d, h) = RNN_DH;
        let rnn_ws = FractalTensor::from_flat(
            &Tensor::randn(&[d, h, h], rng.next_u64()).mul_scalar(0.2),
            1,
        )
        .expect("rnn ws");
        let attn_ws = decode::attention_weights(ATTN_H, rng.next_u64());
        let mut seqs = |h: usize| -> Vec<Vec<FractalTensor>> {
            (0..SEQS)
                .map(|_| {
                    (0..CAP)
                        .map(|_| {
                            FractalTensor::from_tensors(vec![Tensor::randn(
                                &[1, h],
                                rng.next_u64(),
                            )])
                            .expect("token")
                        })
                        .collect()
                })
                .collect()
        };
        let tokens = [seqs(h), seqs(ATTN_H)];
        DecodeSessions {
            rng,
            rnn: Arc::new(rnn_decode_step_program(d, h)),
            attn: Arc::new(decode::attention_decode_step_program(ATTN_H, CAP)),
            rnn_ws,
            attn_ws,
            tokens,
            rnn_expected: Vec::new(),
            attn_expected: Vec::new(),
            next_seq: [0, 0],
            records: Vec::new(),
            counters: ServeCounters::default(),
            pinned_peak: 0,
        }
    }

    fn spec(&self, kind: Kind) -> SessionSpec {
        match kind {
            Kind::Rnn => SessionSpec {
                program: Arc::clone(&self.rnn),
                bindings: vec![StateBinding {
                    state: RNN_STATE,
                    op: StateOp::Carry { output: RNN_NEXT },
                }],
                capacity: 0,
                init: decode::rnn_state_init(RNN_DH.0, RNN_DH.1),
            },
            Kind::Attn => SessionSpec {
                program: Arc::clone(&self.attn),
                bindings: vec![
                    StateBinding {
                        state: attn::KC,
                        op: StateOp::Append {
                            output: attn::K_STEP,
                        },
                    },
                    StateBinding {
                        state: attn::VC,
                        op: StateOp::Append {
                            output: attn::V_STEP,
                        },
                    },
                    StateBinding {
                        state: attn::MASK,
                        op: StateOp::AppendFill { value: 0.0 },
                    },
                ],
                capacity: CAP,
                init: decode::attention_state_init(ATTN_H, CAP),
            },
        }
    }

    fn step_inputs(&self, kind: Kind, seq: usize, t: usize) -> HashMap<BufferId, FractalTensor> {
        match kind {
            Kind::Rnn => HashMap::from([
                (BufferId(0), self.tokens[0][seq][t].clone()),
                (BufferId(1), self.rnn_ws.clone()),
            ]),
            Kind::Attn => HashMap::from([
                (attn::X, self.tokens[1][seq][t].clone()),
                (attn::WQ, self.attn_ws.0.clone()),
                (attn::WK, self.attn_ws.1.clone()),
                (attn::WV, self.attn_ws.2.clone()),
            ]),
        }
    }

    /// Opens a session of `kind` with a fresh token sequence and a seeded lifetime.
    fn open(&mut self, rt: &Runtime, kind: Kind, tr: &mut Tracer) -> Result<Slot, String> {
        let spec = self.spec(kind);
        let opened = Instant::now();
        let sid = tr
            .span("session.open", || rt.open_session(spec))
            .map_err(|e| format!("open_session: {e}"))?;
        let k = kind as usize;
        let seq = self.next_seq[k] % SEQS;
        self.next_seq[k] += 1;
        Ok(Slot {
            kind,
            sid,
            seq,
            life: self.rng.range(MIN_LIFE, CAP),
            step: 0,
            opened: Some(opened),
        })
    }

    fn submit(&self, rt: &Runtime, slot: &Slot, tr: &mut Tracer) -> Result<Ticket, String> {
        let inputs = self.step_inputs(slot.kind, slot.seq, slot.step);
        tr.span("session.decode_step", || rt.decode_step(slot.sid, inputs))
            .map_err(|e| format!("decode_step: {e}"))
    }

    /// True when a step's outputs match the oracle.
    fn check(&self, slot: &Slot, out: &HashMap<BufferId, FractalTensor>) -> bool {
        match slot.kind {
            Kind::Rnn => out.get(&RNN_NEXT).is_some_and(|g| {
                harness::fractal_bits_eq(g, &self.rnn_expected[slot.seq][slot.step])
            }),
            Kind::Attn => match &self.attn_expected[slot.seq][slot.step] {
                None => out.contains_key(&attn::OUT),
                Some(want) => out
                    .get(&attn::OUT)
                    .and_then(|g| g.leaf_at(&[0]).ok())
                    .is_some_and(|g| harness::tensor_close(&g.to_contiguous(), want, 1e-4)),
            },
        }
    }
}

/// Counts an op that failed before it produced an output.
fn fail(seg: &mut Segment, e: String) {
    eprintln!("decode_sessions: {e}");
    seg.attempted += 1;
    seg.failed += 1;
}

fn kind_of(i: usize) -> Kind {
    if i.is_multiple_of(2) {
        Kind::Rnn
    } else {
        Kind::Attn
    }
}

impl Workload for DecodeSessions {
    type System = System;
    const SEGMENT: Duration = Duration::from_millis(200);
    const BUSY_THREADS: usize = 2;

    fn pool_widths(&self) -> String {
        format!("runtime={RUNTIME_THREADS}, client=1")
    }

    fn prepare(&mut self, tr: &mut Tracer) -> Result<(), String> {
        let compiled = harness::compile_verified(tr, &self.rnn)?;
        let exec = Executor::new().pool(Arc::new(WorkerPool::new(1)));
        for seq in 0..SEQS {
            let mut hs = decode::rnn_state_init(RNN_DH.0, RNN_DH.1)[&RNN_STATE].clone();
            let mut traj = Vec::with_capacity(CAP);
            for t in 0..CAP {
                let mut inputs = self.step_inputs(Kind::Rnn, seq, t);
                inputs.insert(RNN_STATE, hs);
                let out = exec
                    .run(&compiled, &inputs)
                    .map_err(|e| format!("rnn step: {e}"))?;
                hs = out[&RNN_NEXT].clone();
                traj.push(hs.clone());
            }
            self.rnn_expected.push(traj);
        }
        let leaf = |ft: &FractalTensor| ft.leaf_at(&[0]).expect("leaf").to_contiguous();
        let (wq, wk, wv) = (
            leaf(&self.attn_ws.0),
            leaf(&self.attn_ws.1),
            leaf(&self.attn_ws.2),
        );
        for seq in 0..SEQS {
            let toks: Vec<Tensor> = self.tokens[1][seq].iter().map(leaf).collect();
            self.attn_expected.push(
                (0..CAP)
                    .map(|t| {
                        (t % ATTN_CHECK_EVERY == 0 || t < 2)
                            .then(|| decode::reference_decode_step(&toks[..=t], &wq, &wk, &wv))
                    })
                    .collect(),
            );
        }
        Ok(())
    }

    fn setup(&mut self, tr: &mut Tracer) -> Result<System, String> {
        let rt = tr
            .span("serve.runtime_new", new_runtime)
            .map_err(|e| format!("runtime: {e}"))?;
        let mut slots = Vec::with_capacity(SESSIONS);
        for i in 0..SESSIONS {
            slots.push(self.open(&rt, kind_of(i), tr)?);
        }
        // Warm-up rounds (one step per session) until one grows no arena.
        for round in 0..MIN_LIFE {
            let before = rt.stats().arena_grows;
            let mut tickets = Vec::with_capacity(SESSIONS);
            for slot in &mut slots {
                slot.step = round;
                tickets.push(self.submit(&rt, slot, tr)?);
            }
            for t in tickets {
                t.wait().map_err(|e| format!("warm-up step: {e}"))?;
            }
            if rt.stats().arena_grows == before {
                break;
            }
        }
        for slot in slots {
            rt.close_session(slot.sid)
                .map_err(|e| format!("close_session: {e}"))?;
        }
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
            slots: (0..SESSIONS).map(|_| None).collect(),
            pinned_peak: 0,
        })
    }

    fn segment(&mut self, sys: &mut System, until: Instant, tr: &mut Tracer, seg: &mut Segment) {
        let start = Instant::now();
        let mut inflight: VecDeque<(usize, Ticket, Instant)> = VecDeque::with_capacity(SESSIONS);
        for i in 0..SESSIONS {
            if sys.slots[i].is_none() {
                match self.open(&sys.rt, kind_of(i), tr) {
                    Ok(slot) => sys.slots[i] = Some(slot),
                    Err(e) => {
                        fail(seg, e);
                        continue;
                    }
                }
            }
            let slot = sys.slots[i].as_ref().expect("slot was just opened");
            tr.op += 1;
            let t = Instant::now();
            match self.submit(&sys.rt, slot, tr) {
                Ok(ticket) => inflight.push_back((i, ticket, t)),
                Err(e) => fail(seg, e),
            }
        }
        sys.pinned_peak = sys.pinned_peak.max(sys.rt.stats().pinned_bytes);
        while let Some((i, ticket, t)) = inflight.pop_front() {
            let res = tr.span("serve.wait", || ticket.wait());
            let lat = t.elapsed();
            seg.attempted += 1;
            let Some(slot) = sys.slots[i].as_mut() else {
                seg.failed += 1;
                continue;
            };
            match res {
                Ok(out) if self.check(slot, &out) => {
                    seg.latency_s.push(lat.as_secs_f64());
                    if let Some(opened) = slot.opened.take() {
                        seg.first_s
                            .push((t.duration_since(opened) + lat).as_secs_f64());
                    }
                }
                _ => seg.failed += 1,
            }
            slot.step += 1;
            if slot.step == slot.life {
                let sid = slot.sid;
                sys.slots[i] = None;
                if let Err(e) = tr.span("session.close", || sys.rt.close_session(sid)) {
                    fail(seg, format!("close_session: {e}"));
                }
                if Instant::now() >= until {
                    continue;
                }
                match self.open(&sys.rt, kind_of(i), tr) {
                    Ok(slot) => sys.slots[i] = Some(slot),
                    Err(e) => {
                        fail(seg, e);
                        continue;
                    }
                }
            } else if Instant::now() >= until {
                continue;
            }
            let slot = sys.slots[i].as_ref().expect("slot is open");
            tr.op += 1;
            let t = Instant::now();
            match self.submit(&sys.rt, slot, tr) {
                Ok(ticket) => inflight.push_back((i, ticket, t)),
                Err(e) => fail(seg, e),
            }
        }
        seg.busy_s = start.elapsed().as_secs_f64();
        let records = sys.rt.take_completions();
        if tr.recording {
            self.records.extend(records);
        }
    }

    fn retire(&mut self, sys: System) {
        self.counters.add(&sys.rt, &sys.after_setup);
        self.pinned_peak = self.pinned_peak.max(sys.pinned_peak);
    }

    fn layers(&mut self, layers: &mut Layers) {
        self.counters.set(&self.records, layers);
        layers.set(
            "session.state_copies_after_warmup",
            self.counters.state_copies as f64,
        );
        layers.set("session.pinned_bytes_peak", self.pinned_peak as f64);
    }
}
