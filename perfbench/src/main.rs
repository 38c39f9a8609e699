//! End-to-end and per-layer benchmark of the FractalTensor stack, driven
//! through the public APIs of ft-passes/ft-verify, ft-backend, ft-serve
//! and its session layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload exec_nest --seed 1 --seconds 15 --trace 0
//! ```
//!
//! Workloads: `exec_nest`, `serve_ragged`, `decode_sessions` (see each
//! module). The last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. A traced run
//! also writes its spans and per-layer table under `.bench_trace/`.

mod decode_sessions;
mod exec_nest;
mod harness;
mod serve_ragged;
mod trace;

use harness::Args;

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let report = match args.workload.as_str() {
        "exec_nest" => harness::run(&args, "exec_nest", exec_nest::ExecNest::new(args.seed)),
        "serve_ragged" => harness::run(
            &args,
            "serve_ragged",
            serve_ragged::ServeRagged::new(args.seed),
        ),
        "decode_sessions" => harness::run(
            &args,
            "decode_sessions",
            decode_sessions::DecodeSessions::new(args.seed),
        ),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            std::process::exit(2);
        }
    };
    match report {
        Ok(r) => println!("{}", r.json()),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
