//! Session-throughput benchmark harness:
//! `cargo run --release --bin sessions`.
//!
//! Writes `BENCH_sessions.json` (schema `dls-bench-sessions-v3`) in the
//! current directory and prints the headline amortized-vs-per-receiver
//! verification speedups.
//! Flags:
//!
//! * `--quick` — the seconds-scale subset used by the schema test
//! * `--out <path>` — write the JSON somewhere else

use dls_bench::sessions::{crypto_speedup, render_json, run_sweep, SessionsConfig};

fn main() {
    let mut cfg = SessionsConfig::full();
    let mut out = String::from("BENCH_sessions.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => cfg = SessionsConfig::quick(),
            "--out" => {
                out = args.next().unwrap_or_else(|| {
                    eprintln!("--out requires a path");
                    std::process::exit(2);
                })
            }
            other => {
                eprintln!("unknown flag {other}; supported: --quick, --out <path>");
                std::process::exit(2);
            }
        }
    }

    let entries = match run_sweep(&cfg) {
        Ok(entries) => entries,
        Err(e) => {
            eprintln!("sweep failed: {e}");
            std::process::exit(1);
        }
    };
    let json = render_json(&cfg, &entries);
    if let Err(e) = std::fs::write(&out, &json) {
        eprintln!("cannot write {out}: {e}");
        std::process::exit(1);
    }
    println!("wrote {} entries to {out}", entries.len());

    // Headline numbers at the largest batch, per m: amortized vs
    // per-receiver verification.
    if let Some(&batch) = cfg.batch_sizes.iter().max() {
        for &m in &cfg.m_sizes {
            if let Some(s) = crypto_speedup(&entries, m, batch) {
                println!(
                    "m={m:4} batch={batch:5}: amortized verification runs {s:.1}x more sessions/sec than the per-receiver baseline"
                );
            }
        }
    }
}
