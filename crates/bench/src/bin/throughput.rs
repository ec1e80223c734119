//! Auction-throughput benchmark harness:
//! `cargo run --release --bin throughput`.
//!
//! Writes `BENCH_throughput.json` (schema `dls-bench-throughput-v2`) in the
//! current directory and prints the headline incremental-vs-full-recompute
//! speedups. Flags:
//!
//! * `--quick` — the seconds-scale subset used by the schema test
//! * `--out <path>` — write the JSON somewhere else

use dls_bench::throughput::{render_json, run_sweep, update_speedup, ThroughputConfig};

fn main() {
    let mut cfg = ThroughputConfig::full();
    let mut out = String::from("BENCH_throughput.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => cfg = ThroughputConfig::quick(),
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

    // Headline numbers: incremental bid-update speedup at the largest
    // measured market size, per model.
    if let Some(&m) = cfg.update_sizes.iter().max() {
        for model in ["cp", "ncp-fe", "ncp-nfe"] {
            if let Some(s) = update_speedup(&entries, model, m) {
                println!(
                    "{model:8} m={m:5} incremental bid updates are {s:.1}x faster than full recompute"
                );
            }
        }
    }
}
