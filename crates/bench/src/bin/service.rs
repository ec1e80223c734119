//! Service tail-latency benchmark harness:
//! `cargo run --release --bin service`.
//!
//! Writes `BENCH_service.json` (schema `dls-bench-service-v3`) in the
//! current directory and prints the headline work-stealing-vs-static p99
//! improvement and the kill-churn recovery numbers (p99 inflation under periodic worker
//! kills, worst death→respawn latency, tickets lost — always zero).
//! Flags:
//!
//! * `--quick` — the seconds-scale subset used by the schema test
//! * `--out <path>` — write the JSON somewhere else

use dls_bench::service::{
    churn_p99_ratio, p99_improvement, render_json, run_sweep, worst_recovery_ns, ServiceBenchConfig,
};

fn main() {
    let mut cfg = ServiceBenchConfig::full();
    let mut out = String::from("BENCH_service.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => cfg = ServiceBenchConfig::quick(),
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

    if let Some(r) = p99_improvement(&entries) {
        println!(
            "skewed paced mix: work stealing cuts p99 session latency {r:.1}x vs static sharding"
        );
    }
    if let Some(r) = churn_p99_ratio(&entries) {
        let lost: u64 = entries.iter().map(|e| e.lost).sum();
        println!(
            "kill-churn: p99 is {r:.2}x the fault-free cell under periodic worker kills \
             ({lost} tickets lost)"
        );
    }
    if let Some(ns) = worst_recovery_ns(&entries) {
        println!(
            "kill-churn: worst worker death->respawn recovery latency {:.1} ms",
            ns as f64 / 1e6
        );
    }
}
