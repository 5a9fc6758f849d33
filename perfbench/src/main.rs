//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload in this process, checks its outputs, prints a short
//! summary (release digest, sample counts, host contention and, when
//! traced, the per-layer table) and, as the last line, one JSON object:
//! `{"correct": true, "attempted": …, "failed": …, "metrics": {…}}`.
//! A failed correctness gate exits with code 1 before any number is
//! printed; a bad argument exits with code 2.

use perfbench::measure::{measure, Size, Workload};
use std::path::PathBuf;
use std::process::exit;

fn usage(problem: &str) -> ! {
    eprintln!("{problem}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        Workload::ALL.map(|w| w.name()).join("|")
    );
    exit(2);
}

fn main() {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value)
                        .unwrap_or_else(|| usage(&format!("unknown workload {value:?}"))),
                );
            }
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s >= 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            other => usage(&format!("unknown flag {other:?}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) =
        (workload, seed, seconds, trace)
    else {
        usage("--workload, --seed, --seconds and --trace are all required");
    };

    let pinned = perfbench::host::pin_to_current_cpu();
    let report = match measure(workload, Size::Bench, seed, seconds, trace) {
        Ok(report) => report,
        Err(gate) => {
            eprintln!(
                "correctness gate failed on {} seed {seed}: {gate}",
                workload.name()
            );
            exit(1);
        }
    };
    print!("{}", report.summary(trace));
    println!(
        "threads: pinned to cpu {}, {} available",
        pinned.map_or("none".into(), |c| c.to_string()),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    if trace {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("{}-seed{seed}.jsonl", workload.name()));
        match std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, report.to_jsonl()))
        {
            Ok(()) => println!("trace: {} (read with obs_report)", path.display()),
            Err(e) => eprintln!("cannot write {}: {e}", path.display()),
        }
    }
    println!("{}", report.result_json(trace));
}
