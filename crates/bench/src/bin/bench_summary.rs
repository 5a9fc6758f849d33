//! Attack-path, streaming-publication, multi-campaign, reliable-ingestion,
//! script-tier, federated-release and observability perf summary: runs
//! E10–E16 and emits `BENCH_e10.json` + `BENCH_e11.json` +
//! `BENCH_e12.json` + `BENCH_e13.json` + `BENCH_e14.json` +
//! `BENCH_e15.json` + `BENCH_e16.json`.
//!
//! ```bash
//! cargo run -p bench --bin bench_summary --release -- --scale smoke
//! cargo run -p bench --bin bench_summary --release -- --scale medium \
//!     --out BENCH_e10.json --out-e11 BENCH_e11.json --out-e12 BENCH_e12.json \
//!     --out-e13 BENCH_e13.json --out-e14 BENCH_e14.json --out-e15 BENCH_e15.json \
//!     --out-e16 BENCH_e16.json
//! # the 10k-user sparse-participation streaming stress shape
//! cargo run -p bench --bin bench_summary --release -- --scale large
//! # participation sensitivity sweep (overrides E11's daily percentage)
//! cargo run -p bench --bin bench_summary --release -- --scale large --participation 10
//! # record the obs trace across every experiment and export it for
//! # obs_report (spans, counters, histograms, events as JSON lines)
//! cargo run -p bench --bin bench_summary --release -- --scale smoke --trace trace.jsonl
//! ```
//!
//! CI runs the smoke shape on every PR and uploads the JSON files as
//! artifacts, so the perf trajectories of the attack pipeline (serial vs
//! sharded extraction, scan vs indexed matching, publish end to end), of
//! streaming publication (batch re-publish vs incremental day windows)
//! of multi-campaign orchestration (N independent sessions vs one
//! shared-population orchestrator), of reliable device→Hive ingestion
//! under injected faults (delivery-latency percentiles, retry/dup/drop
//! counters, byte-identical chaos windows), of script execution
//! (tree-walking interpreter vs bytecode VM) and of federated release
//! (device-local anonymization with central byte-parity, raw-exposure
//! reduction, config-broadcast overhead) accumulate data points
//! instead of
//! anecdotes. Every run also asserts the pipelines' invariants —
//! extraction parity, matcher parity, the
//! single-original-extraction-per-publish budget, streaming winner
//! parity, per-campaign orchestration parity, chaos byte-identity with
//! quarantine conservation, interpreter/VM record parity, and federated
//! parity with exact stale/poisoned quarantine accounting — and fails
//! loudly if any regresses. Unknown `--scale` values (and unknown flags) are
//! rejected, never silently defaulted.

use bench::e10::{self, E10Config};
use bench::e11::{self, E11Config};
use bench::e12::{self, E12Config};
use bench::e13::{self, E13Config};
use bench::e14::{self, E14Config};
use bench::e15::{self, E15Config};
use bench::e16::{self, E16Config};
use bench::Scale;

/// Counts heap allocations per thread, so E14 can report the script
/// tiers' allocations per execution.
#[global_allocator]
static ALLOC: obs::alloc::CountingAlloc = obs::alloc::CountingAlloc;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Every argument must be a known flag or the value right after one —
    // a stray positional (`bench_summary medium`, missing the `--scale`)
    // must not silently run the default scale.
    let mut expects_value = false;
    for arg in &args {
        if std::mem::take(&mut expects_value) {
            continue;
        }
        match arg.as_str() {
            "--scale" | "--participation" | "--out" | "--out-e11" | "--out-e12"
            | "--out-e13" | "--out-e14" | "--out-e15" | "--out-e16" | "--trace" => {
                expects_value = true
            }
            other => {
                eprintln!(
                    "unexpected argument {other:?}; use --scale, --participation, --out, \
                     --out-e11, --out-e12, --out-e13, --out-e14, --out-e15, --out-e16, --trace"
                );
                std::process::exit(2);
            }
        }
    }
    let value_of = |flag: &str| {
        let position = args.iter().position(|a| a == flag)?;
        match args.get(position + 1) {
            // A trailing flag or a flag followed by another flag has no
            // value — erroring beats silently running the default scale.
            Some(value) if !value.starts_with("--") => Some(value.clone()),
            _ => {
                eprintln!("{flag} requires a value");
                std::process::exit(2);
            }
        }
    };
    let scale = value_of("--scale").unwrap_or_else(|| "smoke".into());
    let out_e10 = value_of("--out").unwrap_or_else(|| "BENCH_e10.json".into());
    let out_e11 = value_of("--out-e11").unwrap_or_else(|| "BENCH_e11.json".into());
    let out_e12 = value_of("--out-e12").unwrap_or_else(|| "BENCH_e12.json".into());
    let out_e13 = value_of("--out-e13").unwrap_or_else(|| "BENCH_e13.json".into());
    let out_e14 = value_of("--out-e14").unwrap_or_else(|| "BENCH_e14.json".into());
    let out_e15 = value_of("--out-e15").unwrap_or_else(|| "BENCH_e15.json".into());
    let out_e16 = value_of("--out-e16").unwrap_or_else(|| "BENCH_e16.json".into());
    let trace_path = value_of("--trace");
    #[allow(clippy::type_complexity)]
    let (
        e10_config,
        mut e11_config,
        e12_config,
        e13_config,
        e14_config,
        e15_config,
        e16_config,
    ) = match scale.as_str() {
        "smoke" => (
            E10Config::smoke(),
            E11Config::smoke(),
            E12Config::smoke(),
            E13Config::smoke(),
            E14Config::smoke(),
            E15Config::smoke(),
            E16Config::smoke(),
        ),
        other => match Scale::parse(other) {
            Ok(scale) => (
                E10Config::from_scale(scale),
                E11Config::from_scale(scale),
                E12Config::from_scale(scale),
                E13Config::from_scale(scale),
                E14Config::from_scale(scale),
                E15Config::from_scale(scale),
                E16Config::from_scale(scale),
            ),
            Err(_) => {
                eprintln!("unknown --scale {other:?}; use smoke|small|medium|full|large");
                std::process::exit(2);
            }
        },
    };
    if let Some(pct) = value_of("--participation") {
        // Overrides E11's daily participation (percent of users reporting
        // on any day after the first) for sensitivity sweeps at any scale.
        match pct.parse::<u64>() {
            Ok(pct @ 1..=100) => e11_config.participation_pct = pct,
            _ => {
                eprintln!("--participation must be an integer in 1..=100, got {pct:?}");
                std::process::exit(2);
            }
        }
    }

    if trace_path.is_some() {
        // Record the whole summary run: every experiment's spans, counters,
        // histograms and events accumulate into one exported trace. E16
        // briefly toggles recording for its off-leg and restores it.
        obs::enable();
    }

    let write = |path: &str, json: String| {
        std::fs::write(path, json).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        });
        eprintln!("wrote {path}");
    };

    eprintln!(
        "e10 attack-path summary: scale={}, {} users x {} days @ {} s",
        e10_config.label, e10_config.users, e10_config.days, e10_config.interval_s
    );
    let e10_report = e10::run(&e10_config);
    println!("{e10_report}");
    write(&out_e10, e10_report.to_json());

    eprintln!(
        "e11 streaming summary: scale={}, {} users x {} days @ {} s, {} % participation",
        e11_config.label,
        e11_config.users,
        e11_config.days,
        e11_config.interval_s,
        e11_config.participation_pct
    );
    let e11_report = e11::run(&e11_config);
    println!("{e11_report}");
    write(&out_e11, e11_report.to_json());

    eprintln!(
        "e12 multi-campaign summary: scale={}, {} users x {} days, {} same-config campaigns",
        e12_config.label, e12_config.users, e12_config.days, e12_config.same_config_campaigns
    );
    let e12_report = e12::run(&e12_config);
    println!("{e12_report}");
    write(&out_e12, e12_report.to_json());

    eprintln!(
        "e13 reliable-ingestion summary: scale={}, {} devices x {} days @ {} s",
        e13_config.label, e13_config.users, e13_config.days, e13_config.sampling_interval_s
    );
    let e13_report = e13::run(&e13_config);
    println!("{e13_report}");
    write(&out_e13, e13_report.to_json());

    eprintln!(
        "e14 script-tier summary: scale={}, {} devices, {} queries x {} per query",
        e14_config.label, e14_config.devices, e14_config.queries, e14_config.per_query
    );
    let e14_report = e14::run(&e14_config);
    println!("{e14_report}");
    write(&out_e14, e14_report.to_json());

    eprintln!(
        "e15 federated-release summary: scale={}, {} devices x {} days @ {} s",
        e15_config.label, e15_config.users, e15_config.days, e15_config.sampling_interval_s
    );
    let e15_report = e15::run(&e15_config);
    println!("{e15_report}");
    write(&out_e15, e15_report.to_json());

    eprintln!(
        "e16 observability summary: scale={}, {} users x {} days @ {} s",
        e16_config.label, e16_config.users, e16_config.days, e16_config.interval_s
    );
    let e16_report = e16::run(&e16_config);
    println!("{e16_report}");
    write(&out_e16, e16_report.to_json());

    if let Some(path) = trace_path {
        obs::disable();
        obs::export::write_jsonl(&path).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        });
        eprintln!("wrote {path}");
    }
}
