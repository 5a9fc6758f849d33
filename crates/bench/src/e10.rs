//! E10 — attack-path scaling: per-user sharded extraction, spatial-indexed
//! matching, and the single-attack publish path.
//!
//! This experiment is the measured counterpart of the attack-layer
//! restructuring in `privapi::attack`:
//!
//! * `extract` inside a one-thread rayon pool (the sequential reference
//!   path, reported as `extract_serial_ms`) vs `extract` (the rayon
//!   per-user fan-out) — parity is asserted before timing, so the speedup
//!   is never bought with drift;
//! * `match_extracted_scan` (pairwise O(R·E)) vs `match_extracted` (probing
//!   a pre-built `ReferenceIndex`, the shape the evaluation engine uses
//!   across all candidates) — reports asserted bit-identical;
//! * `PrivApi::publish` end to end, with the extraction counter asserting
//!   the single-original-extraction invariant (`pool size + 1` full
//!   extractions per publish).
//!
//! The `bench_summary` binary drives [`run`] and emits the numbers as
//! `BENCH_e10.json`, so every CI run leaves a machine-readable data point
//! of the attack-path perf trajectory.

use crate::Scale;
use privapi::prelude::*;
use std::fmt;
use std::time::Instant;

/// Workload shape for one E10 run.
#[derive(Debug, Clone)]
pub struct E10Config {
    /// Label recorded in the report (`smoke`, `small`, `medium`, `full`).
    pub label: String,
    /// Synthetic population size.
    pub users: usize,
    /// Days of data per user.
    pub days: usize,
    /// Sampling interval, seconds.
    pub interval_s: i64,
    /// Timing repetitions (best-of); 1 in smoke mode.
    pub reps: usize,
}

impl E10Config {
    /// Tiny CI smoke shape: seconds end to end, still exercising every
    /// asserted invariant.
    pub fn smoke() -> Self {
        Self {
            label: "smoke".into(),
            users: 6,
            days: 2,
            interval_s: 300,
            reps: 1,
        }
    }

    /// The canonical population for `scale`. `Large` is bounded below the
    /// streaming population: this experiment re-runs full-dataset
    /// extractions `reps` times, so the O(active-users) claim itself is
    /// measured by E11 at the full `Scale::Large` population instead.
    pub fn from_scale(scale: Scale) -> Self {
        let (users, days, interval_s) = crate::data::by_scale(
            scale,
            scale.population(),
            scale.population(),
            scale.population(),
            (1_000, 8, 1_200),
        );
        Self {
            label: format!("{scale:?}").to_lowercase(),
            users,
            days,
            interval_s,
            reps: 3,
        }
    }
}

/// Measured attack-path numbers plus the invariants they were taken under.
#[derive(Debug, Clone)]
pub struct E10Report {
    /// Workload label.
    pub label: String,
    /// Worker threads available to the parallel extract.
    pub threads: usize,
    /// Population size.
    pub users: usize,
    /// Records in the generated dataset.
    pub records: usize,
    /// Sequential whole-dataset extraction, milliseconds (best of reps).
    pub extract_serial_ms: f64,
    /// Parallel per-user-shard extraction, milliseconds (best of reps).
    pub extract_parallel_ms: f64,
    /// Pairwise scan matching of one candidate, milliseconds.
    pub match_scan_ms: f64,
    /// Indexed matching against a pre-built `ReferenceIndex`, milliseconds.
    pub match_indexed_ms: f64,
    /// One `PrivApi::publish` end to end, milliseconds.
    pub publish_ms: f64,
    /// Candidates in the publish pool.
    pub pool_size: usize,
    /// Full-dataset extractions one publish performed (must be pool + 1).
    pub extractions_per_publish: usize,
}

impl E10Report {
    /// Parallel-extract speedup over the serial reference.
    pub fn extract_speedup(&self) -> f64 {
        self.extract_serial_ms / self.extract_parallel_ms.max(1e-9)
    }

    /// Indexed-matching speedup over the pairwise scan.
    pub fn match_speedup(&self) -> f64 {
        self.match_scan_ms / self.match_indexed_ms.max(1e-9)
    }

    /// Renders the report as a JSON object (hand-rolled: the workspace has
    /// no JSON serializer dependency).
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"experiment\": \"e10_attack_pipeline\",\n{}  \"scale\": \"{}\",\n  \
             \"threads\": {},\n  \"users\": {},\n  \"records\": {},\n  \
             \"extract_serial_ms\": {:.3},\n  \"extract_parallel_ms\": {:.3},\n  \
             \"extract_speedup\": {:.3},\n  \"match_scan_ms\": {:.4},\n  \
             \"match_indexed_ms\": {:.4},\n  \"match_speedup\": {:.3},\n  \
             \"publish_ms\": {:.3},\n  \"pool_size\": {},\n  \
             \"extractions_per_publish\": {}\n}}\n",
            crate::host_json(),
            self.label,
            self.threads,
            self.users,
            self.records,
            self.extract_serial_ms,
            self.extract_parallel_ms,
            self.extract_speedup(),
            self.match_scan_ms,
            self.match_indexed_ms,
            self.match_speedup(),
            self.publish_ms,
            self.pool_size,
            self.extractions_per_publish,
        )
    }
}

impl fmt::Display for E10Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "E10 attack pipeline ({}, {} users, {} records, {} threads)",
            self.label, self.users, self.records, self.threads
        )?;
        let widths = [28, 12, 12, 9];
        writeln!(
            f,
            "{}",
            crate::row(
                &[
                    "path".into(),
                    "baseline ms".into(),
                    "new ms".into(),
                    "speedup".into()
                ],
                &widths
            )
        )?;
        writeln!(
            f,
            "{}",
            crate::row(
                &[
                    "extract (serial → shards)".into(),
                    format!("{:.3}", self.extract_serial_ms),
                    format!("{:.3}", self.extract_parallel_ms),
                    format!("{:.2}x", self.extract_speedup()),
                ],
                &widths
            )
        )?;
        writeln!(
            f,
            "{}",
            crate::row(
                &[
                    "match (scan → indexed)".into(),
                    format!("{:.4}", self.match_scan_ms),
                    format!("{:.4}", self.match_indexed_ms),
                    format!("{:.2}x", self.match_speedup()),
                ],
                &widths
            )
        )?;
        write!(
            f,
            "publish: {:.3} ms end-to-end, {} extractions for a {}-candidate pool",
            self.publish_ms, self.extractions_per_publish, self.pool_size
        )
    }
}

/// Best-of-`reps` wall time of `f`, in milliseconds.
fn time_best_ms<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// Best-of-`reps` per-call time of a sub-millisecond `f`, amortized over
/// enough inner iterations for the clock to resolve it.
fn time_best_amortized_ms<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    // Calibrate the inner loop to ~2 ms of work.
    let start = Instant::now();
    f();
    let once_s = start.elapsed().as_secs_f64().max(1e-9);
    let iters = ((2e-3 / once_s).ceil() as usize).clamp(1, 20_000);
    time_best_ms(reps, || {
        for _ in 0..iters {
            f();
        }
    }) / iters as f64
}

/// Runs E10: measures the attack hot paths and asserts every parity and
/// accounting invariant the restructuring claims.
pub fn run(config: &E10Config) -> E10Report {
    let data = crate::data::dataset(config.users, config.days, config.interval_s, 0xE10);
    let attack = PoiAttack::default();

    // Parity before timing: the fan-out must be byte-identical to the
    // sequential reference path, the same extraction in a one-thread pool.
    let one_thread = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("one-thread pool");
    let serial = one_thread.install(|| attack.extract(&data.dataset));
    let reference = attack.extract(&data.dataset);
    assert_eq!(serial, reference, "parallel extract drifted from serial");

    let extract_serial_ms = time_best_ms(config.reps, || {
        std::hint::black_box(one_thread.install(|| attack.extract(&data.dataset)));
    });
    let extract_parallel_ms = time_best_ms(config.reps, || {
        std::hint::black_box(attack.extract(&data.dataset));
    });

    // Matching: one protected candidate against the original's reference,
    // scan vs pre-built index (the engine amortizes the build across the
    // whole pool, so the build is outside the indexed timing).
    let protected = GaussianPerturbation::new(geo::Meters::new(120.0))
        .expect("valid sigma")
        .anonymize(&data.dataset, 0xE10);
    let extracted = attack.extract(&protected);
    let index = attack.index_reference(&reference);
    assert_eq!(
        attack.match_extracted(&extracted, &index),
        attack.match_extracted_scan(&extracted, &reference),
        "indexed matcher drifted from scan matcher"
    );
    let match_scan_ms = time_best_amortized_ms(config.reps, || {
        std::hint::black_box(attack.match_extracted_scan(&extracted, &reference));
    });
    let match_indexed_ms = time_best_amortized_ms(config.reps, || {
        std::hint::black_box(attack.match_extracted(&extracted, &index));
    });

    // End-to-end publish, with the single-original-extraction invariant.
    let privapi = PrivApi::default();
    let before = privapi.attack().extractions();
    let start = Instant::now();
    let published = privapi.publish(&data.dataset).expect("publish succeeds");
    let publish_ms = start.elapsed().as_secs_f64() * 1e3;
    std::hint::black_box(&published);
    let extractions_per_publish = privapi.attack().extractions() - before;
    assert_eq!(
        extractions_per_publish,
        privapi.pool().len() + 1,
        "publish must extract the original exactly once"
    );

    E10Report {
        label: config.label.clone(),
        threads: std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1),
        users: config.users,
        records: data.dataset.record_count(),
        extract_serial_ms,
        extract_parallel_ms,
        match_scan_ms,
        match_indexed_ms,
        publish_ms,
        pool_size: privapi.pool().len(),
        extractions_per_publish,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_upholds_invariants_and_renders() {
        let report = run(&E10Config::smoke());
        assert_eq!(report.extractions_per_publish, report.pool_size + 1);
        assert!(report.extract_serial_ms > 0.0);
        assert!(report.match_scan_ms > 0.0);
        let json = report.to_json();
        for key in [
            "\"experiment\": \"e10_attack_pipeline\"",
            "\"extract_serial_ms\"",
            "\"match_indexed_ms\"",
            "\"extractions_per_publish\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        let text = report.to_string();
        assert!(text.contains("extract (serial"));
        assert!(text.contains("publish:"));
    }

    #[test]
    fn config_constructors_cover_scales() {
        assert_eq!(E10Config::smoke().users, 6);
        let medium = E10Config::from_scale(Scale::Medium);
        assert_eq!(medium.label, "medium");
        assert_eq!(medium.users, 80);
    }
}
