//! E11 — streaming publication: batch re-publish vs incremental
//! day-window publish with cross-release shard and index reuse.
//!
//! This experiment is the measured counterpart of `privapi::streaming`:
//! the same dataset is released day by day twice —
//!
//! * **batch**: every day re-publishes the whole accumulated prefix from
//!   scratch through `PrivApi::publish` (the pre-streaming deployment
//!   model: one original-side extraction plus one self-attack per
//!   candidate, every day);
//! * **incremental**: a `StreamingPublisher` ingests each `DatasetWindow`,
//!   reusing yesterday's per-user shards and amended reference index, and
//!   only re-extracts users with new records.
//!
//! Winner parity is asserted per window before any number is reported, so
//! the speedup is never bought with drift. The `bench_summary` binary
//! drives [`run`] and emits the numbers as `BENCH_e11.json` next to
//! `BENCH_e10.json`.

use crate::{Retained, Scale};
use mobility::WindowedDataset;
use obs::Tally;
use privapi::prelude::*;
use privapi::streaming::BaselineDelta;
use std::fmt;
use std::time::Instant;

/// Workload shape for one E11 run.
#[derive(Debug, Clone)]
pub struct E11Config {
    /// Label recorded in the report (`smoke`, `small`, `medium`, `full`).
    pub label: String,
    /// Synthetic population size.
    pub users: usize,
    /// Days of data per user (= number of windows).
    pub days: usize,
    /// Sampling interval, seconds.
    pub interval_s: i64,
    /// Percentage of users reporting on any day after the first (the
    /// generator produces everyone-every-day data; real crowd-sensing
    /// participation is sparse, and sparse days are exactly where the
    /// session cache's shard reuse pays — 100 keeps the dense shape).
    pub participation_pct: u64,
    /// Whether the batch model re-publishes *every* prefix. `false` (the
    /// `Scale::Large` stress shape) batches only the first and last
    /// prefixes plus [`MID_STREAM_SAMPLES`] evenly spaced interior ones —
    /// re-publishing every prefix of a five-digit population would measure
    /// patience, not the deployment model — and winner parity is asserted
    /// on exactly those windows.
    pub batch_all_windows: bool,
}

/// Interior prefixes batch-replayed (and parity-checked) when
/// [`E11Config::batch_all_windows`] is off, evenly spaced between the
/// first and the last window.
pub const MID_STREAM_SAMPLES: usize = 2;

impl E11Config {
    /// Tiny CI smoke shape: seconds end to end, still exercising the
    /// parity and budget invariants (and the shard-reuse path) on every
    /// window.
    pub fn smoke() -> Self {
        Self {
            label: "smoke".into(),
            users: 6,
            days: 3,
            interval_s: 300,
            participation_pct: 50,
            batch_all_windows: true,
        }
    }

    /// The canonical population for `scale`: a realistic 40 % daily
    /// participation for the dense regression scales, 5 % for the
    /// `Scale::Large` sparse-participation stress shape.
    pub fn from_scale(scale: Scale) -> Self {
        let (users, days, interval_s) = scale.population();
        Self {
            label: format!("{scale:?}").to_lowercase(),
            users,
            days,
            interval_s,
            participation_pct: crate::data::by_scale(scale, 40, 40, 40, 5),
            batch_all_windows: crate::data::by_scale(scale, true, true, true, false),
        }
    }

    /// Whether window `i` of `windows` is batch-replayed and
    /// parity-checked.
    fn batches(&self, i: usize, windows: usize) -> bool {
        let last = windows.saturating_sub(1);
        self.batch_all_windows
            || i == 0
            || i == last
            || (1..=MID_STREAM_SAMPLES).any(|k| i == k * last / (MID_STREAM_SAMPLES + 1))
    }
}

pub use mobility::gen::thin_participation;

/// Measured streaming-vs-batch numbers plus the invariants they were
/// taken under.
#[derive(Debug, Clone)]
pub struct E11Report {
    /// Workload label.
    pub label: String,
    /// Worker threads available.
    pub threads: usize,
    /// Population size.
    pub users: usize,
    /// Records in the (participation-thinned) dataset.
    pub records: usize,
    /// Daily participation percentage the workload was thinned to.
    pub participation_pct: u64,
    /// Day windows published.
    pub windows: usize,
    /// Total wall time of publishing every prefix from scratch, ms.
    pub batch_total_ms: f64,
    /// Total wall time of the incremental window publishes, ms.
    pub incremental_total_ms: f64,
    /// Wall time of the *last* batch prefix publish, ms (the steady-state
    /// daily cost of the batch deployment model).
    pub batch_last_window_ms: f64,
    /// Wall time of the first incremental window publish, ms (the dense
    /// bootstrap: every user is active on day 0 to pin the bounding box).
    pub incremental_first_window_ms: f64,
    /// Wall time of the first *steady-participation* incremental window
    /// (window 1 — the first window published at the thinned
    /// participation rate; equals the first window when only one exists).
    pub incremental_first_steady_ms: f64,
    /// Wall time of the last incremental window publish, ms.
    pub incremental_last_window_ms: f64,
    /// Full-dataset extractions the batch replay performed.
    pub batch_extractions: usize,
    /// Full-dataset extractions the incremental replay performed.
    pub incremental_extractions: usize,
    /// Single-user extraction passes the batch replay performed.
    pub batch_user_extractions: usize,
    /// Single-user extraction passes the incremental replay performed.
    pub incremental_user_extractions: usize,
    /// Candidates in the strategy pool.
    pub pool_size: usize,
    /// Windows whose streaming release was parity-checked against a batch
    /// publish of the same prefix.
    pub parity_windows: usize,
    /// Original-side session audit ([`WindowDelta`]) summed over windows.
    pub streaming: Tally<WindowDelta>,
    /// Utility-baseline fold audit ([`BaselineDelta`]) summed over windows.
    pub baseline: Tally<BaselineDelta>,
    /// Protected-side audit summed over windows and candidates.
    pub strategy: StrategyCacheDelta,
    /// What the session's work store held after the last window.
    pub retained: Retained,
}

impl E11Report {
    /// End-to-end speedup of the incremental path over batch re-publish.
    pub fn total_speedup(&self) -> f64 {
        self.batch_total_ms / self.incremental_total_ms.max(1e-9)
    }

    /// Wall ratio of the last incremental window over the first
    /// steady-participation one — the O(active-users) acceptance number:
    /// with participation held fixed, the per-window cost must track the
    /// day's *active* users, not the accumulated prefix (≤ 1.2× at
    /// `Scale::Large`; a per-prefix cost would grow toward the window
    /// count instead).
    pub fn last_first_ratio(&self) -> f64 {
        self.incremental_last_window_ms / self.incremental_first_steady_ms.max(1e-9)
    }

    /// Renders the report as a JSON object (hand-rolled: the workspace has
    /// no JSON serializer dependency); the audit counters are nested under
    /// their instrument family.
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"experiment\": \"e11_streaming_publication\",\n{}  \"scale\": \"{}\",\n  \
             \"threads\": {},\n  \"users\": {},\n  \"records\": {},\n  \
             \"participation_pct\": {},\n  \"windows\": {},\n  \
             \"batch_total_ms\": {:.3},\n  \"incremental_total_ms\": {:.3},\n  \
             \"total_speedup\": {:.3},\n  \"batch_last_window_ms\": {:.3},\n  \
             \"incremental_first_window_ms\": {:.3},\n  \
             \"incremental_first_steady_ms\": {:.3},\n  \
             \"incremental_last_window_ms\": {:.3},\n  \
             \"last_first_ratio\": {:.3},\n  \"batch_extractions\": {},\n  \
             \"incremental_extractions\": {},\n  \"batch_user_extractions\": {},\n  \
             \"incremental_user_extractions\": {},\n  \"pool_size\": {},\n  \
             \"parity_windows\": {},\n{},\n{},\n{},\n{}\n}}\n",
            crate::host_json(),
            self.label,
            self.threads,
            self.users,
            self.records,
            self.participation_pct,
            self.windows,
            self.batch_total_ms,
            self.incremental_total_ms,
            self.total_speedup(),
            self.batch_last_window_ms,
            self.incremental_first_window_ms,
            self.incremental_first_steady_ms,
            self.incremental_last_window_ms,
            self.last_first_ratio(),
            self.batch_extractions,
            self.incremental_extractions,
            self.batch_user_extractions,
            self.incremental_user_extractions,
            self.pool_size,
            self.parity_windows,
            crate::audit_json(&self.streaming, 1),
            crate::audit_json(&self.baseline, 1),
            crate::audit_json(&self.strategy, 1),
            self.retained.json(),
        )
    }
}

impl fmt::Display for E11Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "E11 streaming publication ({}, {} users, {} records, {} % participation, \
             {} windows, {} threads)",
            self.label,
            self.users,
            self.records,
            self.participation_pct,
            self.windows,
            self.threads
        )?;
        let widths = [26, 14, 14, 9];
        writeln!(
            f,
            "{}",
            crate::row(
                &[
                    "path".into(),
                    "batch ms".into(),
                    "incremental ms".into(),
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
                    "all windows".into(),
                    format!("{:.3}", self.batch_total_ms),
                    format!("{:.3}", self.incremental_total_ms),
                    format!("{:.2}x", self.total_speedup()),
                ],
                &widths
            )
        )?;
        writeln!(
            f,
            "{}",
            crate::row(
                &[
                    "last window".into(),
                    format!("{:.3}", self.batch_last_window_ms),
                    format!("{:.3}", self.incremental_last_window_ms),
                    format!(
                        "{:.2}x",
                        self.batch_last_window_ms / self.incremental_last_window_ms.max(1e-9)
                    ),
                ],
                &widths
            )
        )?;
        writeln!(
            f,
            "incremental windows: first {:.3} ms (dense bootstrap), first-steady {:.3} ms, \
             last {:.3} ms — last/first-steady ratio {:.2}x",
            self.incremental_first_window_ms,
            self.incremental_first_steady_ms,
            self.incremental_last_window_ms,
            self.last_first_ratio()
        )?;
        writeln!(
            f,
            "extractions: {} batch vs {} incremental full passes, {} vs {} per-user \
             (pool {}); parity checked on {} windows",
            self.batch_extractions,
            self.incremental_extractions,
            self.batch_user_extractions,
            self.incremental_user_extractions,
            self.pool_size,
            self.parity_windows
        )?;
        writeln!(f, "{}", crate::audit_line(&self.streaming))?;
        writeln!(f, "{}", crate::audit_line(&self.baseline))?;
        writeln!(f, "{}", crate::audit_line(&self.strategy))?;
        write!(f, "{}", self.retained)
    }
}

/// Runs E11: replays the dataset's day windows through both deployment
/// models and asserts winner parity plus the streaming extraction budget
/// on every window before reporting any timing.
pub fn run(config: &E11Config) -> E11Report {
    let data = crate::data::dataset(config.users, config.days, config.interval_s, 0xE11);
    let dataset = thin_participation(&data.dataset, config.participation_pct);
    let windows = WindowedDataset::partition(&dataset);
    assert!(
        !windows.is_empty(),
        "generated data must span at least a day"
    );

    // Batch model: every day re-publishes the whole prefix from scratch.
    // When `batch_all_windows` is off only the first and last prefixes and
    // the sampled mid-stream ones are replayed (and parity is asserted on
    // exactly those windows).
    let batch_api = PrivApi::default();
    let mut batch_total_ms = 0.0;
    let mut batch_last_window_ms = 0.0;
    let mut batch_releases: Vec<Option<_>> = Vec::with_capacity(windows.len());
    for i in 0..windows.len() {
        if !config.batches(i, windows.len()) {
            batch_releases.push(None);
            continue;
        }
        let prefix = windows.prefix(i);
        let start = Instant::now();
        let release = batch_api.publish(&prefix).expect("batch publish succeeds");
        batch_last_window_ms = start.elapsed().as_secs_f64() * 1e3;
        batch_total_ms += batch_last_window_ms;
        batch_releases.push(Some(release));
    }
    let batch_extractions = batch_api.attack().extractions();
    let batch_user_extractions = batch_api.attack().user_extractions();

    // Incremental model: one streaming session ingesting window deltas.
    let mut publisher = StreamingPublisher::new(*batch_api.config());
    let pool_size = publisher.privapi().pool().len();
    let probe = publisher.privapi().attack().clone();
    let mut incremental_total_ms = 0.0;
    let mut incremental_first_window_ms = 0.0;
    let mut incremental_first_steady_ms = 0.0;
    let mut incremental_last_window_ms = 0.0;
    let mut streaming = Tally::default();
    let mut baseline = Tally::default();
    let mut strategy = StrategyCacheDelta::default();
    let mut parity_windows = 0;
    let mut retained = Retained::default();
    for (i, window) in windows.iter().enumerate() {
        let before = probe.extractions();
        let start = Instant::now();
        let release = publisher
            .publish_window(window)
            .expect("incremental publish succeeds");
        incremental_last_window_ms = start.elapsed().as_secs_f64() * 1e3;
        incremental_total_ms += incremental_last_window_ms;
        if i == 0 {
            incremental_first_window_ms = incremental_last_window_ms;
        }
        if i == 1 || (i == 0 && windows.len() == 1) {
            incremental_first_steady_ms = incremental_last_window_ms;
        }
        let spent = probe.extractions() - before;
        assert!(
            spent < pool_size + 1,
            "window {i}: {spent} extractions breaks the streaming budget"
        );
        assert_eq!(
            spent, release.strategies.full_fallbacks,
            "window {i}: only non-local candidates may pay a full pass"
        );
        if let Some(batch) = &batch_releases[i] {
            assert_eq!(
                release.published.selection, batch.selection,
                "window {i}: streaming winners drifted from batch"
            );
            assert_eq!(release.published.dataset, batch.dataset, "window {i}");
            parity_windows += 1;
        }
        streaming.add(&release.delta);
        baseline.add(&release.baseline);
        strategy += release.strategies;
        retained = Retained::of(
            publisher.store(),
            &release.published.selection.candidates,
            publisher.population().prefix().trajectories().len(),
            pool_size,
        );
    }
    let incremental_extractions = probe.extractions();
    let incremental_user_extractions = probe.user_extractions();

    E11Report {
        label: config.label.clone(),
        threads: std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1),
        users: config.users,
        records: dataset.record_count(),
        participation_pct: config.participation_pct,
        windows: windows.len(),
        batch_total_ms,
        incremental_total_ms,
        batch_last_window_ms,
        incremental_first_window_ms,
        incremental_first_steady_ms,
        incremental_last_window_ms,
        batch_extractions,
        incremental_extractions,
        batch_user_extractions,
        incremental_user_extractions,
        pool_size,
        parity_windows,
        streaming,
        baseline,
        strategy,
        retained,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_upholds_invariants_and_renders() {
        let report = run(&E11Config::smoke());
        assert_eq!(report.windows, 3);
        // Batch pays pool + 1 full passes per window; incremental pays
        // none at all — both caches (original-side session, per-strategy
        // protected side) route everything through the per-user delta
        // paths, and the default pool has no non-local candidate.
        assert_eq!(
            report.batch_extractions,
            report.windows * (report.pool_size + 1)
        );
        assert_eq!(report.incremental_extractions, 0);
        assert_eq!(report.strategy.full_fallbacks, 0);
        // Sparse participation means inactive users: both the protected
        // anonymizations and the per-user extraction totals must come in
        // under batch.
        assert!(report.strategy.users_reused > 0, "{report:?}");
        assert!(
            report.incremental_user_extractions < report.batch_user_extractions,
            "per-user work {} must undercut batch {}",
            report.incremental_user_extractions,
            report.batch_user_extractions
        );
        assert_eq!(
            report.strategy.users_reused + report.strategy.users_refreshed,
            report.windows * report.pool_size * report.users
        );
        // The utility baseline is built once (not counted as a rebuild)
        // and folded in place on every later window, touching real cells;
        // the quantized anchors keep the grid still, so no fold is ever
        // discarded.
        let windows = report.windows as u64;
        assert_eq!(report.baseline.get("rebuilt"), 0, "{report:?}");
        assert_eq!(report.baseline.get("reused"), windows - 1, "{report:?}");
        assert!(report.baseline.get("cells_updated") > 0, "{report:?}");
        // Refreshes after the first window fold in only what each user
        // appended: every later shard refresh goes through the memo on
        // both sides, and a clean stream never falls back.
        let original = &report.streaming;
        assert_eq!(
            original.get("shards_rebuilt"),
            report.users as u64,
            "{report:?}"
        );
        assert!(original.get("shards_appended") > 0, "{report:?}");
        assert_eq!(original.get("shards_fallback"), 0, "{report:?}");
        assert!(report.strategy.shards_appended > 0, "{report:?}");
        assert_eq!(report.strategy.shards_fallback, 0, "{report:?}");
        assert!(report.strategy.trajectories_reused > 0, "{report:?}");
        assert_eq!(report.parity_windows, report.windows);
        assert!(report.batch_total_ms > 0.0);
        assert!(report.incremental_total_ms > 0.0);
        assert!(report.incremental_first_window_ms > 0.0);
        assert!(report.incremental_first_steady_ms > 0.0);
        assert!(report.last_first_ratio() > 0.0);
        let json = obs::json::parse(&report.to_json()).expect("the report is JSON");
        assert_eq!(
            json.get("experiment").and_then(|v| v.as_str()),
            Some("e11_streaming_publication")
        );
        for key in [
            "batch_total_ms",
            "incremental_total_ms",
            "batch_user_extractions",
            "incremental_user_extractions",
            "incremental_first_window_ms",
            "incremental_first_steady_ms",
            "last_first_ratio",
            "parity_windows",
        ] {
            assert!(json.get(key).is_some(), "missing {key} in {json:?}");
        }
        crate::assert_reported(&json, &report.streaming);
        crate::assert_reported(&json, &report.baseline);
        crate::assert_reported(&json, &report.strategy);
        crate::assert_retained(&json, &report.retained);
        let text = report.to_string();
        assert!(text.contains("all windows"));
        assert!(text.contains("extractions:"));
        assert!(text.contains("streaming: users_refreshed="));
        assert!(text.contains("baseline: rebuilt="));
        assert!(text.contains("strategy: candidates="));
        assert!(text.contains("retained: entries="));
        assert!(text.contains("last/first-steady ratio"));
    }

    #[test]
    fn sparse_batch_mode_skips_interior_prefixes_but_keeps_parity() {
        let mut config = E11Config::smoke();
        config.days = 6;
        config.batch_all_windows = false;
        let sampled: Vec<usize> = (0..config.days)
            .filter(|&i| config.batches(i, config.days))
            .collect();
        assert_eq!(sampled, vec![0, 1, 3, 5], "first, two mid-stream, last");
        let report = run(&config);
        assert_eq!(report.windows, config.days);
        // Only the sampled prefixes are batch-replayed and parity-checked.
        assert_eq!(report.batch_extractions, 4 * (report.pool_size + 1));
        assert_eq!(report.incremental_extractions, 0);
        assert_eq!(report.baseline.get("rebuilt"), 0);
        assert_eq!(report.baseline.get("reused"), report.windows as u64 - 1);
        assert_eq!(report.parity_windows, 4);
    }

    #[test]
    fn config_constructors_cover_scales() {
        assert_eq!(E11Config::smoke().users, 6);
        let medium = E11Config::from_scale(Scale::Medium);
        assert_eq!(medium.label, "medium");
        assert_eq!(medium.users, 80);
        assert_eq!(medium.days, 10);
        assert_eq!(medium.participation_pct, 40);
        assert!(medium.batch_all_windows);
        let large = E11Config::from_scale(Scale::Large);
        assert_eq!(large.label, "large");
        assert_eq!(large.users, 10_000);
        assert_eq!(large.participation_pct, 5);
        assert!(!large.batch_all_windows);
        let sampled: Vec<usize> = (0..large.days)
            .filter(|&i| large.batches(i, large.days))
            .collect();
        assert_eq!(sampled, vec![0, 2, 4, 7], "first, two mid-stream, last");
    }
}
