//! The measurement loop and the reported metrics.
//!
//! One run repeats whole iterations (set-up, then the timed loop) until
//! the next one would end past the requested number of seconds. The first
//! iteration is a warm-up: it is checked like every other and is the one
//! the others must replay, but no timing or heap figure is taken from it.
//! At least [`MIN_ITERATIONS`] iterations follow it. Every iteration's
//! correctness gates must pass, and every iteration of one seed must
//! reproduce the first one's counters, network statistics, ack samples,
//! release digest and sequence of layer calls exactly; otherwise no metric
//! is reported.
//!
//! Timings are *fastest repeats*. Each step of the timed loop (sensing,
//! wiring, each day's simulation, close and publication) is the same work
//! in every iteration of one seed, so the differences between its repeats
//! are the host's: on a small virtual machine of a shared host, phases of
//! ten to thirty seconds slow every step, the CPU-bound simulator
//! included, by up to 40 %. Such noise only ever adds time, so a step's
//! fastest repeat is the estimate of its cost least disturbed by the host,
//! where a median sits on whichever phase the run happened to hit. A
//! timing metric is built from the fastest repeat of each of its steps.
//!
//! A traced run alternates untraced and traced iterations after the
//! warm-up: the traced ones additionally time every device and Hive
//! callback, and give the per-layer metrics; the untraced ones give the
//! median the tracing overhead is measured against.

use crate::heap;
use crate::host::{Contention, CpuSnapshot};
use crate::spine::{self, Call, Iteration};
use crate::stats::{grouped_percentile, median};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

pub use crate::spine::{Size, Workload};

/// Fewest timed iterations of an untraced run, after the warm-up; a traced
/// run has at least this many of each kind.
pub const MIN_ITERATIONS: usize = 3;

/// Set-ups timed per iteration. Set-up is short next to the loop, so it is
/// repeated (only the last one runs) to give `setup_s` many repeats even
/// where a run has only a few iterations.
pub const SETUPS_PER_ITERATION: usize = 5;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

/// One iteration with what the run loop measured around it.
#[derive(Debug, Clone)]
struct Measured {
    it: Iteration,
    traced: bool,
    /// Outer wall time of set-up plus loop, bench-side work excluded.
    wall: Duration,
    /// Peak live heap above the iteration's starting point, bytes.
    peak_heap: usize,
    /// Wall time of every set-up of the iteration, the one that ran last.
    setups: Vec<Duration>,
}

/// Everything a run measured.
#[derive(Debug, Clone)]
pub struct Report {
    /// The workload.
    pub workload: Workload,
    /// The seed.
    pub seed: u64,
    runs: Vec<Measured>,
    /// What the host did meanwhile (`None` without `/proc`).
    pub contention: Option<Contention>,
}

/// Runs `workload` for `seconds`: a warm-up iteration, then iterations
/// while the next one is expected (from the last one's length) to end in
/// time, and at least the minimum count. Returns the first failed gate as
/// an error.
pub fn measure(
    workload: Workload,
    size: Size,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<Report, String> {
    let before = CpuSnapshot::take();
    let start = Instant::now();
    let min = 1 + if trace {
        2 * MIN_ITERATIONS
    } else {
        MIN_ITERATIONS
    };
    let mut runs: Vec<Measured> = Vec::new();
    let mut last = Duration::ZERO;
    while runs.len() < min || (start.elapsed() + last).as_secs_f64() <= seconds {
        let began = Instant::now();
        let traced = trace && !runs.is_empty() && runs.len().is_multiple_of(2);
        let mut setups: Vec<Duration> = (1..SETUPS_PER_ITERATION)
            .map(|_| spine::setup(workload, size, seed).times.total)
            .collect();
        let base = heap::live_bytes();
        heap::reset_peak();
        let t = Instant::now();
        let mut it = spine::run(spine::setup(workload, size, seed), traced);
        let wall = t.elapsed().saturating_sub(it.excluded);
        let peak_heap = it.peak_heap.saturating_sub(base);
        setups.push(it.setup.total);
        it.gate
            .clone()
            .map_err(|e| format!("iteration {}: {e}", runs.len()))?;
        if let Some(first) = runs.first() {
            let steps = |i: &Iteration| -> Vec<(&'static str, Option<i64>)> {
                i.calls.iter().map(|c| (c.layer, c.day)).collect()
            };
            if it.counts != first.it.counts || steps(&it) != steps(&first.it) {
                return Err(format!(
                    "iteration {} is not a replay of the first: counters, network \
                     statistics, ack samples, release digest or layer calls differ",
                    runs.len()
                ));
            }
            // Equal to the first; keep one copy of the samples.
            it.counts.ack_latencies_ms = Vec::new();
        }
        runs.push(Measured {
            it,
            traced,
            wall,
            peak_heap,
            setups,
        });
        last = began.elapsed();
    }
    let contention = before.zip(CpuSnapshot::take()).map(|(a, b)| a.until(&b));
    Ok(Report {
        workload,
        seed,
        runs,
        contention,
    })
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

impl Report {
    /// The timed untraced iterations: every untraced one but the warm-up.
    fn untraced(&self) -> impl Iterator<Item = &Measured> {
        self.runs.iter().skip(1).filter(|m| !m.traced)
    }

    fn traced(&self) -> impl Iterator<Item = &Measured> {
        self.runs.iter().filter(|m| m.traced)
    }

    fn first(&self) -> &Iteration {
        &self.runs[0].it
    }

    /// Campaign-days attempted over every iteration.
    pub fn attempted(&self) -> u64 {
        self.runs.iter().map(|m| m.it.counts.attempted).sum()
    }

    /// Failed campaign releases over every iteration (zero once gated).
    pub fn failed(&self) -> u64 {
        self.runs.iter().map(|m| m.it.counts.failed).sum()
    }

    /// The release digest, identical for every iteration.
    pub fn digest(&self) -> u64 {
        self.first().counts.digest
    }

    /// The fastest repeat of every step of the timed loop over the timed
    /// untraced iterations, in loop order, with the step's layer. Steps
    /// line up across iterations because each replays the first one's
    /// layer calls; the set-up's own call is not a loop step.
    fn fastest_steps(&self) -> Vec<(&'static str, Duration)> {
        let timed: Vec<&[Call]> = self.untraced().map(|m| &m.it.calls[..]).collect();
        timed[0]
            .iter()
            .enumerate()
            .filter(|(_, call)| call.layer != "mobility.generate")
            .map(|(i, call)| {
                let fastest = timed
                    .iter()
                    .map(|calls| calls[i].end - calls[i].start)
                    .min()
                    .expect("timed iterations");
                (call.layer, fastest)
            })
            .collect()
    }

    /// The end-to-end metrics, from the timed untraced iterations: timings
    /// from the fastest repeat of each step, the heap peak as a median.
    pub fn end_to_end(&self) -> Vec<Metric> {
        let c = &self.first().counts;
        let med = |f: &dyn Fn(&Measured) -> f64| {
            median(&self.untraced().map(f).collect::<Vec<_>>()).expect("untraced iterations")
        };
        let acks = &c.ack_latencies_ms;
        let ack = |q| grouped_percentile(acks, q).unwrap_or(0.0);
        let steps = self.fastest_steps();
        let loop_time: Duration = steps.iter().map(|&(_, d)| d).sum();
        let window_time: Duration = steps
            .iter()
            .filter(|(layer, _)| matches!(*layer, "collect.close" | "campaign.advance"))
            .map(|&(_, d)| d)
            .sum();
        vec![
            Metric {
                name: "records_per_s",
                unit: "rec/s",
                value: c.published as f64 / loop_time.as_secs_f64(),
            },
            Metric {
                name: "window_mean_ms",
                unit: "ms",
                value: ms(window_time) / c.windows as f64,
            },
            Metric {
                name: "setup_s",
                unit: "s",
                value: self
                    .untraced()
                    .flat_map(|m| m.setups.iter().copied())
                    .min()
                    .expect("untraced iterations")
                    .as_secs_f64(),
            },
            Metric {
                name: "peak_heap_mb",
                unit: "MB",
                value: med(&|m| m.peak_heap as f64 / 1e6),
            },
            Metric {
                name: "wire_bytes_per_record",
                unit: "B/rec",
                value: c.net.bytes_sent as f64 / c.published.max(1) as f64,
            },
            Metric {
                name: "ack_p50_sim_ms",
                unit: "sim_ms",
                value: ack(0.5),
            },
            Metric {
                name: "ack_p99_sim_ms",
                unit: "sim_ms",
                value: ack(0.99),
            },
        ]
    }

    /// Mean per traced iteration of each layer's self time, ms, in the
    /// order of the iteration. The rows add up to the traced set-up plus
    /// loop time.
    pub fn layer_times(&self) -> Vec<(&'static str, f64)> {
        let traced: Vec<&Measured> = self.traced().collect();
        let n = traced.len().max(1) as f64;
        let mean = |f: &dyn Fn(&Iteration) -> Duration| {
            traced.iter().map(|m| ms(f(&m.it))).sum::<f64>() / n
        };
        vec![
            ("mobility.generate_ms", mean(&|i| i.setup.generate)),
            ("script.compile_ms", mean(&|i| i.setup.compile)),
            (
                "setup.build_ms",
                mean(&|i| {
                    i.setup
                        .total
                        .saturating_sub(i.setup.generate + i.setup.compile)
                }),
            ),
            ("script.sense_ms", mean(&|i| i.layers.sense)),
            (
                "collect.stage_ms",
                mean(&|i| i.layers.wire + i.layers.device_callbacks),
            ),
            (
                "simnet.self_ms",
                mean(&|i| {
                    i.layers
                        .sim
                        .saturating_sub(i.layers.device_callbacks + i.layers.hive_callbacks)
                }),
            ),
            ("collect.ingest_ms", mean(&|i| i.layers.hive_callbacks)),
            ("collect.close_ms", mean(&|i| i.layers.close)),
            ("campaign.advance_ms", mean(&|i| i.layers.advance)),
        ]
    }

    /// Mean outer wall time of a traced iteration, ms.
    pub fn traced_wall_ms(&self) -> f64 {
        let traced: Vec<f64> = self.traced().map(|m| ms(m.wall)).collect();
        traced.iter().sum::<f64>() / traced.len().max(1) as f64
    }

    /// Tracing overhead: median traced over median untraced iteration
    /// wall time, minus one.
    pub fn trace_overhead(&self) -> Option<f64> {
        let traced = median(&self.traced().map(|m| ms(m.wall)).collect::<Vec<_>>())?;
        let plain = median(&self.untraced().map(|m| ms(m.wall)).collect::<Vec<_>>())?;
        Some(traced / plain - 1.0)
    }

    /// The per-layer metrics: layer self times from the traced
    /// iterations, counters from the first iteration.
    pub fn per_layer(&self) -> Vec<Metric> {
        let c = &self.first().counts;
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let mut out: Vec<Metric> = self
            .layer_times()
            .into_iter()
            .map(|(name, value)| Metric {
                name,
                unit: "ms",
                value,
            })
            .collect();
        let counts: [(&'static str, &'static str, f64); 27] = [
            ("script.execs", "count", c.script_execs as f64),
            ("script.records", "count", c.script_records as f64),
            ("script.suppressed", "count", c.script_suppressed as f64),
            ("collect.batches_staged", "count", c.batches_staged as f64),
            ("simnet.sent", "count", c.net.sent as f64),
            ("simnet.delivered", "count", c.net.delivered as f64),
            (
                "simnet.dropped_by_fault",
                "count",
                c.net.dropped_by_fault as f64,
            ),
            ("simnet.duplicated", "count", c.net.duplicated as f64),
            ("simnet.reordered", "count", c.net.reordered as f64),
            ("simnet.retries", "count", c.net.retries as f64),
            ("collect.frames", "count", c.frames as f64),
            ("collect.dup_ratio", "ratio", ratio(c.duplicates, c.frames)),
            ("collect.records_quarantined", "count", c.quarantined as f64),
            ("collect.records_deferred", "count", c.deferred as f64),
            ("collect.straggler_devices", "count", c.stragglers as f64),
            ("campaign.releases", "count", c.releases as f64),
            ("campaign.failed", "count", c.failed as f64),
            (
                "privapi.user_extractions",
                "count",
                c.user_extractions as f64,
            ),
            ("privapi.users_refreshed", "count", c.users_refreshed as f64),
            ("privapi.users_donated", "count", c.users_donated as f64),
            ("privapi.shards_derived", "count", c.shards_derived as f64),
            ("privapi.baseline_reuses", "count", c.baseline_reuses as f64),
            (
                "privapi.strategy_reuse_ratio",
                "ratio",
                ratio(c.users_reused, c.users_reused + c.users_refreshed),
            ),
            ("missed_record_share", "ratio", ratio(c.missed, c.sensed)),
            (
                "failed_release_share",
                "ratio",
                ratio(c.failed, c.attempted),
            ),
            ("collect.records_sensed", "count", c.sensed as f64),
            ("collect.windows", "count", c.windows as f64),
        ];
        out.extend(
            counts
                .into_iter()
                .map(|(name, unit, value)| Metric { name, unit, value }),
        );
        out
    }

    /// The human-readable lines printed before the result.
    pub fn summary(&self, trace: bool) -> String {
        let mut out = String::new();
        let c = &self.first().counts;
        let _ = writeln!(
            out,
            "perfbench {} seed={}: {} iterations ({} traced), {} records sensed, \
             {} published in {} windows per iteration",
            self.workload.name(),
            self.seed,
            self.runs.len(),
            self.traced().count(),
            c.sensed,
            c.published,
            c.windows,
        );
        let _ = writeln!(
            out,
            "digest {} seed={}: {:016x}",
            self.workload.name(),
            self.seed,
            self.digest()
        );
        let _ = writeln!(
            out,
            "samples: fastest repeats of {} loop steps ({} windows) over {} timed \
             untraced iterations after 1 warm-up; setup_s over {} set-ups; heap peak \
             median over the iterations; ack percentiles over {} acks",
            self.fastest_steps().len(),
            c.windows,
            self.untraced().count(),
            self.untraced().count() * SETUPS_PER_ITERATION,
            c.ack_latencies_ms.len(),
        );
        match self.contention {
            Some(h) => {
                let _ = writeln!(
                    out,
                    "host: own_cpu_per_wall={:.3} other_cpu_share={:.3} cpus={}",
                    h.own_cpu_per_wall, h.other_cpu_share, h.cpus
                );
            }
            None => out.push_str("host: /proc unavailable\n"),
        }
        if trace {
            out.push_str(&self.layer_table());
        }
        out
    }

    /// The per-layer table of a traced run: self time per iteration,
    /// share of the traced wall, and the layer's counts.
    pub fn layer_table(&self) -> String {
        let c = &self.first().counts;
        let wall = self.traced_wall_ms();
        let rows = self.layer_times();
        let counts = |layer: &str| -> String {
            match layer {
                "script.sense_ms" => format!(
                    "execs={} records={} suppressed={}",
                    c.script_execs, c.script_records, c.script_suppressed
                ),
                "collect.stage_ms" => format!("batches={}", c.batches_staged),
                "simnet.self_ms" => format!(
                    "sent={} delivered={} fault_drops={} dups={} reorders={} retries={}",
                    c.net.sent,
                    c.net.delivered,
                    c.net.dropped_by_fault,
                    c.net.duplicated,
                    c.net.reordered,
                    c.net.retries
                ),
                "collect.ingest_ms" => {
                    format!("frames={} duplicates={}", c.frames, c.duplicates)
                }
                "collect.close_ms" => format!(
                    "windows={} quarantined={} deferred={} stragglers={}",
                    c.windows, c.quarantined, c.deferred, c.stragglers
                ),
                "campaign.advance_ms" => format!(
                    "releases={} failed={} user_extractions={} donated={} derived={}",
                    c.releases, c.failed, c.user_extractions, c.users_donated, c.shards_derived
                ),
                _ => String::new(),
            }
        };
        let mut out = String::new();
        let _ = writeln!(
            out,
            "layers of {} (mean of {} traced iterations):",
            self.workload.name(),
            self.traced().count()
        );
        let _ = writeln!(
            out,
            "  {:<22} {:>11} {:>7}  counts",
            "layer", "self_ms", "share"
        );
        let mut sum = 0.0;
        for (name, value) in &rows {
            sum += value;
            let _ = writeln!(
                out,
                "  {:<22} {:>11.3} {:>6.1}%  {}",
                name.trim_end_matches("_ms"),
                value,
                value / wall * 100.0,
                counts(name)
            );
        }
        let _ = writeln!(
            out,
            "  {:<22} {:>11.3} {:>6.1}%  (layers add up to {:.1}% of the traced wall {:.3} ms)",
            "unattributed",
            wall - sum,
            (wall - sum) / wall * 100.0,
            sum / wall * 100.0,
            wall
        );
        if let Some(overhead) = self.trace_overhead() {
            let _ = writeln!(
                out,
                "  tracing overhead: {:+.2}% of the untraced median iteration",
                overhead * 100.0
            );
        }
        out
    }

    /// The traced iterations as JSON lines in the `obs` trace format, so
    /// `obs_report` can read them: one `bench.iteration` span per traced
    /// iteration with its coarse layer calls as child spans, the per-layer
    /// counters, callback self times as `*_ns` counters, and one
    /// `reliable.delivered` event per ack sample.
    pub fn to_jsonl(&self) -> String {
        let mut body = String::new();
        let mut spans = 0;
        let mut events = 0;
        let epoch = self.runs[0].it.calls[0].start;
        let ns = |t: Instant| t.duration_since(epoch).as_nanos() as u64;
        let mut id = 0u64;
        for m in self.traced() {
            let calls = &m.it.calls;
            let (Some(first), Some(last)) = (calls.first(), calls.last()) else {
                continue;
            };
            id += 1;
            let root = id;
            spans += 1;
            let _ = writeln!(
                body,
                "{{\"t\":\"span\",\"id\":{root},\"parent\":0,\"name\":\"bench.iteration\",\
                 \"domain\":\"wall\",\"start_ns\":{},\"end_ns\":{},\"attrs\":{{\"workload\":\"{}\",\"seed\":{}}}}}",
                ns(first.start),
                ns(last.end),
                self.workload.name(),
                self.seed
            );
            for call in calls {
                id += 1;
                spans += 1;
                let attrs = call.day.map_or(String::new(), |d| format!("\"day\":{d}"));
                let _ = writeln!(
                    body,
                    "{{\"t\":\"span\",\"id\":{id},\"parent\":{root},\"name\":\"{}\",\
                     \"domain\":\"wall\",\"start_ns\":{},\"end_ns\":{},\"attrs\":{{{attrs}}}}}",
                    call.layer,
                    ns(call.start),
                    ns(call.end)
                );
            }
        }
        let mut counters: Vec<(String, u64)> = self
            .per_layer()
            .into_iter()
            .filter(|m| m.unit == "count")
            .map(|m| (m.name.to_string(), m.value as u64))
            .collect();
        let traced: Vec<&Measured> = self.traced().collect();
        let total = |f: &dyn Fn(&Iteration) -> Duration| -> u64 {
            traced.iter().map(|m| f(&m.it).as_nanos() as u64).sum()
        };
        counters.push((
            "collect.device_callbacks_ns".into(),
            total(&|i| i.layers.device_callbacks),
        ));
        counters.push((
            "collect.hive_callbacks_ns".into(),
            total(&|i| i.layers.hive_callbacks),
        ));
        let c = &self.first().counts;
        counters.push(("strategy.users_reused".into(), c.users_reused));
        counters.push(("strategy.users_refreshed".into(), c.users_refreshed));
        counters.sort();
        let mut out = String::new();
        for latency in &c.ack_latencies_ms {
            events += 1;
            let _ = writeln!(
                body,
                "{{\"t\":\"event\",\"seq\":{events},\"name\":\"reliable.delivered\",\
                 \"domain\":\"sim\",\"at_ns\":0,\"attrs\":{{\"latency_ms\":{latency}}}}}"
            );
        }
        let _ = writeln!(
            out,
            "{{\"t\":\"meta\",\"version\":1,\"spans\":{spans},\"events\":{events},\"dropped\":0}}"
        );
        for (name, value) in counters {
            let _ = writeln!(
                out,
                "{{\"t\":\"counter\",\"name\":\"{name}\",\"value\":{value}}}"
            );
        }
        out.push_str(&body);
        out
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`.
    pub fn result_json(&self, trace: bool) -> String {
        let metrics = if trace {
            self.per_layer()
        } else {
            self.end_to_end()
        };
        let body: Vec<String> = metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted(),
            self.failed(),
            body.join(", ")
        )
    }
}
