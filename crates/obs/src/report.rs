//! Trace summarization backing the `obs_report` bin: parses a JSON-lines
//! trace back into memory and renders per-window wall breakdowns,
//! per-campaign cost, transport latency percentiles, and cache hit
//! rates — all sourced from the `<family>.<field>` instruments the
//! pipeline's audit structs feed ([`mod@crate::audit`]).

use crate::json::{self, JsonValue};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// One histogram read back from a trace.
#[derive(Debug, Clone)]
pub struct HistData {
    pub unit: String,
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
    pub le: Vec<u64>,
    pub counts: Vec<u64>,
}

/// One span read back from a trace.
#[derive(Debug, Clone)]
pub struct SpanData {
    pub id: u64,
    pub parent: u64,
    pub name: String,
    pub domain: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub attrs: JsonValue,
}

impl SpanData {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    pub fn attr_u64(&self, key: &str) -> Option<u64> {
        self.attrs.get(key)?.as_u64()
    }
}

/// One event read back from a trace.
#[derive(Debug, Clone)]
pub struct EventData {
    pub seq: u64,
    pub name: String,
    pub domain: String,
    pub at_ns: u64,
    pub attrs: JsonValue,
}

/// A parsed trace, ready to summarize.
#[derive(Debug, Clone, Default)]
pub struct TraceSummary {
    pub dropped: u64,
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, i64>,
    pub hists: BTreeMap<String, HistData>,
    pub spans: Vec<SpanData>,
    pub events: Vec<EventData>,
}

/// Parse a whole JSON-lines trace. Unknown record types are skipped (a
/// newer exporter must not break an older reporter); malformed lines
/// are errors.
pub fn parse_trace(text: &str) -> Result<TraceSummary, String> {
    let mut summary = TraceSummary::default();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let v = json::parse(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        let tag = v.get("t").and_then(|t| t.as_str()).unwrap_or("");
        let name = || {
            v.get("name")
                .and_then(|n| n.as_str())
                .map(str::to_string)
                .ok_or_else(|| format!("line {}: missing name", lineno + 1))
        };
        let num = |key: &str| v.get(key).and_then(|x| x.as_u64()).unwrap_or(0);
        match tag {
            "meta" => summary.dropped = num("dropped"),
            "counter" => {
                summary.counters.insert(name()?, num("value"));
            }
            "gauge" => {
                let value = v.get("value").and_then(|x| x.as_i64()).unwrap_or(0);
                summary.gauges.insert(name()?, value);
            }
            "hist" => {
                let read_arr = |key: &str| -> Vec<u64> {
                    v.get(key)
                        .and_then(|a| a.as_array())
                        .map(|items| items.iter().filter_map(|i| i.as_u64()).collect())
                        .unwrap_or_default()
                };
                summary.hists.insert(
                    name()?,
                    HistData {
                        unit: v
                            .get("unit")
                            .and_then(|u| u.as_str())
                            .unwrap_or("")
                            .to_string(),
                        count: num("count"),
                        sum: num("sum"),
                        min: num("min"),
                        max: num("max"),
                        le: read_arr("le"),
                        counts: read_arr("counts"),
                    },
                );
            }
            "span" => summary.spans.push(SpanData {
                id: num("id"),
                parent: num("parent"),
                name: name()?,
                domain: v
                    .get("domain")
                    .and_then(|d| d.as_str())
                    .unwrap_or("")
                    .to_string(),
                start_ns: num("start_ns"),
                end_ns: num("end_ns"),
                attrs: v
                    .get("attrs")
                    .cloned()
                    .unwrap_or(JsonValue::Obj(Vec::new())),
            }),
            "event" => summary.events.push(EventData {
                seq: num("seq"),
                name: name()?,
                domain: v
                    .get("domain")
                    .and_then(|d| d.as_str())
                    .unwrap_or("")
                    .to_string(),
                at_ns: num("at_ns"),
                attrs: v
                    .get("attrs")
                    .cloned()
                    .unwrap_or(JsonValue::Obj(Vec::new())),
            }),
            _ => {}
        }
    }
    summary.events.sort_by_key(|e| e.seq);
    Ok(summary)
}

fn family_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

impl TraceSummary {
    /// Instrument families (name prefix before the first `.`) with any
    /// recorded activity: a nonzero counter, a non-empty histogram, or
    /// any span/event.
    pub fn active_families(&self) -> BTreeSet<String> {
        let mut families = BTreeSet::new();
        for (name, value) in &self.counters {
            if *value > 0 {
                families.insert(family_of(name).to_string());
            }
        }
        for (name, hist) in &self.hists {
            if hist.count > 0 {
                families.insert(family_of(name).to_string());
            }
        }
        for span in &self.spans {
            families.insert(family_of(&span.name).to_string());
        }
        for event in &self.events {
            families.insert(family_of(&event.name).to_string());
        }
        families
    }

    /// Required families absent from the trace.
    pub fn missing_families(&self, required: &[String]) -> Vec<String> {
        let active = self.active_families();
        required
            .iter()
            .filter(|f| !active.contains(*f))
            .cloned()
            .collect()
    }

    /// Exact delivery-latency samples (ms) grouped by the most recent
    /// `obs.phase` marker; `""` for samples before any marker. These are
    /// the same per-ack samples `BENCH_e13.json` summarizes, so
    /// nearest-rank percentiles over a phase match the bench numbers
    /// exactly.
    pub fn latency_segments(&self) -> Vec<(String, Vec<u64>)> {
        let mut segments: Vec<(String, Vec<u64>)> = vec![(String::new(), Vec::new())];
        for event in &self.events {
            match event.name.as_str() {
                "obs.phase" => {
                    let phase = event
                        .attrs
                        .get("phase")
                        .and_then(|p| p.as_str())
                        .unwrap_or("?")
                        .to_string();
                    segments.push((phase, Vec::new()));
                }
                "reliable.delivered" => {
                    if let Some(ms) = event.attrs.get("latency_ms").and_then(|l| l.as_u64()) {
                        segments
                            .last_mut()
                            .expect("seeded with one segment")
                            .1
                            .push(ms);
                    }
                }
                _ => {}
            }
        }
        segments.retain(|(_, samples)| !samples.is_empty());
        segments
    }
}

/// Nearest-rank percentile over ascending `sorted`, `q` in 0..=1, and 0
/// when there are no samples. E4, E13 and `obs_report` all use it, so the
/// percentiles a trace reports match `BENCH_e13.json` exactly.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

fn ratio_pct(hits: u64, total: u64) -> f64 {
    if total == 0 {
        0.0
    } else {
        hits as f64 * 100.0 / total as f64
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Render the human-readable run summary.
pub fn render(summary: &TraceSummary) -> String {
    let mut out = String::new();
    let counter = |name: &str| summary.counters.get(name).copied().unwrap_or(0);
    let _ = writeln!(
        out,
        "trace: {} spans, {} events, {} counters, {} histograms{}",
        summary.spans.len(),
        summary.events.len(),
        summary.counters.len(),
        summary.hists.len(),
        if summary.dropped > 0 {
            format!(" ({} records dropped at cap)", summary.dropped)
        } else {
            String::new()
        }
    );
    let families: Vec<String> = summary.active_families().into_iter().collect();
    let _ = writeln!(out, "active families: {}", families.join(", "));

    // Per-window wall breakdown: privapi.window spans with their
    // streaming.advance / engine.sweep children summed by name.
    let windows: Vec<&SpanData> = summary
        .spans
        .iter()
        .filter(|s| s.name == "privapi.window")
        .collect();
    if !windows.is_empty() {
        let mut children_of: BTreeMap<u64, BTreeMap<&str, u64>> = BTreeMap::new();
        for span in &summary.spans {
            if span.parent != 0 {
                *children_of
                    .entry(span.parent)
                    .or_default()
                    .entry(span.name.as_str())
                    .or_default() += span.duration_ns();
            }
        }
        let _ = writeln!(
            out,
            "\nper-window wall breakdown ({} windows):",
            windows.len()
        );
        let _ = writeln!(
            out,
            "  {:>6} {:>10} {:>10} {:>10} {:>10}",
            "day", "total_ms", "advance_ms", "sweep_ms", "other_ms"
        );
        let shown = windows.len().min(24);
        for window in windows.iter().take(shown) {
            let day = window.attr_u64("day").unwrap_or(0);
            let total = window.duration_ns();
            let kids = children_of.get(&window.id);
            let advance = kids
                .and_then(|k| k.get("streaming.advance").copied())
                .unwrap_or(0);
            let sweep = kids
                .and_then(|k| k.get("engine.sweep").copied())
                .unwrap_or(0);
            let other = total.saturating_sub(advance + sweep);
            let _ = writeln!(
                out,
                "  {:>6} {:>10.3} {:>10.3} {:>10.3} {:>10.3}",
                day,
                ms(total),
                ms(advance),
                ms(sweep),
                ms(other)
            );
        }
        if windows.len() > shown {
            let _ = writeln!(out, "  ... {} more windows elided", windows.len() - shown);
        }
        let total: u64 = windows.iter().map(|w| w.duration_ns()).sum();
        let _ = writeln!(
            out,
            "  total {:.3} ms across {} windows (mean {:.3} ms)",
            ms(total),
            windows.len(),
            ms(total / windows.len() as u64)
        );
    }

    // Protected-side phases: the children of the engine.candidate spans,
    // summed by name, plus the work-store fills after each sweep.
    let candidates: Vec<&SpanData> = summary
        .spans
        .iter()
        .filter(|s| s.name == "engine.candidate")
        .collect();
    if !candidates.is_empty() {
        let total: u64 = candidates.iter().map(|s| s.duration_ns()).sum();
        let _ = writeln!(
            out,
            "\nprotected-side phases ({} candidate evaluations, {:.3} ms):",
            candidates.len(),
            ms(total)
        );
        for phase in [
            "candidate.anonymize",
            "candidate.extract",
            "candidate.utility",
            "candidate.match",
            "candidate.materialize",
            "store.fill",
        ] {
            let ns: u64 = summary
                .spans
                .iter()
                .filter(|s| s.name == phase)
                .map(SpanData::duration_ns)
                .sum();
            let _ = writeln!(
                out,
                "  {phase:<22} {:>10.3} ms {:>6.1}%",
                ms(ns),
                ratio_pct(ns, total)
            );
        }
    }

    // Per-campaign cost: campaign.publish spans keyed by campaign id.
    let mut campaigns: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
    for span in summary
        .spans
        .iter()
        .filter(|s| s.name == "campaign.publish")
    {
        let entry = campaigns
            .entry(span.attr_u64("campaign").unwrap_or(0))
            .or_default();
        entry.0 += 1;
        entry.1 += span.duration_ns();
    }
    if !campaigns.is_empty() {
        let _ = writeln!(out, "\nper-campaign cost ({} campaigns):", campaigns.len());
        let _ = writeln!(
            out,
            "  {:>10} {:>8} {:>10} {:>10}",
            "campaign", "windows", "total_ms", "mean_ms"
        );
        for (id, (windows, total)) in &campaigns {
            let _ = writeln!(
                out,
                "  {:>10} {:>8} {:>10.3} {:>10.3}",
                id,
                windows,
                ms(*total),
                ms(total / windows.max(&1))
            );
        }
    }

    // Transport delivery latency: exact per-ack samples, segmented by
    // phase markers, plus the aggregate histogram if present.
    let segments = summary.latency_segments();
    if !segments.is_empty() {
        let _ = writeln!(
            out,
            "\ntransport delivery latency (sim-ms, exact per-ack samples):"
        );
        let _ = writeln!(
            out,
            "  {:<24} {:>8} {:>6} {:>6} {:>6} {:>6} {:>6}",
            "phase", "acks", "min", "p50", "p95", "p99", "max"
        );
        let mut all: Vec<u64> = Vec::new();
        for (phase, samples) in &segments {
            let mut sorted = samples.clone();
            sorted.sort_unstable();
            let label = if phase.is_empty() {
                "(unphased)"
            } else {
                phase.as_str()
            };
            let _ = writeln!(
                out,
                "  {:<24} {:>8} {:>6} {:>6} {:>6} {:>6} {:>6}",
                label,
                sorted.len(),
                sorted.first().copied().unwrap_or(0),
                percentile(&sorted, 0.50),
                percentile(&sorted, 0.95),
                percentile(&sorted, 0.99),
                sorted.last().copied().unwrap_or(0),
            );
            all.extend_from_slice(&sorted);
        }
        if segments.len() > 1 {
            all.sort_unstable();
            let _ = writeln!(
                out,
                "  {:<24} {:>8} {:>6} {:>6} {:>6} {:>6} {:>6}",
                "(all)",
                all.len(),
                all.first().copied().unwrap_or(0),
                percentile(&all, 0.50),
                percentile(&all, 0.95),
                percentile(&all, 0.99),
                all.last().copied().unwrap_or(0),
            );
        }
    }
    if let Some(hist) = summary.hists.get("reliable.delivery_latency_ms") {
        if hist.count > 0 {
            let _ = writeln!(
                out,
                "  histogram aggregate: {} acks, mean {:.1} ms, min {} ms, max {} ms",
                hist.count,
                hist.sum as f64 / hist.count as f64,
                hist.min,
                hist.max
            );
        }
    }

    // Cache hit rates, straight from the instruments the audit structs
    // feed: a candidate that avoided the full fallback is a cache hit, and
    // the work store's traffic is summed over every family that reads it.
    let mut cache_lines: Vec<String> = Vec::new();
    let fallbacks = counter("strategy.full_fallbacks");
    let pairs = [
        (
            "streaming session reuse",
            counter("streaming.users_reused"),
            counter("streaming.users_refreshed"),
        ),
        (
            "strategy user reuse",
            counter("strategy.users_reused"),
            counter("strategy.users_refreshed"),
        ),
        (
            "strategy shard reuse",
            counter("strategy.shards_reused"),
            counter("strategy.shards_refreshed"),
        ),
        (
            "engine candidate cache",
            counter("strategy.candidates").saturating_sub(fallbacks),
            fallbacks,
        ),
    ];
    for (label, hits, misses) in pairs {
        if hits + misses > 0 {
            cache_lines.push(format!(
                "  {label:<26} {:>6.2}% ({hits} hit / {misses} miss)",
                ratio_pct(hits, hits + misses)
            ));
        }
    }
    let baseline_reuses = counter("baseline.reused");
    let baseline_rebuilds = counter("baseline.rebuilt");
    if baseline_reuses + baseline_rebuilds > 0 {
        cache_lines.push(format!(
            "  {:<26} {:>6.2}% ({baseline_reuses} reused / {baseline_rebuilds} rebuilt)",
            "baseline fold reuse",
            ratio_pct(baseline_reuses, baseline_reuses + baseline_rebuilds)
        ));
    }
    let store_total = |field: &str| -> u64 {
        summary
            .counters
            .iter()
            .filter(|(name, _)| name.split_once('.').map(|(_, f)| f) == Some(field))
            .map(|(_, value)| value)
            .sum()
    };
    let lookups = store_total("store_lookups");
    if lookups > 0 {
        let served = lookups.saturating_sub(store_total("store_fills"));
        cache_lines.push(format!(
            "  {:<26} {:>6.2}% ({served} served / {lookups} lookups)",
            "work store",
            ratio_pct(served, lookups)
        ));
    }
    if !cache_lines.is_empty() {
        let _ = writeln!(out, "\ncache hit rates:");
        for line in cache_lines {
            let _ = writeln!(out, "{line}");
        }
    }

    // Headline counters per family.
    let mut by_family: BTreeMap<&str, Vec<(&String, &u64)>> = BTreeMap::new();
    for (name, value) in &summary.counters {
        if *value > 0 {
            by_family
                .entry(family_of(name))
                .or_default()
                .push((name, value));
        }
    }
    if !by_family.is_empty() {
        let _ = writeln!(out, "\ncounters:");
        for (family, counters) in by_family {
            let rendered: Vec<String> = counters
                .iter()
                .map(|(name, value)| {
                    format!(
                        "{}={value}",
                        name.strip_prefix(family)
                            .unwrap_or(name)
                            .trim_start_matches('.')
                    )
                })
                .collect();
            let _ = writeln!(out, "  {family}: {}", rendered.join(" "));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_matches_nearest_rank() {
        let samples = vec![1, 2, 3, 4, 5, 6, 7, 8, 9, 10];
        assert_eq!(percentile(&samples, 0.50), 6);
        assert_eq!(percentile(&samples, 0.95), 10);
        assert_eq!(percentile(&samples, 0.0), 1);
        assert_eq!(percentile(&samples, 1.0), 10);
        assert_eq!(percentile(&[], 0.5), 0);
    }

    #[test]
    fn parses_and_segments_a_synthetic_trace() {
        let trace = concat!(
            "{\"t\":\"meta\",\"version\":1,\"spans\":3,\"events\":4,\"dropped\":0}\n",
            "{\"t\":\"counter\",\"name\":\"ingest.records\",\"value\":12}\n",
            "{\"t\":\"counter\",\"name\":\"streaming.users_reused\",\"value\":9}\n",
            "{\"t\":\"counter\",\"name\":\"streaming.users_refreshed\",\"value\":3}\n",
            "{\"t\":\"counter\",\"name\":\"streaming.store_lookups\",\"value\":1}\n",
            "{\"t\":\"counter\",\"name\":\"strategy.store_lookups\",\"value\":3}\n",
            "{\"t\":\"counter\",\"name\":\"strategy.store_fills\",\"value\":1}\n",
            "{\"t\":\"counter\",\"name\":\"strategy.candidates\",\"value\":5}\n",
            "{\"t\":\"counter\",\"name\":\"strategy.full_fallbacks\",\"value\":1}\n",
            "{\"t\":\"counter\",\"name\":\"baseline.reused\",\"value\":2}\n",
            "{\"t\":\"span\",\"id\":1,\"parent\":0,\"name\":\"privapi.window\",\"domain\":\"wall\",\"start_ns\":0,\"end_ns\":5000000,\"attrs\":{\"day\":2}}\n",
            "{\"t\":\"span\",\"id\":2,\"parent\":0,\"name\":\"engine.candidate\",\"domain\":\"wall\",\"start_ns\":0,\"end_ns\":4000000,\"attrs\":{\"candidate\":0}}\n",
            "{\"t\":\"span\",\"id\":3,\"parent\":2,\"name\":\"candidate.extract\",\"domain\":\"wall\",\"start_ns\":0,\"end_ns\":1000000,\"attrs\":{}}\n",
            "{\"t\":\"event\",\"seq\":0,\"name\":\"obs.phase\",\"domain\":\"wall\",\"at_ns\":0,\"attrs\":{\"phase\":\"chaos\"}}\n",
            "{\"t\":\"event\",\"seq\":1,\"name\":\"reliable.delivered\",\"domain\":\"sim\",\"at_ns\":1,\"attrs\":{\"latency_ms\":10}}\n",
            "{\"t\":\"event\",\"seq\":2,\"name\":\"reliable.delivered\",\"domain\":\"sim\",\"at_ns\":2,\"attrs\":{\"latency_ms\":30}}\n",
            "{\"t\":\"event\",\"seq\":3,\"name\":\"reliable.delivered\",\"domain\":\"sim\",\"at_ns\":3,\"attrs\":{\"latency_ms\":20}}\n",
        );
        let summary = parse_trace(trace).unwrap();
        assert_eq!(summary.counters["ingest.records"], 12);
        let families = summary.active_families();
        for family in ["ingest", "streaming", "privapi", "reliable", "obs"] {
            assert!(
                families.contains(family),
                "{family} missing from {families:?}"
            );
        }
        assert!(summary
            .missing_families(&["vm".to_string(), "ingest".to_string()])
            .contains(&"vm".to_string()));
        let segments = summary.latency_segments();
        assert_eq!(segments.len(), 1);
        assert_eq!(segments[0].0, "chaos");
        assert_eq!(segments[0].1, vec![10, 30, 20]);
        let rendered = render(&summary);
        assert!(rendered.contains("per-window wall breakdown"));
        assert!(rendered.contains("chaos"));
        assert!(rendered.contains("streaming session reuse"));
        assert!(rendered.contains("protected-side phases (1 candidate evaluations, 4.000 ms)"));
        assert!(rendered.contains("candidate.extract           1.000 ms   25.0%"));
        assert!(rendered.contains("work store                  75.00% (3 served / 4 lookups)"));
        assert!(rendered.contains("engine candidate cache      80.00% (4 hit / 1 miss)"));
        assert!(rendered.contains("baseline fold reuse        100.00% (2 reused / 0 rebuilt)"));
    }
}
