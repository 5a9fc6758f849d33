//! Experiment harness regenerating every table/figure of the paper.
//!
//! The poster's evaluation claims are indexed in `DESIGN.md` §4 (E1–E8 plus
//! the Figure 1 architecture F1). Each experiment lives in its own module
//! with a `run(scale)` entry point returning a printable table; the
//! `experiments` binary drives them, and the Criterion benches under
//! `benches/` measure the hot paths of each experiment.

pub mod data;
pub mod e1;
pub mod e10;
pub mod e11;
pub mod e12;
pub mod e13;
pub mod e14;
pub mod e15;
pub mod e16;
pub mod e2;
pub mod e3;
pub mod e4;
pub mod e5;
pub mod e6;
pub mod e7;
pub mod e8;
pub mod f1;

/// Experiment scale: `Small` keeps every experiment under a few seconds,
/// `Medium` is the attack-path regression point (large enough for the
/// indexed-vs-scan and parallel-vs-serial gaps to be visible), `Full`
/// approaches the population sizes a real deployment would see, and
/// `Large` is the streaming stress shape — a five-digit population with
/// sparse daily participation, where per-window cost must track *active*
/// users, not the accumulated prefix (E11's last/first-window wall ratio
/// is the headline number).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// CI-friendly: tens of users, a week of data.
    Small,
    /// Attack-path regression scale: most of a hundred users, ten days.
    Medium,
    /// Paper-scale: hundreds of users, two weeks of data.
    Full,
    /// Streaming stress scale: ten thousand users, sparse participation.
    Large,
}

impl Scale {
    /// (users, days, sampling interval seconds) for dataset-driven
    /// experiments.
    pub fn population(&self) -> (usize, usize, i64) {
        data::by_scale(
            *self,
            (30, 7, 120),
            (80, 10, 90),
            (200, 14, 60),
            (10_000, 8, 1_200),
        )
    }

    /// Parses a `--scale` argument. Unknown values are an *error*, never a
    /// silent fallback — a typo like `--scale mediun` must not quietly run
    /// the default scale and masquerade as a regression data point.
    pub fn parse(value: &str) -> Result<Scale, String> {
        match value {
            "small" => Ok(Scale::Small),
            "medium" => Ok(Scale::Medium),
            "full" => Ok(Scale::Full),
            "large" => Ok(Scale::Large),
            other => Err(format!(
                "unknown --scale {other:?}; use small|medium|full|large"
            )),
        }
    }
}

/// Renders the `"host"` block every `BENCH_*.json` report embeds: the
/// machine and build-flag context a regression number is meaningless
/// without. The block is a full line (trailing `,\n`) so experiment
/// `to_json` renderers splice it right after their `"experiment"` key.
pub fn host_json() -> String {
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "  \"host\": {{\n    \"cores\": {cores},\n    \"arch\": \"{}\",\n    \
         \"os\": \"{}\",\n    \"profile\": \"{profile}\",\n    \
         \"debug_assertions\": {}\n  }},\n",
        std::env::consts::ARCH,
        std::env::consts::OS,
        cfg!(debug_assertions),
    )
}

/// Renders an audit record's counters as the JSON member
/// `"<family>": {"<field>": value, ...}`, indented `depth` levels deep —
/// the report key of each counter is its instrument name.
pub fn audit_json<A: obs::Audit>(audit: &A, depth: usize) -> String {
    let pad = "  ".repeat(depth);
    let members: Vec<String> = audit
        .counters()
        .map(|(field, value)| format!("{pad}  \"{field}\": {value}"))
        .collect();
    format!(
        "{pad}\"{}\": {{\n{}\n{pad}}}",
        A::FAMILY,
        members.join(",\n")
    )
}

/// Renders an audit record's counters as `<family>: field=value ...`.
pub fn audit_line<A: obs::Audit>(audit: &A) -> String {
    let members: Vec<String> = audit
        .counters()
        .map(|(field, value)| format!("{field}={value}"))
        .collect();
    format!("{}: {}", A::FAMILY, members.join(" "))
}

/// Asserts that `json` reports every counter of `audit` under its
/// instrument name: `json["<family>"]["<field>"]`.
#[cfg(test)]
pub(crate) fn assert_reported<A: obs::Audit>(json: &obs::json::JsonValue, audit: &A) {
    for (field, value) in audit.counters() {
        let reported = json.get(A::FAMILY).and_then(|f| f.get(field));
        assert_eq!(
            reported.and_then(|v| v.as_u64()),
            Some(value),
            "{}.{field}",
            A::FAMILY
        );
    }
}

/// What a session's work store held after the last window, next to the
/// bound the retention rule puts on it: only a feasible candidate keeps its
/// protected outputs, so the store holds at most one output per feasible
/// output family and prefix trajectory.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Retained {
    /// Store entries: outputs, shards and utility contributions.
    pub entries: usize,
    /// Protected outputs held.
    pub outputs: usize,
    /// Records across those outputs.
    pub output_records: usize,
    /// Distinct strategies among the last window's feasible candidates.
    pub feasible_families: usize,
    /// Trajectories in the accumulated prefix.
    pub prefix_trajectories: usize,
    /// Candidates in the pool.
    pub pool: usize,
}

impl Retained {
    /// Reads `store` after the last window. `feasible` lists the feasible
    /// candidates of every release of that window.
    pub fn of<'a>(
        store: &privapi::streaming::WorkStore,
        feasible: impl IntoIterator<Item = &'a privapi::selection::CandidateResult>,
        prefix_trajectories: usize,
        pool: usize,
    ) -> Self {
        let families: std::collections::BTreeSet<String> = feasible
            .into_iter()
            .filter(|c| c.feasible)
            .map(|c| c.info.to_string())
            .collect();
        Self {
            entries: store.len(),
            outputs: store.outputs(),
            output_records: store.output_records(),
            feasible_families: families.len(),
            prefix_trajectories,
            pool,
        }
    }

    /// The `"retained": {...}` member, indented one level.
    pub fn json(&self) -> String {
        format!(
            "  \"retained\": {{\n    \"entries\": {},\n    \"outputs\": {},\n    \
             \"output_records\": {},\n    \"feasible_families\": {},\n    \
             \"prefix_trajectories\": {},\n    \"pool\": {}\n  }}",
            self.entries,
            self.outputs,
            self.output_records,
            self.feasible_families,
            self.prefix_trajectories,
            self.pool
        )
    }
}

impl std::fmt::Display for Retained {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "retained: entries={} outputs={} output_records={} feasible_families={} \
             prefix_trajectories={} pool={}",
            self.entries,
            self.outputs,
            self.output_records,
            self.feasible_families,
            self.prefix_trajectories,
            self.pool
        )
    }
}

/// Asserts the retention bounds — at most one output per feasible family
/// and prefix trajectory, fewer than one per candidate — and that `json`
/// reports `retained` in its `retained` block.
#[cfg(test)]
pub(crate) fn assert_retained(json: &obs::json::JsonValue, retained: &Retained) {
    let r = retained;
    assert!(
        r.outputs <= r.feasible_families * r.prefix_trajectories,
        "{r:?}"
    );
    assert!(r.outputs < r.pool * r.prefix_trajectories, "{r:?}");
    let block = json.get("retained").expect("retained block");
    for (key, value) in [
        ("entries", r.entries),
        ("outputs", r.outputs),
        ("output_records", r.output_records),
        ("feasible_families", r.feasible_families),
        ("prefix_trajectories", r.prefix_trajectories),
        ("pool", r.pool),
    ] {
        let reported = block.get(key).and_then(|v| v.as_u64());
        assert_eq!(reported, Some(value as u64), "retained.{key}");
    }
}

/// Renders a markdown-style table row.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    let mut out = String::from("|");
    for (cell, width) in cells.iter().zip(widths) {
        out.push_str(&format!(" {cell:<width$} |"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parse_accepts_known_and_rejects_unknown() {
        assert_eq!(Scale::parse("small"), Ok(Scale::Small));
        assert_eq!(Scale::parse("medium"), Ok(Scale::Medium));
        assert_eq!(Scale::parse("full"), Ok(Scale::Full));
        assert_eq!(Scale::parse("large"), Ok(Scale::Large));
        for bad in ["smoke", "mediun", "MEDIUM", "", "LARGE", "huge"] {
            let err = Scale::parse(bad).unwrap_err();
            assert!(err.contains("unknown --scale"), "{err}");
            assert!(err.contains("small|medium|full|large"), "{err}");
        }
    }

    #[test]
    fn host_json_names_cores_and_build_flags() {
        let host = host_json();
        assert!(host.starts_with("  \"host\": {"));
        assert!(host.ends_with("},\n"));
        for key in [
            "\"cores\"",
            "\"arch\"",
            "\"os\"",
            "\"profile\"",
            "\"debug_assertions\"",
        ] {
            assert!(host.contains(key), "missing {key} in {host}");
        }
    }

    #[test]
    fn population_matches_by_scale_helper() {
        assert_eq!(Scale::Small.population(), (30, 7, 120));
        assert_eq!(Scale::Medium.population(), (80, 10, 90));
        assert_eq!(Scale::Full.population(), (200, 14, 60));
        assert_eq!(Scale::Large.population(), (10_000, 8, 1_200));
        assert_eq!(data::by_scale(Scale::Medium, 1, 2, 3, 4), 2);
        assert_eq!(data::by_scale(Scale::Large, 1, 2, 3, 4), 4);
    }
}
