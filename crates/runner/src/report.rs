//! The schema-versioned benchmark report and the regression comparator.
//!
//! A [`Report`] is what one sweep of the suite produces: one [`Entry`] per
//! (benchmark, tool) pair plus computed [`Aggregates`]. Entries are kept
//! sorted by `(benchmark, tool)` and objects serialize with a fixed key
//! order, so a report is deterministic: two sweeps that measure the same
//! verdicts produce byte-identical JSON after [`Report::canonicalized`]
//! (which zeroes the wall-clock fields) regardless of worker count.
//!
//! [`compare`] diffs two reports and is the engine of the CI perf gate: it
//! flags verdict flips, jobs that stopped completing, vanished benchmarks,
//! and slowdowns beyond a configurable threshold.

use crate::json::Json;
use crate::pool::JobStatus;
use std::fmt;

/// Version of the JSON layout; bump on any breaking change to the schema.
///
/// Version history:
/// * **1** — entries + aggregates (+ additive `family`/per-family
///   rollups; an entry-level `tainted`, no longer written, is ignored).
/// * **2** — adds the optional top-level `throughput` object
///   ([`Throughput`]): sweep-level instances/sec with elapsed wall-clock
///   and worker/shard counts.
/// * **3** — drops the entry and aggregate `proved` fields (the verdict
///   says whether a tool proved unrealizability) and the throughput's
///   per-family `families` rates (fixed fractions of the total).
pub const SCHEMA_VERSION: u64 = 3;

/// Oldest schema version [`Report::from_json`] still reads. Older
/// versions differ only by keys the reader ignores (`proved`, `tainted`,
/// throughput `families`) or by an absent optional `throughput`, so
/// committed v1 and v2 baselines keep parsing.
pub const MIN_SCHEMA_VERSION: u64 = 1;

/// Sweep-level throughput: how fast a fuzz campaign pushed instances
/// through the engines. A first-class, schema-versioned part of the report
/// (version 2+) so CI can gate on throughput regressions exactly like it
/// gates on per-benchmark slowdowns.
///
/// The rate is derived from one wall-clock measurement of the whole sweep
/// (`instances / elapsed`), not from summing per-job times — with W
/// workers the two differ by roughly a factor of W.
#[derive(Clone, Debug, PartialEq)]
pub struct Throughput {
    /// Wall-clock duration of the whole sweep, in milliseconds.
    pub elapsed_millis: f64,
    /// Worker threads that executed the sweep.
    pub workers: usize,
    /// Index-space shards the sweep was split into.
    pub shards: usize,
    /// Total instances pushed through the sweep.
    pub instances: u64,
    /// Total instances per wall-clock second.
    pub total_per_sec: f64,
}

impl Throughput {
    /// Computes the throughput block from a sweep's wall clock and
    /// instance count (the rate is instances per *second*; a zero elapsed
    /// time yields a zero rate rather than infinity).
    pub fn from_counts(
        elapsed_millis: f64,
        workers: usize,
        shards: usize,
        instances: u64,
    ) -> Throughput {
        let secs = elapsed_millis / 1000.0;
        Throughput {
            elapsed_millis,
            workers,
            shards,
            instances,
            total_per_sec: if secs > 0.0 {
                instances as f64 / secs
            } else {
                0.0
            },
        }
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("elapsed_millis".into(), Json::Num(self.elapsed_millis)),
            ("workers".into(), Json::Num(self.workers as f64)),
            ("shards".into(), Json::Num(self.shards as f64)),
            ("instances".into(), Json::Num(self.instances as f64)),
            ("instances_per_sec".into(), Json::Num(self.total_per_sec)),
        ])
    }

    /// Parses a throughput block; a version-2 `families` object is ignored.
    fn from_json(value: &Json) -> Result<Throughput, String> {
        let num = |key: &str| {
            value
                .get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("throughput is missing the `{key}` number"))
        };
        Ok(Throughput {
            elapsed_millis: num("elapsed_millis")?,
            workers: num("workers")? as usize,
            shards: num("shards")? as usize,
            instances: num("instances")? as u64,
            total_per_sec: num("instances_per_sec")?,
        })
    }
}

/// One (benchmark, tool) measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct Entry {
    /// Benchmark name.
    pub benchmark: String,
    /// Tool name (`naySL`, `nayHorn`, `nope`).
    pub tool: String,
    /// How the job ended.
    pub status: JobStatus,
    /// Realizability verdict reported by the tool (`unrealizable`,
    /// `realizable`, `unknown`), or `-` when the job did not complete.
    pub verdict: String,
    /// Solver iterations (equation-solver rounds for nay, abstract-
    /// interpretation passes for nope); 0 when the job did not complete.
    pub iterations: u64,
    /// Wall-clock milliseconds.
    pub millis: f64,
    /// The workload family the benchmark belongs to (e.g. a generated-
    /// instance family like `plus_mod`), or empty for standalone
    /// benchmarks. Families group entries in the per-family aggregates
    /// ([`Report::family_aggregates`]) and scope the missing-entry gate of
    /// [`compare`]: a family present in only one report never trips it.
    /// Additive field — absent in older reports, parsed as empty.
    pub family: String,
}

impl Entry {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("benchmark".into(), Json::Str(self.benchmark.clone())),
            ("tool".into(), Json::Str(self.tool.clone())),
            ("status".into(), Json::Str(self.status.as_str().into())),
            ("verdict".into(), Json::Str(self.verdict.clone())),
            ("iterations".into(), Json::Num(self.iterations as f64)),
            ("millis".into(), Json::Num(self.millis)),
        ];
        // Family is additive and only serialized when set, so family-less
        // reports keep their pre-family byte layout.
        if !self.family.is_empty() {
            fields.push(("family".into(), Json::Str(self.family.clone())));
        }
        Json::Obj(fields)
    }

    fn from_json(value: &Json) -> Result<Entry, String> {
        let field = |key: &str| {
            value
                .get(key)
                .ok_or_else(|| format!("entry is missing the `{key}` field"))
        };
        let status_name = field("status")?
            .as_str()
            .ok_or("`status` is not a string")?;
        // Compatibility: reports written while timed-out job threads were
        // abandoned carry a boolean `tainted`, and reports before schema 3
        // a boolean `proved`; both are ignored.
        Ok(Entry {
            benchmark: field("benchmark")?
                .as_str()
                .ok_or("`benchmark` is not a string")?
                .to_string(),
            tool: field("tool")?
                .as_str()
                .ok_or("`tool` is not a string")?
                .to_string(),
            status: JobStatus::parse(status_name)
                .ok_or_else(|| format!("unknown status `{status_name}`"))?,
            verdict: field("verdict")?
                .as_str()
                .ok_or("`verdict` is not a string")?
                .to_string(),
            iterations: field("iterations")?
                .as_u64()
                .ok_or("`iterations` is not an integer")?,
            millis: field("millis")?
                .as_f64()
                .ok_or("`millis` is not a number")?,
            // Additive field: reports written before family tracking lack
            // it, and their entries are family-less.
            family: value
                .get("family")
                .map(|t| t.as_str().ok_or("`family` is not a string"))
                .transpose()?
                .unwrap_or("")
                .to_string(),
        })
    }

    fn key(&self) -> (&str, &str) {
        (self.benchmark.as_str(), self.tool.as_str())
    }
}

/// Suite-level totals, recomputed from the entries.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Aggregates {
    /// Number of entries.
    pub total: usize,
    /// Entries that completed.
    pub ok: usize,
    /// Entries that exceeded the wall-clock budget.
    pub timed_out: usize,
    /// Entries whose job panicked.
    pub crashed: usize,
    /// Sum of all wall-clock milliseconds.
    pub total_millis: f64,
}

impl Aggregates {
    /// Counts one more entry.
    fn add(&mut self, entry: &Entry) {
        self.total += 1;
        match entry.status {
            JobStatus::Ok => self.ok += 1,
            JobStatus::TimedOut => self.timed_out += 1,
            JobStatus::Crashed => self.crashed += 1,
        }
        self.total_millis += entry.millis;
    }
}

/// A full sweep of the benchmark suite.
#[derive(Clone, Debug, PartialEq)]
pub struct Report {
    /// The schema version the report was written with.
    pub schema_version: u64,
    /// Which suite ran (`quick` or `full`).
    pub suite: String,
    /// Per-(benchmark, tool) measurements, sorted by `(benchmark, tool)`.
    pub entries: Vec<Entry>,
    /// Sweep-level throughput, present for sweeps that measure it (the
    /// fuzz driver does; the fixed benchmark suites do not). Schema v2;
    /// absent from v1 reports.
    pub throughput: Option<Throughput>,
}

impl Report {
    /// Builds a report, sorting the entries into canonical order.
    pub fn new(suite: impl Into<String>, mut entries: Vec<Entry>) -> Report {
        entries.sort_by(|a, b| a.key().cmp(&b.key()));
        Report {
            schema_version: SCHEMA_VERSION,
            suite: suite.into(),
            entries,
            throughput: None,
        }
    }

    /// Attaches a sweep-level throughput measurement.
    pub fn with_throughput(mut self, throughput: Throughput) -> Report {
        self.throughput = Some(throughput);
        self
    }

    /// Recomputes the suite aggregates.
    pub fn aggregates(&self) -> Aggregates {
        let mut agg = Aggregates::default();
        for entry in &self.entries {
            agg.add(entry);
        }
        agg
    }

    /// Finds the entry for a (benchmark, tool) pair.
    pub fn entry(&self, benchmark: &str, tool: &str) -> Option<&Entry> {
        self.entries.iter().find(|e| e.key() == (benchmark, tool))
    }

    /// Per-family aggregates over the entries that carry a family, in
    /// family order (family-less entries are not grouped).
    pub fn family_aggregates(&self) -> std::collections::BTreeMap<String, Aggregates> {
        let mut families: std::collections::BTreeMap<String, Aggregates> =
            std::collections::BTreeMap::new();
        for entry in self.entries.iter().filter(|e| !e.family.is_empty()) {
            families.entry(entry.family.clone()).or_default().add(entry);
        }
        families
    }

    /// `true` when some entry belongs to the given family.
    pub fn has_family(&self, family: &str) -> bool {
        self.entries.iter().any(|e| e.family == family)
    }

    /// The report with every wall-clock field zeroed: what is left is
    /// exactly the machine- and scheduling-independent content, so two runs
    /// with identical verdicts canonicalize to byte-identical JSON. The
    /// throughput block is dropped wholesale — every field in it is a
    /// wall-clock derivative (and worker/shard counts are scheduling
    /// choices, not content).
    pub fn canonicalized(&self) -> Report {
        let mut report = self.clone();
        for entry in &mut report.entries {
            entry.millis = 0.0;
        }
        report.throughput = None;
        report
    }

    /// Serializes to pretty-printed JSON (deterministic byte output).
    pub fn to_json(&self) -> String {
        let agg = self.aggregates();
        let agg_json = |agg: &Aggregates| {
            Json::Obj(vec![
                ("total".into(), Json::Num(agg.total as f64)),
                ("ok".into(), Json::Num(agg.ok as f64)),
                ("timed_out".into(), Json::Num(agg.timed_out as f64)),
                ("crashed".into(), Json::Num(agg.crashed as f64)),
                ("total_millis".into(), Json::Num(agg.total_millis)),
            ])
        };
        let mut fields = vec![
            (
                "schema_version".into(),
                Json::Num(self.schema_version as f64),
            ),
            ("suite".into(), Json::Str(self.suite.clone())),
            ("aggregates".into(), agg_json(&agg)),
        ];
        // Per-family rollups, present only for reports that track families
        // (additive, like Entry::family; parsing ignores and recomputes).
        let families = self.family_aggregates();
        if !families.is_empty() {
            fields.push((
                "families".into(),
                Json::Obj(
                    families
                        .iter()
                        .map(|(name, agg)| (name.clone(), agg_json(agg)))
                        .collect(),
                ),
            ));
        }
        // Sweep-level throughput (schema v2): only serialized when
        // measured, so throughput-less reports keep their v1-style layout.
        if let Some(throughput) = &self.throughput {
            fields.push(("throughput".into(), throughput.to_json()));
        }
        fields.push((
            "benchmarks".into(),
            Json::Arr(self.entries.iter().map(Entry::to_json).collect()),
        ));
        Json::Obj(fields).to_string_pretty()
    }

    /// Parses a report, validating the schema version. The stored
    /// aggregates are ignored (they are always recomputed from the entries).
    pub fn from_json(text: &str) -> Result<Report, String> {
        let root = Json::parse(text).map_err(|e| e.to_string())?;
        let version = root
            .get("schema_version")
            .and_then(Json::as_u64)
            .ok_or("report is missing `schema_version`")?;
        if !(MIN_SCHEMA_VERSION..=SCHEMA_VERSION).contains(&version) {
            return Err(format!(
                "unsupported schema version {version} (this binary reads versions \
                 {MIN_SCHEMA_VERSION}..={SCHEMA_VERSION})"
            ));
        }
        let suite = root
            .get("suite")
            .and_then(Json::as_str)
            .ok_or("report is missing `suite`")?
            .to_string();
        let entries = root
            .get("benchmarks")
            .and_then(Json::as_array)
            .ok_or("report is missing the `benchmarks` array")?
            .iter()
            .map(Entry::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        let throughput = root
            .get("throughput")
            .map(Throughput::from_json)
            .transpose()?;
        let mut report = Report::new(suite, entries);
        report.throughput = throughput;
        Ok(report)
    }
}

/// Thresholds for [`compare`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CompareConfig {
    /// A completed entry is a regression when its new time exceeds the old
    /// time by more than this percentage.
    pub threshold_pct: f64,
    /// Entries whose new time is below this floor are never flagged as
    /// slowdowns (shields sub-millisecond benchmarks from scheduler noise).
    pub min_millis: f64,
    /// Sweep throughput is a regression when the new total rate drops
    /// below the old rate by more than this percentage. The default is
    /// deliberately generous: CI runners are noisy 1–2-CPU machines, and
    /// the verdict/oracle gates catch correctness regardless — this gate
    /// only has to catch "the sweep got several times slower".
    pub throughput_drop_pct: f64,
}

impl Default for CompareConfig {
    fn default() -> Self {
        CompareConfig {
            threshold_pct: 25.0,
            min_millis: 50.0,
            throughput_drop_pct: 50.0,
        }
    }
}

/// What kind of regression [`compare`] found.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RegressionKind {
    /// The realizability verdict changed between the two reports.
    VerdictFlip,
    /// An entry that used to complete now times out or crashes.
    StatusChange,
    /// An entry got slower than the threshold allows.
    Slowdown,
    /// A (benchmark, tool) pair from the old report is gone.
    Missing,
    /// Sweep-level instances/sec dropped below the configured fraction of
    /// the baseline rate.
    ThroughputDrop,
}

/// One regression found by [`compare`].
#[derive(Clone, Debug, PartialEq)]
pub struct Regression {
    /// Benchmark name.
    pub benchmark: String,
    /// Tool name.
    pub tool: String,
    /// What regressed.
    pub kind: RegressionKind,
    /// Human-readable explanation with the numbers involved.
    pub detail: String,
}

impl fmt::Display for Regression {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}: {}", self.benchmark, self.tool, self.detail)
    }
}

/// Diffs `new` against `old` and returns every regression. An empty result
/// means the gate passes; improvements (faster, newly solved, new entries)
/// are never flagged.
pub fn compare(old: &Report, new: &Report, config: &CompareConfig) -> Vec<Regression> {
    let mut regressions = Vec::new();
    for old_entry in &old.entries {
        let regression = |kind, detail| Regression {
            benchmark: old_entry.benchmark.clone(),
            tool: old_entry.tool.clone(),
            kind,
            detail,
        };
        let Some(new_entry) = new.entry(&old_entry.benchmark, &old_entry.tool) else {
            // Family-scoped missing gate: entries of a family the other
            // report does not cover at all are *additive* differences
            // (e.g. a generator family added to — or not yet in — one
            // side's catalogue), not vanished benchmarks. Only an entry
            // whose family both reports know, or a family-less entry, can
            // go missing.
            if old_entry.family.is_empty() || new.has_family(&old_entry.family) {
                regressions.push(regression(
                    RegressionKind::Missing,
                    "entry missing from the new report".into(),
                ));
            }
            continue;
        };
        // Status first: an entry that stops completing is a StatusChange,
        // not a "verdict flip to -"; an entry that *starts* completing is an
        // improvement, never a regression, whatever its verdict reads.
        if old_entry.status == JobStatus::Ok && new_entry.status != JobStatus::Ok {
            regressions.push(regression(
                RegressionKind::StatusChange,
                format!("status changed: ok -> {}", new_entry.status.as_str()),
            ));
            continue;
        }
        let both_ok = old_entry.status == JobStatus::Ok && new_entry.status == JobStatus::Ok;
        if both_ok && new_entry.verdict != old_entry.verdict {
            regressions.push(regression(
                RegressionKind::VerdictFlip,
                format!(
                    "verdict flipped: {} -> {}",
                    old_entry.verdict, new_entry.verdict
                ),
            ));
            continue;
        }
        let budget = old_entry.millis * (1.0 + config.threshold_pct / 100.0);
        if is_timed(old_entry, new_entry, config) && new_entry.millis > budget {
            regressions.push(regression(
                RegressionKind::Slowdown,
                format!(
                    "slowed down {:.1}ms -> {:.1}ms (>{:.0}% over baseline)",
                    old_entry.millis, new_entry.millis, config.threshold_pct
                ),
            ));
        }
    }
    regressions.extend(compare_throughput(old, new, config));
    regressions
}

/// Whether [`compare`] times `new` against `old`: both completed with the
/// same verdict and the new time is at or above
/// [`CompareConfig::min_millis`].
fn is_timed(old: &Entry, new: &Entry, config: &CompareConfig) -> bool {
    old.status == JobStatus::Ok
        && new.status == JobStatus::Ok
        && old.verdict == new.verdict
        && new.millis >= config.min_millis
}

/// How many of `old`'s entries [`compare`] times against
/// [`CompareConfig::threshold_pct`]; every other entry is checked for its
/// verdict, status and presence only. A gate whose floor leaves few
/// entries timed catches few slowdowns.
pub fn timed_entries(old: &Report, new: &Report, config: &CompareConfig) -> usize {
    old.entries
        .iter()
        .filter(|o| {
            new.entry(&o.benchmark, &o.tool)
                .is_some_and(|n| is_timed(o, n, config))
        })
        .count()
}

/// Per tool, the summed milliseconds `(old, new)` of the entries both
/// reports completed: a shift spread over the whole suite, which no single
/// entry shows against the gate's threshold and floor. Not part of the
/// gate.
pub fn tool_totals(old: &Report, new: &Report) -> std::collections::BTreeMap<String, (f64, f64)> {
    let mut totals = std::collections::BTreeMap::new();
    for o in old.entries.iter().filter(|o| o.status == JobStatus::Ok) {
        let Some(n) = new.entry(&o.benchmark, &o.tool) else {
            continue;
        };
        if n.status == JobStatus::Ok {
            let sums: &mut (f64, f64) = totals.entry(o.tool.clone()).or_default();
            sums.0 += o.millis;
            sums.1 += n.millis;
        }
    }
    totals
}

/// The throughput slice of the gate: flags a drop of the sweep's total
/// instances/sec beyond [`CompareConfig::throughput_drop_pct`]. Silently
/// passes when either report carries no throughput — a v1 baseline cannot
/// gate a v2+ sweep — and never flags a rate the baseline measured at zero.
pub fn compare_throughput(old: &Report, new: &Report, config: &CompareConfig) -> Vec<Regression> {
    let (Some(old_tp), Some(new_tp)) = (&old.throughput, &new.throughput) else {
        return Vec::new();
    };
    let (old_rate, new_rate) = (old_tp.total_per_sec, new_tp.total_per_sec);
    let floor = old_rate * (1.0 - config.throughput_drop_pct / 100.0);
    if old_rate > 0.0 && new_rate < floor {
        vec![Regression {
            benchmark: "sweep/total".into(),
            tool: "throughput".into(),
            kind: RegressionKind::ThroughputDrop,
            detail: format!(
                "throughput dropped {:.1}/s -> {:.1}/s (>{:.0}% below baseline)",
                old_rate, new_rate, config.throughput_drop_pct
            ),
        }]
    } else {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(benchmark: &str, tool: &str, millis: f64) -> Entry {
        Entry {
            benchmark: benchmark.into(),
            tool: tool.into(),
            status: JobStatus::Ok,
            verdict: "unrealizable".into(),
            iterations: 3,
            millis,
            family: String::new(),
        }
    }

    fn family_entry(benchmark: &str, tool: &str, family: &str) -> Entry {
        Entry {
            family: family.into(),
            ..entry(benchmark, tool, 10.0)
        }
    }

    fn sample() -> Report {
        Report::new(
            "quick",
            vec![
                entry("mpg_ite2", "naySL", 120.0),
                entry("mpg_ite2", "nope", 900.0),
                Entry {
                    status: JobStatus::TimedOut,
                    verdict: "-".into(),
                    iterations: 0,
                    ..entry("plane1", "nayHorn", 5000.0)
                },
            ],
        )
    }

    #[test]
    fn json_round_trips_exactly() {
        let report = sample();
        let text = report.to_json();
        let parsed = Report::from_json(&text).expect("parse back");
        assert_eq!(parsed, report);
        assert_eq!(parsed.to_json(), text);
    }

    #[test]
    fn entries_are_sorted_canonically() {
        let report = Report::new(
            "quick",
            vec![
                entry("zz", "nope", 1.0),
                entry("aa", "nope", 1.0),
                entry("aa", "naySL", 1.0),
            ],
        );
        let keys: Vec<_> = report
            .entries
            .iter()
            .map(|e| (e.benchmark.clone(), e.tool.clone()))
            .collect();
        assert_eq!(
            keys,
            vec![
                ("aa".into(), "naySL".into()),
                ("aa".into(), "nope".into()),
                ("zz".into(), "nope".into())
            ] as Vec<(String, String)>
        );
    }

    #[test]
    fn aggregates_count_statuses_and_millis() {
        let agg = sample().aggregates();
        assert_eq!(agg.total, 3);
        assert_eq!(agg.ok, 2);
        assert_eq!(agg.timed_out, 1);
        assert_eq!(agg.crashed, 0);
        assert_eq!(agg.total_millis, 6020.0);
    }

    #[test]
    fn canonicalization_zeroes_time_but_keeps_verdicts() {
        let canon = sample().canonicalized();
        assert!(canon.entries.iter().all(|e| e.millis == 0.0));
        let verdicts = |r: &Report| {
            r.entries
                .iter()
                .map(|e| e.verdict.clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(verdicts(&canon), verdicts(&sample()));
    }

    #[test]
    fn comparing_a_report_with_itself_is_clean() {
        let report = sample();
        assert!(compare(&report, &report, &CompareConfig::default()).is_empty());
    }

    fn all_ok() -> Report {
        Report::new(
            "quick",
            vec![
                entry("mpg_ite2", "naySL", 120.0),
                entry("mpg_ite2", "nope", 900.0),
            ],
        )
    }

    #[test]
    fn verdict_flips_and_slowdowns_are_flagged() {
        let old = all_ok();
        let mut new = all_ok();
        new.entries[0].verdict = "unknown".into();
        assert_eq!(new.entries[1].tool, "nope");
        new.entries[1].millis = 2000.0;
        let regressions = compare(&old, &new, &CompareConfig::default());
        assert_eq!(regressions.len(), 2);
        assert!(regressions
            .iter()
            .any(|r| r.kind == RegressionKind::VerdictFlip));
        assert!(regressions
            .iter()
            .any(|r| r.kind == RegressionKind::Slowdown));
    }

    #[test]
    fn tool_totals_sum_the_entries_both_reports_completed() {
        let mut old = all_ok();
        old.entries.push(entry("plane1", "naySL", 30.0));
        old.entries.push(entry("plane2", "nope", 5.0));
        old.entries.push(entry("gone", "nope", 70.0));
        let mut new = all_ok();
        new.entries[0].millis = 100.0;
        new.entries[1].millis = 450.0;
        new.entries.push(entry("plane1", "naySL", 20.0));
        let mut timed_out = entry("plane2", "nope", 9.0);
        timed_out.status = JobStatus::TimedOut;
        new.entries.push(timed_out);
        let totals = tool_totals(&old, &new);
        // naySL: mpg_ite2 120 → 100 and plane1 30 → 20; nope: mpg_ite2
        // 900 → 450 only (plane2 timed out, gone is missing)
        assert_eq!(totals.len(), 2);
        assert_eq!(totals["naySL"], (150.0, 120.0));
        assert_eq!(totals["nope"], (900.0, 450.0));
        assert!(tool_totals(&old, &Report::new("quick", Vec::new())).is_empty());
    }

    #[test]
    fn timed_entries_counts_completed_agreeing_entries_at_or_above_the_floor() {
        let config = CompareConfig {
            min_millis: 200.0,
            ..CompareConfig::default()
        };
        let mut old = all_ok();
        old.entries.push(entry("plane1", "nayHorn", 100.0));
        old.entries.push(entry("plane2", "nayHorn", 300.0));
        old.entries.push(entry("gone", "nope", 900.0));
        let mut new = all_ok();
        new.entries.push(entry("plane1", "nayHorn", 200.0)); // at the floor
        let mut flipped = entry("plane2", "nayHorn", 300.0);
        flipped.verdict = "unknown".into();
        new.entries.push(flipped);
        // mpg_ite2/naySL is below the floor, mpg_ite2/nope above it
        assert_eq!(timed_entries(&old, &new, &config), 2);
        new.entries[0].millis = 250.0;
        assert_eq!(timed_entries(&old, &new, &config), 3);
        new.entries[1].status = JobStatus::TimedOut;
        assert_eq!(timed_entries(&old, &new, &config), 2);
        assert_eq!(timed_entries(&old, &old, &CompareConfig::default()), 5);
    }

    #[test]
    fn reports_carrying_tainted_still_parse_and_their_slowdowns_gate() {
        // Reports written while timed-out job threads were abandoned mark
        // entries `"tainted": true` and used to exempt them from the
        // slowdown gate. The field still parses, but no longer exempts.
        let old = all_ok();
        let mut new = all_ok();
        new.entries[1].millis = 9000.0;
        let text = new.to_json().replace(
            "\"millis\": 9000",
            "\"millis\": 9000,\n      \"tainted\": true",
        );
        assert!(text.contains("\"tainted\": true"));
        let parsed = Report::from_json(&text).expect("parse a report carrying `tainted`");
        assert_eq!(parsed, new);
        let regressions = compare(&old, &parsed, &CompareConfig::default());
        assert_eq!(regressions.len(), 1);
        assert_eq!(regressions[0].kind, RegressionKind::Slowdown);
    }

    #[test]
    fn reports_without_the_tainted_field_parse_as_untainted() {
        // The writer no longer emits the field; its reports parse back
        // unchanged.
        let text = sample().to_json();
        assert!(!text.contains("tainted"));
        assert_eq!(Report::from_json(&text).expect("parse"), sample());
    }

    #[test]
    fn slowdowns_gate_despite_a_timeout_elsewhere() {
        let mut old = all_ok();
        old.entries.push(entry("plane1", "nayHorn", 100.0));
        let mut new = all_ok();
        new.entries[1].millis = 9000.0;
        new.entries.push(Entry {
            status: JobStatus::TimedOut,
            verdict: "-".into(),
            iterations: 0,
            ..entry("plane1", "nayHorn", 5000.0)
        });
        let new = Report::new("quick", new.entries);
        let regressions = compare(&old, &new, &CompareConfig::default());
        assert_eq!(regressions.len(), 2);
        assert!(regressions
            .iter()
            .any(|r| r.kind == RegressionKind::Slowdown));
        assert!(regressions
            .iter()
            .any(|r| r.kind == RegressionKind::StatusChange));
    }

    #[test]
    fn small_absolute_times_are_shielded_from_noise() {
        let old = Report::new("quick", vec![entry("tiny", "naySL", 1.0)]);
        let new = Report::new("quick", vec![entry("tiny", "naySL", 3.0)]);
        // 3x slower but under the 50ms floor: not a regression.
        assert!(compare(&old, &new, &CompareConfig::default()).is_empty());
        // With the floor lowered it is flagged.
        let config = CompareConfig {
            threshold_pct: 25.0,
            min_millis: 0.0,
            ..CompareConfig::default()
        };
        assert_eq!(compare(&old, &new, &config).len(), 1);
    }

    #[test]
    fn missing_entries_and_status_changes_are_flagged() {
        let old = sample();
        let mut new = sample();
        new.entries.remove(2);
        new.entries[0].status = JobStatus::Crashed;
        new.entries[0].verdict = "-".into();
        let regressions = compare(&old, &new, &CompareConfig::default());
        assert!(regressions
            .iter()
            .any(|r| r.kind == RegressionKind::Missing));
        // The crashed entry's verdict also changed, which reports first.
        assert!(regressions.iter().any(
            |r| r.kind == RegressionKind::VerdictFlip || r.kind == RegressionKind::StatusChange
        ));
    }

    #[test]
    fn recovering_entries_are_improvements_not_regressions() {
        // Old: timed out (verdict "-"). New: completes and proves. The
        // verdicts differ, but an entry that *starts* completing must never
        // be flagged.
        let old = Report::new(
            "quick",
            vec![Entry {
                status: JobStatus::TimedOut,
                verdict: "-".into(),
                iterations: 0,
                ..entry("plane1", "naySL", 5000.0)
            }],
        );
        let new = Report::new("quick", vec![entry("plane1", "naySL", 80.0)]);
        assert!(compare(&old, &new, &CompareConfig::default()).is_empty());
    }

    #[test]
    fn stopping_to_complete_reports_a_status_change_not_a_verdict_flip() {
        let old = Report::new("quick", vec![entry("plane1", "naySL", 80.0)]);
        let new = Report::new(
            "quick",
            vec![Entry {
                status: JobStatus::TimedOut,
                verdict: "-".into(),
                iterations: 0,
                ..entry("plane1", "naySL", 5000.0)
            }],
        );
        let regressions = compare(&old, &new, &CompareConfig::default());
        assert_eq!(regressions.len(), 1);
        assert_eq!(regressions[0].kind, RegressionKind::StatusChange);
    }

    #[test]
    fn reports_without_the_family_field_parse_as_family_less() {
        // The committed pre-family baseline has no `family` keys; its
        // entries parse family-less and its byte layout is preserved when
        // re-serialized (family is only emitted when set).
        let report = sample();
        let text = report.to_json();
        assert!(
            !text.contains("\"family\""),
            "family-less stays family-less"
        );
        let parsed = Report::from_json(&text).expect("parse");
        assert!(parsed.entries.iter().all(|e| e.family.is_empty()));
    }

    #[test]
    fn family_fields_and_aggregates_round_trip() {
        let report = Report::new(
            "fuzz-race",
            vec![
                family_entry("gen/plus_mod", "race", "plus_mod"),
                family_entry("gen/const_sum", "race", "const_sum"),
                entry("standalone", "race", 5.0),
            ],
        );
        let text = report.to_json();
        assert!(text.contains("\"families\""));
        assert!(text.contains("\"family\": \"plus_mod\""));
        let parsed = Report::from_json(&text).expect("parse back");
        assert_eq!(parsed, report);
        let families = parsed.family_aggregates();
        assert_eq!(families.len(), 2, "family-less entries are not grouped");
        assert_eq!(families["plus_mod"].total, 1);
        assert_eq!(families["const_sum"].ok, 1);
    }

    #[test]
    fn additive_families_do_not_trip_the_missing_entry_gate() {
        // The regression scenario: one report covers a workload family the
        // other does not (the family was added to — or is not yet in — the
        // generator catalogue). The per-entry Missing gate must not fire
        // for the uncovered family, in either comparison direction.
        let with_family = Report::new(
            "fuzz-race",
            vec![
                family_entry("gen/plus_mod", "race", "plus_mod"),
                family_entry("gen/shiny_new", "race", "shiny_new"),
            ],
        );
        let without = Report::new(
            "fuzz-race",
            vec![family_entry("gen/plus_mod", "race", "plus_mod")],
        );
        assert!(
            compare(&with_family, &without, &CompareConfig::default()).is_empty(),
            "a family absent from the new report must not report Missing"
        );
        assert!(
            compare(&without, &with_family, &CompareConfig::default()).is_empty(),
            "a family absent from the old report must not report Missing"
        );
    }

    #[test]
    fn missing_entries_within_a_shared_family_still_gate() {
        let old = Report::new(
            "fuzz-race",
            vec![
                family_entry("gen/plus_mod", "race", "plus_mod"),
                family_entry("gen/plus_mod_deep", "race", "plus_mod"),
            ],
        );
        let new = Report::new(
            "fuzz-race",
            vec![family_entry("gen/plus_mod", "race", "plus_mod")],
        );
        let regressions = compare(&old, &new, &CompareConfig::default());
        assert_eq!(regressions.len(), 1, "{regressions:?}");
        assert_eq!(regressions[0].kind, RegressionKind::Missing);
        // Family-less entries keep the strict behaviour.
        let old_plain = Report::new("quick", vec![entry("plain", "naySL", 10.0)]);
        let new_plain = Report::new("quick", vec![]);
        assert_eq!(
            compare(&old_plain, &new_plain, &CompareConfig::default()).len(),
            1
        );
    }

    #[test]
    fn wrong_schema_version_is_rejected() {
        let text = sample().to_json();
        let line = "\"schema_version\": 3";
        assert!(text.contains(line), "{text}");
        for version in [0, SCHEMA_VERSION + 1, 99] {
            let text = text.replace(line, &format!("\"schema_version\": {version}"));
            let err = Report::from_json(&text).unwrap_err();
            assert!(err.contains("schema version"), "{err}");
        }
    }

    /// A report as schema version 2 wrote it: entry and aggregate
    /// `proved`, an entry-level `tainted`, and per-family throughput rates.
    const V2_REPORT: &str = r#"{
  "schema_version": 2,
  "suite": "fuzz-nope",
  "aggregates": {"total": 2, "ok": 2, "timed_out": 0, "crashed": 0, "proved": 1, "total_millis": 30},
  "families": {
    "const_sum": {"total": 1, "ok": 1, "timed_out": 0, "crashed": 0, "proved": 1, "total_millis": 10},
    "plus_mod": {"total": 1, "ok": 1, "timed_out": 0, "crashed": 0, "proved": 0, "total_millis": 20}
  },
  "throughput": {
    "elapsed_millis": 2000, "workers": 4, "shards": 8, "instances": 2000,
    "instances_per_sec": 1000,
    "families": {"const_sum": 500, "plus_mod": 500}
  },
  "benchmarks": [
    {"benchmark": "gen/const_sum", "tool": "nope", "status": "ok", "verdict": "unrealizable=1",
     "proved": true, "iterations": 3, "millis": 10, "family": "const_sum"},
    {"benchmark": "gen/plus_mod", "tool": "nope", "status": "ok", "verdict": "realizable=1",
     "proved": false, "iterations": 3, "millis": 20, "tainted": false, "family": "plus_mod"}
  ]
}"#;

    #[test]
    fn v1_reports_still_parse() {
        // Reports written before a bump must not be orphaned. A v1 report
        // is a v2 report with no `throughput` key; a v2 report is a v3
        // report plus `proved` keys and per-family throughput rates.
        let mut text = sample().to_json();
        text = text.replace("\"schema_version\": 3", "\"schema_version\": 1");
        let parsed = Report::from_json(&text).expect("v1 parses");
        assert!(parsed.throughput.is_none());
        assert_eq!(parsed.entries, sample().entries);

        let v2 = Report::from_json(V2_REPORT).expect("v2 parses");
        let expected = vec![
            Entry {
                verdict: "unrealizable=1".into(),
                ..family_entry("gen/const_sum", "nope", "const_sum")
            },
            Entry {
                verdict: "realizable=1".into(),
                millis: 20.0,
                ..family_entry("gen/plus_mod", "nope", "plus_mod")
            },
        ];
        assert_eq!(v2.entries, expected);
        let throughput = Throughput::from_counts(2000.0, 4, 8, 2000);
        assert_eq!(v2.throughput.as_ref(), Some(&throughput));
        // Written back, it is a v3 report without the removed keys.
        let rewritten = v2.to_json();
        assert!(rewritten.contains("\"schema_version\": 3"));
        assert!(!rewritten.contains("proved") && !rewritten.contains("tainted"));
        assert_eq!(rewritten.matches("\"families\"").count(), 1, "{rewritten}");

        // Only the total gates: half the total rate still passes (the
        // per-family rates the baseline carries are not compared), and a
        // drop of the total beyond the threshold is the one regression.
        let config = CompareConfig::default();
        let with_rate = |rate: f64| {
            let mut report = Report::new("fuzz-nope", expected.clone());
            report.throughput = Some(Throughput {
                total_per_sec: rate,
                ..throughput.clone()
            });
            report
        };
        assert!(compare_throughput(&v2, &with_rate(500.0), &config).is_empty());
        let regressions = compare_throughput(&v2, &with_rate(400.0), &config);
        assert_eq!(regressions.len(), 1, "{regressions:?}");
        assert_eq!(regressions[0].benchmark, "sweep/total");
        assert!(compare(&v2, &with_rate(1000.0), &config).is_empty());
    }

    fn sample_throughput(total: f64) -> Throughput {
        Throughput {
            total_per_sec: total,
            ..Throughput::from_counts(2000.0, 4, 8, 1000)
        }
    }

    #[test]
    fn throughput_round_trips_and_canonicalization_drops_it() {
        let report = Report::new("fuzz", vec![entry("a", "nope", 1.0)])
            .with_throughput(sample_throughput(500.0));
        let text = report.to_json();
        assert!(text.contains("\"instances_per_sec\""));
        let parsed = Report::from_json(&text).expect("parse back");
        assert_eq!(parsed, report);
        assert_eq!(parsed.to_json(), text);
        assert!(parsed.canonicalized().throughput.is_none());
        assert!(
            !parsed.canonicalized().to_json().contains("throughput"),
            "canonical JSON carries no wall-clock derivatives"
        );
    }

    #[test]
    fn throughput_from_counts_is_consistent() {
        let tp = Throughput::from_counts(500.0, 2, 4, 1000);
        assert_eq!(tp.instances, 1000);
        assert!((tp.total_per_sec - 2000.0).abs() < 1e-9);
        // Degenerate wall clock: a zero rate, not infinity.
        let zero = Throughput::from_counts(0.0, 2, 4, 1000);
        assert_eq!(zero.total_per_sec, 0.0);
    }

    #[test]
    fn throughput_drops_gate_and_gains_do_not() {
        let base = Report::new("fuzz", vec![entry("a", "nope", 1.0)]);
        let old = base.clone().with_throughput(sample_throughput(1000.0));
        // 60% drop with a 50% threshold: the total flags.
        let slow = base.clone().with_throughput(sample_throughput(400.0));
        let regressions = compare(&old, &slow, &CompareConfig::default());
        assert_eq!(regressions.len(), 1, "{regressions:?}");
        assert_eq!(regressions[0].kind, RegressionKind::ThroughputDrop);
        assert_eq!(regressions[0].benchmark, "sweep/total");
        // 40% drop stays under the 50% threshold.
        let ok = base.clone().with_throughput(sample_throughput(600.0));
        assert!(compare(&old, &ok, &CompareConfig::default()).is_empty());
        // A speedup is never a regression.
        let fast = base.clone().with_throughput(sample_throughput(4000.0));
        assert!(compare(&old, &fast, &CompareConfig::default()).is_empty());
        // Tighter threshold flags the 40% drop.
        let tight = CompareConfig {
            throughput_drop_pct: 30.0,
            ..CompareConfig::default()
        };
        assert_eq!(compare(&old, &ok, &tight).len(), 1);
    }

    #[test]
    fn throughput_gate_needs_both_sides() {
        let base = Report::new("fuzz", vec![entry("a", "nope", 1.0)]);
        let with_tp = base.clone().with_throughput(sample_throughput(1000.0));
        // v1 baseline (no throughput) never gates a v2+ sweep, either way.
        assert!(compare(&with_tp, &base, &CompareConfig::default()).is_empty());
        assert!(compare(&base, &with_tp, &CompareConfig::default()).is_empty());
    }
}
