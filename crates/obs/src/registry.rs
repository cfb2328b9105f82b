//! The metrics registry: named counters, gauges and log-linear bucketed
//! histograms, rendered as Prometheus text exposition.
//!
//! Handles are `Arc`s created and owned by the instance that does the work
//! (an index cache, an answer cache, an engine, a server); the hot path
//! touches only the handle's atomics. A registry *attaches* those same
//! `Arc`s under family names and reads them live when rendering — it never
//! holds a copy, so there is nothing to sync at scrape time.
//!
//! ## Histogram bucket scheme
//!
//! Log-linear, HDR-style: values below 8 get exact unit buckets, and every
//! power-of-two octave above is split into 8 linear sub-buckets, so the
//! relative bucket width is at most 12.5% across the full `u64` range.
//! Recording is `O(1)` bit arithmetic (no search) and percentiles are
//! derived from the bucket counts, clamped to the exactly-tracked maximum.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use serde::{Deserialize, Serialize};

/// A monotonic counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Add one, returning the previous value.
    pub fn inc(&self) -> u64 {
        self.0.fetch_add(1, Ordering::Relaxed)
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A point-in-time value that can go up and down.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Overwrite the value.
    pub fn set(&self, value: i64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// Adjust by `delta`.
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Add one unless the value has reached `limit`: a counting gate whose
    /// occupancy is the published value. `false` when full.
    pub fn try_inc_below(&self, limit: i64) -> bool {
        self.0
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |current| {
                (current < limit).then_some(current + 1)
            })
            .is_ok()
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Sub-bucket resolution: 2^3 = 8 linear sub-buckets per octave.
const SUB_BITS: u32 = 3;
const SUB: usize = 1 << SUB_BITS;
/// Unit buckets for 0..8, then 8 sub-buckets for each octave 2^3..2^63.
const BUCKETS: usize = SUB + (64 - SUB_BITS as usize) * SUB;

/// The bucket index of `value` — exact below [`SUB`], log-linear above.
fn bucket_index(value: u64) -> usize {
    if value < SUB as u64 {
        return value as usize;
    }
    let exp = 63 - value.leading_zeros();
    let sub = ((value >> (exp - SUB_BITS)) & (SUB as u64 - 1)) as usize;
    SUB + ((exp - SUB_BITS) as usize) * SUB + sub
}

/// The inclusive lower bound of bucket `index`.
fn bucket_lower(index: usize) -> u64 {
    if index < SUB {
        return index as u64;
    }
    let octave = ((index - SUB) / SUB) as u32 + SUB_BITS;
    let sub = ((index - SUB) % SUB) as u64;
    (1u64 << octave) + sub * (1u64 << (octave - SUB_BITS))
}

/// The exclusive upper bound of bucket `index` (`u64::MAX` for the last).
fn bucket_upper(index: usize) -> u64 {
    if index + 1 >= BUCKETS {
        u64::MAX
    } else {
        bucket_lower(index + 1)
    }
}

/// A log-linear latency histogram over `u64` values (the serving layer
/// records nanoseconds). Recording is two relaxed `fetch_add`s (bucket +
/// sum) and a max update that loads without writing on the common path.
#[derive(Debug)]
pub struct Histogram {
    buckets: Box<[AtomicU64; BUCKETS]>,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        // `AtomicU64` is not Copy; build the array through a Vec.
        let buckets: Vec<AtomicU64> = (0..BUCKETS).map(|_| AtomicU64::new(0)).collect();
        let buckets: Box<[AtomicU64; BUCKETS]> = buckets
            .into_boxed_slice()
            .try_into()
            .expect("bucket count is fixed");
        Histogram {
            buckets,
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Record one observation.
    pub fn observe(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        if self.max.load(Ordering::Relaxed) < value {
            self.max.fetch_max(value, Ordering::Relaxed);
        }
    }

    /// A consistent-enough snapshot (concurrent observations may tear
    /// between buckets and sum; each individual counter is exact).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        let mut count = 0u64;
        for (index, bucket) in self.buckets.iter().enumerate() {
            let n = bucket.load(Ordering::Relaxed);
            if n > 0 {
                count += n;
                buckets.push((bucket_upper(index), n));
            }
        }
        HistogramSnapshot {
            buckets,
            count,
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// A frozen histogram: `(exclusive upper bound, count)` for every non-empty
/// bucket, in ascending bound order, plus exact total/sum/max.
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    /// Non-empty buckets as `(upper_bound, count)`, ascending.
    pub buckets: Vec<(u64, u64)>,
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Largest observed value (exact, not bucketed).
    pub max: u64,
}

impl HistogramSnapshot {
    /// The `q`-quantile (`0.0..=1.0`), derived from the bucket counts:
    /// the midpoint of the bucket holding the rank, clamped to the exact
    /// maximum. `0` when empty.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        let mut lower = 0u64;
        for &(upper, count) in &self.buckets {
            cumulative += count;
            if cumulative >= rank {
                let mid = lower + (upper.saturating_sub(lower)) / 2;
                return mid.min(self.max);
            }
            lower = upper;
        }
        self.max
    }

    /// Mean observed value (`0` when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// A handle a registry entry reads: what the owner created and records
/// into.
#[derive(Debug)]
pub enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Metric {
    fn type_name(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

impl From<&Arc<Counter>> for Metric {
    fn from(counter: &Arc<Counter>) -> Metric {
        Metric::Counter(Arc::clone(counter))
    }
}

impl From<&Arc<Gauge>> for Metric {
    fn from(gauge: &Arc<Gauge>) -> Metric {
        Metric::Gauge(Arc::clone(gauge))
    }
}

impl From<&Arc<Histogram>> for Metric {
    fn from(histogram: &Arc<Histogram>) -> Metric {
        Metric::Histogram(Arc::clone(histogram))
    }
}

/// One attached metric: a family name, an optional single label pair
/// (several entries may share a family, e.g. per-endpoint counters), help
/// text and the owner's live handle.
struct Entry {
    family: String,
    label: Option<(&'static str, String)>,
    help: &'static str,
    metric: Metric,
}

/// One exposition sample: the full series name (family, `_bucket`/`_sum`/
/// `_count` suffix for histograms, labels) and its value — exactly one
/// non-comment line of [`Registry::render`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Sample {
    /// Series name with labels, e.g. `wtq_answer_cache_ops_total{op="hit"}`.
    pub series: String,
    /// The value `/metrics` prints for it (histogram sums in seconds).
    pub value: f64,
}

/// What one step of the registry walk yields.
enum Row<'a> {
    /// A family starts: its `# HELP` text and `# TYPE`.
    Family(&'a str, &'a str, &'static str),
    Sample(Sample),
}

/// The metric registry. Attaching takes the lock; recording never does
/// (handles are `Arc`s the owners hold). Rendering sorts by
/// `(family, label)` so scrape output is deterministic and families stay
/// adjacent.
#[derive(Default)]
pub struct Registry {
    entries: Mutex<Vec<Entry>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Attach an owner's handle as the unlabeled series `family`.
    ///
    /// # Panics
    ///
    /// When the series is already attached, or `family` already holds a
    /// metric of another type: every fact has exactly one owner.
    pub fn attach(&self, family: &str, help: &'static str, metric: impl Into<Metric>) {
        self.attach_entry(family, None, help, metric.into());
    }

    /// Attach several handles as the labeled series `family{key="…"}` of
    /// one family, e.g. per-outcome cache counters. Panics like
    /// [`Registry::attach`].
    pub fn attach_labeled<'a, M: Into<Metric>>(
        &self,
        family: &str,
        key: &'static str,
        help: &'static str,
        members: impl IntoIterator<Item = (&'a str, M)>,
    ) {
        for (value, metric) in members {
            self.attach_entry(family, Some((key, value.to_string())), help, metric.into());
        }
    }

    fn attach_entry(
        &self,
        family: &str,
        label: Option<(&'static str, String)>,
        help: &'static str,
        metric: Metric,
    ) {
        let mut entries = self.entries.lock().expect("registry poisoned");
        for entry in entries.iter().filter(|entry| entry.family == family) {
            assert!(
                entry.metric.type_name() == metric.type_name(),
                "metric {family} registered with a different type"
            );
            assert!(
                entry.label != label,
                "metric {family} {label:?} attached twice"
            );
        }
        entries.push(Entry {
            family: family.to_string(),
            label,
            help,
            metric,
        });
    }

    /// Render every attached metric as Prometheus text exposition
    /// (`# HELP` / `# TYPE` comments, one sample line per counter/gauge,
    /// cumulative `_bucket`/`_sum`/`_count` series per histogram with
    /// nanosecond values rendered as seconds).
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(4096);
        self.walk(|row| match row {
            Row::Family(family, help, kind) => {
                out.push_str(&format!("# HELP {family} {help}\n# TYPE {family} {kind}\n"));
            }
            Row::Sample(sample) => {
                out.push_str(&format!("{} {}\n", sample.series, sample.value));
            }
        });
        out
    }

    /// The samples [`Registry::render`] prints, in the same order, as data.
    pub fn samples(&self) -> Vec<Sample> {
        let mut samples = Vec::new();
        self.walk(|row| {
            if let Row::Sample(sample) = row {
                samples.push(sample);
            }
        });
        samples
    }

    /// The one walk both surfaces share: families in sorted order, each
    /// announced once, then its series read live from the owners' handles.
    fn walk(&self, mut emit: impl FnMut(Row<'_>)) {
        let mut entries = self.entries.lock().expect("registry poisoned");
        entries.sort_by(|a, b| (&a.family, &a.label).cmp(&(&b.family, &b.label)));
        let mut last_family: Option<&str> = None;
        for entry in entries.iter() {
            if last_family != Some(entry.family.as_str()) {
                emit(Row::Family(
                    &entry.family,
                    entry.help,
                    entry.metric.type_name(),
                ));
                last_family = Some(&entry.family);
            }
            let series = |suffix: &str, extra: Option<(&str, String)>| -> String {
                let pairs: Vec<String> = entry
                    .label
                    .iter()
                    .map(|(key, value)| (*key, value.clone()))
                    .chain(extra)
                    .map(|(key, value)| format!("{key}=\"{value}\""))
                    .collect();
                if pairs.is_empty() {
                    format!("{}{suffix}", entry.family)
                } else {
                    format!("{}{suffix}{{{}}}", entry.family, pairs.join(","))
                }
            };
            let mut sample =
                |series: String, value: f64| emit(Row::Sample(Sample { series, value }));
            match &entry.metric {
                Metric::Counter(counter) => sample(series("", None), counter.get() as f64),
                Metric::Gauge(gauge) => sample(series("", None), gauge.get() as f64),
                Metric::Histogram(histogram) => {
                    let snapshot = histogram.snapshot();
                    let mut cumulative = 0u64;
                    for (upper, count) in &snapshot.buckets {
                        cumulative += count;
                        let le = *upper as f64 / 1e9;
                        sample(
                            series("_bucket", Some(("le", format!("{le}")))),
                            cumulative as f64,
                        );
                    }
                    sample(
                        series("_bucket", Some(("le", "+Inf".to_string()))),
                        snapshot.count as f64,
                    );
                    sample(series("_sum", None), snapshot.sum as f64 / 1e9);
                    sample(series("_count", None), snapshot.count as f64);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_bounds_bracket_values() {
        let mut values: Vec<u64> = (0..64u32)
            .flat_map(|shift| {
                [0u64, 1, 3]
                    .into_iter()
                    .map(move |offset| (1u64 << shift).saturating_add(offset))
            })
            .collect();
        values.sort_unstable();
        let mut last = 0usize;
        for value in values {
            let index = bucket_index(value);
            assert!(index >= last, "index regressed at {value}");
            last = index;
            assert!(bucket_lower(index) <= value, "lower > value at {value}");
            assert!(
                value < bucket_upper(index) || bucket_upper(index) == u64::MAX,
                "upper <= value at {value}"
            );
        }
        assert!(bucket_index(u64::MAX) < BUCKETS);
    }

    #[test]
    fn small_values_get_exact_buckets() {
        for value in 0..8u64 {
            assert_eq!(bucket_index(value), value as usize);
            assert_eq!(bucket_lower(value as usize), value);
        }
    }

    #[test]
    fn histogram_percentiles_track_a_known_distribution() {
        let histogram = Histogram::default();
        // 100 observations: 1..=100 microseconds in nanoseconds.
        for i in 1..=100u64 {
            histogram.observe(i * 1_000);
        }
        let snapshot = histogram.snapshot();
        assert_eq!(snapshot.count, 100);
        assert_eq!(snapshot.max, 100_000);
        let p50 = snapshot.percentile(0.50);
        let p99 = snapshot.percentile(0.99);
        // Log-linear buckets bound the relative error at 12.5%.
        assert!(
            (p50 as f64 - 50_000.0).abs() / 50_000.0 < 0.15,
            "p50 off: {p50}"
        );
        assert!(
            (p99 as f64 - 99_000.0).abs() / 99_000.0 < 0.15,
            "p99 off: {p99}"
        );
        assert_eq!(snapshot.percentile(1.0), snapshot.max);
        assert!(snapshot.percentile(0.0) > 0);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let snapshot = Histogram::default().snapshot();
        assert_eq!(snapshot.count, 0);
        assert_eq!(snapshot.percentile(0.5), 0);
        assert_eq!(snapshot.mean(), 0.0);
    }

    #[test]
    fn attached_handles_are_read_live_and_attached_once() {
        let registry = Registry::new();
        let owned = Arc::new(Counter::default());
        registry.attach("wtq_test_total", "help", &owned);
        owned.inc();
        owned.add(2);
        assert!(registry.render().contains("wtq_test_total 3\n"));
        let labeled = Arc::new(Counter::default());
        registry.attach_labeled("wtq_test_total", "kind", "help", [("x", &labeled)]);
        labeled.inc();
        assert_eq!(owned.get(), 3, "labeled entry is distinct");
        let twice = std::panic::catch_unwind(|| {
            registry.attach("wtq_test_total", "help", &Arc::new(Counter::default()))
        });
        assert!(twice.is_err(), "one owner per series");
    }

    #[test]
    #[should_panic(expected = "different type")]
    fn re_registering_with_another_type_panics() {
        let registry = Registry::new();
        registry.attach("wtq_test_total", "help", &Arc::new(Counter::default()));
        registry.attach("wtq_test_total", "help", &Arc::new(Gauge::default()));
    }

    #[test]
    fn gauge_gate_stops_at_its_limit() {
        let gauge = Gauge::default();
        assert!(gauge.try_inc_below(2));
        assert!(gauge.try_inc_below(2));
        assert!(!gauge.try_inc_below(2));
        gauge.add(-1);
        assert!(gauge.try_inc_below(2));
        assert_eq!(gauge.get(), 2);
    }

    #[test]
    fn render_emits_prometheus_text() {
        let registry = Registry::new();
        let (b, a) = (Arc::new(Counter::default()), Arc::new(Gauge::default()));
        let (explain, stats) = (Arc::new(Counter::default()), Arc::new(Counter::default()));
        let histogram = Arc::new(Histogram::default());
        registry.attach("wtq_b_total", "b help", &b);
        registry.attach("wtq_a_gauge", "a help", &a);
        registry.attach_labeled(
            "wtq_req_total",
            "endpoint",
            "per endpoint",
            [("explain", &explain), ("stats", &stats)],
        );
        registry.attach("wtq_latency_seconds", "latency", &histogram);
        b.add(7);
        a.set(-3);
        explain.add(2);
        stats.inc();
        histogram.observe(1_000_000); // 1ms
        histogram.observe(2_000_000);

        let text = registry.render();
        assert!(text.contains("# TYPE wtq_a_gauge gauge\nwtq_a_gauge -3\n"));
        assert!(text.contains("# TYPE wtq_b_total counter\nwtq_b_total 7\n"));
        assert!(text.contains("wtq_req_total{endpoint=\"explain\"} 2"));
        assert!(text.contains("wtq_req_total{endpoint=\"stats\"} 1"));
        // One TYPE line per family, even with several labeled entries.
        assert_eq!(text.matches("# TYPE wtq_req_total counter").count(), 1);
        assert!(text.contains("# TYPE wtq_latency_seconds histogram"));
        assert!(text.contains("wtq_latency_seconds_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("wtq_latency_seconds_count 2"));
        assert!(text.contains("wtq_latency_seconds_sum 0.003"));
        // Every non-comment line is `name[{labels}] value` with a finite value.
        for line in text.lines().filter(|line| !line.starts_with('#')) {
            let (_, value) = line.rsplit_once(' ').expect("sample line has a value");
            let parsed: f64 = value.parse().expect("value parses");
            assert!(parsed.is_finite());
        }
    }

    #[test]
    fn samples_are_the_rendered_lines() {
        let registry = Registry::new();
        let hits = Arc::new(Counter::default());
        let latency = Arc::new(Histogram::default());
        registry.attach_labeled("wtq_ops_total", "op", "ops", [("hit", &hits)]);
        registry.attach("wtq_latency_seconds", "latency", &latency);
        hits.add(4);
        latency.observe(500);
        let lines: Vec<String> = registry
            .render()
            .lines()
            .filter(|line| !line.starts_with('#'))
            .map(str::to_string)
            .collect();
        let samples: Vec<String> = registry
            .samples()
            .iter()
            .map(|sample| format!("{} {}", sample.series, sample.value))
            .collect();
        assert_eq!(lines, samples);
        assert!(samples.contains(&"wtq_ops_total{op=\"hit\"} 4".to_string()));
    }
}
