//! The `/metrics` families the benchmark reads, parsed from Prometheus text.

use std::collections::HashMap;

/// One scrape: series (`name{labels}` as rendered) → value.
#[derive(Debug, Clone, Default)]
pub struct Scrape(HashMap<String, f64>);

impl Scrape {
    /// Parse exposition text; comments and unparsable lines are skipped.
    pub fn parse(text: &str) -> Scrape {
        let series = text
            .lines()
            .filter(|line| !line.starts_with('#'))
            .filter_map(|line| {
                let (key, value) = line.rsplit_once(' ')?;
                Some((key.to_string(), value.parse().ok()?))
            })
            .collect();
        Scrape(series)
    }

    /// The value of `series`, 0 when absent.
    pub fn get(&self, series: &str) -> f64 {
        self.0.get(series).copied().unwrap_or(0.0)
    }

    /// `series` in `self` minus `series` in `earlier`.
    pub fn delta(&self, earlier: &Scrape, series: &str) -> f64 {
        self.get(series) - earlier.get(series)
    }

    /// Mean of one labeled stage of `wtq_request_stage_duration_seconds`
    /// between `earlier` and `self`, in µs (0 when nothing was observed).
    pub fn stage_mean_us(&self, earlier: &Scrape, stage: &str) -> f64 {
        let family = "wtq_request_stage_duration_seconds";
        let sum = self.delta(earlier, &format!("{family}_sum{{stage=\"{stage}\"}}"));
        let count = self.delta(earlier, &format!("{family}_count{{stage=\"{stage}\"}}"));
        if count > 0.0 {
            sum / count * 1e6
        } else {
            0.0
        }
    }
}
