//! In-memory spans and the statistics the report is built from.
//!
//! A span records one call into a layer: its name, the span that was open
//! when it started (its parent), start and end, and the keys it carried. A
//! layer's self time is its span's duration minus the durations of its
//! direct children. Spans live in memory until the run ends.

use std::time::{Duration, Instant};

/// One recorded call.
#[derive(Debug, Clone)]
struct Span {
    /// Layer entry point this span wraps, e.g. `"sharded.insert_batch"`.
    name: &'static str,
    /// Index of the span open when this one started.
    parent: Option<usize>,
    /// Wall time from open to close.
    duration: Duration,
    /// Keys carried by the call (the per-key denominator).
    keys: u64,
}

/// Collects spans. `inject` adds a busy-wait of the given length inside
/// every span of that name; the attribution self-test uses it to check
/// that a delay in one layer's wrapper shows up in that layer alone.
#[derive(Debug, Default)]
pub struct Tracer {
    spans: Vec<Span>,
    open: Vec<usize>,
    inject: Option<(&'static str, Duration)>,
}

impl Tracer {
    /// A tracer that delays every span named `name` by `delay`.
    pub fn with_injected_delay(name: &'static str, delay: Duration) -> Self {
        Tracer {
            inject: Some((name, delay)),
            ..Tracer::default()
        }
    }

    /// Runs `f` inside a span named `name`; `f` returns the keys it carried.
    pub fn span(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> u64) {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            duration: Duration::ZERO,
            keys: 0,
        });
        self.open.push(id);
        let start = Instant::now();
        if let Some((target, delay)) = self.inject {
            if target == name {
                while start.elapsed() < delay {
                    std::hint::spin_loop();
                }
            }
        }
        let keys = f(self);
        let duration = start.elapsed();
        self.open.pop();
        let span = &mut self.spans[id];
        span.duration = duration;
        span.keys = keys;
    }

    /// Median over spans named `name` of self time per key, in ns.
    pub fn self_ns_per_key(&self, name: &str) -> Option<f64> {
        let mut children = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p] += s.duration;
            }
        }
        let per_key = self
            .spans
            .iter()
            .zip(&children)
            .filter(|(s, _)| s.name == name && s.keys > 0)
            .map(|(s, c)| s.duration.saturating_sub(*c).as_nanos() as f64 / s.keys as f64)
            .collect();
        median(per_key)
    }

    /// Median over spans named `name` of total duration per key, in ns.
    pub fn total_ns_per_key(&self, name: &str) -> Option<f64> {
        median(
            self.spans
                .iter()
                .filter(|s| s.name == name && s.keys > 0)
                .map(|s| s.duration.as_nanos() as f64 / s.keys as f64)
                .collect(),
        )
    }

    /// Median over spans named `name` of total duration per call, in ns.
    pub fn total_ns_per_call(&self, name: &str) -> Option<f64> {
        median(
            self.spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.duration.as_nanos() as f64)
                .collect(),
        )
    }
}

/// The median, or `None` for no values.
pub fn median(mut v: Vec<f64>) -> Option<f64> {
    if v.is_empty() {
        return None;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Nearest-rank percentile `q` in `[0, 1]` of `v`, or `None` when empty.
pub fn percentile(v: &[f64], q: f64) -> Option<f64> {
    if v.is_empty() {
        return None;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    Some(s[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut tr = Tracer::default();
        tr.span("outer", |tr| {
            tr.span("inner", |_| {
                std::thread::sleep(Duration::from_millis(20));
                1
            });
            1
        });
        let outer_self = tr.self_ns_per_key("outer").unwrap();
        let inner = tr.self_ns_per_key("inner").unwrap();
        assert!(inner >= 20e6);
        assert!(outer_self < inner / 4.0, "outer {outer_self} inner {inner}");
        assert!(tr.total_ns_per_key("outer").unwrap() >= inner);
    }

    #[test]
    fn injected_delay_lands_in_the_named_span_only() {
        let mut tr = Tracer::with_injected_delay("slow", Duration::from_millis(5));
        tr.span("slow", |_| 1);
        tr.span("fast", |_| 1);
        assert!(tr.self_ns_per_key("slow").unwrap() >= 5e6);
        assert!(tr.self_ns_per_key("fast").unwrap() < 1e6);
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(50.0));
        assert_eq!(percentile(&v, 0.99), Some(99.0));
        assert_eq!(median(vec![3.0, 1.0, 2.0, 4.0]), Some(2.5));
    }
}
