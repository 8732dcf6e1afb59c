//! Spans recorded around calls into the library, from outside it.
//!
//! A span has a name, a duration and the span it ran inside. Stage spans
//! (the pieces an end-to-end metric is made of) are always recorded;
//! layer spans only in a traced run, so an untraced run pays nothing for
//! them and the difference between the two runs is the tracing overhead.
//! Nothing inside the library is instrumented.

use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// What ran.
    pub name: &'static str,
    /// Index of the span it ran inside, if any.
    pub parent: Option<usize>,
    /// Wall time, nanoseconds.
    pub ns: u64,
}

/// An in-memory span log.
#[derive(Debug, Default)]
pub struct Spans {
    layers: bool,
    spans: Vec<Span>,
    open: Option<usize>,
}

impl Spans {
    /// A log that records layer spans when `layers` is set (a traced run)
    /// and only stage spans otherwise.
    pub fn new(layers: bool) -> Spans {
        Spans {
            layers,
            ..Spans::default()
        }
    }

    /// Run `f` inside a span that is always recorded.
    pub fn stage<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> R) -> R {
        self.record(name, f)
    }

    /// Run `f` inside a span that only a traced run records.
    pub fn layer<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> R) -> R {
        if self.layers {
            self.record(name, f)
        } else {
            f(self)
        }
    }

    fn record<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> R) -> R {
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open,
            ns: 0,
        });
        let outer = self.open.replace(idx);
        let start = Instant::now();
        let out = f(self);
        self.spans[idx].ns = start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        self.open = outer;
        out
    }

    /// Record an already-measured span at the top level.
    pub fn push(&mut self, name: &'static str, ns: u64) {
        self.spans.push(Span {
            name,
            parent: self.open,
            ns,
        });
    }

    /// Append another log's spans (e.g. one client thread's), keeping
    /// their nesting.
    pub fn absorb(&mut self, other: Spans) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            parent: s.parent.map(|p| p + base),
            ..s
        }));
    }

    /// Durations of every span named `name`, seconds, in recording order.
    pub fn samples(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns as f64 / 1e9)
            .collect()
    }

    /// Median duration of the spans named `name`, seconds (0 when none).
    pub fn median_s(&self, name: &str) -> f64 {
        crate::stats::median(&self.samples(name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layers_nest_and_untraced_skips_them() {
        let mut on = Spans::new(true);
        on.stage("job", |s| {
            s.layer("a", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            s.layer("b", |_| ());
        });
        assert_eq!(on.samples("a").len(), 1);
        let mut off = Spans::new(false);
        off.stage("job", |s| s.layer("a", |_| ()));
        assert_eq!(off.samples("job").len(), 1);
        assert_eq!(off.samples("a").len(), 0);
        let mut all = Spans::new(true);
        all.absorb(on);
        all.absorb(off);
        assert_eq!(all.samples("job").len(), 2);
    }
}
