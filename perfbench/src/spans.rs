//! Host wall-clock spans recorded by the benchmark around each call into
//! a layer's public function. Spans nest: each records the span that was
//! open when it started, so a span's self time excludes its children.
//! Spans stay in memory and are read when the run ends.

use std::time::Instant;

/// One closed span; times are nanoseconds since the recorder started.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer call the span wraps, e.g. `train_pipad`.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, ns since the recorder's origin.
    pub start: u64,
    /// End, ns since the recorder's origin.
    pub end: u64,
}

/// In-memory span recorder. While disabled it records nothing and adds
/// only a branch to each wrapped call.
pub struct Spans {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder that starts enabled or disabled.
    pub fn new(enabled: bool) -> Self {
        Spans {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Turn recording on or off for later calls.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`. `f` gets the recorder back so
    /// it can open child spans.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start,
            end: start,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end = self.now();
        out
    }

    /// Self times, in seconds, of every recorded span named `name`, in
    /// recording order.
    pub fn self_times_s(&self, name: &str) -> Vec<f64> {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(|i| self.self_time_ns(i) as f64 / 1e9)
            .collect()
    }

    /// Self time of span `idx`: its duration minus the part of it that
    /// its direct children cover.
    pub fn self_time_ns(&self, idx: usize) -> u64 {
        let s = &self.spans[idx];
        let children: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(idx))
            .map(|c| (c.start, c.end))
            .collect();
        self_time(s.start, s.end, &children)
    }

    /// Every recorded span.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Duration of `[start, end)` minus the part of it covered by the union
/// of `children` (which may overlap each other or stick out of the
/// parent).
pub fn self_time(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut cursor = start;
    for (s, e) in clipped {
        let s = s.max(cursor);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    (end - start) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // No children: the whole span.
        assert_eq!(self_time(0, 100, &[]), 100);
        // Two disjoint children.
        assert_eq!(self_time(0, 100, &[(10, 20), (50, 80)]), 60);
        // Overlapping children are counted once.
        assert_eq!(self_time(0, 100, &[(10, 40), (30, 60)]), 50);
        // A child nested in another child adds nothing.
        assert_eq!(self_time(0, 100, &[(10, 90), (20, 30)]), 20);
        // Children sticking out of the parent are clipped to it.
        assert_eq!(self_time(10, 20, &[(0, 15), (18, 40)]), 3);
        // Children fully outside the parent are ignored.
        assert_eq!(self_time(10, 20, &[(0, 5), (30, 40)]), 10);
        // Unsorted input.
        assert_eq!(self_time(0, 100, &[(50, 80), (10, 20)]), 60);
        // Children covering everything leave nothing.
        assert_eq!(self_time(0, 100, &[(0, 100)]), 0);
    }

    #[test]
    fn recorder_nests_and_charges_children_to_their_parent_only() {
        let mut spans = Spans::new(true);
        spans.time("outer", |s| {
            s.time("child", |s| {
                s.time("grandchild", |_| {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                })
            });
        });
        let all = spans.spans();
        assert_eq!(all.len(), 3);
        assert_eq!(all[0].parent, None);
        assert_eq!(all[1].parent, Some(0));
        assert_eq!(all[2].parent, Some(1));
        // The outer span's self time excludes the child, which covers
        // the grandchild's 2 ms.
        assert!(spans.self_time_ns(0) < spans.self_time_ns(2));
        assert!(spans.self_time_ns(2) >= 2_000_000);
        let outer = &all[0];
        assert_eq!(
            spans.self_time_ns(0),
            (outer.end - outer.start) - (all[1].end - all[1].start)
        );
    }

    #[test]
    fn disabled_recorder_records_nothing_but_runs_the_call() {
        let mut spans = Spans::new(false);
        let v = spans.time("x", |s| s.time("y", |_| 7));
        assert_eq!(v, 7);
        assert!(spans.spans().is_empty());
        assert!(spans.self_times_s("x").is_empty());
    }
}
