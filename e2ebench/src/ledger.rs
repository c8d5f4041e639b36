//! The traced run's span ledger. The benchmark opens a span around each
//! call it makes into a layer's public function; a span opened while
//! another is open is that span's child. Per span name the ledger keeps
//! the call count, the total time and the self time (total minus the
//! time of the child spans it covers), and optionally every duration.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// Per-name totals.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    /// Spans closed.
    pub calls: u64,
    /// Σ span durations (ns).
    pub total_ns: u64,
    /// Σ span durations minus their children's (ns).
    pub self_ns: u64,
}

#[derive(Debug)]
struct Open {
    name: &'static str,
    start_ns: u64,
    child_ns: u64,
}

/// Accumulates spans. The `*_at` methods take explicit timestamps (the
/// arithmetic the tests pin); [`time`] reads the clock.
#[derive(Debug)]
pub struct Ledger {
    origin: Instant,
    stack: Vec<Open>,
    totals: BTreeMap<&'static str, Totals>,
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Default for Ledger {
    fn default() -> Self {
        Self {
            origin: Instant::now(),
            stack: Vec::new(),
            totals: BTreeMap::new(),
            samples: BTreeMap::new(),
        }
    }
}

impl Ledger {
    /// Keeps every duration (µs) of spans called `name`, for percentiles.
    pub fn keep_samples(&mut self, name: &'static str) {
        self.samples.entry(name).or_default();
    }

    /// Opens a span at `t_ns`.
    pub fn enter_at(&mut self, name: &'static str, t_ns: u64) {
        self.stack.push(Open {
            name,
            start_ns: t_ns,
            child_ns: 0,
        });
    }

    /// Closes the innermost span at `t_ns`, returning its duration (ns).
    pub fn exit_at(&mut self, t_ns: u64) -> u64 {
        let open = self.stack.pop().expect("exit without enter");
        let dur = t_ns.saturating_sub(open.start_ns);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        let t = self.totals.entry(open.name).or_default();
        t.calls += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(open.child_ns);
        if let Some(s) = self.samples.get_mut(open.name) {
            s.push(dur as f64 / 1e3);
        }
        dur
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Totals for `name` (zeros when never seen).
    pub fn totals(&self, name: &str) -> Totals {
        self.totals.get(name).copied().unwrap_or_default()
    }

    /// Mean span duration of `name` in µs (NaN when never seen).
    pub fn mean_us(&self, name: &str) -> f64 {
        let t = self.totals(name);
        t.total_ns as f64 / 1e3 / t.calls as f64
    }

    /// Mean self time of `name` in µs (NaN when never seen).
    pub fn mean_self_us(&self, name: &str) -> f64 {
        let t = self.totals(name);
        t.self_ns as f64 / 1e3 / t.calls as f64
    }

    /// Kept durations of `name` in µs.
    pub fn samples(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }

    /// Σ self time over every span name — the part of the wall time the
    /// timed layer calls cover, each instant counted once.
    pub fn explained_ns(&self) -> u64 {
        self.totals.values().map(|t| t.self_ns).sum()
    }
}

/// `explained / wall`, the share of traced wall time the spans cover.
pub fn explained_ratio(explained_ns: u64, wall_ns: u64) -> f64 {
    explained_ns as f64 / wall_ns as f64
}

/// Times `f` as a span called `name` in the shared ledger. The borrow is
/// released while `f` runs, so `f` may open child spans.
pub fn time<R>(ledger: &RefCell<Ledger>, name: &'static str, f: impl FnOnce() -> R) -> R {
    {
        let mut l = ledger.borrow_mut();
        let t = l.now_ns();
        l.enter_at(name, t);
    }
    let out = f();
    let mut l = ledger.borrow_mut();
    let t = l.now_ns();
    l.exit_at(t);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_covered_children() {
        let mut l = Ledger::default();
        l.keep_samples("child");
        l.enter_at("root", 0);
        l.enter_at("child", 10);
        l.enter_at("leaf", 12);
        l.exit_at(15); // leaf 3
        l.exit_at(30); // child 20, self 17
        l.enter_at("child", 40);
        l.exit_at(50); // child 10
        l.exit_at(100); // root 100, self 70
        assert_eq!(
            l.totals("root"),
            Totals {
                calls: 1,
                total_ns: 100,
                self_ns: 70
            }
        );
        assert_eq!(
            l.totals("child"),
            Totals {
                calls: 2,
                total_ns: 30,
                self_ns: 27
            }
        );
        assert_eq!(l.totals("leaf").self_ns, 3);
        assert_eq!(l.samples("child"), &[0.02, 0.01]);
        // Self times telescope: together they cover the root exactly once.
        assert_eq!(l.explained_ns(), 100);
        assert_eq!(explained_ratio(l.explained_ns(), 125), 0.8);
    }

    #[test]
    fn sibling_roots_add_and_gaps_stay_unexplained() {
        let mut l = Ledger::default();
        l.enter_at("a", 0);
        l.exit_at(40);
        l.enter_at("a", 50);
        l.exit_at(90);
        assert_eq!(l.explained_ns(), 80);
        assert_eq!(explained_ratio(l.explained_ns(), 100), 0.8);
        assert_eq!(l.mean_us("a"), 0.04);
    }

    #[test]
    fn clocked_spans_nest() {
        let l = RefCell::new(Ledger::default());
        let v = time(&l, "outer", || time(&l, "inner", || 7));
        assert_eq!(v, 7);
        let l = l.into_inner();
        assert_eq!(l.totals("outer").calls, 1);
        assert!(l.totals("outer").total_ns >= l.totals("inner").total_ns);
        assert_eq!(l.explained_ns(), l.totals("outer").total_ns);
    }
}
