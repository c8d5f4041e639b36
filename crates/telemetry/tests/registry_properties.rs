//! Property tests for the metrics registry: snapshot merge is
//! commutative and label-order independent, and the Prometheus text
//! exposition round-trips — every value a snapshot holds is readable
//! back out of the rendered text through the hand-rolled parser.

use otem_telemetry::promparse::validate_exposition;
use otem_telemetry::{MetricValue, MetricsRegistry, RegistrySnapshot};
use proptest::prelude::*;

const MODES: [&str; 3] = ["adjoint", "serial", "finite_diff"];
const OUTCOMES: [&str; 3] = ["converged", "stalled", "deadline_reached"];
const ROUTES: [&str; 3] = ["/simulate", "/plan", "other"];
const BOUNDS: [f64; 3] = [0.001, 0.1, 1.0];

const COUNTER_HELP: &str = "Property-suite counter.";
const GAUGE_HELP: &str = "Property-suite gauge.";
const HIST_HELP: &str = "Property-suite histogram.";

/// Applies one encoded operation to `reg`. The encoding packs an
/// operation kind, a label choice, a label *order* bit (so the suite
/// exercises both `[mode, outcome]` and `[outcome, mode]` on the same
/// family), and a magnitude into a single `u64`.
fn apply(reg: &MetricsRegistry, op: u64) {
    let kind = op % 3;
    let pick = ((op / 3) % 9) as usize;
    let swapped = (op / 27) % 2 == 1;
    let magnitude = op / 54;
    match kind {
        0 => {
            let mode = MODES[pick % 3];
            let outcome = OUTCOMES[pick / 3];
            let labels_fwd = [("mode", mode), ("outcome", outcome)];
            let labels_rev = [("outcome", outcome), ("mode", mode)];
            let labels: &[(&str, &str)] = if swapped { &labels_rev } else { &labels_fwd };
            reg.counter("otem_prop_total", COUNTER_HELP, labels)
                .add(magnitude % 100);
        }
        1 => {
            let shard = ROUTES[pick % 3];
            reg.gauge("otem_prop_shard_load", GAUGE_HELP, &[("shard", shard)])
                .set((magnitude % 64) as f64 * 0.25);
        }
        _ => {
            let route = ROUTES[pick % 3];
            // Dyadic values keep f64 sums exact, so merge-order
            // identities hold bit-for-bit rather than approximately.
            reg.histogram("otem_prop_seconds", HIST_HELP, &[("route", route)], &BOUNDS)
                .observe((magnitude % 4096) as f64 * (1.0 / 1024.0));
        }
    }
}

fn build(ops: &[u64]) -> MetricsRegistry {
    let reg = MetricsRegistry::new();
    for &op in ops {
        apply(&reg, op);
    }
    reg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `a.merge(b)` equals `b.merge(a)` — field-for-field, and
    /// rendered byte-for-byte — for arbitrary operation histories.
    #[test]
    fn snapshot_merge_is_commutative(
        ops_a in prop::collection::vec(0u64..1_000_000, 0..60),
        ops_b in prop::collection::vec(0u64..1_000_000, 0..60),
    ) {
        let a = build(&ops_a).snapshot();
        let b = build(&ops_b).snapshot();
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(&ab, &ba);
        prop_assert_eq!(ab.render_prometheus(), ba.render_prometheus());
        prop_assert_eq!(ab.render_json(), ba.render_json());
    }

    /// Merging is associative: `(a+b)+c == a+(b+c)`.
    #[test]
    fn snapshot_merge_is_associative(
        ops_a in prop::collection::vec(0u64..1_000_000, 0..40),
        ops_b in prop::collection::vec(0u64..1_000_000, 0..40),
        ops_c in prop::collection::vec(0u64..1_000_000, 0..40),
    ) {
        let a = build(&ops_a).snapshot();
        let b = build(&ops_b).snapshot();
        let c = build(&ops_c).snapshot();
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        prop_assert_eq!(left, right);
    }

    /// The merge identity: folding in an empty snapshot changes
    /// nothing, in either direction.
    #[test]
    fn empty_snapshot_is_the_merge_identity(
        ops in prop::collection::vec(0u64..1_000_000, 0..60),
    ) {
        let a = build(&ops).snapshot();
        let mut left = a.clone();
        left.merge(&RegistrySnapshot::default());
        prop_assert_eq!(&left, &a);
        let mut right = RegistrySnapshot::default();
        right.merge(&a);
        prop_assert_eq!(&right, &a);
    }

    /// The label *order* bit in the op encoding must not matter:
    /// flipping every order bit yields a bit-identical exposition.
    /// (Each op registers the same family with its labels in one of
    /// two orders; canonicalization makes them the same child.)
    #[test]
    fn label_order_never_changes_the_exposition(
        ops in prop::collection::vec(0u64..1_000_000, 0..60),
    ) {
        let flipped: Vec<u64> = ops
            .iter()
            .map(|&op| if (op / 27) % 2 == 1 { op - 27 } else { op + 27 })
            .collect();
        let original = build(&ops).snapshot();
        let reordered = build(&flipped).snapshot();
        prop_assert_eq!(&original, &reordered);
        prop_assert_eq!(
            original.render_prometheus(),
            reordered.render_prometheus()
        );
    }

    /// Everything a snapshot holds survives the trip through
    /// `render_prometheus` and back through the parser: counters and
    /// gauges value-for-value, histograms as their `_sum` and `_count`
    /// series, all under the exact label sets they were registered
    /// with (validated structurally by `validate_exposition` first).
    #[test]
    fn exposition_round_trips_through_the_parser(
        ops in prop::collection::vec(0u64..1_000_000, 1..80),
    ) {
        let snapshot = build(&ops).snapshot();
        let text = snapshot.render_prometheus();
        let parsed = validate_exposition(&text)
            .map_err(|e| TestCaseError::fail(format!("invalid exposition: {e}")))?;
        for (name, family) in &snapshot.families {
            let parsed_family = parsed
                .families
                .get(name)
                .ok_or_else(|| TestCaseError::fail(format!("family {name} missing")))?;
            prop_assert_eq!(
                parsed_family.kind.as_deref(),
                Some(family.kind.as_str())
            );
            for (values, value) in &family.children {
                let labels: Vec<(&str, &str)> = family
                    .label_names
                    .iter()
                    .zip(values)
                    .map(|(n, v)| (n.as_str(), v.as_str()))
                    .collect();
                match value {
                    MetricValue::Counter(v) => {
                        let sample = parsed.sample(name, &labels).ok_or_else(|| {
                            TestCaseError::fail(format!("counter {name}{labels:?} missing"))
                        })?;
                        prop_assert_eq!(sample.value, *v as f64);
                    }
                    MetricValue::Gauge(v) => {
                        let sample = parsed.sample(name, &labels).ok_or_else(|| {
                            TestCaseError::fail(format!("gauge {name}{labels:?} missing"))
                        })?;
                        prop_assert_eq!(sample.value, *v);
                    }
                    MetricValue::Histogram { counts, sum, .. } => {
                        let total: u64 = counts.iter().sum();
                        let count_name = format!("{name}_count");
                        let sum_name = format!("{name}_sum");
                        let count_sample =
                            parsed.sample(&count_name, &labels).ok_or_else(|| {
                                TestCaseError::fail(format!("{count_name}{labels:?} missing"))
                            })?;
                        prop_assert_eq!(count_sample.value, total as f64);
                        let sum_sample = parsed.sample(&sum_name, &labels).ok_or_else(|| {
                            TestCaseError::fail(format!("{sum_name}{labels:?} missing"))
                        })?;
                        prop_assert_eq!(sum_sample.value, *sum);
                    }
                }
            }
        }
    }
}
