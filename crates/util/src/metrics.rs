//! Declarative metric sets.
//!
//! A statistic is declared once, in a [`metric_set!`](crate::metric_set)
//! invocation, with its doc comment, its kind (`counter` or `gauge`) and
//! its shard-merge rule (`sum`, `max`, `min` or `any`). The macro derives
//! everything else from that one line:
//!
//! * the plain snapshot struct;
//! * optionally its `AtomicU64` twin with a `snapshot()` (all-`u64` sets
//!   only) — update sites keep a plain `fetch_add`/`fetch_max` on a field;
//! * `merge` (fold another member's snapshot in under each field's rule)
//!   and a saturating `delta` (counters subtract, gauges keep the later
//!   value);
//! * `write_families`, the Prometheus text exposition: one family per
//!   field named `scavenger_<prefix><field>`, with `_total` appended for
//!   counters, whose `# HELP` is the first sentence of the field's doc.
//!
//! A field marked `hand` is merged and deltaed like any other but left
//! out of `write_families`: its series are written by a short
//! hand-written rule (a label per array element, say) through the same
//! [`write_family`] writer.

use std::fmt::Write;

/// The Prometheus type of a metric family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Monotonic since start; the family name ends in `_total`.
    Counter,
    /// A current level that can go up and down.
    Gauge,
    /// Quantiles plus `_count` and `_sum` samples.
    Summary,
}

impl Kind {
    fn as_str(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Summary => "summary",
        }
    }
}

/// How one member's value folds into a set-wide value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Merge {
    /// Add the members' values.
    Sum,
    /// Keep the largest value.
    Max,
    /// Keep the smallest value.
    Min,
    /// True if any member is true (for numbers: the largest value).
    Any,
}

/// A value that can be a field of a metric set: it folds under a
/// [`Merge`] rule and, as a counter, subtracts.
pub trait Stat {
    /// Fold `other` into `self` under `rule`.
    fn merge_with(&mut self, other: &Self, rule: Merge);
    /// How far a counter advanced from `earlier` to `self` (saturating).
    fn since(&self, earlier: &Self) -> Self;
}

impl Stat for u64 {
    fn merge_with(&mut self, other: &u64, rule: Merge) {
        match rule {
            Merge::Sum => *self += other,
            Merge::Max | Merge::Any => *self = (*self).max(*other),
            Merge::Min => *self = (*self).min(*other),
        }
    }

    fn since(&self, earlier: &u64) -> u64 {
        self.saturating_sub(*earlier)
    }
}

impl Stat for f64 {
    fn merge_with(&mut self, other: &f64, rule: Merge) {
        match rule {
            Merge::Sum => *self += other,
            Merge::Max | Merge::Any => *self = self.max(*other),
            Merge::Min => *self = self.min(*other),
        }
    }

    fn since(&self, earlier: &f64) -> f64 {
        (self - earlier).max(0.0)
    }
}

impl Stat for bool {
    fn merge_with(&mut self, other: &bool, rule: Merge) {
        match rule {
            Merge::Min => *self &= other,
            Merge::Sum | Merge::Max | Merge::Any => *self |= other,
        }
    }

    fn since(&self, _earlier: &bool) -> bool {
        *self
    }
}

/// `None` is an absent value: it is the identity of every rule.
impl<T: Stat + Clone> Stat for Option<T> {
    fn merge_with(&mut self, other: &Option<T>, rule: Merge) {
        match (self.as_mut(), other) {
            (Some(a), Some(b)) => a.merge_with(b, rule),
            (None, Some(b)) => *self = Some(b.clone()),
            (_, None) => {}
        }
    }

    fn since(&self, _earlier: &Option<T>) -> Option<T> {
        self.clone()
    }
}

/// A scalar written as one sample value.
pub trait Sample {
    /// The sample value.
    fn sample(&self) -> f64;
}

impl Sample for u64 {
    fn sample(&self) -> f64 {
        *self as f64
    }
}

impl Sample for f64 {
    fn sample(&self) -> f64 {
        *self
    }
}

impl Sample for bool {
    fn sample(&self) -> f64 {
        if *self {
            1.0
        } else {
            0.0
        }
    }
}

/// The `# HELP` text for a doc comment given as its lines: the first
/// sentence of the first paragraph.
pub fn help_text(doc: &[&str]) -> String {
    let para: Vec<&str> = doc
        .iter()
        .map(|l| l.trim())
        .take_while(|l| !l.is_empty())
        .collect();
    let para = para.join(" ");
    // A sentence ends at a period followed by a space and a capital, so
    // "Eq. 1" and "e.g. x" do not end one.
    let end = para
        .match_indices(". ")
        .map(|(i, _)| i)
        .find(|&i| para[i + 2..].chars().next().is_some_and(char::is_uppercase));
    let sentence = end.map_or(para.as_str(), |i| &para[..=i]);
    sentence.replace('\\', "\\\\")
}

/// Join two label-pair strings (either may be empty) with a comma.
pub fn join_labels(first: &str, rest: &str) -> String {
    match (first.is_empty(), rest.is_empty()) {
        (_, true) => first.to_string(),
        (true, false) => rest.to_string(),
        (false, false) => format!("{first},{rest}"),
    }
}

/// Append a family's `# HELP` and `# TYPE` lines.
pub fn write_header(out: &mut String, name: &str, kind: Kind, help: &str) {
    let _ = writeln!(out, "# HELP {name} {help}\n# TYPE {name} {}", kind.as_str());
}

/// Append one sample line, `name{labels} value`; `labels` is the raw
/// label-pair string (e.g. `class="wal",shard="3"`), or `""` for none.
pub fn write_sample(out: &mut String, name: &str, labels: &str, value: f64) {
    out.push_str(name);
    if !labels.is_empty() {
        let _ = write!(out, "{{{labels}}}");
    }
    if value.fract() == 0.0 && value.abs() < 9.007_199_254_740_992e15 {
        let _ = writeln!(out, " {}", value as i64);
    } else {
        let _ = writeln!(out, " {value}");
    }
}

/// Append one whole family — header, then one sample per
/// `(labels, value)` — so its lines stay contiguous on the page.
pub fn write_family<L: AsRef<str>>(
    out: &mut String,
    name: &str,
    kind: Kind,
    help: &str,
    samples: impl IntoIterator<Item = (L, f64)>,
) {
    write_header(out, name, kind, help);
    for (labels, value) in samples {
        write_sample(out, name, labels.as_ref(), value);
    }
}

/// Declare a metric set. See the [module docs](crate::metrics).
///
/// ```
/// use std::sync::atomic::Ordering;
///
/// scavenger_util::metric_set! {
///     /// Cache statistics.
///     #[derive(Debug, Clone, Copy, Default, PartialEq)]
///     pub struct CacheStats in "cache_" {
///         /// Lookups that found their block.
///         hits: u64 = counter sum,
///         /// Lookups that missed.
///         misses as lookups_missed: u64 = counter sum,
///         /// Bytes held.
///         bytes: u64 = gauge max,
///     }
///     /// Live cache counters.
///     #[derive(Default)]
///     pub atomic CacheCounters;
/// }
///
/// let live = CacheCounters::default();
/// live.hits.fetch_add(3, Ordering::Relaxed);
/// let mut total = live.snapshot();
/// total.merge(&CacheStats { hits: 1, misses: 0, bytes: 0 });
/// assert_eq!(total.hits, 4);
///
/// let mut page = String::new();
/// CacheStats::write_families(&mut page, &[("", &total)]);
/// assert!(page.contains("# TYPE scavenger_cache_hits_total counter\nscavenger_cache_hits_total 4\n"));
/// assert!(page.contains("# HELP scavenger_cache_lookups_missed_total Lookups that missed.\n"));
/// assert!(page.contains("scavenger_cache_bytes 0\n"));
/// ```
///
/// Each field reads `name [as series]: Type = kind rule [hand]`, with a
/// required doc comment. `as series` names the family after `series`
/// instead of the field. The optional `atomic` clause names the
/// `AtomicU64` twin; fields in its braces are extra, non-metric fields
/// of the twin.
#[macro_export]
macro_rules! metric_set {
    (@rule sum) => { $crate::metrics::Merge::Sum };
    (@rule max) => { $crate::metrics::Merge::Max };
    (@rule min) => { $crate::metrics::Merge::Min };
    (@rule any) => { $crate::metrics::Merge::Any };

    (@delta counter, $now:expr, $earlier:expr) => { $crate::metrics::Stat::since(&$now, &$earlier) };
    (@delta gauge, $now:expr, $earlier:expr) => { ::core::clone::Clone::clone(&$now) };

    (@family $out:ident, $samples:ident, $prefix:literal, $kind:ident, $docs:tt,
        [$f:ident $($series:ident)?], hand) => {};
    (@family $out:ident, $samples:ident, $prefix:literal, $kind:ident, $docs:tt, [$f:ident], ) => {
        $crate::metric_set!(@write $out, $samples, $prefix, $kind, $docs, $f, $f)
    };
    (@family $out:ident, $samples:ident, $prefix:literal, $kind:ident, $docs:tt,
        [$f:ident $series:ident], ) => {
        $crate::metric_set!(@write $out, $samples, $prefix, $kind, $docs, $f, $series)
    };

    (@kind counter) => { $crate::metrics::Kind::Counter };
    (@kind gauge) => { $crate::metrics::Kind::Gauge };
    (@suffix counter) => { "_total" };
    (@suffix gauge) => { "" };

    (@write $out:ident, $samples:ident, $prefix:literal, $kind:ident, [$($doc:literal),*], $f:ident, $series:ident) => {
        $crate::metrics::write_family(
            $out,
            concat!("scavenger_", $prefix, stringify!($series), $crate::metric_set!(@suffix $kind)),
            $crate::metric_set!(@kind $kind),
            &$crate::metrics::help_text(&[$($doc),*]),
            $samples.iter().map(|(l, s)| (l.as_ref(), $crate::metrics::Sample::sample(&s.$f))),
        )
    };

    (@atomic $name:ident $fields:tt) => {};
    (@atomic $name:ident { $( [$($doc:literal),+] $f:ident ),* }
        $(#[$ameta:meta])*
        $avis:vis atomic $atomic:ident $({
            $( $(#[$xmeta:meta])* $xvis:vis $x:ident : $xty:ty ),* $(,)?
        })? $(;)?
    ) => {
        $(#[$ameta])*
        $avis struct $atomic {
            $( $(#[doc = $doc])+ pub $f: ::std::sync::atomic::AtomicU64, )*
            $($( $(#[$xmeta])* $xvis $x: $xty, )*)?
        }

        impl $atomic {
            /// Point-in-time copy of every counter.
            pub fn snapshot(&self) -> $name {
                $name { $( $f: self.$f.load(::std::sync::atomic::Ordering::Relaxed), )* }
            }
        }
    };

    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident in $prefix:literal {
            $(
                $(#[doc = $doc:literal])+
                $f:ident $(as $series:ident)? : $ty:ty = $kind:ident $rule:ident $($hand:ident)?
            ),* $(,)?
        }
        $($atomic:tt)*
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $( $(#[doc = $doc])+ pub $f: $ty, )*
        }

        impl $name {
            /// Fold `other` into `self`, each field under its declared
            /// merge rule.
            pub fn merge(&mut self, other: &Self) {
                $( $crate::metrics::Stat::merge_with(
                    &mut self.$f, &other.$f, $crate::metric_set!(@rule $rule)); )*
            }

            /// `self - earlier`: counters subtract (saturating), gauges
            /// keep `self`'s value.
            pub fn delta(&self, earlier: &Self) -> Self {
                Self { $( $f: $crate::metric_set!(@delta $kind, self.$f, earlier.$f), )* }
            }

            /// Append one Prometheus family per field not marked `hand`,
            /// with one sample per `(labels, snapshot)` pair.
            // A set whose fields are all `hand` writes nothing to `out`.
            #[allow(clippy::ptr_arg)]
            pub fn write_families<L: AsRef<str>>(out: &mut String, samples: &[(L, &Self)]) {
                $( $crate::metric_set!(@family out, samples, $prefix, $kind, [$($doc),+],
                    [$f $($series)?], $($hand)?); )*
            }
        }

        impl $crate::metrics::Stat for $name {
            fn merge_with(&mut self, other: &Self, _rule: $crate::metrics::Merge) {
                self.merge(other)
            }

            fn since(&self, earlier: &Self) -> Self {
                self.delta(earlier)
            }
        }

        $crate::metric_set!(@atomic $name { $( [$($doc),+] $f ),* } $($atomic)*);
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    crate::metric_set! {
        /// A set covering every field type and rule.
        #[derive(Debug, Clone, Default, PartialEq)]
        struct Probe in "probe_" {
            /// Events seen. Second sentence.
            events: u64 = counter sum,
            /// Highest level.
            peak: u64 = gauge max,
            /// Oldest point,
            /// spanning two lines.
            oldest: Option<u64> = gauge min hand,
            /// Ratio.
            ratio: f64 = gauge min,
            /// Whether any member failed.
            failed: bool = gauge any,
        }
    }

    #[test]
    fn merge_applies_each_declared_rule() {
        let mut a = Probe {
            events: 2,
            peak: 5,
            oldest: None,
            ratio: 0.5,
            failed: false,
        };
        a.merge(&Probe {
            events: 3,
            peak: 4,
            oldest: Some(9),
            ratio: 0.25,
            failed: true,
        });
        a.merge(&Probe {
            oldest: Some(7),
            ratio: 1.0,
            ..Probe::default()
        });
        let want = Probe {
            events: 5,
            peak: 5,
            oldest: Some(7),
            ratio: 0.25,
            failed: true,
        };
        assert_eq!(a, want);
    }

    #[test]
    fn delta_subtracts_counters_and_keeps_gauges() {
        let earlier = Probe {
            events: 10,
            peak: 8,
            ..Probe::default()
        };
        let now = Probe {
            events: 4,
            peak: 3,
            ..Probe::default()
        };
        let d = now.delta(&earlier);
        assert_eq!(d.events, 0, "saturating");
        assert_eq!(d.peak, 3, "a gauge keeps its later value");
    }

    #[test]
    fn families_are_contiguous_and_skip_hand_fields() {
        let a = Probe {
            events: 1,
            peak: 2,
            ..Probe::default()
        };
        let b = Probe {
            events: 3,
            failed: true,
            ..Probe::default()
        };
        let mut out = String::new();
        Probe::write_families(&mut out, &[("shard=\"0\"", &a), ("shard=\"1\"", &b)]);
        assert!(out.starts_with(
            "# HELP scavenger_probe_events_total Events seen.\n\
             # TYPE scavenger_probe_events_total counter\n\
             scavenger_probe_events_total{shard=\"0\"} 1\n\
             scavenger_probe_events_total{shard=\"1\"} 3\n\
             # HELP scavenger_probe_peak Highest level.\n"
        ));
        assert!(out.contains("scavenger_probe_failed{shard=\"1\"} 1\n"));
        assert!(!out.contains("oldest"));
    }

    #[test]
    fn help_is_the_first_sentence() {
        assert_eq!(
            help_text(&[" Events seen. Second sentence."]),
            "Events seen."
        );
        assert_eq!(
            help_text(&[" Oldest point,", " spanning two lines.", "", " More."]),
            "Oldest point, spanning two lines."
        );
    }

    #[test]
    fn sample_lines_format_labels_and_integers() {
        let mut out = String::new();
        write_sample(&mut out, "m", "", 3.0);
        write_sample(&mut out, "m", &join_labels("a=\"b\"", ""), 0.5);
        write_sample(&mut out, "m", &join_labels("", "c=\"d\""), 1.0);
        assert_eq!(out, "m 3\nm{a=\"b\"} 0.5\nm{c=\"d\"} 1\n");
    }
}
