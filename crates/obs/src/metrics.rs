//! Counters, gauges, and power-of-two histograms with deterministic JSON
//! export.
//!
//! A [`Metrics`] bag is built per world (or per experiment unit) and merged
//! upward. Every merge operation is commutative and associative — counter
//! sums, gauge maxima, bucket-wise histogram addition — so folding per-unit
//! bags in unit-index order yields the same bytes regardless of which
//! worker produced which unit. Keys are held in `BTreeMap`s so the JSON
//! rendering is ordered, and all values are integers (virtual microseconds,
//! event counts): no floats, no platform-dependent formatting.

use std::collections::BTreeMap;

use crate::json::{self, DecodeError, Fault, Field, Layout, Value, Writer};

/// A histogram over `u64` samples with power-of-two buckets.
///
/// Bucket `k` counts samples whose bit length is `k` (i.e. values in
/// `[2^(k-1), 2^k)`, with bucket 0 holding zeros). Exact `count`/`sum`/
/// `min`/`max` ride along, so averages stay exact even though the buckets
/// are coarse.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Histogram {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: BTreeMap<u8, u64>,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one sample.
    pub fn observe(&mut self, value: u64) {
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        let bucket = (u64::BITS - value.leading_zeros()) as u8;
        *self.buckets.entry(bucket).or_insert(0) += 1;
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample (0 when empty).
    pub fn max(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.max
        }
    }

    /// The `q`-quantile (`0.0 ≤ q ≤ 1.0`) under **bucket upper-bound**
    /// interpolation: the reported value is the largest value the rank-th
    /// sample *could* have had given its bucket (`2^k − 1`), clamped to the
    /// exact `[min, max]` the histogram tracks. Because it reads only the
    /// merged bucket counts and the exact min/max — all of which merge
    /// commutatively — the result is identical no matter how per-unit
    /// histograms were merged.
    ///
    /// Returns `None` when empty or when `q` is NaN; a finite `q` outside
    /// `[0, 1]` (and ±∞) is clamped to the nearest valid quantile rather
    /// than silently aliasing some in-range rank.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 || q.is_nan() {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (bucket, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                // Largest value in bucket k: 0 for the zero bucket,
                // otherwise 2^k − 1 (saturating at the top bucket).
                let upper = match *bucket {
                    0 => 0,
                    k if k >= 64 => u64::MAX,
                    k => (1u64 << k) - 1,
                };
                return Some(upper.clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Number of samples recorded in power-of-two bucket `k` (values with
    /// bit length `k`; bucket 0 holds zeros, bucket 64 holds
    /// `[2^63, u64::MAX]`).
    pub fn bucket(&self, k: u8) -> u64 {
        self.buckets.get(&k).copied().unwrap_or(0)
    }

    /// Folds another histogram in (bucket-wise addition: commutative).
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        for (bucket, n) in &other.buckets {
            *self.buckets.entry(*bucket).or_insert(0) += n;
        }
    }

    /// Reconstructs a histogram from the object
    /// [`Histogram::write_members`] wrote; the rendering check of the
    /// document that embeds it refuses every other object.
    fn from_field(doc: &Field) -> Result<Histogram, DecodeError> {
        let mut histogram = Histogram {
            count: doc.u64("count")?,
            sum: doc.u64("sum")?,
            min: doc.u64("min")?,
            max: doc.u64("max")?,
            buckets: BTreeMap::new(),
        };
        let buckets = doc.get("buckets")?;
        for (label, n) in buckets.members()? {
            let k = bucket_index(label)
                .ok_or_else(|| n.error(Fault::Invalid("not a bucket label".to_owned())))?;
            histogram.buckets.insert(k, n.as_u64()?);
        }
        if histogram.count > 0 {
            return Ok(histogram);
        }
        if histogram.sum != 0 || !histogram.buckets.is_empty() {
            return Err(doc.error(Fault::Invalid(
                "an empty histogram with a sum or buckets".to_owned(),
            )));
        }
        // An empty histogram renders its min and max as 0.
        Ok(Histogram::new())
    }

    /// Writes the histogram's members.
    fn write_members(&self, w: &mut Writer) {
        w.u64("count", self.count).u64("sum", self.sum);
        w.u64("min", self.min()).u64("max", self.max());
        w.object("buckets", Layout::Compact, |w| {
            for (bucket, n) in &self.buckets {
                // Bucket label = exclusive upper bound of the value range.
                // The top bucket has no exclusive bound above it — u64::MAX
                // itself lands there — so its label is the inclusive "<=MAX".
                match *bucket {
                    64.. => w.u64(TOP_BUCKET, *n),
                    k => w.u64(&format!("<{}", 1u64 << k), *n),
                };
            }
        });
    }
}

/// The label of the top bucket, `[2^63, u64::MAX]`.
const TOP_BUCKET: &str = "<=18446744073709551615";

/// Maps a rendered bucket label back to its power-of-two bucket index:
/// `"<1"` → 0, `"<2"` → 1, …, `"<=18446744073709551615"` → 64.
fn bucket_index(label: &str) -> Option<u8> {
    if label == TOP_BUCKET {
        return Some(64);
    }
    let bound: u64 = label.strip_prefix('<')?.parse().ok()?;
    bound
        .is_power_of_two()
        .then(|| bound.trailing_zeros() as u8)
}

/// A bag of named counters, gauges, and histograms.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Metrics {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
}

impl Metrics {
    /// An empty bag.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Adds `n` to a counter, materializing the key even at 0 so "present
    /// but zero" is distinguishable from "never instrumented".
    pub fn add(&mut self, name: &str, n: u64) {
        *self.counters.entry(name.to_owned()).or_insert(0) += n;
    }

    /// Increments a counter by one.
    pub fn inc(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Reads a counter (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sets a gauge to the maximum of its current and `value` — the merge
    /// rule, applied locally too, so set order never matters.
    pub fn gauge_max(&mut self, name: &str, value: u64) {
        let slot = self.gauges.entry(name.to_owned()).or_insert(0);
        *slot = (*slot).max(value);
    }

    /// Reads a gauge (0 when absent).
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// Records a histogram sample.
    pub fn observe(&mut self, name: &str, value: u64) {
        self.histograms
            .entry(name.to_owned())
            .or_default()
            .observe(value);
    }

    /// Reads a histogram, when present.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Folds a standalone histogram into the named slot — for code that
    /// accumulates a [`Histogram`] locally (hot paths) and exports late.
    pub fn merge_histogram(&mut self, name: &str, histogram: &Histogram) {
        self.histograms
            .entry(name.to_owned())
            .or_default()
            .merge(histogram);
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Folds another bag in: counters add, gauges take the maximum,
    /// histograms merge bucket-wise. Commutative, so merging per-unit bags
    /// in index order is schedule-independent.
    pub fn merge(&mut self, other: &Metrics) {
        for (name, n) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += n;
        }
        for (name, v) in &other.gauges {
            let slot = self.gauges.entry(name.clone()).or_insert(0);
            *slot = (*slot).max(*v);
        }
        for (name, h) in &other.histograms {
            self.histograms.entry(name.clone()).or_default().merge(h);
        }
    }

    /// Like [`Metrics::merge`], but with every incoming key prefixed
    /// `"{scope}."` — used for per-device sections of an experiment export.
    pub fn merge_scoped(&mut self, scope: &str, other: &Metrics) {
        for (name, n) in &other.counters {
            *self.counters.entry(format!("{scope}.{name}")).or_insert(0) += n;
        }
        for (name, v) in &other.gauges {
            let slot = self.gauges.entry(format!("{scope}.{name}")).or_insert(0);
            *slot = (*slot).max(*v);
        }
        for (name, h) in &other.histograms {
            self.histograms
                .entry(format!("{scope}.{name}"))
                .or_default()
                .merge(h);
        }
    }

    /// Parses a JSON object previously rendered by [`Metrics::to_json`] —
    /// the checkpoint/resume reload path. Exact inverse: only what
    /// `to_json` renders is accepted (all values are integers), up to
    /// insignificant whitespace and string-escape spelling.
    pub fn parse_json(text: &str) -> Result<Metrics, DecodeError> {
        Metrics::from_value(&json::parse(text)?)
    }

    /// [`Metrics::parse_json`] over an already-parsed [`Value`].
    pub fn from_value(value: &Value) -> Result<Metrics, DecodeError> {
        let metrics = Metrics::from_field(&value.field())?;
        value.check_rendering(&metrics.to_json())?;
        Ok(metrics)
    }

    /// Reads the members [`Metrics::write_members`] wrote, for a document
    /// that embeds the bag and checks its own rendering.
    pub fn from_field(doc: &Field) -> Result<Metrics, DecodeError> {
        let mut metrics = Metrics::new();
        let counters = doc.get("counters")?;
        for (name, n) in counters.members()? {
            metrics.counters.insert(name.to_owned(), n.as_u64()?);
        }
        let gauges = doc.get("gauges")?;
        for (name, v) in gauges.members()? {
            metrics.gauges.insert(name.to_owned(), v.as_u64()?);
        }
        let histograms = doc.get("histograms")?;
        for (name, h) in histograms.members()? {
            metrics
                .histograms
                .insert(name.to_owned(), Histogram::from_field(&h)?);
        }
        Ok(metrics)
    }

    /// Renders the bag as a deterministic JSON document:
    /// `{"counters":{...},"gauges":{...},"histograms":{...}}` with keys in
    /// lexicographic order and a trailing newline (a standalone metrics
    /// artifact is one line; line-oriented tools want it terminated).
    /// [`Metrics::parse_json`] accepts the document with or without the
    /// terminator.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        json::object(&mut out, Layout::Compact, |w| self.write_members(w));
        out.push('\n');
        out
    }

    /// Writes [`Metrics::to_json`]'s members, for a document that embeds
    /// the bag.
    pub fn write_members(&self, w: &mut Writer) {
        w.object("counters", Layout::Compact, |w| {
            for (name, n) in &self.counters {
                w.u64(name, *n);
            }
        });
        w.object("gauges", Layout::Compact, |w| {
            for (name, v) in &self.gauges {
                w.u64(name, *v);
            }
        });
        w.object("histograms", Layout::Compact, |w| {
            for (name, h) in &self.histograms {
                w.object(name, Layout::Compact, |w| h.write_members(w));
            }
        });
    }
}

/// Builds a complete `metrics.json` document: a meta header (experiment
/// name, seed, worker count, …), one member per line, followed by the
/// metrics body on one line.
pub fn export_json(meta: &[(&str, MetaValue)], metrics: &Metrics) -> String {
    let mut out = String::with_capacity(512);
    json::object(&mut out, Layout::Lines, |w| {
        for (key, value) in meta {
            match value {
                MetaValue::Str(s) => w.str(key, s),
                MetaValue::Int(n) => w.u64(key, *n),
            };
        }
        w.object("metrics", Layout::Compact, |w| metrics.write_members(w));
    });
    out.push('\n');
    out
}

/// One meta-header value for [`export_json`].
#[derive(Clone, Debug)]
pub enum MetaValue {
    /// A JSON string (escaped on render).
    Str(String),
    /// An integer.
    Int(u64),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_add_and_render_ordered() {
        let mut m = Metrics::new();
        m.inc("zeta");
        m.add("alpha", 3);
        m.inc("zeta");
        assert_eq!(m.counter("zeta"), 2);
        assert_eq!(m.counter("alpha"), 3);
        assert_eq!(m.counter("missing"), 0);
        let json = m.to_json();
        let alpha = json.find("alpha").expect("alpha present");
        let zeta = json.find("zeta").expect("zeta present");
        assert!(alpha < zeta, "keys must render sorted: {json}");
    }

    #[test]
    fn merge_is_commutative() {
        let mut a = Metrics::new();
        a.add("x", 2);
        a.gauge_max("g", 7);
        a.observe("h", 100);
        let mut b = Metrics::new();
        b.add("x", 5);
        b.add("y", 1);
        b.gauge_max("g", 3);
        b.observe("h", 3000);

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.counter("x"), 7);
        assert_eq!(ab.gauge("g"), 7);
        assert_eq!(ab.histogram("h").map(|h| h.count()), Some(2));
        assert_eq!(ab.to_json(), ba.to_json());
    }

    #[test]
    fn scoped_merge_prefixes_keys() {
        let mut unit = Metrics::new();
        unit.add("races", 4);
        let mut top = Metrics::new();
        top.merge_scoped("device.Galaxy S8", &unit);
        assert_eq!(top.counter("device.Galaxy S8.races"), 4);
    }

    #[test]
    fn histogram_buckets_and_stats() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 2, 3, 900, 1024] {
            h.observe(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 1930);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 1024);
        let mut json = String::new();
        json::object(&mut json, Layout::Compact, |w| h.write_members(w));
        // 0 → bucket "<1"; 1 → "<2"; 2,3 → "<4"; 900 → "<1024"; 1024 → "<2048".
        assert!(json.contains("\"<1\":1"), "{json}");
        assert!(json.contains("\"<4\":2"), "{json}");
        assert!(json.contains("\"<1024\":1"), "{json}");
        assert!(json.contains("\"<2048\":1"), "{json}");
    }

    #[test]
    fn quantile_empty_histogram_is_none() {
        let h = Histogram::new();
        for q in [0.0, 0.5, 0.95, 1.0] {
            assert_eq!(h.quantile(q), None, "empty histogram has no quantile");
        }
    }

    #[test]
    fn quantile_single_sample_is_exact() {
        let mut h = Histogram::new();
        h.observe(900);
        // Bucket upper bound would be 1023, but min/max clamping makes a
        // single sample exact at every q.
        for q in [0.0, 0.5, 0.95, 1.0] {
            assert_eq!(h.quantile(q), Some(900));
        }
        let mut zero = Histogram::new();
        zero.observe(0);
        assert_eq!(zero.quantile(0.5), Some(0));
    }

    #[test]
    fn bucketing_at_pow2_boundaries() {
        let mut h = Histogram::new();
        // Zero gets its own bucket, distinct from 1.
        h.observe(0);
        assert_eq!(h.bucket(0), 1);
        // An exact power of two 2^k starts bucket k+1 (range [2^k, 2^(k+1))),
        // while 2^k − 1 tops off bucket k.
        h.observe(1);
        h.observe(2);
        h.observe(1023);
        h.observe(1024);
        assert_eq!(h.bucket(1), 1, "1 is in [1,2)");
        assert_eq!(h.bucket(2), 1, "2 is in [2,4)");
        assert_eq!(h.bucket(10), 1, "1023 is in [512,1024)");
        assert_eq!(h.bucket(11), 1, "1024 is in [1024,2048)");
        // u64::MAX must land in the top bucket, not overflow past it.
        h.observe(u64::MAX);
        h.observe(1u64 << 63);
        assert_eq!(h.bucket(64), 2, "[2^63, u64::MAX] is bucket 64");
        assert_eq!(h.max(), u64::MAX);
        let mut json = String::new();
        json::object(&mut json, Layout::Compact, |w| h.write_members(w));
        // The top bucket's bound is inclusive — u64::MAX itself is inside —
        // so its label must say so.
        assert!(json.contains("\"<=18446744073709551615\":2"), "{json}");
        assert!(!json.contains("\"<18446744073709551615\""), "{json}");
    }

    #[test]
    fn quantile_is_merge_order_independent() {
        let samples = [3u64, 7, 100, 250, 251, 4000, 65536, 1, 2, 12];
        let mut whole = Histogram::new();
        for v in samples {
            whole.observe(v);
        }
        // Split the samples across three shards and merge in two different
        // orders; every quantile must agree with the all-at-once histogram.
        let mut shards = [Histogram::new(), Histogram::new(), Histogram::new()];
        for (i, v) in samples.iter().enumerate() {
            shards[i % 3].observe(*v);
        }
        let mut forward = Histogram::new();
        for s in &shards {
            forward.merge(s);
        }
        let mut backward = Histogram::new();
        for s in shards.iter().rev() {
            backward.merge(s);
        }
        for q in [0.0, 0.25, 0.5, 0.9, 0.95, 1.0] {
            assert_eq!(whole.quantile(q), forward.quantile(q), "q={q}");
            assert_eq!(forward.quantile(q), backward.quantile(q), "q={q}");
        }
        // Sanity on the semantics: p50 of ten samples is the 5th-ranked
        // sample's bucket upper bound (rank 5 = 12 → bucket <16 → 15).
        assert_eq!(whole.quantile(0.5), Some(15));
        // p100 is clamped to the exact max.
        assert_eq!(whole.quantile(1.0), Some(65536));
        // p0 clamps to the exact min.
        assert_eq!(whole.quantile(0.0), Some(1));
    }

    #[test]
    fn quantile_rejects_nan_and_clamps_out_of_range() {
        let mut h = Histogram::new();
        for v in [15u64, 20, 3000] {
            h.observe(v);
        }
        // NaN used to as-cast to rank 0 → clamp to 1 → silently report a
        // low quantile; it must be None.
        assert_eq!(h.quantile(f64::NAN), None);
        // Out-of-range q (including ±∞) clamps to the nearest valid rank.
        assert_eq!(h.quantile(-0.5), h.quantile(0.0));
        assert_eq!(h.quantile(1.5), h.quantile(1.0));
        assert_eq!(h.quantile(f64::NEG_INFINITY), h.quantile(0.0));
        assert_eq!(h.quantile(f64::INFINITY), h.quantile(1.0));
        assert_eq!(h.quantile(0.0), Some(15));
        assert_eq!(h.quantile(1.0), Some(3000));
    }

    #[test]
    fn parse_json_round_trips_rendered_bags() {
        let mut m = Metrics::new();
        m.add("campaign.trials", 1_000_000);
        m.add("zero_counter", 0);
        m.gauge_max("peak", 17);
        for v in [0u64, 1, 3, 900, 1024, u64::MAX, 1u64 << 63] {
            m.observe("latency_us", v);
        }
        m.observe("single", 42);
        let json = m.to_json();
        let parsed = Metrics::parse_json(&json).expect("own rendering parses");
        assert_eq!(parsed, m);
        assert_eq!(parsed.to_json(), json, "byte-exact round trip");
        // Empty bags round-trip too.
        let empty = Metrics::new();
        assert_eq!(
            Metrics::parse_json(&empty.to_json()).expect("empty parses"),
            empty
        );
    }

    #[test]
    fn parse_json_preserves_histogram_semantics() {
        let mut m = Metrics::new();
        for v in [3u64, 7, 100, 250, 4000] {
            m.observe("h", v);
        }
        let parsed = Metrics::parse_json(&m.to_json()).expect("parses");
        let (original, reloaded) = (
            m.histogram("h").expect("present"),
            parsed.histogram("h").expect("present"),
        );
        assert_eq!(reloaded.count(), original.count());
        assert_eq!(reloaded.sum(), original.sum());
        assert_eq!(reloaded.min(), original.min());
        assert_eq!(reloaded.max(), original.max());
        for q in [0.0, 0.5, 0.95, 1.0] {
            assert_eq!(reloaded.quantile(q), original.quantile(q), "q={q}");
        }
        // A reloaded bag keeps merging exactly like the original — the
        // property checkpoint/resume rests on.
        let mut more = Metrics::new();
        more.observe("h", 9999);
        let mut a = m.clone();
        a.merge(&more);
        let mut b = parsed.clone();
        b.merge(&more);
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn parse_json_rejects_malformed_documents() {
        assert!(Metrics::parse_json("not json").is_err());
        assert!(Metrics::parse_json("{}").is_err(), "missing sections");
        assert!(
            Metrics::parse_json(r#"{"counters":{"n":-1},"gauges":{},"histograms":{}}"#).is_err(),
            "negative counter"
        );
        assert!(
            Metrics::parse_json(
                r#"{"counters":{},"gauges":{},"histograms":{"h":{"count":1,"sum":5,"min":5,"max":5,"buckets":{"<3":1}}}}"#
            )
            .is_err(),
            "non-power-of-two bucket label"
        );
        assert!(
            Metrics::parse_json(
                r#"{"counters":{},"gauges":{},"histograms":{"h":{"count":1,"sum":5,"min":5,"buckets":{}}}}"#
            )
            .is_err(),
            "missing max field"
        );
    }

    #[test]
    fn export_json_shape() {
        let mut m = Metrics::new();
        m.inc("n");
        let doc = export_json(
            &[
                ("experiment", MetaValue::Str("table2".to_owned())),
                ("seed", MetaValue::Int(2022)),
            ],
            &m,
        );
        assert!(doc.starts_with("{\n  \"experiment\": \"table2\",\n"));
        assert!(doc.contains("\"seed\": 2022"));
        assert!(doc.contains("\"metrics\": {\"counters\":{\"n\":1}"));
        assert!(doc.ends_with("}\n"));
    }

    #[test]
    fn empty_metrics_render() {
        let m = Metrics::new();
        assert!(m.is_empty());
        assert_eq!(
            m.to_json(),
            "{\"counters\":{},\"gauges\":{},\"histograms\":{}}\n"
        );
    }

    #[test]
    fn parse_json_accepts_with_and_without_terminator() {
        // Pre-newline artifacts (v1 documents committed before the
        // terminator fix) must keep loading.
        let mut m = Metrics::new();
        m.inc("n");
        let terminated = m.to_json();
        assert!(terminated.ends_with("}\n"), "{terminated:?}");
        let bare = terminated.trim_end();
        assert_eq!(
            Metrics::parse_json(bare).expect("unterminated v1 doc parses"),
            Metrics::parse_json(&terminated).expect("terminated doc parses"),
        );
    }
}
