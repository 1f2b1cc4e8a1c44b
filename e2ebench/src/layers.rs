//! Per-layer metrics from the traced replay's spans and counters.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::spans::{self_times, Span};
use crate::{metric, Metric};

/// Throughput of the keyed hash on the active SHA-256 backend, MB/s:
/// the four-lane fast path the plan scan runs, over 8-byte keys (two
/// 64-byte blocks hashed per key). Best of three short passes.
pub fn keyed_hash_mb_per_s() -> f64 {
    let spec = crate::data::spec("host-probe");
    let hasher = spec.keyed1().fixed_len_hasher(8).expect("derived keys take the fast path");
    let batches = 100_000u64;
    let mut best = f64::MAX;
    for _ in 0..3 {
        let mut acc = 0u64;
        let start = Instant::now();
        for i in 0..batches {
            let v = [
                (i * 4).to_le_bytes(),
                (i * 4 + 1).to_le_bytes(),
                (i * 4 + 2).to_le_bytes(),
                (i * 4 + 3).to_le_bytes(),
            ];
            let out = hasher.hash4_u64([&v[0][..], &v[1], &v[2], &v[3]]);
            acc ^= out[0] ^ out[1] ^ out[2] ^ out[3];
        }
        best = best.min(start.elapsed().as_secs_f64());
        std::hint::black_box(acc);
    }
    (batches * 4 * 128) as f64 / best / 1e6
}

/// Per-request totals of each layer's self time and duration.
pub struct LayerTimes {
    /// `(layer, request) → (self ns, duration ns)`.
    by_layer: BTreeMap<&'static str, BTreeMap<u64, (u64, u64)>>,
    /// Root spans (one per replayed operation): `(op name, duration ns,
    /// covered ns)` — covered is what the layers' spans account for.
    roots: Vec<(&'static str, u64, u64)>,
}

impl LayerTimes {
    /// Aggregate `spans`.
    pub fn new(spans: &[Span]) -> Self {
        let selfs = self_times(spans);
        let mut by_layer: BTreeMap<&'static str, BTreeMap<u64, (u64, u64)>> = BTreeMap::new();
        let mut roots = Vec::new();
        for (span, own) in spans.iter().zip(selfs) {
            if span.parent.is_none() {
                roots.push((span.name, span.duration(), span.duration() - own));
                continue;
            }
            let slot = by_layer.entry(span.name).or_default().entry(span.request).or_default();
            slot.0 += own;
            slot.1 += span.duration();
        }
        LayerTimes { by_layer, roots }
    }

    /// Mean over the requests that run a layer of its self time, ms
    /// (0 when the workload never runs the layer). A mean, not a
    /// median: requests of different operations run the same layer on
    /// payloads of very different sizes, and the mean moves with the
    /// layer's share of the work.
    pub fn self_ms(&self, layer: &str) -> f64 {
        self.mean(layer, |(own, _)| own)
    }

    /// Mean over the requests that run a layer of its duration, ms.
    pub fn total_ms(&self, layer: &str) -> f64 {
        self.mean(layer, |(_, total)| total)
    }

    fn mean(&self, layer: &str, pick: impl Fn((u64, u64)) -> u64) -> f64 {
        let Some(m) = self.by_layer.get(layer) else { return 0.0 };
        m.values().map(|&v| pick(v) as f64 / 1e6).sum::<f64>() / m.len().max(1) as f64
    }

    /// A layer's throughput over the run, MB/s: the bytes of the
    /// requests it ran on over its total self time on them.
    pub fn mb_per_s(&self, layer: &str, bytes: &BTreeMap<u64, u64>) -> f64 {
        let Some(m) = self.by_layer.get(layer) else { return 0.0 };
        let (mut total_bytes, mut ns) = (0u64, 0u64);
        for (req, &(own, _)) in m {
            if let Some(&b) = bytes.get(req) {
                total_bytes += b;
                ns += own;
            }
        }
        if ns == 0 {
            0.0
        } else {
            total_bytes as f64 / (ns as f64 / 1e9) / 1e6
        }
    }

    /// The share of replayed operation time the layer spans cover, and
    /// the operation with the least coverage.
    pub fn coverage(&self) -> (f64, f64, &'static str) {
        let total: u64 = self.roots.iter().map(|r| r.1).sum();
        let covered: u64 = self.roots.iter().map(|r| r.2).sum();
        let mut per_op: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for &(name, dur, cov) in &self.roots {
            let e = per_op.entry(name).or_default();
            e.0 += dur;
            e.1 += cov;
        }
        let (worst_op, worst) = per_op
            .iter()
            .map(|(name, &(d, c))| (*name, c as f64 / d.max(1) as f64))
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .unwrap_or(("none", 1.0));
        (covered as f64 / total.max(1) as f64, worst, worst_op)
    }
}

/// Every per-layer metric name, in `BENCHMARK.json` order, with its unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("service.json.parse_ms", "ms"),
    ("service.json.parse_mb_per_s", "MB/s"),
    ("service.json.encode_ms", "ms"),
    ("service.wire.frame_ms", "ms"),
    ("service.wire.bytes_in", "bytes"),
    ("service.wire.bytes_out", "bytes"),
    ("service.daemon.handle_ms", "ms"),
    ("service.daemon.self_ms", "ms"),
    ("service.daemon.lock_wait_ms", "ms"),
    ("service.daemon.lock_hold_ms", "ms"),
    ("relation.csv.infer_ms", "ms"),
    ("relation.csv.read_ms", "ms"),
    ("relation.csv.read_mb_per_s", "MB/s"),
    ("relation.csv.write_ms", "ms"),
    ("relation.csv.write_mb_per_s", "MB/s"),
    ("cli.other_ms", "ms"),
    ("crypto.keyed_hash_mb_per_s", "MB/s"),
    ("core.plan.ms", "ms"),
    ("core.plan.cache_hit_ratio", "ratio"),
    ("core.embed.ms", "ms"),
    ("core.decode.ms", "ms"),
    ("core.decode.votes", "count"),
    ("core.evidence.certify_ms", "ms"),
    ("core.evidence.verify_ms", "ms"),
    ("core.evidence.bundle_bytes", "bytes"),
    ("core.fingerprint.mark_delta_ms", "ms"),
    ("core.fingerprint.trace_ms", "ms"),
    ("core.fingerprint.multi_plan_hit_ratio", "ratio"),
    ("relation.delta.encode_ms", "ms"),
    ("relation.delta.bytes", "bytes"),
    ("relation.versioned.commit_ms", "ms"),
    ("relation.versioned.open_ms", "ms"),
    ("relation.versioned.dedup_hits", "count"),
    ("relation.versioned.bytes_per_user_byte", "ratio"),
    ("core.incremental.embed_ms", "ms"),
    ("core.incremental.dirty_ratio", "ratio"),
    ("core.incremental.vote_hit_ratio", "ratio"),
    ("relation.segment.pager_hits", "count"),
    ("relation.segment.pager_misses", "count"),
    ("relation.segment.pager_evictions", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

/// Order `values` as [`PER_LAYER`] lists them, with 0 for any layer
/// the workload does not run.
pub fn per_layer_metrics(values: &BTreeMap<&'static str, f64>) -> Vec<Metric> {
    PER_LAYER
        .iter()
        .map(|&(name, unit)| metric(name, values.get(name).copied().unwrap_or(0.0), unit))
        .collect()
}
