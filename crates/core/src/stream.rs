//! Incremental updates (Section 4.3).
//!
//! "Our method supports incremental updates naturally. As updates
//! occur to the data, the resulting tuples can be evaluated on the fly
//! for 'fitness' and watermarked accordingly."
//!
//! [`StreamMarker`] wraps a [`WatermarkSpec`] and watermark and
//! processes arriving tuples one at a time: fit tuples are rewritten
//! to carry their mark bit *before* insertion, so the relation is
//! always fully marked without ever re-scanning. The marker is
//! stateless beyond its configuration — two markers with the same spec
//! are interchangeable, and a batch [`crate::Embedder`] pass over the
//! same data produces byte-identical results (pinned by test).

use catmark_relation::{Relation, Value};

use crate::ecc::{ErrorCorrectingCode, MajorityVotingEcc};
use crate::error::CoreError;
use crate::fitness::FitnessSelector;
use crate::spec::{Watermark, WatermarkSpec};

/// Outcome of ingesting one tuple.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IngestOutcome {
    /// Row index the tuple landed on.
    pub row: usize,
    /// Whether the tuple was fit and therefore carries a mark bit.
    pub marked: bool,
}

/// Online watermarker for insert streams.
#[derive(Debug, Clone)]
pub struct StreamMarker {
    spec: WatermarkSpec,
    wm_data: Vec<bool>,
    selector: FitnessSelector,
    key_idx: usize,
    attr_idx: usize,
}

impl StreamMarker {
    /// Marker over already-resolved attribute indices — the typed
    /// constructor [`crate::session::MarkSession::stream`] uses.
    /// (The stringly `(template, "pk", "attr")` constructor is gone;
    /// bind a `MarkSession` and call `session.stream(&wm)`.)
    ///
    /// # Errors
    ///
    /// Watermark length mismatch against the spec.
    pub fn with_indices(
        spec: WatermarkSpec,
        key_idx: usize,
        attr_idx: usize,
        wm: &Watermark,
    ) -> Result<Self, CoreError> {
        if wm.len() != spec.wm_len {
            return Err(CoreError::InvalidSpec(format!(
                "watermark has {} bits but the spec declares {}",
                wm.len(),
                spec.wm_len
            )));
        }
        let wm_data = MajorityVotingEcc.encode(wm, spec.wm_data_len);
        let selector = FitnessSelector::new(&spec);
        Ok(StreamMarker { spec, wm_data, selector, key_idx, attr_idx })
    }

    /// The marked value the tuple with primary key `key` must carry,
    /// or `None` when the tuple is not fit (its value is free).
    ///
    /// One [`FitnessSelector::facts`] evaluation per call — the
    /// streaming twin of the batch [`crate::plan::MarkPlan`] row scan,
    /// guaranteed to assign the same value a batch embed would.
    #[must_use]
    pub fn marked_value_for(&self, key: &Value) -> Option<Value> {
        let facts = self.selector.facts(key)?;
        let bit = self.wm_data[facts.position];
        let n = self.spec.domain.len() as u64;
        let t = crate::bits::force_lsb_in_domain(facts.value_base(n), bit, n) as usize;
        Some(self.spec.domain.value_at(t).clone())
    }

    /// Ingest one tuple: overwrite its categorical value when fit,
    /// then insert.
    ///
    /// # Errors
    ///
    /// Schema violations or duplicate primary keys.
    pub fn ingest(
        &self,
        rel: &mut Relation,
        mut values: Vec<Value>,
    ) -> Result<IngestOutcome, CoreError> {
        // Bound-check both configured indices up front: a marker built
        // via `with_indices` carries whatever indices the caller chose,
        // and a fit tuple must error — not panic — on a bad target.
        if self.key_idx >= values.len() || self.attr_idx >= values.len() {
            return Err(CoreError::Relation(catmark_relation::RelationError::ArityMismatch {
                expected: rel.schema().arity(),
                actual: values.len(),
            }));
        }
        let key = &values[self.key_idx];
        let marked_value = self.marked_value_for(key);
        let marked = marked_value.is_some();
        if let Some(v) = marked_value {
            values[self.attr_idx] = v;
        }
        let row = rel.push(values)?;
        Ok(IngestOutcome { row, marked })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::ErasurePolicy;
    use crate::embed::Embedder;
    use catmark_datagen::{ItemScanConfig, SalesGenerator};

    fn fixture() -> (SalesGenerator, WatermarkSpec, Watermark) {
        let gen = SalesGenerator::new(ItemScanConfig { tuples: 4_000, ..Default::default() });
        let spec = WatermarkSpec::builder(gen.item_domain())
            .master_key("stream-tests")
            .e(20)
            .wm_len(10)
            .expected_tuples(4_000)
            .erasure(ErasurePolicy::Abstain)
            .build()
            .unwrap();
        let wm = Watermark::from_u64(0b1011010010, 10);
        (gen, spec, wm)
    }

    #[test]
    fn streaming_equals_batch_embedding() {
        let (gen, spec, wm) = fixture();
        let source = gen.generate();
        // Batch path.
        let mut batch = source.clone();
        crate::testkit::embed(&spec, &mut batch, "visit_nbr", "item_nbr", &wm).unwrap();
        // Streaming path: ingest tuple by tuple into an empty relation.
        let marker = StreamMarker::with_indices(spec.clone(), 0, 1, &wm).unwrap();
        let mut streamed = Relation::new(source.schema().clone());
        for row in 0..source.len() {
            marker.ingest(&mut streamed, crate::testkit::row(&source, row)).unwrap();
        }
        assert_eq!(streamed.len(), batch.len());
        assert_eq!(streamed, batch);

        // Plan-driven batch paths (cached, sequential, parallel) all
        // pin to the same bytes as the streamed relation.
        use crate::ecc::MajorityVotingEcc;
        use crate::plan::{MarkPlan, PlanCache};
        let cache = PlanCache::new();
        let plan = cache.plan_for(&spec, &source, 0).unwrap();
        let mut planned = source.clone();
        Embedder::engine(&spec)
            .embed_with_plan(&mut planned, 1, &wm, &MajorityVotingEcc, None, &plan)
            .unwrap();
        assert_eq!(streamed, planned);
        let par = MarkPlan::build_with_threads(&spec, &source, 0, 4);
        let mut par_marked = source.clone();
        Embedder::engine(&spec)
            .embed_with_plan(&mut par_marked, 1, &wm, &MajorityVotingEcc, None, &par)
            .unwrap();
        assert_eq!(streamed, par_marked);
    }

    #[test]
    fn marked_fraction_tracks_one_over_e() {
        let (gen, spec, wm) = fixture();
        let source = gen.generate();
        let marker = StreamMarker::with_indices(spec, 0, 1, &wm).unwrap();
        let mut rel = Relation::new(source.schema().clone());
        let mut marked = 0usize;
        for row in 0..source.len() {
            if marker.ingest(&mut rel, crate::testkit::row(&source, row)).unwrap().marked {
                marked += 1;
            }
        }
        let expected = source.len() as f64 / 20.0;
        assert!(
            (marked as f64 - expected).abs() < expected * 0.4,
            "marked={marked}, expected≈{expected}"
        );
    }

    #[test]
    fn stream_grown_relation_decodes() {
        let (gen, spec, wm) = fixture();
        let source = gen.generate();
        let marker = StreamMarker::with_indices(spec.clone(), 0, 1, &wm).unwrap();
        let mut rel = Relation::new(source.schema().clone());
        for row in 0..source.len() {
            marker.ingest(&mut rel, crate::testkit::row(&source, row)).unwrap();
        }
        let decoded = crate::testkit::decode(&spec, &rel, "visit_nbr", "item_nbr").unwrap();
        assert_eq!(decoded.watermark, wm);
    }

    #[test]
    fn unfit_tuples_pass_through_unmodified() {
        let (gen, spec, wm) = fixture();
        let source = gen.generate();
        let marker = StreamMarker::with_indices(spec, 0, 1, &wm).unwrap();
        let mut rel = Relation::new(source.schema().clone());
        for row in 0..500 {
            let values = crate::testkit::row(&source, row);
            let outcome = marker.ingest(&mut rel, values.clone()).unwrap();
            if !outcome.marked {
                assert_eq!(crate::testkit::row(&rel, outcome.row), values);
            }
        }
    }

    #[test]
    fn duplicate_keys_are_rejected() {
        let (gen, spec, wm) = fixture();
        let source = gen.generate();
        let marker = StreamMarker::with_indices(spec, 0, 1, &wm).unwrap();
        let mut rel = Relation::new(source.schema().clone());
        let values = crate::testkit::row(&source, 0);
        marker.ingest(&mut rel, values.clone()).unwrap();
        assert!(marker.ingest(&mut rel, values).is_err());
    }

    #[test]
    fn out_of_range_indices_error_instead_of_panicking() {
        let (gen, spec, wm) = fixture();
        let source = gen.generate();
        // attr_idx 5 on a 2-column relation: every tuple — fit or not —
        // must come back as an arity error, never a panic.
        let marker = StreamMarker::with_indices(spec, 0, 5, &wm).unwrap();
        let mut rel = Relation::new(source.schema().clone());
        for row in 0..200 {
            assert!(matches!(
                marker.ingest(&mut rel, crate::testkit::row(&source, row)),
                Err(CoreError::Relation(_))
            ));
        }
        assert!(rel.is_empty());
    }

    #[test]
    fn wrong_watermark_length_rejected() {
        let (_, spec, _) = fixture();
        let err = StreamMarker::with_indices(spec, 0, 1, &Watermark::from_u64(1, 3));
        assert!(matches!(err, Err(CoreError::InvalidSpec(_))));
    }
}
