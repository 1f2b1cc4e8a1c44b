//! `catmark-core` — watermarking categorical relational data.
//!
//! This crate implements the primary contribution of *Proving Ownership
//! over Categorical Data* (Radu Sion, ICDE 2004 / CERIAS TR 2003-19):
//! blind, resilient watermark embedding in the association between a
//! relation's primary key and its categorical attributes, plus every
//! extension the paper describes.
//!
//! # The scheme in one paragraph
//!
//! A keyed one-way hash of each tuple's primary key selects a sparse,
//! secret subset of "fit" tuples (`H(T(K), k1) mod e == 0`, Section
//! 3.2.1). The watermark `wm` is redundantly expanded by an
//! error-correcting code into `wm_data` (≈ N/e bits). For every fit
//! tuple, a second keyed hash picks which `wm_data` bit that tuple
//! carries, and the tuple's categorical value is replaced by a
//! pseudorandom domain value whose least-significant index bit equals
//! that watermark bit. Detection is *blind*: it re-derives the fit set
//! and positions from the keys alone, majority-votes the redundant
//! copies, and measures how improbable the match would be by chance.
//!
//! # Module map
//!
//! | Paper section | Module |
//! |---|---|
//! | the typed session API over everything below | [`session`] |
//! | §2.1 notation (`b(·)`, `msb`, `set_bit`) | [`bits`] |
//! | §3.2.1 fit-tuple selection | [`fitness`] |
//! | shared per-tuple fact layer (plans, caching) | [`plan`] |
//! | §3.2.1 error correction (majority voting) | [`ecc`] |
//! | §3.2.1 mark encoding | [`embed`] |
//! | §3.2.2 mark decoding | [`decode`] |
//! | out-of-core embed/decode over spilled segments | [`outofcore`] |
//! | incremental re-mark/re-detect over versioned segments | [`incremental`] |
//! | Fig. 1(b)/2(b) embedding-map alternative | [`map_variant`] |
//! | §3.3 multiple attribute embeddings | [`multiattr`] |
//! | §3.3 pair-closure construction | [`closure`] |
//! | §4.1 on-the-fly quality assessment | [`quality`] |
//! | reference \[5\]'s query preservation, made enforceable | [`query_preserve`] |
//! | §4.2 frequency-domain encoding | [`freq`] |
//! | §4.3 incremental updates | [`stream`] |
//! | §4.4 court-time detection odds | [`mod@detect`] |
//! | §4.5 bijective attribute re-mapping | [`remap`] |
//! | §4.6 data addition | [`addition`] |
//! | §6 additive attacks (future work, implemented) | [`contest`] |
//! | court-portable evidence bundles (`CMKEVD1`) | [`evidence`] |
//! | §6 constraint language (future work, implemented) | [`constraint_lang`] |
//! | §3.1 direct-domain augmentation (sketched, implemented) | [`wide`] |
//! | intro's buyer scenario: traitor tracing | [`fingerprint`] |
//!
//! The public entry point is [`session::MarkSession`]: it binds the
//! key material and the relation's columns once (typed
//! [`session::ColumnRef`] handles, validated at bind time), owns the
//! [`plan::PlanCache`], and exposes every operation above as a method.
//! The per-operator structs remain as the engine underneath it.
//!
//! # Quickstart
//!
//! ```
//! use catmark_core::{ErasurePolicy, MarkSession, Watermark, WatermarkSpec};
//! use catmark_datagen::{ItemScanConfig, SalesGenerator};
//!
//! // A sales relation: (visit_nbr PRIMARY KEY, item_nbr CATEGORICAL).
//! let gen = SalesGenerator::new(ItemScanConfig { tuples: 2000, ..Default::default() });
//! let mut rel = gen.generate();
//!
//! // Key material: two secret keys, the fitness modulus e, and the
//! // attribute's value domain. e = 10 over 2000 tuples puts ~5
//! // redundant copies behind each of the 40 wm_data positions.
//! let spec = WatermarkSpec::builder(gen.item_domain())
//!     .master_key("my-secret")
//!     .e(10)
//!     .wm_len(10)
//!     .wm_data_len(40)
//!     .erasure(ErasurePolicy::Abstain)
//!     .build()
//!     .unwrap();
//!
//! // Bind the columns once; the session owns the plan cache.
//! let session = MarkSession::builder(spec)
//!     .key_column("visit_nbr")
//!     .target_column("item_nbr")
//!     .bind(&rel)
//!     .unwrap();
//!
//! let wm = Watermark::from_u64(0b10_0111_0101, 10);
//! let report = session.embed(&mut rel, &wm).unwrap();
//! assert!(report.fit_tuples > 0);
//!
//! // Blind detection: only the session (keys + parameters) is needed,
//! // and the plan built for the embed is reused — no key is rehashed.
//! let decoded = session.decode(&rel).unwrap();
//! assert_eq!(decoded.watermark, wm);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addition;
pub mod bits;
pub mod closure;
pub mod constraint_lang;
pub mod contest;
pub mod decode;
pub mod detect;
pub mod ecc;
pub mod embed;
pub mod error;
pub mod evidence;
pub mod fingerprint;
pub mod fitness;
pub mod freq;
pub mod incremental;
pub mod keyfile;
pub mod map_variant;
pub mod multiattr;
pub mod outofcore;
pub mod plan;
pub mod power;
pub mod quality;
pub mod query_preserve;
pub mod remap;
pub mod session;
pub mod spec;
pub mod stream;
pub mod wide;

pub use decode::{DecodeReport, Decoder, ErasurePolicy};
pub use detect::{detect, Detection};
pub use embed::{EmbedReport, Embedder};
pub use error::CoreError;
pub use evidence::{verify_evidence, Certified, ClaimSummary, ContestSummary, EvidenceSummary};
pub use fitness::{FitFacts, FitnessSelector};
pub use incremental::{IncrementalDecodeReport, IncrementalEmbedReport, VoteCache};
pub use outofcore::{PipelineStats, Walk, BLOCK_ROWS};
pub use plan::{MarkPlan, MultiKeyPlan, MultiPlanCache, PlanCache, PlannedRow};
pub use session::{
    ColumnRef, FingerprintSession, MarkSession, MarkSessionBuilder, MultiAttrSession, Outcome,
    Verdict,
};
pub use spec::{MarkError, Watermark, WatermarkSpec, WatermarkSpecBuilder};

/// Test-only stringly conveniences over the typed engines: the
/// production surface resolves columns once through `MarkSession`, but
/// in-crate tests read better with `(rel, "pk", "attr")` one-liners.
#[cfg(test)]
pub(crate) mod testkit {
    use catmark_relation::{Relation, Value};

    use crate::decode::{DecodeReport, Decoder};
    use crate::ecc::MajorityVotingEcc;
    use crate::embed::{EmbedReport, Embedder};
    use crate::error::CoreError;
    use crate::plan::MarkPlan;
    use crate::quality::QualityGuard;
    use crate::spec::{Watermark, WatermarkSpec};

    pub(crate) fn embed(
        spec: &WatermarkSpec,
        rel: &mut Relation,
        key_attr: &str,
        target_attr: &str,
        wm: &Watermark,
    ) -> Result<EmbedReport, CoreError> {
        let key_idx = rel.schema().index_of(key_attr)?;
        let attr_idx = rel.schema().index_of(target_attr)?;
        let plan = MarkPlan::build(spec, rel, key_idx);
        Embedder::engine(spec).embed_with_plan(rel, attr_idx, wm, &MajorityVotingEcc, None, &plan)
    }

    pub(crate) fn embed_guarded(
        spec: &WatermarkSpec,
        rel: &mut Relation,
        key_attr: &str,
        target_attr: &str,
        wm: &Watermark,
        guard: &mut QualityGuard,
    ) -> Result<EmbedReport, CoreError> {
        let key_idx = rel.schema().index_of(key_attr)?;
        let attr_idx = rel.schema().index_of(target_attr)?;
        let plan = MarkPlan::build(spec, rel, key_idx);
        Embedder::engine(spec).embed_with_plan(
            rel,
            attr_idx,
            wm,
            &MajorityVotingEcc,
            Some(guard),
            &plan,
        )
    }

    pub(crate) fn decode(
        spec: &WatermarkSpec,
        rel: &Relation,
        key_attr: &str,
        target_attr: &str,
    ) -> Result<DecodeReport, CoreError> {
        let key_idx = rel.schema().index_of(key_attr)?;
        let attr_idx = rel.schema().index_of(target_attr)?;
        let plan = MarkPlan::build(spec, rel, key_idx);
        Decoder::engine(spec).decode_with_plan(rel, attr_idx, &MajorityVotingEcc, &plan)
    }

    /// Row `row`'s values in schema order: what a stream ingest or a
    /// row push takes.
    pub(crate) fn row(rel: &Relation, row: usize) -> Vec<Value> {
        (0..rel.schema().arity()).map(|attr| rel.value(row, attr).expect("row in range")).collect()
    }
}
