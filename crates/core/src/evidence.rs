//! Certified detection: serialized, independently checkable evidence
//! bundles (`CMKEVD1`).
//!
//! A detection run is forensic evidence, but an in-process
//! [`Verdict`] dies with the process. This module gives every
//! detection driver a *certified* twin that emits a replayable
//! certificate alongside the unchanged fast-path result:
//!
//! - **key commitment** — SHA-256 of the v1 key file (never the key);
//! - **relation identity** — the committed version's segment blob
//!   hashes, or a whole-relation content hash for in-memory runs;
//! - **per-segment vote tallies** — the raw `(ones, zeros)` counts
//!   every later check folds from;
//! - **spec + ECC parameters**, the resolved `wm_data`, the decoded
//!   mark, the claim comparison, and (for contests) the contest trace.
//!
//! [`verify_evidence`] re-checks a bundle **without the relation or
//! the keys**: it re-folds the tallies, re-resolves every position,
//! re-runs the ECC majority vote, recomputes the binomial
//! false-positive odds, and re-derives the contest outcome. What it
//! cannot re-derive keylessly — the keyed-PRF coins behind ties and
//! `RandomFill` erasures, and the hash commitments themselves — it
//! checks for *consistency* (a recorded coin must be a legal coin; a
//! commitment must verify against the original artifacts when they
//! are produced). Every failure is a typed
//! [`CoreError::EvidenceInvalid`]; malformed bytes never panic.
//!
//! Certification does not touch the fast path: the certified drivers
//! run the *same* single accumulation pass as their fast twins and
//! serialize the tallies they were going to fold anyway, so the
//! returned outcome is byte-identical by construction (pinned by the
//! golden suite and the bench gate).

use catmark_crypto::{CanonicalInput, DynDigest, HashAlgorithm};
use catmark_relation::{
    CanonicalInt, CanonicalText, ColumnView, Relation, SegmentedRelation, VersionManifest,
};

use crate::contest::{self, Claim, ClaimEvidence, ContestOutcome};
use crate::decode::{DecodeReport, Decoder, ErasurePolicy, VoteAccumulator};
use crate::detect::{binomial_tail_half, detect, Detection};
use crate::ecc::MajorityVotingEcc;
use crate::error::CoreError;
use crate::incremental::VoteCache;
use crate::keyfile::to_key_file;
use crate::outofcore::Walk;
use crate::session::{MarkSession, Verdict};
use crate::spec::{Watermark, WatermarkSpec, MAX_WM_DATA, MAX_WM_LEN};

/// Magic bytes opening every evidence bundle.
const MAGIC: &[u8; 8] = b"CMKEVD1\0";
/// Bytes of framing before the payload: magic, payload SHA-256,
/// payload length.
const HEADER: usize = 48;
/// Format limits: [`encode_bundle`] refuses to write past them and
/// [`parse_bundle`] refuses to read past them. The spec builder owns
/// the watermark and `wm_data` limits, so every spec fits a bundle.
const MAX_SEGMENTS: usize = 1 << 20;
const MAX_STR: usize = 1 << 16;
/// The whole-relation identity hands SHA-256 pieces of at least this
/// many bytes (the last one excepted).
const HASH_CHUNK: usize = 8 * 1024;

/// ECC tag: majority voting, the only session decode ECC.
const ECC_MAJORITY: u8 = 0;

fn invalid(reason: impl Into<String>) -> CoreError {
    CoreError::EvidenceInvalid { reason: reason.into() }
}

/// A fast-path outcome paired with the serialized `CMKEVD1` bundle
/// that replays it. The outcome is byte-identical to the uncertified
/// driver's.
#[derive(Debug, Clone)]
pub struct Certified<T> {
    /// The fast-path outcome.
    pub outcome: T,
    /// The encoded evidence bundle.
    pub bundle: Vec<u8>,
}

/// What a bundle binds the detection run to: a whole in-memory
/// relation by content hash, or a committed version by its segment
/// blob hashes.
#[derive(Debug, Clone, PartialEq, Eq)]
enum RelationIdentity {
    /// Row count plus SHA-256 over every value's canonical bytes in
    /// row-major order.
    Whole { rows: u64, hash: [u8; 32] },
    /// A committed version: id plus the manifest's `(blob hash, rows)`
    /// list in segment order.
    Versioned { version: u64, segments: Vec<([u8; 32], u64)> },
}

impl RelationIdentity {
    fn describe(&self) -> String {
        match self {
            RelationIdentity::Whole { rows, hash } => {
                format!("whole relation, {rows} rows, sha256 {}", hex(hash))
            }
            RelationIdentity::Versioned { version, segments } => {
                format!("version {version}, {} segments", segments.len())
            }
        }
    }

    /// Rows tally `i` covers: the whole relation's, or segment `i`'s
    /// (a parsed bundle carries one tally per segment).
    fn tally_rows(&self, i: usize) -> u64 {
        match self {
            RelationIdentity::Whole { rows, .. } => *rows,
            RelationIdentity::Versioned { segments, .. } => segments[i].1,
        }
    }
}

fn hex(bytes: &[u8]) -> String {
    use std::fmt::Write as _;
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        let _ = write!(s, "{b:02x}");
    }
    s
}

/// One segment's (or the whole relation's) serialized vote tally.
#[derive(Debug, Clone, PartialEq, Eq)]
struct TallyRecord {
    fit_tuples: u64,
    votes_cast: u64,
    foreign_values: u64,
    ones: Vec<u32>,
    zeros: Vec<u32>,
}

/// The contest trace one party's bundle carries: both unanimities,
/// both presence verdicts, and the outcome from this party's
/// perspective.
#[derive(Debug, Clone, PartialEq)]
struct ContestTrace {
    claimant: String,
    opponent: String,
    alpha: f64,
    unanimity_margin: f64,
    own_unanimity: f64,
    opponent_unanimity: f64,
    own_present: bool,
    opponent_present: bool,
    /// 0 = only own claim, 1 = only opponent's, 2 = own is earlier,
    /// 3 = opponent is earlier, 4 = indeterminate, 5 = neither.
    outcome: u8,
}

/// Everything a parsed bundle records, before consistency checks.
#[derive(Debug, Clone)]
struct ParsedBundle {
    key_commitment: [u8; 32],
    wm_len: usize,
    wm_data_len: usize,
    erasure: ErasurePolicy,
    identity: RelationIdentity,
    tallies: Vec<TallyRecord>,
    /// Resolved positions: 0 = false, 1 = true, 2 = abstained.
    wm_data: Vec<u8>,
    positions_observed: u32,
    positions_erased: u32,
    position_conflicts: u32,
    decoded: Vec<bool>,
    claim: Option<ClaimRecord>,
    contest: Option<ContestTrace>,
}

#[derive(Debug, Clone, PartialEq)]
struct ClaimRecord {
    claimed: Vec<bool>,
    matched_bits: u32,
    total_bits: u32,
    false_positive_probability: f64,
}

/// The verified facts [`verify_evidence`] hands back.
#[derive(Debug, Clone, PartialEq)]
pub struct EvidenceSummary {
    /// Hex SHA-256 of the claimant's v1 key file.
    pub key_commitment: String,
    /// Human description of the relation/version the run was bound to.
    pub relation: String,
    /// Per-segment tallies the bundle carries (1 for whole-relation
    /// runs).
    pub segments: usize,
    /// Total fit tuples across every tally.
    pub fit_tuples: u64,
    /// Total votes cast.
    pub votes_cast: u64,
    /// Total fit tuples whose value fell outside the domain.
    pub foreign_values: u64,
    /// The decoded watermark, most significant bit first.
    pub decoded: String,
    /// The claim comparison, when the run judged one.
    pub claim: Option<ClaimSummary>,
    /// The contest trace, when the run was one side of a contest.
    pub contest: Option<ContestSummary>,
}

/// The re-derived claim comparison inside a verified bundle.
#[derive(Debug, Clone, PartialEq)]
pub struct ClaimSummary {
    /// The claimed watermark bits.
    pub claimed: String,
    /// Bits of the decoded mark agreeing with the claim.
    pub matched_bits: usize,
    /// Total bits compared.
    pub total_bits: usize,
    /// Recomputed binomial-tail false-positive odds.
    pub false_positive_probability: f64,
}

impl ClaimSummary {
    /// Whether the verified claim clears significance level `alpha`.
    #[must_use]
    pub fn is_significant(&self, alpha: f64) -> bool {
        self.false_positive_probability < alpha
    }
}

/// The re-derived contest facts inside a verified bundle.
#[derive(Debug, Clone, PartialEq)]
pub struct ContestSummary {
    /// The party this bundle belongs to.
    pub claimant: String,
    /// The other party.
    pub opponent: String,
    /// Significance level the contest used.
    pub alpha: f64,
    /// Unanimity margin the contest used.
    pub unanimity_margin: f64,
    /// Human rendering of the verified outcome.
    pub outcome: String,
}

impl std::fmt::Display for EvidenceSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "key commitment  {}", self.key_commitment)?;
        writeln!(f, "relation        {}", self.relation)?;
        writeln!(
            f,
            "tallies         {} segment(s), {} fit tuples, {} votes, {} foreign",
            self.segments, self.fit_tuples, self.votes_cast, self.foreign_values
        )?;
        write!(f, "decoded         {}", self.decoded)?;
        if let Some(claim) = &self.claim {
            write!(
                f,
                "\nclaim           {} — {}/{} bits match, chance odds {:.2e}",
                claim.claimed,
                claim.matched_bits,
                claim.total_bits,
                claim.false_positive_probability
            )?;
        }
        if let Some(contest) = &self.contest {
            write!(
                f,
                "\ncontest         {:?} vs {:?} at alpha {:.1e}: {}",
                contest.claimant, contest.opponent, contest.alpha, contest.outcome
            )?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------- encode

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn push_str(out: &mut Vec<u8>, s: &str) {
    push_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn push_bits(out: &mut Vec<u8>, bits: &[bool]) {
    out.extend(bits.iter().map(|&b| u8::from(b)));
}

fn algo_tag(algo: HashAlgorithm) -> u8 {
    match algo {
        HashAlgorithm::Md5 => 0,
        HashAlgorithm::Sha1 => 1,
        HashAlgorithm::Sha256 => 2,
    }
}

fn erasure_tag(policy: ErasurePolicy) -> u8 {
    match policy {
        ErasurePolicy::Abstain => 0,
        ErasurePolicy::RandomFill => 1,
        ErasurePolicy::ZeroFill => 2,
    }
}

/// SHA-256 commitment to the spec's v1 key file — binds the bundle to
/// the detection keys without revealing them.
fn key_commitment(spec: &WatermarkSpec) -> [u8; 32] {
    HashAlgorithm::Sha256
        .digest(to_key_file(spec).as_bytes())
        .try_into()
        .expect("sha-256 digests are 32 bytes")
}

/// The identity of an in-memory run: the row count plus SHA-256 over
/// every value's canonical bytes in row-major order.
fn whole_identity(rel: &Relation) -> RelationIdentity {
    let mut identity = IdentityHasher::default();
    identity.update(rel);
    identity.finish()
}

/// [`whole_identity`] fed one block of rows at a time: the blocks'
/// rows in order hash to the identity of the relation they make up.
/// The bytes are read from the column slices into one reused buffer,
/// which the hasher takes in pieces of about [`HASH_CHUNK`]. A text
/// value is its dictionary entry's bytes, never its code.
pub(crate) struct IdentityHasher {
    hash: DynDigest,
    buf: Vec<u8>,
    rows: u64,
}

impl Default for IdentityHasher {
    fn default() -> Self {
        let buf = Vec::with_capacity(2 * HASH_CHUNK);
        IdentityHasher { hash: HashAlgorithm::Sha256.hasher(), buf, rows: 0 }
    }
}

impl IdentityHasher {
    /// Hash `rel`'s rows after those hashed so far.
    pub(crate) fn update(&mut self, rel: &Relation) {
        let columns: Vec<ColumnView<'_>> =
            (0..rel.schema().arity()).map(|i| rel.column(i)).collect();
        let buf = &mut self.buf;
        for row in 0..rel.len() {
            for column in &columns {
                match column {
                    ColumnView::Int(xs) => buf.extend_from_slice(&CanonicalInt(xs[row]).encode()),
                    ColumnView::Text { codes, dict } => CanonicalText(dict.get(codes[row]))
                        .write_canonical(buf)
                        .expect("Vec writers are infallible"),
                }
            }
            if buf.len() >= HASH_CHUNK {
                self.hash.update(buf);
                buf.clear();
            }
        }
        self.rows += rel.len() as u64;
    }

    fn finish(mut self) -> RelationIdentity {
        self.hash.update(&self.buf);
        let hash = self.hash.finalize_vec().try_into().expect("sha-256 digests are 32 bytes");
        RelationIdentity::Whole { rows: self.rows, hash }
    }
}

/// `Ok` when `len` is within the format's `limit` for `field`.
fn within_limit(field: &'static str, len: usize, limit: usize) -> Result<(), CoreError> {
    if len > limit {
        return Err(CoreError::EvidenceLimit { field, len, limit });
    }
    Ok(())
}

/// Assemble and frame one bundle.
///
/// # Errors
///
/// [`CoreError::EvidenceLimit`] when the identity or the contest
/// trace exceeds a format limit that [`parse_bundle`] checks.
fn encode_bundle(
    spec: &WatermarkSpec,
    identity: &RelationIdentity,
    tallies: &[VoteAccumulator],
    report: &DecodeReport,
    claim: Option<(&Watermark, &Detection)>,
    contest: Option<&ContestTrace>,
) -> Result<Vec<u8>, CoreError> {
    if let RelationIdentity::Versioned { segments, .. } = identity {
        within_limit("segment count", segments.len(), MAX_SEGMENTS)?;
    }
    if let Some(trace) = contest {
        within_limit("contest claimant name length", trace.claimant.len(), MAX_STR)?;
        within_limit("contest opponent name length", trace.opponent.len(), MAX_STR)?;
    }
    // An upper bound: per tally its counts plus a segment's identity
    // entry, the resolved slots and both marks, and slack for the rest.
    let per_tally = 64 + 8 * spec.wm_data_len;
    let mut p = Vec::with_capacity(256 + 3 * spec.wm_data_len + tallies.len() * per_tally);
    p.extend_from_slice(&key_commitment(spec));
    p.push(algo_tag(spec.algo));
    push_u64(&mut p, spec.e);
    push_u32(&mut p, spec.wm_len as u32);
    push_u32(&mut p, spec.wm_data_len as u32);
    p.push(erasure_tag(spec.erasure));
    p.push(ECC_MAJORITY);
    match identity {
        RelationIdentity::Whole { rows, hash } => {
            p.push(0);
            push_u64(&mut p, *rows);
            p.extend_from_slice(hash);
        }
        RelationIdentity::Versioned { version, segments } => {
            p.push(1);
            push_u64(&mut p, *version);
            push_u32(&mut p, segments.len() as u32);
            for (hash, rows) in segments {
                p.extend_from_slice(hash);
                push_u64(&mut p, *rows);
            }
        }
    }
    push_u32(&mut p, tallies.len() as u32);
    for tally in tallies {
        push_u64(&mut p, tally.fit_tuples as u64);
        push_u64(&mut p, tally.votes_cast as u64);
        push_u64(&mut p, tally.foreign_values as u64);
        for &o in &tally.ones {
            push_u32(&mut p, o);
        }
        for &z in &tally.zeros {
            push_u32(&mut p, z);
        }
    }
    p.extend(report.wm_data.iter().map(|slot| match slot {
        Some(false) => 0u8,
        Some(true) => 1,
        None => 2,
    }));
    push_u32(&mut p, report.positions_observed as u32);
    push_u32(&mut p, report.positions_erased as u32);
    push_u32(&mut p, report.position_conflicts as u32);
    push_bits(&mut p, report.watermark.bits());
    match claim {
        Some((claimed, detection)) => {
            p.push(1);
            push_bits(&mut p, claimed.bits());
            push_u32(&mut p, detection.matched_bits as u32);
            push_u32(&mut p, detection.total_bits as u32);
            push_f64(&mut p, detection.false_positive_probability);
        }
        None => p.push(0),
    }
    match contest {
        Some(trace) => {
            p.push(1);
            push_str(&mut p, &trace.claimant);
            push_str(&mut p, &trace.opponent);
            push_f64(&mut p, trace.alpha);
            push_f64(&mut p, trace.unanimity_margin);
            push_f64(&mut p, trace.own_unanimity);
            push_f64(&mut p, trace.opponent_unanimity);
            p.push(u8::from(trace.own_present));
            p.push(u8::from(trace.opponent_present));
            p.push(trace.outcome);
        }
        None => p.push(0),
    }

    let mut out = Vec::with_capacity(HEADER + p.len());
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&HashAlgorithm::Sha256.digest(&p));
    push_u64(&mut out, p.len() as u64);
    out.extend_from_slice(&p);
    Ok(out)
}

// ---------------------------------------------------------------- decode

/// Strict little-endian reader over the payload.
struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], CoreError> {
        let end = self
            .at
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len())
            .ok_or_else(|| invalid(format!("truncated payload reading {what}")))?;
        let slice = &self.bytes[self.at..end];
        self.at = end;
        Ok(slice)
    }

    fn u8(&mut self, what: &str) -> Result<u8, CoreError> {
        Ok(self.take(1, what)?[0])
    }

    fn u32(&mut self, what: &str) -> Result<u32, CoreError> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self, what: &str) -> Result<u64, CoreError> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().expect("8 bytes")))
    }

    fn f64(&mut self, what: &str) -> Result<f64, CoreError> {
        let v = f64::from_bits(self.u64(what)?);
        if v.is_nan() {
            return Err(invalid(format!("{what} is not a number")));
        }
        Ok(v)
    }

    fn hash(&mut self, what: &str) -> Result<[u8; 32], CoreError> {
        Ok(self.take(32, what)?.try_into().expect("32 bytes"))
    }

    fn bit(&mut self, what: &str) -> Result<bool, CoreError> {
        match self.u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(invalid(format!("{what} holds {other}, not a bit"))),
        }
    }

    fn bits(&mut self, n: usize, what: &str) -> Result<Vec<bool>, CoreError> {
        (0..n).map(|_| self.bit(what)).collect()
    }

    fn string(&mut self, what: &str) -> Result<String, CoreError> {
        let len = self.u32(what)? as usize;
        if len > MAX_STR {
            return Err(invalid(format!("{what} length {len} exceeds the format limit")));
        }
        let bytes = self.take(len, what)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| invalid(format!("{what} is not valid UTF-8")))
    }
}

fn parse_bundle(bytes: &[u8]) -> Result<ParsedBundle, CoreError> {
    if bytes.len() < HEADER {
        return Err(invalid(format!(
            "bundle of {} bytes is shorter than the {HEADER}-byte header",
            bytes.len()
        )));
    }
    if &bytes[..8] != MAGIC {
        return Err(invalid("bad magic: not a CMKEVD1 evidence bundle"));
    }
    let stored_digest = &bytes[8..40];
    let payload_len = u64::from_le_bytes(bytes[40..48].try_into().expect("8 bytes")) as usize;
    let payload = &bytes[HEADER..];
    if payload.len() != payload_len {
        return Err(invalid(format!(
            "payload length field says {payload_len} bytes but {} follow the header",
            payload.len()
        )));
    }
    if HashAlgorithm::Sha256.digest(payload) != stored_digest {
        return Err(invalid("payload checksum mismatch: the bundle was altered"));
    }

    let mut r = Reader { bytes: payload, at: 0 };
    let key_commitment = r.hash("key commitment")?;
    match r.u8("algo tag")? {
        0..=2 => (),
        other => return Err(invalid(format!("unknown algo tag {other}"))),
    }
    let e = r.u64("e")?;
    if e == 0 {
        return Err(invalid("fitness modulus e is zero"));
    }
    let wm_len = r.u32("wm_len")? as usize;
    if wm_len == 0 || wm_len > MAX_WM_LEN {
        return Err(invalid(format!("watermark length {wm_len} outside 1..={MAX_WM_LEN}")));
    }
    let wm_data_len = r.u32("wm_data_len")? as usize;
    if wm_data_len < wm_len || wm_data_len > MAX_WM_DATA {
        return Err(invalid(format!(
            "wm_data length {wm_data_len} outside {wm_len}..={MAX_WM_DATA}"
        )));
    }
    let erasure = match r.u8("erasure tag")? {
        0 => ErasurePolicy::Abstain,
        1 => ErasurePolicy::RandomFill,
        2 => ErasurePolicy::ZeroFill,
        other => return Err(invalid(format!("unknown erasure tag {other}"))),
    };
    match r.u8("ecc tag")? {
        ECC_MAJORITY => {}
        other => return Err(invalid(format!("unknown ecc tag {other}"))),
    }
    let identity = match r.u8("identity tag")? {
        0 => {
            let rows = r.u64("relation rows")?;
            let hash = r.hash("relation hash")?;
            RelationIdentity::Whole { rows, hash }
        }
        1 => {
            let version = r.u64("version id")?;
            let count = r.u32("segment count")? as usize;
            if count > MAX_SEGMENTS {
                return Err(invalid(format!("segment count {count} exceeds the format limit")));
            }
            let mut segments = Vec::with_capacity(count);
            for _ in 0..count {
                let hash = r.hash("segment hash")?;
                let rows = r.u64("segment rows")?;
                segments.push((hash, rows));
            }
            RelationIdentity::Versioned { version, segments }
        }
        other => return Err(invalid(format!("unknown identity tag {other}"))),
    };
    let tally_count = r.u32("tally count")? as usize;
    let expected_tallies = match &identity {
        RelationIdentity::Whole { .. } => 1,
        RelationIdentity::Versioned { segments, .. } => segments.len(),
    };
    if tally_count != expected_tallies {
        return Err(invalid(format!(
            "{tally_count} tallies recorded but the relation identity names {expected_tallies}"
        )));
    }
    let mut tallies = Vec::with_capacity(tally_count);
    for _ in 0..tally_count {
        let fit_tuples = r.u64("tally fit tuples")?;
        let votes_cast = r.u64("tally votes")?;
        let foreign_values = r.u64("tally foreign values")?;
        let mut ones = Vec::with_capacity(wm_data_len);
        for _ in 0..wm_data_len {
            ones.push(r.u32("tally ones")?);
        }
        let mut zeros = Vec::with_capacity(wm_data_len);
        for _ in 0..wm_data_len {
            zeros.push(r.u32("tally zeros")?);
        }
        tallies.push(TallyRecord { fit_tuples, votes_cast, foreign_values, ones, zeros });
    }
    let wm_data = r.take(wm_data_len, "resolved wm_data")?.to_vec();
    if let Some(slot) = wm_data.iter().find(|&&slot| slot > 2) {
        return Err(invalid(format!("resolved wm_data slot holds {slot}, not 0/1/2")));
    }
    let positions_observed = r.u32("positions observed")?;
    let positions_erased = r.u32("positions erased")?;
    let position_conflicts = r.u32("position conflicts")?;
    let decoded = r.bits(wm_len, "decoded watermark bit")?;
    let claim = match r.u8("claim flag")? {
        0 => None,
        1 => {
            let claimed = r.bits(wm_len, "claimed watermark bit")?;
            let matched_bits = r.u32("matched bits")?;
            let total_bits = r.u32("total bits")?;
            let false_positive_probability = r.f64("false-positive probability")?;
            Some(ClaimRecord { claimed, matched_bits, total_bits, false_positive_probability })
        }
        other => return Err(invalid(format!("claim flag holds {other}, not 0/1"))),
    };
    let contest = match r.u8("contest flag")? {
        0 => None,
        1 => {
            let claimant = r.string("contest claimant")?;
            let opponent = r.string("contest opponent")?;
            let alpha = r.f64("contest alpha")?;
            let unanimity_margin = r.f64("unanimity margin")?;
            let own_unanimity = r.f64("own unanimity")?;
            let opponent_unanimity = r.f64("opponent unanimity")?;
            let own_present = r.bit("own presence flag")?;
            let opponent_present = r.bit("opponent presence flag")?;
            let outcome = r.u8("contest outcome tag")?;
            if outcome > 5 {
                return Err(invalid(format!("unknown contest outcome tag {outcome}")));
            }
            Some(ContestTrace {
                claimant,
                opponent,
                alpha,
                unanimity_margin,
                own_unanimity,
                opponent_unanimity,
                own_present,
                opponent_present,
                outcome,
            })
        }
        other => return Err(invalid(format!("contest flag holds {other}, not 0/1"))),
    };
    if r.at != payload.len() {
        return Err(invalid(format!(
            "{} trailing bytes after the contest section",
            payload.len() - r.at
        )));
    }
    Ok(ParsedBundle {
        key_commitment,
        wm_len,
        wm_data_len,
        erasure,
        identity,
        tallies,
        wm_data,
        positions_observed,
        positions_erased,
        position_conflicts,
        decoded,
        claim,
        contest,
    })
}

// ---------------------------------------------------------------- verify

/// Independently check an evidence bundle — **no relation, no keys**.
///
/// Re-folds the per-segment tallies, re-resolves every `wm_data`
/// position (majorities must match; recorded tie/erasure coins are
/// accepted but must be legal for the recorded erasure policy),
/// re-runs the ECC majority vote per watermark bit, recomputes the
/// claim's matched-bit count and binomial false-positive odds to exact
/// f64 equality, and re-derives the contest outcome from the recorded
/// unanimities and presence verdicts. The key commitment and relation
/// hashes are *commitments*: they bind the bundle to specific keys and
/// bytes and are checked for integrity here, and for equality whenever
/// the original artifacts are produced.
///
/// # Errors
///
/// [`CoreError::EvidenceInvalid`] naming the first failed check.
/// Never panics on malformed input.
pub fn verify_evidence(bytes: &[u8]) -> Result<EvidenceSummary, CoreError> {
    let b = parse_bundle(bytes)?;

    // Fold the tallies, checking each one's internal accounting. The
    // u64 counts are the bundle's, so their sums are checked; the
    // per-position sums of u32 votes cannot overflow within the
    // format limits.
    let fold = |total: u64, count: u64, what: &str| {
        total
            .checked_add(count)
            .ok_or_else(|| invalid(format!("{what} summed over the tallies overflow 64 bits")))
    };
    let mut ones = vec![0u64; b.wm_data_len];
    let mut zeros = vec![0u64; b.wm_data_len];
    let (mut fit, mut votes, mut foreign) = (0u64, 0u64, 0u64);
    for (i, tally) in b.tallies.iter().enumerate() {
        if tally.votes_cast.checked_add(tally.foreign_values) != Some(tally.fit_tuples) {
            return Err(invalid(format!(
                "tally {i}: votes {} + foreign {} != fit {}",
                tally.votes_cast, tally.foreign_values, tally.fit_tuples
            )));
        }
        let rows = b.identity.tally_rows(i);
        if tally.fit_tuples > rows {
            return Err(invalid(format!(
                "tally {i}: {} fit tuples among the {rows} rows it covers",
                tally.fit_tuples
            )));
        }
        let cast: u64 = tally.ones.iter().map(|&o| u64::from(o)).sum::<u64>()
            + tally.zeros.iter().map(|&z| u64::from(z)).sum::<u64>();
        if cast != tally.votes_cast {
            return Err(invalid(format!(
                "tally {i}: per-position votes sum to {cast}, not the recorded {}",
                tally.votes_cast
            )));
        }
        for p in 0..b.wm_data_len {
            ones[p] += u64::from(tally.ones[p]);
            zeros[p] += u64::from(tally.zeros[p]);
        }
        fit = fold(fit, tally.fit_tuples, "fit tuples")?;
        votes = fold(votes, tally.votes_cast, "votes")?;
        foreign = fold(foreign, tally.foreign_values, "foreign values")?;
    }

    // Re-resolve every position against the recorded wm_data.
    let (mut observed, mut erased, mut conflicts) = (0u32, 0u32, 0u32);
    for p in 0..b.wm_data_len {
        let (o, z) = (ones[p], zeros[p]);
        let recorded = b.wm_data[p];
        if o + z == 0 {
            erased += 1;
            let legal = match b.erasure {
                ErasurePolicy::Abstain => recorded == 2,
                ErasurePolicy::RandomFill => recorded <= 1,
                ErasurePolicy::ZeroFill => recorded == 0,
            };
            if !legal {
                return Err(invalid(format!(
                    "position {p}: unvoted slot holds {recorded}, illegal under the \
                     recorded erasure policy"
                )));
            }
        } else {
            observed += 1;
            if o > 0 && z > 0 {
                conflicts += 1;
            }
            let legal = match o.cmp(&z) {
                std::cmp::Ordering::Greater => recorded == 1,
                std::cmp::Ordering::Less => recorded == 0,
                std::cmp::Ordering::Equal => recorded <= 1, // keyed tie coin
            };
            if !legal {
                return Err(invalid(format!(
                    "position {p}: {o} ones vs {z} zeros but the resolved slot holds {recorded}"
                )));
            }
        }
    }
    if observed != b.positions_observed || erased != b.positions_erased {
        return Err(invalid(format!(
            "recorded {}/{} observed/erased positions, re-fold finds {observed}/{erased}",
            b.positions_observed, b.positions_erased
        )));
    }
    if conflicts != b.position_conflicts {
        return Err(invalid(format!(
            "recorded {} position conflicts, re-fold finds {conflicts}",
            b.position_conflicts
        )));
    }

    // Re-run the ECC: each watermark bit j majority-votes its copies
    // (positions ≡ j mod wm_len). A strict majority must match the
    // decoded bit; ties fall to the recorded keyed coin.
    for j in 0..b.wm_len {
        let (mut t, mut f_) = (0u64, 0u64);
        for slot in b.wm_data.iter().skip(j).step_by(b.wm_len) {
            match slot {
                1 => t += 1,
                0 => f_ += 1,
                _ => {}
            }
        }
        let legal = match t.cmp(&f_) {
            std::cmp::Ordering::Greater => b.decoded[j],
            std::cmp::Ordering::Less => !b.decoded[j],
            std::cmp::Ordering::Equal => true, // keyed tie coin
        };
        if !legal {
            return Err(invalid(format!(
                "watermark bit {j}: {t} true vs {f_} false copies contradict the decoded bit"
            )));
        }
    }

    // Recompute the claim comparison exactly.
    let claim_summary = match &b.claim {
        None => None,
        Some(claim) => {
            if claim.total_bits as usize != b.wm_len {
                return Err(invalid(format!(
                    "claim compares {} bits but the watermark has {}",
                    claim.total_bits, b.wm_len
                )));
            }
            let matched = b.decoded.iter().zip(&claim.claimed).filter(|(a, b)| a == b).count();
            if matched != claim.matched_bits as usize {
                return Err(invalid(format!(
                    "claim records {} matched bits, re-count finds {matched}",
                    claim.matched_bits
                )));
            }
            let fpp = binomial_tail_half(b.wm_len, matched);
            if fpp.to_bits() != claim.false_positive_probability.to_bits() {
                return Err(invalid(format!(
                    "claim records false-positive odds {:e}, recompute finds {fpp:e}",
                    claim.false_positive_probability
                )));
            }
            Some(ClaimSummary {
                claimed: bit_string(&claim.claimed),
                matched_bits: matched,
                total_bits: b.wm_len,
                false_positive_probability: fpp,
            })
        }
    };

    // Re-derive the contest outcome from the recorded facts.
    let contest_summary = match &b.contest {
        None => None,
        Some(trace) => {
            let Some(claim) = &claim_summary else {
                return Err(invalid("contest trace without a claim section"));
            };
            let voted = u64::from(observed.max(1));
            let unanimity = f64::from(observed - conflicts) / voted as f64;
            if unanimity.to_bits() != trace.own_unanimity.to_bits() {
                return Err(invalid(format!(
                    "contest records own unanimity {}, re-fold finds {unanimity}",
                    trace.own_unanimity
                )));
            }
            let present = claim.false_positive_probability < trace.alpha;
            if present != trace.own_present {
                return Err(invalid(format!(
                    "contest records own presence {}, the claim odds say {present}",
                    trace.own_present
                )));
            }
            let expected = contest::ruling(
                (trace.own_present, trace.opponent_present),
                (trace.own_unanimity, trace.opponent_unanimity),
                trace.unanimity_margin,
            ) as u8;
            if expected != trace.outcome {
                return Err(invalid(format!(
                    "contest outcome tag {} contradicts the recorded presence/unanimity \
                     facts (expected {expected})",
                    trace.outcome
                )));
            }
            let outcome = match trace.outcome {
                0 => format!("only {:?}'s mark is present", trace.claimant),
                1 => format!("only {:?}'s mark is present", trace.opponent),
                2 => format!("{:?}'s mark is the earlier embedding", trace.claimant),
                3 => format!("{:?}'s mark is the earlier embedding", trace.opponent),
                4 => "both marks present and statistically indistinguishable".to_owned(),
                _ => "neither mark is present".to_owned(),
            };
            Some(ContestSummary {
                claimant: trace.claimant.clone(),
                opponent: trace.opponent.clone(),
                alpha: trace.alpha,
                unanimity_margin: trace.unanimity_margin,
                outcome,
            })
        }
    };

    Ok(EvidenceSummary {
        key_commitment: hex(&b.key_commitment),
        relation: b.identity.describe(),
        segments: b.tallies.len(),
        fit_tuples: fit,
        votes_cast: votes,
        foreign_values: foreign,
        decoded: bit_string(&b.decoded),
        claim: claim_summary,
        contest: contest_summary,
    })
}

fn bit_string(bits: &[bool]) -> String {
    bits.iter().map(|&b| if b { '1' } else { '0' }).collect()
}

// ------------------------------------------------------- certified drivers

impl MarkSession {
    /// [`MarkSession::decode`] plus its evidence bundle. The report is
    /// byte-identical to the fast path (one accumulation pass, one
    /// resolution — the bundle serializes the tally that pass was
    /// going to fold anyway).
    ///
    /// # Errors
    ///
    /// As [`MarkSession::decode`], and [`CoreError::EvidenceLimit`] when
    /// the spec exceeds a limit of the bundle format.
    pub fn decode_certified(&self, rel: &Relation) -> Result<Certified<DecodeReport>, CoreError> {
        let (report, tally, identity) = self.certified_whole_pass(rel)?;
        let bundle = encode_bundle(self.spec(), &identity, &[tally], &report, None, None)?;
        Ok(Certified { outcome: report, bundle })
    }

    /// [`MarkSession::detect`] plus its evidence bundle.
    ///
    /// # Errors
    ///
    /// As [`MarkSession::detect`], and [`CoreError::EvidenceLimit`] when
    /// the spec exceeds a limit of the bundle format.
    pub fn detect_certified(
        &self,
        rel: &Relation,
        claimed: &Watermark,
    ) -> Result<Certified<Verdict>, CoreError> {
        let (report, tally, identity) = self.certified_whole_pass(rel)?;
        self.certify_claim(&identity, &[tally], report, claimed)
    }

    /// [`MarkSession::decode_blocks`] plus its evidence bundle, with
    /// `source` as in [`MarkSession::embed_blocks`]: byte for byte the
    /// bundle [`MarkSession::decode_certified`] gives for the relation
    /// the blocks make up, or with a claim [`MarkSession::detect_certified`]'s,
    /// whose detection is `detect(&outcome.watermark, claimed)`. The
    /// bundle carries the one merged tally. The whole-relation identity
    /// is hashed in block order on the calling thread, as each block is
    /// read, and no more than the blocks in flight are held.
    ///
    /// # Errors
    ///
    /// As [`MarkSession::decode_blocks`], and [`CoreError::EvidenceLimit`]
    /// when the spec exceeds a limit of the bundle format.
    pub fn decode_blocks_certified<E: From<CoreError>>(
        &self,
        claimed: Option<&Watermark>,
        source: impl FnOnce(&mut dyn FnMut(Relation)) -> Result<(), E>,
    ) -> Result<Certified<DecodeReport>, E> {
        let mut identity = IdentityHasher::default();
        let tally = self.tally_blocks(|push| {
            source(&mut |rel| {
                identity.update(&rel);
                push(rel);
            })
        })?;
        let report = Decoder::engine(self.spec()).resolve(&MajorityVotingEcc, &tally)?;
        let detection = claimed.map(|claimed| detect(&report.watermark, claimed));
        let claim = claimed.zip(detection.as_ref());
        let bundle =
            encode_bundle(self.spec(), &identity.finish(), &[tally], &report, claim, None)?;
        Ok(Certified { outcome: report, bundle })
    }

    /// `decode` weighed against `claimed`, bundled with the tallies it
    /// was resolved from and the relation identity.
    fn certify_claim(
        &self,
        identity: &RelationIdentity,
        tallies: &[VoteAccumulator],
        decode: DecodeReport,
        claimed: &Watermark,
    ) -> Result<Certified<Verdict>, CoreError> {
        let detection = detect(&decode.watermark, claimed);
        let bundle = encode_bundle(
            self.spec(),
            identity,
            tallies,
            &decode,
            Some((claimed, &detection)),
            None,
        )?;
        Ok(Certified { outcome: Verdict { decode, detection }, bundle })
    }

    /// One whole-relation accumulation pass: the fast path's tally
    /// plus the content-hash identity.
    fn certified_whole_pass(
        &self,
        rel: &Relation,
    ) -> Result<(DecodeReport, VoteAccumulator, RelationIdentity), CoreError> {
        let plan = self.plan(rel)?;
        let tally = VoteAccumulator::of(self.spec(), rel, self.target().index(), &plan);
        let report = Decoder::engine(self.spec()).resolve(&MajorityVotingEcc, &tally)?;
        Ok((report, tally, whole_identity(rel)))
    }

    /// Certified [`MarkSession::decode_incremental`], weighed against
    /// `claimed`: the same walk through the same vote cache, whose
    /// fold also keeps every segment's tally for the bundle. A tally
    /// is a pure function of a blob's bytes under the spec's keys and
    /// the column binding, so warm and cold runs produce
    /// byte-identical bundles; over a fresh [`VoteCache`] this is the
    /// certified segmented detect.
    ///
    /// # Errors
    ///
    /// As [`MarkSession::decode_incremental`], and [`CoreError::EvidenceLimit`] when
    /// the spec exceeds a limit of the bundle format.
    pub fn detect_certified_incremental(
        &self,
        seg: &mut SegmentedRelation,
        claimed: &Watermark,
        manifest: &VersionManifest,
        cache: &mut VoteCache,
    ) -> Result<Certified<Verdict>, CoreError> {
        let (tallies, _) = self.tally_walk(seg, Walk::Auto, Some((manifest, cache)), true)?;
        let kept = tallies.fold.kept.as_deref().expect("certified walks keep every tally");
        let segments = manifest.segments.iter().map(|s| (s.hash, s.rows)).collect();
        let identity = RelationIdentity::Versioned { version: manifest.id, segments };
        self.certify_claim(&identity, kept, tallies.resolve()?, claimed)
    }

    /// Certified [`MarkSession::contest`]: the same two evidence
    /// gatherings and the same ruling, plus one bundle per claim —
    /// each committing to the *same* relation identity and carrying
    /// the contest trace from its claimant's perspective. The two
    /// bundles are paired by that shared identity plus the recorded
    /// opponent facts.
    ///
    /// # Errors
    ///
    /// As [`MarkSession::contest`], and [`CoreError::EvidenceLimit`] when
    /// the spec or a claimant's name exceeds a limit of the bundle
    /// format.
    pub fn contest_certified(
        &self,
        a: &Claim,
        b: &Claim,
        rel: &Relation,
        alpha: f64,
        unanimity_margin: f64,
    ) -> Result<(ContestOutcome, Certified<ClaimEvidence>, Certified<ClaimEvidence>), CoreError>
    {
        let (key_idx, attr_idx) = (self.key().index(), self.target().index());
        let (ev_a, tally_a) = contest::claim_evidence(a, rel, key_idx, attr_idx, self.cache())?;
        let (ev_b, tally_b) = contest::claim_evidence(b, rel, key_idx, attr_idx, self.cache())?;
        let identity = whole_identity(rel);
        let bundle = |claim: &Claim, own: &ClaimEvidence, other: &ClaimEvidence, tally| {
            let present = (own.is_present(alpha), other.is_present(alpha));
            let unanimity = (own.vote_unanimity, other.vote_unanimity);
            let trace = ContestTrace {
                claimant: own.claimant.clone(),
                opponent: other.claimant.clone(),
                alpha,
                unanimity_margin,
                own_unanimity: unanimity.0,
                opponent_unanimity: unanimity.1,
                own_present: present.0,
                opponent_present: present.1,
                outcome: contest::ruling(present, unanimity, unanimity_margin) as u8,
            };
            let claimed = Some((&claim.watermark, &own.detection));
            let tallies = std::slice::from_ref::<VoteAccumulator>(tally);
            encode_bundle(&claim.spec, &identity, tallies, &own.decode, claimed, Some(&trace))
        };
        let (bundle_a, bundle_b) =
            (bundle(a, &ev_a, &ev_b, &tally_a)?, bundle(b, &ev_b, &ev_a, &tally_b)?);
        Ok((
            contest::outcome(&ev_a, &ev_b, alpha, unanimity_margin),
            Certified { outcome: ev_a, bundle: bundle_a },
            Certified { outcome: ev_b, bundle: bundle_b },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contest::additive_attack;
    use catmark_datagen::{ItemScanConfig, SalesGenerator};
    use catmark_relation::{ContentStore, VersionLog};

    fn fixture(tuples: usize, e: u64) -> (Relation, MarkSession, Watermark) {
        let gen = SalesGenerator::new(ItemScanConfig { tuples, ..Default::default() });
        let rel = gen.generate();
        let spec = WatermarkSpec::builder(gen.item_domain())
            .master_key("evidence-tests")
            .e(e)
            .wm_len(10)
            .expected_tuples(tuples)
            .build()
            .unwrap();
        let session = MarkSession::builder(spec)
            .key_column("visit_nbr")
            .target_column("item_nbr")
            .bind(&rel)
            .unwrap();
        (rel, session, Watermark::from_u64(0b1011001110, 10))
    }

    #[test]
    fn certified_detect_matches_the_fast_path_and_verifies() {
        let (mut rel, session, wm) = fixture(4_000, 10);
        session.embed(&mut rel, &wm).unwrap();
        let fast = session.detect(&rel, &wm).unwrap();
        let certified = session.detect_certified(&rel, &wm).unwrap();
        assert_eq!(certified.outcome, fast, "certified verdict diverged from the fast path");

        let summary = verify_evidence(&certified.bundle).unwrap();
        assert_eq!(summary.decoded, wm.to_string());
        assert_eq!(summary.segments, 1);
        assert_eq!(summary.fit_tuples as usize, fast.decode.fit_tuples);
        let claim = summary.claim.as_ref().unwrap();
        assert_eq!(claim.matched_bits, fast.detection.matched_bits);
        assert_eq!(
            claim.false_positive_probability.to_bits(),
            fast.detection.false_positive_probability.to_bits()
        );
        assert!(claim.is_significant(1e-2));
        // The summary renders without touching the relation or keys.
        assert!(summary.to_string().contains("key commitment"));
    }

    #[test]
    fn certified_decode_has_no_claim_section() {
        let (mut rel, session, wm) = fixture(3_000, 10);
        session.embed(&mut rel, &wm).unwrap();
        let fast = session.decode(&rel).unwrap();
        let certified = session.decode_certified(&rel).unwrap();
        assert_eq!(certified.outcome, fast);
        let summary = verify_evidence(&certified.bundle).unwrap();
        assert!(summary.claim.is_none());
        assert!(summary.contest.is_none());
        assert_eq!(summary.decoded, fast.watermark.to_string());
    }

    #[test]
    fn certified_bundles_are_deterministic_and_relation_bound() {
        let (mut rel, session, wm) = fixture(3_000, 10);
        session.embed(&mut rel, &wm).unwrap();
        let one = session.detect_certified(&rel, &wm).unwrap();
        let two = session.detect_certified(&rel, &wm).unwrap();
        assert_eq!(one.bundle, two.bundle, "same run, same bytes");

        // A different relation state commits a different content hash.
        let altered = additive_attack(
            &mut rel,
            &session.claim("mallory", &Watermark::from_u64(0x155, 10)),
            "visit_nbr",
            "item_nbr",
        );
        assert!(altered.is_ok());
        let three = session.detect_certified(&rel, &wm).unwrap();
        assert_ne!(one.bundle, three.bundle);
    }

    #[test]
    fn certified_version_paths_agree_bytewise() {
        let (rel, session, wm) = fixture(4_000, 10);
        let store = ContentStore::in_memory();
        let mut log = VersionLog::new();
        let mut seg = SegmentedRelation::builder(rel.schema().clone())
            .segment_rows(500)
            .store(Box::new(store.clone()))
            .from_relation(&rel)
            .unwrap();
        session.embed_segmented(&mut seg, &wm).unwrap();
        let v = log.commit(&mut seg, &store).unwrap();
        let manifest = log.get(v).unwrap().clone();

        let fast = session.decode_segmented(&mut seg).unwrap();
        let mut cache = VoteCache::new();
        let cold =
            session.detect_certified_incremental(&mut seg, &wm, &manifest, &mut cache).unwrap();
        let warm =
            session.detect_certified_incremental(&mut seg, &wm, &manifest, &mut cache).unwrap();
        assert_eq!(cold.bundle, warm.bundle, "cold vs warm incremental");
        let detection = detect(&fast.watermark, &wm);
        assert_eq!(cold.outcome, Verdict { decode: fast, detection });

        let summary = verify_evidence(&cold.bundle).unwrap();
        assert_eq!(summary.segments, seg.segment_count());
        assert!(summary.relation.starts_with(&format!("version {v}")));
    }

    #[test]
    fn contest_certified_matches_contest_and_both_bundles_verify() {
        let (mut rel, session, wm) = fixture(12_000, 10);
        let owner = session.claim("owner", &wm);
        let gen = SalesGenerator::new(ItemScanConfig { tuples: 12_000, ..Default::default() });
        let mallory_spec = WatermarkSpec::builder(gen.item_domain())
            .master_key("evidence-mallory")
            .e(10)
            .wm_len(10)
            .expected_tuples(12_000)
            .build()
            .unwrap();
        let mallory = Claim {
            claimant: "mallory".into(),
            spec: mallory_spec,
            watermark: Watermark::from_u64(0x2A5, 10),
        };
        session.embed(&mut rel, &wm).unwrap();
        additive_attack(&mut rel, &mallory, "visit_nbr", "item_nbr").unwrap();

        let (fast_outcome, fast_a, fast_b) =
            session.contest(&owner, &mallory, &rel, 1e-2, 0.01).unwrap();
        let (outcome, cert_a, cert_b) =
            session.contest_certified(&owner, &mallory, &rel, 1e-2, 0.01).unwrap();
        assert_eq!(outcome, fast_outcome);
        assert_eq!(cert_a.outcome.decode, fast_a.decode);
        assert_eq!(cert_b.outcome.decode, fast_b.decode);
        assert_eq!(cert_a.outcome.vote_unanimity.to_bits(), fast_a.vote_unanimity.to_bits());

        for (cert, opponent) in [(&cert_a, "mallory"), (&cert_b, "owner")] {
            let summary = verify_evidence(&cert.bundle).unwrap();
            let contest = summary.contest.as_ref().unwrap();
            assert_eq!(contest.opponent, opponent);
            assert!(contest.outcome.contains("owner"), "{}", contest.outcome);
        }
    }

    #[test]
    fn tampered_bundles_are_rejected_not_accepted() {
        let (mut rel, session, wm) = fixture(3_000, 10);
        session.embed(&mut rel, &wm).unwrap();
        let certified = session.detect_certified(&rel, &wm).unwrap();
        let bundle = certified.bundle;
        verify_evidence(&bundle).unwrap();

        // Any single flipped byte breaks the magic, the checksum, or
        // the framing.
        for at in [0usize, 9, 41, HEADER + 3, bundle.len() - 1] {
            let mut evil = bundle.clone();
            evil[at] ^= 0x40;
            let err = verify_evidence(&evil).unwrap_err();
            assert!(
                matches!(err, CoreError::EvidenceInvalid { .. }),
                "byte {at}: wrong error {err:?}"
            );
        }
        // Truncations at every boundary class.
        for keep in [0usize, 7, HEADER - 1, HEADER + 10, bundle.len() - 1] {
            let err = verify_evidence(&bundle[..keep]).unwrap_err();
            assert!(matches!(err, CoreError::EvidenceInvalid { .. }), "keep {keep}");
        }
    }

    #[test]
    fn rehashed_inconsistent_payload_is_still_rejected() {
        let (mut rel, session, wm) = fixture(3_000, 10);
        session.embed(&mut rel, &wm).unwrap();
        let bundle = session.detect_certified(&rel, &wm).unwrap().bundle;

        // An adversary who re-computes the checksum after inflating a
        // tally count still fails the internal consistency re-fold.
        let mut payload = bundle[HEADER..].to_vec();
        // First tally's fit_tuples lives right after the identity
        // section; easier and robust: flip a vote count somewhere in
        // the middle of the payload and re-frame.
        let mid = payload.len() / 2;
        payload[mid] = payload[mid].wrapping_add(1);
        let mut evil = Vec::new();
        evil.extend_from_slice(MAGIC);
        evil.extend_from_slice(&HashAlgorithm::Sha256.digest(&payload));
        evil.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        evil.extend_from_slice(&payload);
        let err = verify_evidence(&evil).unwrap_err();
        assert!(matches!(err, CoreError::EvidenceInvalid { .. }), "{err:?}");
    }

    #[test]
    fn certification_refuses_a_watermark_longer_than_the_format_allows() {
        let gen = SalesGenerator::new(ItemScanConfig { tuples: 3_000, ..Default::default() });
        let rel = gen.generate();
        let spec = |wm_len: usize| {
            WatermarkSpec::builder(gen.item_domain())
                .master_key("evidence-limits")
                .e(10)
                .wm_len(wm_len)
                .wm_data_len(wm_len)
                .build()
        };
        let session = MarkSession::builder(spec(4096).unwrap())
            .key_column("visit_nbr")
            .target_column("item_nbr")
            .bind(&rel)
            .unwrap();
        verify_evidence(&session.decode_certified(&rel).unwrap().bundle).unwrap();
        // A longer mark is refused when the spec is built, before any
        // driver could fail to certify it.
        let err = spec(4097).unwrap_err();
        let limit = CoreError::EvidenceLimit { field: "watermark length", len: 4097, limit: 4096 };
        assert_eq!(err, limit);
    }

    #[test]
    fn contest_certification_refuses_a_name_longer_than_the_format_allows() {
        let (rel, session, wm) = fixture(3_000, 10);
        let owner = session.claim(&"o".repeat(65_537), &wm);
        let other = session.claim("other", &Watermark::from_u64(0x2A5, 10));
        let err = session.contest_certified(&owner, &other, &rel, 1e-2, 0.01).unwrap_err();
        assert!(
            matches!(err, CoreError::EvidenceLimit { len: 65_537, limit: 65_536, .. }),
            "{err}"
        );
    }

    #[test]
    fn verify_needs_neither_relation_nor_keys() {
        // The bundle alone — bytes in, summary out. (The compiler
        // enforces this: verify_evidence's signature takes only bytes.
        // This test pins that the summary carries the court-relevant
        // facts.)
        let (mut rel, session, wm) = fixture(6_000, 60);
        session.embed(&mut rel, &wm).unwrap();
        let certified = session.detect_certified(&rel, &wm).unwrap();
        drop(rel);
        drop(session);
        let summary = verify_evidence(&certified.bundle).unwrap();
        assert_eq!(summary.key_commitment.len(), 64);
        assert!(summary.relation.starts_with("whole relation"));
        assert!(summary.claim.unwrap().is_significant(1e-2));
    }
}
