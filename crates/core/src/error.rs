//! Error type for the watermarking pipeline.

use catmark_relation::RelationError;

/// Errors produced by watermark embedding, decoding and the
/// extensions.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// A substrate (relational) operation failed.
    Relation(RelationError),
    /// Invalid watermarking parameters.
    InvalidSpec(String),
    /// A column could not be bound to a relation: the name (or index)
    /// does not resolve, or the resolved attribute is unusable for the
    /// requested role. Carries the relation's arity and attribute list
    /// so the caller can see exactly what *was* available.
    ColumnBinding {
        /// The column that failed to bind.
        column: String,
        /// Why it failed to bind.
        reason: String,
        /// Arity of the relation the binding was attempted against.
        arity: usize,
        /// The attribute names the relation actually offers.
        available: Vec<String>,
    },
    /// The data offers too little bandwidth for the requested
    /// watermark (the `|wm| < N/e` requirement of Section 4.4).
    InsufficientBandwidth {
        /// Watermark length requested.
        wm_len: usize,
        /// `wm_data` capacity available.
        capacity: usize,
    },
    /// The embedding-map variant was asked to decode without a map
    /// entry for any fit tuple.
    EmptyEmbedding,
    /// A tenant-scoped key registry refused to serve key material to a
    /// different tenant. Key material never crosses tenant boundaries:
    /// a registry bound to one tenant rejects lookups on behalf of any
    /// other, regardless of whether the requested key name exists.
    TenantIsolation {
        /// The tenant the registry is bound to.
        tenant: String,
        /// The tenant the lookup was issued for.
        requested: String,
    },
    /// Quality constraints vetoed every candidate alteration.
    AllAlterationsVetoed,
    /// An evidence bundle failed verification: malformed wire bytes, a
    /// broken checksum, or internally inconsistent recorded facts. The
    /// reason names the first check that failed. A bundle that trips
    /// this error must never be presented as evidence.
    EvidenceInvalid {
        /// The first verification check that failed.
        reason: String,
    },
    /// A value exceeds a limit of the `CMKEVD1` evidence format: the
    /// spec builder refuses a watermark or `wm_data` longer than a
    /// bundle carries, and a certified driver refuses to emit a bundle
    /// with too many segments or too long a contest name, which would
    /// fail verification.
    EvidenceLimit {
        /// What exceeds its limit.
        field: &'static str,
        /// Its value.
        len: usize,
        /// The largest value the format accepts.
        limit: usize,
    },
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::Relation(e) => write!(f, "relation error: {e}"),
            CoreError::InvalidSpec(msg) => write!(f, "invalid watermark spec: {msg}"),
            CoreError::ColumnBinding { column, reason, arity, available } => {
                write!(
                    f,
                    "cannot bind column {column:?}: {reason} (relation has {arity} attribute{}: {})",
                    if *arity == 1 { "" } else { "s" },
                    available.join(", ")
                )
            }
            CoreError::InsufficientBandwidth { wm_len, capacity } => write!(
                f,
                "watermark of {wm_len} bits exceeds embedding capacity of {capacity} positions"
            ),
            CoreError::EmptyEmbedding => {
                f.write_str("no fit tuples found; nothing was embedded or decoded")
            }
            CoreError::TenantIsolation { tenant, requested } => write!(
                f,
                "tenant isolation: key registry is bound to tenant {tenant:?} \
                 but the lookup was issued for tenant {requested:?}"
            ),
            CoreError::AllAlterationsVetoed => {
                f.write_str("quality constraints vetoed every candidate alteration")
            }
            CoreError::EvidenceInvalid { reason } => {
                write!(f, "evidence bundle rejected: {reason}")
            }
            CoreError::EvidenceLimit { field, len, limit } => {
                write!(f, "{field} {len} exceeds the evidence format's limit of {limit}")
            }
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Relation(e) => Some(e),
            _ => None,
        }
    }
}

impl From<RelationError> for CoreError {
    fn from(e: RelationError) -> Self {
        CoreError::Relation(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_carry_detail() {
        let e = CoreError::InsufficientBandwidth { wm_len: 100, capacity: 10 };
        assert!(e.to_string().contains("100"));
        assert!(e.to_string().contains("10"));
    }

    #[test]
    fn column_binding_names_the_column_and_the_alternatives() {
        let e = CoreError::ColumnBinding {
            column: "item_nbr".into(),
            reason: "no such attribute".into(),
            arity: 2,
            available: vec!["visit_nbr".into(), "item".into()],
        };
        let msg = e.to_string();
        assert!(msg.contains("item_nbr"), "{msg}");
        assert!(msg.contains("no such attribute"), "{msg}");
        assert!(msg.contains("2 attributes"), "{msg}");
        assert!(msg.contains("visit_nbr, item"), "{msg}");
    }

    #[test]
    fn tenant_isolation_names_both_tenants() {
        let e = CoreError::TenantIsolation { tenant: "acme".into(), requested: "globex".into() };
        let msg = e.to_string();
        assert!(msg.contains("acme"), "{msg}");
        assert!(msg.contains("globex"), "{msg}");
        assert!(std::error::Error::source(&e).is_none());
    }

    #[test]
    fn evidence_invalid_names_the_failed_check() {
        let e = CoreError::EvidenceInvalid { reason: "payload checksum mismatch".into() };
        let msg = e.to_string();
        assert!(msg.contains("rejected"), "{msg}");
        assert!(msg.contains("payload checksum mismatch"), "{msg}");
    }

    #[test]
    fn relation_errors_convert_and_chain() {
        let inner = RelationError::UnknownAttr("a".into());
        let e: CoreError = inner.clone().into();
        assert_eq!(e, CoreError::Relation(inner));
        assert!(std::error::Error::source(&e).is_some());
    }
}
