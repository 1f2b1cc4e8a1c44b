//! Persisting detection key material.
//!
//! Blind detection (Section 3.2.2) needs exactly the
//! [`WatermarkSpec`] — keys, parameters and the attribute's value
//! domain — possibly years after embedding ("it is unrealistic to
//! assume the original data available after a longer time elapses").
//! This module serializes a spec to a self-describing, line-oriented
//! text format suitable for escrow (print it, vault it, hand it to a
//! notary):
//!
//! ```text
//! catmark-key-file v1
//! algo sha256
//! k1 <hex>
//! k2 <hex>
//! e 60
//! wm_len 10
//! wm_data_len 100
//! erasure random-fill
//! domain-int 10000 10001 10002 …
//! ```
//!
//! Text domains use one `domain-text <hex-of-utf8>` entry per value so
//! arbitrary content round-trips. The format is versioned and refuses
//! unknown versions.
//!
//! # Tenant-scoped registries
//!
//! The service front end holds key material for many tenants at once,
//! so single-spec escrow files compose into a versioned
//! [`TenantKeyRegistry`]: one tenant, several *named* keys, serialized
//! as another line-oriented text file:
//!
//! ```text
//! catmark-tenant-registry v1
//! tenant acme
//! key production <hex-of-key-file>
//! key staging <hex-of-key-file>
//! ```
//!
//! Each `key` payload is a complete v1 key file, hex-encoded onto one
//! line, so the registry inherits the escrow format verbatim (and any
//! future key-file version bump flows through unchanged). Lookups are
//! tenant-checked: asking a registry bound to one tenant for another
//! tenant's key is a [`CoreError::TenantIsolation`] error, never a
//! fallthrough.

use catmark_crypto::hex::{from_hex, to_hex};
use catmark_crypto::SecretKey;
use catmark_relation::{CategoricalDomain, Value};

use crate::decode::ErasurePolicy;
use crate::error::CoreError;
use crate::spec::WatermarkSpec;

const MAGIC: &str = "catmark-key-file v1";

/// Serialize `spec` to the key-file text format.
#[must_use]
pub fn to_key_file(spec: &WatermarkSpec) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "{MAGIC}");
    let _ = writeln!(out, "algo {}", spec.algo);
    let _ = writeln!(out, "k1 {}", to_hex(spec.k1.as_bytes()));
    let _ = writeln!(out, "k2 {}", to_hex(spec.k2.as_bytes()));
    let _ = writeln!(out, "e {}", spec.e);
    let _ = writeln!(out, "wm_len {}", spec.wm_len);
    let _ = writeln!(out, "wm_data_len {}", spec.wm_data_len);
    let erasure = match spec.erasure {
        ErasurePolicy::Abstain => "abstain",
        ErasurePolicy::RandomFill => "random-fill",
        ErasurePolicy::ZeroFill => "zero-fill",
    };
    let _ = writeln!(out, "erasure {erasure}");
    // Integer-only domains pack onto one line; mixed/text domains get
    // one line per value.
    if spec.domain.values().iter().all(|v| matches!(v, Value::Int(_))) {
        let ints: Vec<String> = spec
            .domain
            .values()
            .iter()
            .map(|v| v.as_int().expect("checked integer").to_string())
            .collect();
        let _ = writeln!(out, "domain-int {}", ints.join(" "));
    } else {
        for v in spec.domain.values() {
            match v {
                Value::Int(i) => {
                    let _ = writeln!(out, "domain-int {i}");
                }
                Value::Text(s) => {
                    let _ = writeln!(out, "domain-text {}", to_hex(s.as_bytes()));
                }
            }
        }
    }
    out
}

/// Parse a key file back into a [`WatermarkSpec`].
///
/// # Errors
///
/// [`CoreError::InvalidSpec`] on version mismatch, missing or
/// malformed fields; the spec builder's errors, such as
/// [`CoreError::EvidenceLimit`] for a spec no evidence bundle could
/// carry.
pub fn from_key_file(text: &str) -> Result<WatermarkSpec, CoreError> {
    let bad = |msg: String| CoreError::InvalidSpec(format!("key file: {msg}"));
    let mut lines = text.lines();
    let magic = lines.next().ok_or_else(|| bad("empty input".into()))?;
    if magic.trim() != MAGIC {
        return Err(bad(format!("unsupported header {magic:?}")));
    }
    let mut algo = None;
    let mut k1 = None;
    let mut k2 = None;
    let mut e = None;
    let mut wm_len = None;
    let mut wm_data_len = None;
    let mut erasure = ErasurePolicy::default();
    let mut domain_values: Vec<Value> = Vec::new();
    for (idx, raw) in lines.enumerate() {
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        let (field, rest) =
            line.split_once(' ').ok_or_else(|| bad(format!("line {}: missing value", idx + 2)))?;
        match field {
            "algo" => {
                algo = Some(rest.parse().map_err(|e| bad(format!("algo: {e}")))?);
            }
            "k1" => {
                k1 = Some(SecretKey::from_bytes(from_hex(rest).map_err(|e| bad(e.to_string()))?))
            }
            "k2" => {
                k2 = Some(SecretKey::from_bytes(from_hex(rest).map_err(|e| bad(e.to_string()))?))
            }
            "e" => e = Some(rest.parse::<u64>().map_err(|e| bad(format!("e: {e}")))?),
            "wm_len" => {
                wm_len = Some(rest.parse::<usize>().map_err(|e| bad(format!("wm_len: {e}")))?);
            }
            "wm_data_len" => {
                wm_data_len =
                    Some(rest.parse::<usize>().map_err(|e| bad(format!("wm_data_len: {e}")))?);
            }
            "erasure" => {
                erasure = match rest {
                    "abstain" => ErasurePolicy::Abstain,
                    "random-fill" => ErasurePolicy::RandomFill,
                    "zero-fill" => ErasurePolicy::ZeroFill,
                    other => return Err(bad(format!("unknown erasure policy {other:?}"))),
                };
            }
            "domain-int" => {
                for part in rest.split_whitespace() {
                    domain_values.push(Value::Int(
                        part.parse().map_err(|e| bad(format!("domain-int: {e}")))?,
                    ));
                }
            }
            "domain-text" => {
                let bytes = from_hex(rest).map_err(|e| bad(e.to_string()))?;
                let s = String::from_utf8(bytes).map_err(|e| bad(format!("domain-text: {e}")))?;
                domain_values.push(Value::Text(s));
            }
            other => return Err(bad(format!("unknown field {other:?}"))),
        }
    }
    let domain = CategoricalDomain::new(domain_values).map_err(|e| bad(format!("domain: {e}")))?;
    let spec = WatermarkSpec::builder(domain)
        .algorithm(algo.ok_or_else(|| bad("missing algo".into()))?)
        .keys(
            k1.ok_or_else(|| bad("missing k1".into()))?,
            k2.ok_or_else(|| bad("missing k2".into()))?,
        )
        .e(e.ok_or_else(|| bad("missing e".into()))?)
        .wm_len(wm_len.ok_or_else(|| bad("missing wm_len".into()))?)
        .wm_data_len(wm_data_len.ok_or_else(|| bad("missing wm_data_len".into()))?)
        .erasure(erasure)
        .build()?;
    Ok(spec)
}

const REGISTRY_MAGIC: &str = "catmark-tenant-registry v1";

/// `true` when `s` can serve as a tenant or key name: non-empty and
/// free of whitespace (the formats above are space-delimited).
fn valid_token(s: &str) -> bool {
    !s.is_empty() && !s.chars().any(char::is_whitespace)
}

/// A named collection of [`WatermarkSpec`]s bound to a single tenant.
///
/// The service daemon loads one registry per tenant; every lookup
/// carries the requesting tenant's name and is refused with
/// [`CoreError::TenantIsolation`] when it does not match the tenant the
/// registry was built for. Key names are unique within a registry and
/// preserve insertion order.
#[derive(Debug, Clone)]
pub struct TenantKeyRegistry {
    tenant: String,
    keys: Vec<(String, WatermarkSpec)>,
}

impl TenantKeyRegistry {
    /// Create an empty registry bound to `tenant`.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidSpec`] when `tenant` is empty or contains
    /// whitespace (the on-disk format is space-delimited).
    pub fn new(tenant: &str) -> Result<Self, CoreError> {
        if !valid_token(tenant) {
            return Err(CoreError::InvalidSpec(format!(
                "tenant registry: invalid tenant name {tenant:?} (must be non-empty, no whitespace)"
            )));
        }
        Ok(TenantKeyRegistry { tenant: tenant.to_string(), keys: Vec::new() })
    }

    /// The tenant this registry is bound to.
    #[must_use]
    pub fn tenant(&self) -> &str {
        &self.tenant
    }

    /// Add (or replace, for key rotation) the spec stored under `name`.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidSpec`] when `name` is empty or contains
    /// whitespace.
    pub fn insert(&mut self, name: &str, spec: WatermarkSpec) -> Result<(), CoreError> {
        if !valid_token(name) {
            return Err(CoreError::InvalidSpec(format!(
                "tenant registry: invalid key name {name:?} (must be non-empty, no whitespace)"
            )));
        }
        match self.keys.iter_mut().find(|(n, _)| n == name) {
            Some((_, slot)) => *slot = spec,
            None => self.keys.push((name.to_string(), spec)),
        }
        Ok(())
    }

    /// Look up the spec stored under `name` on behalf of `tenant`.
    ///
    /// # Errors
    ///
    /// [`CoreError::TenantIsolation`] when `tenant` is not the tenant
    /// this registry is bound to — checked *before* the name, so a
    /// cross-tenant caller cannot even probe which key names exist.
    /// [`CoreError::InvalidSpec`] when the name is unknown.
    pub fn get(&self, tenant: &str, name: &str) -> Result<&WatermarkSpec, CoreError> {
        if tenant != self.tenant {
            return Err(CoreError::TenantIsolation {
                tenant: self.tenant.clone(),
                requested: tenant.to_string(),
            });
        }
        self.keys.iter().find(|(n, _)| n == name).map(|(_, spec)| spec).ok_or_else(|| {
            CoreError::InvalidSpec(format!(
                "tenant registry: tenant {tenant:?} has no key named {name:?}"
            ))
        })
    }

    /// The named entries, in insertion order.
    pub fn entries(&self) -> impl Iterator<Item = (&str, &WatermarkSpec)> {
        self.keys.iter().map(|(n, s)| (n.as_str(), s))
    }

    /// Number of named keys held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// `true` when no keys are held.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Serialize to the registry text format.
    #[must_use]
    pub fn to_registry_file(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "{REGISTRY_MAGIC}");
        let _ = writeln!(out, "tenant {}", self.tenant);
        for (name, spec) in &self.keys {
            let _ = writeln!(out, "key {} {}", name, to_hex(to_key_file(spec).as_bytes()));
        }
        out
    }

    /// Parse a registry file produced by
    /// [`to_registry_file`](Self::to_registry_file).
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidSpec`] on version mismatch, missing tenant,
    /// duplicate key names, or a malformed embedded key file.
    pub fn from_registry_file(text: &str) -> Result<Self, CoreError> {
        let bad = |msg: String| CoreError::InvalidSpec(format!("tenant registry: {msg}"));
        let mut lines = text.lines();
        let magic = lines.next().ok_or_else(|| bad("empty input".into()))?;
        if magic.trim() != REGISTRY_MAGIC {
            return Err(bad(format!("unsupported header {magic:?}")));
        }
        let mut tenant: Option<String> = None;
        let mut keys: Vec<(String, WatermarkSpec)> = Vec::new();
        for (idx, raw) in lines.enumerate() {
            let line = raw.trim();
            if line.is_empty() {
                continue;
            }
            let (field, rest) = line
                .split_once(' ')
                .ok_or_else(|| bad(format!("line {}: missing value", idx + 2)))?;
            match field {
                "tenant" => {
                    if tenant.is_some() {
                        return Err(bad("duplicate tenant line".into()));
                    }
                    if !valid_token(rest) {
                        return Err(bad(format!("invalid tenant name {rest:?}")));
                    }
                    tenant = Some(rest.to_string());
                }
                "key" => {
                    if tenant.is_none() {
                        return Err(bad("key entry before tenant line".into()));
                    }
                    let (name, payload) = rest.split_once(' ').ok_or_else(|| {
                        bad(format!("line {}: key needs name and payload", idx + 2))
                    })?;
                    if keys.iter().any(|(n, _)| n == name) {
                        return Err(bad(format!("duplicate key name {name:?}")));
                    }
                    let bytes = from_hex(payload).map_err(|e| bad(format!("key {name:?}: {e}")))?;
                    let embedded =
                        String::from_utf8(bytes).map_err(|e| bad(format!("key {name:?}: {e}")))?;
                    let spec = from_key_file(&embedded)?;
                    keys.push((name.to_string(), spec));
                }
                other => return Err(bad(format!("unknown field {other:?}"))),
            }
        }
        let tenant = tenant.ok_or_else(|| bad("missing tenant line".into()))?;
        Ok(TenantKeyRegistry { tenant, keys })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Watermark;
    use catmark_crypto::HashAlgorithm;
    use catmark_datagen::{domains, ItemScanConfig, SalesGenerator};

    fn spec() -> WatermarkSpec {
        WatermarkSpec::builder(domains::product_codes(50, 1000))
            .master_key("keyfile-tests")
            .e(25)
            .wm_len(12)
            .wm_data_len(96)
            .erasure(ErasurePolicy::Abstain)
            .build()
            .unwrap()
    }

    #[test]
    fn round_trip_preserves_everything() {
        let original = spec();
        let restored = from_key_file(&to_key_file(&original)).unwrap();
        assert_eq!(restored.algo, original.algo);
        assert_eq!(restored.k1, original.k1);
        assert_eq!(restored.k2, original.k2);
        assert_eq!(restored.e, original.e);
        assert_eq!(restored.wm_len, original.wm_len);
        assert_eq!(restored.wm_data_len, original.wm_data_len);
        assert_eq!(restored.erasure, original.erasure);
        assert_eq!(restored.domain, original.domain);
    }

    #[test]
    fn text_domains_round_trip() {
        let mut original = spec();
        original.domain = domains::cities();
        let restored = from_key_file(&to_key_file(&original)).unwrap();
        assert_eq!(restored.domain, domains::cities());
    }

    #[test]
    fn restored_spec_decodes_marked_data() {
        let gen = SalesGenerator::new(ItemScanConfig { tuples: 4_000, ..Default::default() });
        let mut rel = gen.generate();
        let original = WatermarkSpec::builder(gen.item_domain())
            .master_key("escrow")
            .e(15)
            .wm_len(10)
            .expected_tuples(rel.len())
            .erasure(ErasurePolicy::Abstain)
            .build()
            .unwrap();
        let wm = Watermark::from_u64(0b10_0110_1101 & 0x3FF, 10);
        crate::testkit::embed(&original, &mut rel, "visit_nbr", "item_nbr", &wm).unwrap();
        // Years later: only the key file survives.
        let restored = from_key_file(&to_key_file(&original)).unwrap();
        let decoded = crate::testkit::decode(&restored, &rel, "visit_nbr", "item_nbr").unwrap();
        assert_eq!(decoded.watermark, wm);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(from_key_file("").is_err());
        assert!(from_key_file("not-a-key-file v9\n").is_err());
        let mut missing_k1 = to_key_file(&spec());
        missing_k1 =
            missing_k1.lines().filter(|l| !l.starts_with("k1")).collect::<Vec<_>>().join("\n");
        assert!(from_key_file(&missing_k1).is_err());
        let truncated_domain =
            format!("{MAGIC}\nalgo sha256\nk1 aa\nk2 bb\ne 5\nwm_len 4\nwm_data_len 8\n");
        assert!(from_key_file(&truncated_domain).is_err(), "empty domain must fail");
        let unknown_field = format!("{}\nbogus 1\n", to_key_file(&spec()).trim());
        assert!(from_key_file(&unknown_field).is_err());
    }

    #[test]
    fn specs_no_evidence_bundle_could_carry_are_refused_at_load() {
        // Such a spec used to load and then panic in the first plan
        // build (a position that does not fit in u32).
        let huge = to_key_file(&spec()).replace("wm_data_len 96", "wm_data_len 10000000000000");
        let refused = |err: CoreError| {
            matches!(
                err,
                CoreError::EvidenceLimit {
                    field: "wm_data length",
                    len: 10_000_000_000_000,
                    limit: 16_777_216
                }
            )
        };
        assert!(refused(from_key_file(&huge).unwrap_err()));
        let registry =
            format!("{REGISTRY_MAGIC}\ntenant acme\nkey production {}\n", to_hex(huge.as_bytes()));
        assert!(refused(TenantKeyRegistry::from_registry_file(&registry).err().unwrap()));
    }

    #[test]
    fn rejects_bad_erasure_and_algo() {
        let base = to_key_file(&spec());
        let bad_erasure = base.replace("erasure abstain", "erasure maybe");
        assert!(from_key_file(&bad_erasure).is_err());
        let bad_algo = base.replace("algo sha256", "algo rot13");
        assert!(from_key_file(&bad_algo).is_err());
    }

    #[test]
    fn tenant_registry_round_trips_named_keys() {
        let mut reg = TenantKeyRegistry::new("acme").unwrap();
        reg.insert("production", spec()).unwrap();
        let mut staging = spec();
        staging.domain = domains::cities();
        reg.insert("staging", staging.clone()).unwrap();

        let restored = TenantKeyRegistry::from_registry_file(&reg.to_registry_file()).unwrap();
        assert_eq!(restored.tenant(), "acme");
        assert_eq!(restored.len(), 2);
        let names: Vec<&str> = restored.entries().map(|(n, _)| n).collect();
        assert_eq!(names, ["production", "staging"], "insertion order survives");
        let prod = restored.get("acme", "production").unwrap();
        assert_eq!(prod.k1, spec().k1);
        assert_eq!(prod.k2, spec().k2);
        assert_eq!(prod.e, spec().e);
        let stag = restored.get("acme", "staging").unwrap();
        assert_eq!(stag.domain, domains::cities());
    }

    #[test]
    fn tenant_registry_enforces_isolation_before_name_lookup() {
        let mut reg = TenantKeyRegistry::new("acme").unwrap();
        reg.insert("production", spec()).unwrap();
        // Wrong tenant: refused even for a key name that exists...
        let err = reg.get("globex", "production").unwrap_err();
        assert_eq!(
            err,
            CoreError::TenantIsolation { tenant: "acme".into(), requested: "globex".into() }
        );
        // ...and for one that does not, so name existence never leaks.
        let err = reg.get("globex", "no-such-key").unwrap_err();
        assert!(matches!(err, CoreError::TenantIsolation { .. }));
        // Right tenant, unknown name: a plain spec error instead.
        assert!(matches!(reg.get("acme", "no-such-key"), Err(CoreError::InvalidSpec(_))));
    }

    #[test]
    fn tenant_registry_insert_replaces_for_rotation() {
        let mut reg = TenantKeyRegistry::new("acme").unwrap();
        reg.insert("production", spec()).unwrap();
        let mut rotated = spec();
        rotated.e = 99;
        reg.insert("production", rotated).unwrap();
        assert_eq!(reg.len(), 1);
        assert_eq!(reg.get("acme", "production").unwrap().e, 99);
    }

    #[test]
    fn tenant_registry_rejects_bad_names_and_malformed_files() {
        assert!(TenantKeyRegistry::new("").is_err());
        assert!(TenantKeyRegistry::new("two words").is_err());
        let mut reg = TenantKeyRegistry::new("acme").unwrap();
        assert!(reg.insert("", spec()).is_err());
        assert!(reg.insert("spaced name", spec()).is_err());

        assert!(TenantKeyRegistry::from_registry_file("").is_err());
        assert!(TenantKeyRegistry::from_registry_file("catmark-tenant-registry v9\n").is_err());
        // Key before tenant.
        let early =
            format!("{REGISTRY_MAGIC}\nkey a {}\n", to_hex(to_key_file(&spec()).as_bytes()));
        assert!(TenantKeyRegistry::from_registry_file(&early).is_err());
        // Missing tenant entirely.
        assert!(TenantKeyRegistry::from_registry_file(&format!("{REGISTRY_MAGIC}\n")).is_err());
        // Duplicate tenant line.
        let dup = format!("{REGISTRY_MAGIC}\ntenant a\ntenant b\n");
        assert!(TenantKeyRegistry::from_registry_file(&dup).is_err());
        // Duplicate key name.
        let payload = to_hex(to_key_file(&spec()).as_bytes());
        let dupkey = format!("{REGISTRY_MAGIC}\ntenant acme\nkey a {payload}\nkey a {payload}\n");
        assert!(TenantKeyRegistry::from_registry_file(&dupkey).is_err());
        // Corrupt hex payload.
        let corrupt = format!("{REGISTRY_MAGIC}\ntenant acme\nkey a zz-not-hex\n");
        assert!(TenantKeyRegistry::from_registry_file(&corrupt).is_err());
        // Unknown field.
        let unknown = format!("{REGISTRY_MAGIC}\ntenant acme\nbogus 1\n");
        assert!(TenantKeyRegistry::from_registry_file(&unknown).is_err());
    }

    #[test]
    fn file_does_not_contain_plaintext_master() {
        // Keys in the file are the *derived* k1/k2, never a master
        // passphrase (derivation is one-way).
        let s = WatermarkSpec::builder(domains::product_codes(10, 0))
            .algorithm(HashAlgorithm::Sha256)
            .master_key("hunter2-master-passphrase")
            .e(5)
            .wm_len(4)
            .wm_data_len(8)
            .build()
            .unwrap();
        assert!(!to_key_file(&s).contains("hunter2"));
    }
}
