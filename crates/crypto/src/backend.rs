//! Process-wide SHA-256 backend selection.
//!
//! Two interchangeable implementations of the SHA-256 compression
//! function exist in this crate:
//!
//! * [`Sha256Backend::Soft`] — the portable software path in
//!   [`crate::sha256`] (scalar rounds plus the four-lane multibuffer).
//!   This is the **golden reference**: test vectors and the repo's
//!   byte-identity goldens pin it, and every other backend is checked
//!   against it.
//! * [`Sha256Backend::ShaNi`] — the x86 SHA Extensions path in
//!   `sha256_shani` (`_mm_sha256rnds2_epu32` and friends), selected
//!   only when the CPU actually reports the `sha` feature at runtime.
//!
//! Both produce bit-identical digests (enforced by proptest); the
//! selection is therefore purely a throughput decision and is made
//! **once per process**, cached in a [`OnceLock`].
//!
//! Selection order:
//!
//! 1. `CATMARK_SHA_BACKEND=soft` forces the software path everywhere,
//!    16-lane batches included.
//! 2. `CATMARK_SHA_BACKEND=shani` requests the hardware path; if the
//!    CPU lacks the extension the request degrades to `soft` (same
//!    digests, so this is safe) with a one-time stderr note.
//! 3. No (or unrecognized) override: auto-detect — `shani` when the
//!    CPU supports it, `soft` otherwise.
//!
//! Within the selected backend, the 16-lane batch
//! ([`crate::FixedLenKeyedHasher::hash16_u64`]) that the integer key
//! scan and the decoder's coins run picks its kernel: on `ShaNi`, the
//! AVX-512F kernel in `sha256_avx512` when the CPU reports `avx512f`
//! ([`Sha256Backend::runs_avx512`]), else the SHA-NI stream pairs four
//! lanes at a time; on `Soft`, the software multibuffer. The CPU
//! decides; no setting chooses the kernel.

use std::sync::OnceLock;

/// One of the interchangeable SHA-256 compression implementations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sha256Backend {
    /// Portable software rounds — the golden reference.
    Soft,
    /// x86 SHA Extensions (`sha` + `ssse3` + `sse4.1`).
    ShaNi,
}

impl Sha256Backend {
    /// Both backends, for exhaustive equivalence tests and benches.
    pub const ALL: [Sha256Backend; 2] = [Sha256Backend::Soft, Sha256Backend::ShaNi];

    /// Whether this backend can run on the current CPU. `Soft` is
    /// always available; `ShaNi` requires runtime feature detection to
    /// succeed.
    #[must_use]
    pub fn is_available(self) -> bool {
        match self {
            Sha256Backend::Soft => true,
            Sha256Backend::ShaNi => shani_supported(),
        }
    }

    /// Stable lowercase name (`soft` / `shani`), used by the bench
    /// harness's `sha_backend` field and the env override.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Sha256Backend::Soft => "soft",
            Sha256Backend::ShaNi => "shani",
        }
    }

    /// Whether this backend's 16-lane batches
    /// ([`crate::FixedLenKeyedHasher::hash16_u64_with`]) run the
    /// AVX-512F kernel: only `ShaNi` does, and only on a CPU that has
    /// the SHA Extensions and reports `avx512f`. Every other batch runs
    /// as four-lane batches on this backend.
    #[must_use]
    pub fn runs_avx512(self) -> bool {
        self == Sha256Backend::ShaNi && self.is_available() && avx512f_supported()
    }

    /// The process-wide active backend: selected on first call (env
    /// override, then runtime detection), then cached for the life of
    /// the process. Every digest produced through [`crate::sha256`] or
    /// [`crate::keyed`] without an explicit backend goes through this.
    #[must_use]
    pub fn active() -> Sha256Backend {
        static ACTIVE: OnceLock<Sha256Backend> = OnceLock::new();
        *ACTIVE.get_or_init(select)
    }
}

impl std::fmt::Display for Sha256Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Sha256Backend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "soft" | "software" => Ok(Sha256Backend::Soft),
            "shani" | "sha-ni" | "sha_ni" | "sha" => Ok(Sha256Backend::ShaNi),
            other => Err(format!("unknown SHA-256 backend {other:?} (expected soft|shani)")),
        }
    }
}

/// Runtime check for the x86 SHA Extensions path. The intrinsics
/// module also uses `ssse3` (byte shuffles) and `sse4.1` (blends and
/// 64-bit extracts), so all three must be present.
fn shani_supported() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Runtime check for the 16-lane kernel's one feature, `avx512f`.
fn avx512f_supported() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        is_x86_feature_detected!("avx512f")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

fn select() -> Sha256Backend {
    match std::env::var("CATMARK_SHA_BACKEND") {
        Ok(raw) => match raw.parse::<Sha256Backend>() {
            Ok(requested) if requested.is_available() => requested,
            Ok(requested) => {
                eprintln!(
                    "catmark: CATMARK_SHA_BACKEND={requested} requested but unsupported \
                     on this CPU; falling back to soft"
                );
                Sha256Backend::Soft
            }
            Err(err) => {
                eprintln!("catmark: ignoring CATMARK_SHA_BACKEND: {err}");
                auto_detect()
            }
        },
        Err(_) => auto_detect(),
    }
}

fn auto_detect() -> Sha256Backend {
    if shani_supported() {
        Sha256Backend::ShaNi
    } else {
        Sha256Backend::Soft
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::str::FromStr;

    #[test]
    fn soft_is_always_available() {
        assert!(Sha256Backend::Soft.is_available());
    }

    #[test]
    fn names_round_trip_through_from_str() {
        for backend in Sha256Backend::ALL {
            assert_eq!(Sha256Backend::from_str(backend.name()).unwrap(), backend);
        }
    }

    #[test]
    fn from_str_accepts_aliases_and_rejects_unknown() {
        assert_eq!(Sha256Backend::from_str("SHA-NI").unwrap(), Sha256Backend::ShaNi);
        assert_eq!(Sha256Backend::from_str("software").unwrap(), Sha256Backend::Soft);
        assert!(Sha256Backend::from_str("avx512").is_err());
    }

    #[test]
    fn active_backend_is_stable_and_available() {
        let first = Sha256Backend::active();
        assert!(first.is_available());
        assert_eq!(Sha256Backend::active(), first, "selection must be cached");
    }
}
