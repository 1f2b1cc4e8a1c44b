//! A small constraint language for quality-guarded embedding.
//!
//! The paper's conclusions propose "to define a generic language
//! (possibly subset of SQL) able to naturally express such constraints
//! and their propagation at embedding time". This module implements a
//! line-oriented declarative language compiling to the
//! [`crate::quality`] plugin stack:
//!
//! ```text
//! # anything after '#' is a comment
//! budget 3%                  # alter at most 3% of tuples
//! budget 500                 # …or an absolute count
//! drift <= 0.02              # max L1 histogram drift of the target attribute
//! immutable 0..100           # rows 0..100 must not change
//! allow in (42, 17, "soda")  # replacement values restricted to this set
//! preserve count in (42, 17) tolerance 5     # count query may drift ≤ 5 rows
//! preserve count range 100..120 tolerance 2% # …or ≤ 2% of its baseline
//! ```
//!
//! Every line contributes one [`QualityConstraint`];
//! [`compile`] assembles them into a ready [`QualityGuard`]. The
//! `preserve count` form compiles to
//! [`query_preserve::CountQueryPreservation`](crate::query_preserve) —
//! the enforceable version of the query-preservation contract the
//! paper cites from Gross-Amblard.
//!
//! Every constraint this language produces supports the guard's
//! code-space fast path ([`QualityConstraint::bind_codes`]): at
//! guarded-embed time the stack is bound to the embedding domain
//! once — value sets become per-domain-code truth tables — and the
//! goodness loop then evaluates each candidate alteration with
//! indexed loads only, no `Value` materialization.

use catmark_relation::{CategoricalDomain, Relation, Value};

use crate::error::CoreError;
use crate::quality::{
    AllowedReplacements, AlterationBudget, FrequencyDriftLimit, ImmutableRows, QualityConstraint,
    QualityGuard,
};
use crate::query_preserve::{CountQuery, CountQueryPreservation, Tolerance, ValueSet};

/// A parse error with its 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LangError {
    /// Line the error occurred on (1-based).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for LangError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "constraint language error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for LangError {}

/// One parsed constraint declaration (the AST).
#[derive(Debug, Clone, PartialEq)]
pub enum Decl {
    /// `budget N` / `budget P%`.
    Budget {
        /// Absolute count, or percentage when `percent` is set.
        amount: f64,
        /// Whether `amount` is a percentage of the relation size.
        percent: bool,
    },
    /// `drift <= X`.
    Drift {
        /// Maximum admitted L1 histogram drift.
        max_l1: f64,
    },
    /// `immutable A..B` (half-open row range).
    Immutable {
        /// First protected row.
        start: usize,
        /// One past the last protected row.
        end: usize,
    },
    /// `allow in (v, …)`.
    AllowIn {
        /// Admitted replacement values.
        values: Vec<Value>,
    },
    /// `preserve count in (v, …) tolerance T[%]` /
    /// `preserve count range A..B tolerance T[%]`.
    PreserveCount {
        /// The selection whose count must be preserved.
        selection: CountSelection,
        /// Allowed drift (rows, or percent of baseline when `percent`).
        tolerance: f64,
        /// Whether `tolerance` is relative to the baseline count.
        percent: bool,
    },
}

/// The selection of a `preserve count` declaration.
#[derive(Debug, Clone, PartialEq)]
pub enum CountSelection {
    /// Explicit value list.
    In(Vec<Value>),
    /// Inclusive integer range.
    Range(i64, i64),
}

/// Parse a program into declarations.
///
/// # Errors
///
/// [`LangError`] with the offending line.
pub fn parse(src: &str) -> Result<Vec<Decl>, LangError> {
    let mut decls = Vec::new();
    for (idx, raw) in src.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let err = |message: String| LangError { line: line_no, message };
        let (keyword, rest) = match line.split_once(char::is_whitespace) {
            Some((k, r)) => (k, r.trim()),
            None => (line, ""),
        };
        let decl = match keyword {
            "budget" => parse_budget(rest).map_err(err)?,
            "drift" => parse_drift(rest).map_err(err)?,
            "immutable" => parse_immutable(rest).map_err(err)?,
            "allow" => parse_allow(rest).map_err(err)?,
            "preserve" => parse_preserve(rest).map_err(err)?,
            other => return Err(err(format!("unknown keyword {other:?}"))),
        };
        decls.push(decl);
    }
    Ok(decls)
}

fn parse_budget(rest: &str) -> Result<Decl, String> {
    if rest.is_empty() {
        return Err("budget needs an amount, e.g. `budget 3%` or `budget 500`".into());
    }
    if let Some(pct) = rest.strip_suffix('%') {
        let amount: f64 = pct.trim().parse().map_err(|e| format!("bad percentage {pct:?}: {e}"))?;
        if !(0.0..=100.0).contains(&amount) {
            return Err(format!("percentage {amount} outside 0..=100"));
        }
        Ok(Decl::Budget { amount, percent: true })
    } else {
        let amount: u64 = rest.parse().map_err(|e| format!("bad count {rest:?}: {e}"))?;
        Ok(Decl::Budget { amount: amount as f64, percent: false })
    }
}

fn parse_drift(rest: &str) -> Result<Decl, String> {
    let value = rest
        .strip_prefix("<=")
        .ok_or_else(|| "drift expects `drift <= <value>`".to_owned())?
        .trim();
    let max_l1: f64 = value.parse().map_err(|e| format!("bad drift bound {value:?}: {e}"))?;
    if !(0.0..=2.0).contains(&max_l1) {
        return Err(format!("drift bound {max_l1} outside the L1 range 0..=2"));
    }
    Ok(Decl::Drift { max_l1 })
}

fn parse_immutable(rest: &str) -> Result<Decl, String> {
    let (start, end) = rest
        .split_once("..")
        .ok_or_else(|| "immutable expects a row range, e.g. `immutable 0..100`".to_owned())?;
    let start: usize = start.trim().parse().map_err(|e| format!("bad range start: {e}"))?;
    let end: usize = end.trim().parse().map_err(|e| format!("bad range end: {e}"))?;
    if end < start {
        return Err(format!("empty range {start}..{end}"));
    }
    Ok(Decl::Immutable { start, end })
}

fn parse_allow(rest: &str) -> Result<Decl, String> {
    let rest =
        rest.strip_prefix("in").ok_or_else(|| "allow expects `allow in (v, …)`".to_owned())?.trim();
    let inner = rest
        .strip_prefix('(')
        .and_then(|s| s.strip_suffix(')'))
        .ok_or_else(|| "allow list must be parenthesized".to_owned())?;
    let values = parse_value_list(inner)?;
    if values.is_empty() {
        return Err("allow list is empty".into());
    }
    Ok(Decl::AllowIn { values })
}

fn parse_preserve(rest: &str) -> Result<Decl, String> {
    let rest = rest
        .strip_prefix("count")
        .ok_or_else(|| "preserve expects `preserve count …`".to_owned())?
        .trim();
    let (selection_src, tolerance_src) = rest
        .split_once("tolerance")
        .ok_or_else(|| "preserve count needs a `tolerance` clause".to_owned())?;
    let selection_src = selection_src.trim();
    let selection = if let Some(list) = selection_src.strip_prefix("in") {
        let inner = list
            .trim()
            .strip_prefix('(')
            .and_then(|s| s.strip_suffix(')'))
            .ok_or_else(|| "preserve count in-list must be parenthesized".to_owned())?;
        let values = parse_value_list(inner)?;
        if values.is_empty() {
            return Err("preserve count in-list is empty".into());
        }
        CountSelection::In(values)
    } else if let Some(range) = selection_src.strip_prefix("range") {
        let (lo, hi) = range
            .trim()
            .split_once("..")
            .ok_or_else(|| "preserve count range expects `range A..B`".to_owned())?;
        let lo: i64 = lo.trim().parse().map_err(|e| format!("bad range start: {e}"))?;
        let hi: i64 = hi.trim().parse().map_err(|e| format!("bad range end: {e}"))?;
        if hi < lo {
            return Err(format!("empty range {lo}..{hi}"));
        }
        CountSelection::Range(lo, hi)
    } else {
        return Err("preserve count expects `in (…)` or `range A..B`".into());
    };
    let tolerance_src = tolerance_src.trim();
    if tolerance_src.is_empty() {
        return Err("tolerance needs an amount, e.g. `tolerance 5` or `tolerance 2%`".into());
    }
    let (tolerance, percent) = if let Some(pct) = tolerance_src.strip_suffix('%') {
        let t: f64 =
            pct.trim().parse().map_err(|e| format!("bad tolerance percentage {pct:?}: {e}"))?;
        if !(0.0..=100.0).contains(&t) {
            return Err(format!("tolerance percentage {t} outside 0..=100"));
        }
        (t, true)
    } else {
        let t: u64 = tolerance_src
            .parse()
            .map_err(|e| format!("bad tolerance count {tolerance_src:?}: {e}"))?;
        (t as f64, false)
    };
    Ok(Decl::PreserveCount { selection, tolerance, percent })
}

fn parse_value_list(inner: &str) -> Result<Vec<Value>, String> {
    let mut values = Vec::new();
    for part in split_top_level(inner) {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        if let Some(q) = part.strip_prefix('"').and_then(|s| s.strip_suffix('"')) {
            values.push(Value::Text(q.to_owned()));
        } else {
            let v: i64 = part.parse().map_err(|e| {
                format!("value {part:?} is neither an integer nor quoted text: {e}")
            })?;
            values.push(Value::Int(v));
        }
    }
    Ok(values)
}

/// Split on commas that are not inside quotes.
fn split_top_level(s: &str) -> Vec<String> {
    let mut parts = Vec::new();
    let mut current = String::new();
    let mut in_quotes = false;
    for c in s.chars() {
        match c {
            '"' => {
                in_quotes = !in_quotes;
                current.push(c);
            }
            ',' if !in_quotes => parts.push(std::mem::take(&mut current)),
            other => current.push(other),
        }
    }
    parts.push(current);
    parts
}

/// Compile a program directly into a [`QualityGuard`] for embedding
/// into attribute `attr_idx` of `rel` over `domain`.
///
/// # Errors
///
/// Parse errors (wrapped into [`CoreError::InvalidSpec`]) or histogram
/// construction failures for `drift` constraints.
pub fn compile(
    src: &str,
    rel: &Relation,
    attr_idx: usize,
    domain: &CategoricalDomain,
) -> Result<QualityGuard, CoreError> {
    let decls = parse(src).map_err(|e| CoreError::InvalidSpec(e.to_string()))?;
    let mut constraints: Vec<Box<dyn QualityConstraint>> = Vec::with_capacity(decls.len());
    for (i, decl) in decls.into_iter().enumerate() {
        constraints.push(match decl {
            Decl::Budget { amount, percent: true } => {
                Box::new(AlterationBudget::fraction_of(rel.len(), amount / 100.0))
            }
            Decl::Budget { amount, percent: false } => {
                Box::new(AlterationBudget::new(amount as usize))
            }
            Decl::Drift { max_l1 } => {
                Box::new(FrequencyDriftLimit::new(rel, attr_idx, domain, max_l1)?)
            }
            Decl::Immutable { start, end } => Box::new(ImmutableRows::new(start..end)),
            Decl::AllowIn { values } => Box::new(AllowedReplacements::new(values)),
            Decl::PreserveCount { selection, tolerance, percent } => {
                let values = match selection {
                    CountSelection::In(values) => ValueSet::In(values.into_iter().collect()),
                    CountSelection::Range(lo, hi) => {
                        ValueSet::Range(Value::Int(lo), Value::Int(hi))
                    }
                };
                let tol = if percent {
                    Tolerance::Relative(tolerance / 100.0)
                } else {
                    Tolerance::Absolute(tolerance as u64)
                };
                let query = CountQuery::new(&format!("preserve-{}", i + 1), attr_idx, values, tol);
                Box::new(CountQueryPreservation::from_relation(rel, vec![query]))
            }
        });
    }
    Ok(QualityGuard::new(constraints))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Watermark, WatermarkSpec};
    use catmark_datagen::{ItemScanConfig, SalesGenerator};

    #[test]
    fn parses_every_form() {
        let src = r#"
            # protect the flagship accounts
            budget 3%
            budget 500
            drift <= 0.02
            immutable 0..100
            allow in (42, 17, "soda")
        "#;
        let decls = parse(src).unwrap();
        assert_eq!(decls.len(), 5);
        assert_eq!(decls[0], Decl::Budget { amount: 3.0, percent: true });
        assert_eq!(decls[1], Decl::Budget { amount: 500.0, percent: false });
        assert_eq!(decls[2], Decl::Drift { max_l1: 0.02 });
        assert_eq!(decls[3], Decl::Immutable { start: 0, end: 100 });
        assert_eq!(
            decls[4],
            Decl::AllowIn {
                values: vec![Value::Int(42), Value::Int(17), Value::Text("soda".into())]
            }
        );
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        assert_eq!(parse("\n  # nothing\n\n").unwrap(), vec![]);
        assert_eq!(parse("budget 1 # trailing").unwrap().len(), 1);
    }

    #[test]
    fn error_reports_line_numbers() {
        let err = parse("budget 1\nfrobnicate 2\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("frobnicate"));
    }

    #[test]
    fn rejects_malformed_declarations() {
        for (src, fragment) in [
            ("budget", "amount"),
            ("budget 150%", "outside"),
            ("budget -3", "bad count"),
            ("drift 0.1", "<="),
            ("drift <= 9", "outside"),
            ("immutable 5", "row range"),
            ("immutable 9..3", "empty range"),
            ("allow (1)", "allow in"),
            ("allow in 1, 2", "parenthesized"),
            ("allow in ()", "empty"),
            ("allow in (maybe)", "neither"),
        ] {
            let err = parse(src).unwrap_err();
            assert!(
                err.message.contains(fragment),
                "{src:?}: expected {fragment:?} in {:?}",
                err.message
            );
        }
    }

    #[test]
    fn parses_preserve_count_forms() {
        let decls = parse(
            "preserve count in (42, 17) tolerance 5\n\
             preserve count range 100..120 tolerance 2%\n",
        )
        .unwrap();
        assert_eq!(
            decls[0],
            Decl::PreserveCount {
                selection: CountSelection::In(vec![Value::Int(42), Value::Int(17)]),
                tolerance: 5.0,
                percent: false,
            }
        );
        assert_eq!(
            decls[1],
            Decl::PreserveCount {
                selection: CountSelection::Range(100, 120),
                tolerance: 2.0,
                percent: true,
            }
        );
    }

    #[test]
    fn rejects_malformed_preserve_count() {
        for (src, fragment) in [
            ("preserve 5", "preserve count"),
            ("preserve count tolerance 5", "in (…)"),
            ("preserve count in (1)", "tolerance"),
            ("preserve count in () tolerance 1", "empty"),
            ("preserve count in (1) tolerance", "amount"),
            ("preserve count in (1) tolerance 120%", "outside"),
            ("preserve count range 9..3 tolerance 1", "empty range"),
            ("preserve count range 9 tolerance 1", "A..B"),
        ] {
            let err = parse(src).unwrap_err();
            assert!(
                err.message.contains(fragment),
                "{src:?}: expected {fragment:?} in {:?}",
                err.message
            );
        }
    }

    #[test]
    fn compiled_preserve_count_vetoes_drift() {
        use crate::quality::Alteration;
        let gen = SalesGenerator::new(ItemScanConfig { tuples: 2_000, ..Default::default() });
        let rel = gen.generate();
        let domain = gen.item_domain();
        // Pick the most frequent item so it certainly occurs.
        let hist = catmark_relation::FrequencyHistogram::from_relation(&rel, 1, &domain).unwrap();
        let top = hist.rank_by_frequency()[0];
        let top_value = domain.value_at(top).clone();
        let other = domain.value_at((top + 1) % domain.len()).clone();
        let program = format!("preserve count in ({}) tolerance 1", top_value.as_int().unwrap());
        let mut guard = compile(&program, &rel, 1, &domain).unwrap();
        // Removing one tuple from the selection is fine, a second is
        // vetoed.
        let hit_rows: Vec<usize> = rel
            .column_iter(1)
            .enumerate()
            .filter(|(_, v)| v == &top_value)
            .map(|(r, _)| r)
            .take(2)
            .collect();
        assert_eq!(hit_rows.len(), 2, "top value occurs at least twice");
        let change =
            |row: usize| Alteration { row, attr: 1, old: top_value.clone(), new: other.clone() };
        assert!(guard.propose(change(hit_rows[0])));
        assert!(!guard.propose(change(hit_rows[1])));
        assert_eq!(guard.vetoes(), 1);
    }

    #[test]
    fn quoted_values_may_contain_commas() {
        let decls = parse(r#"allow in ("a,b", 3)"#).unwrap();
        assert_eq!(
            decls[0],
            Decl::AllowIn { values: vec![Value::Text("a,b".into()), Value::Int(3)] }
        );
    }

    #[test]
    fn compiled_guard_enforces_the_program() {
        let gen = SalesGenerator::new(ItemScanConfig { tuples: 6_000, ..Default::default() });
        let mut rel = gen.generate();
        let domain = gen.item_domain();
        let spec = WatermarkSpec::builder(domain.clone())
            .master_key("lang-tests")
            .e(20)
            .wm_len(10)
            .expected_tuples(rel.len())
            .build()
            .unwrap();
        let mut guard = compile("budget 0.5%\nimmutable 0..1000\n", &rel, 1, &domain).unwrap();
        let wm = Watermark::from_u64(0x155, 10);
        let report = crate::testkit::embed_guarded(
            &spec,
            &mut rel,
            "visit_nbr",
            "item_nbr",
            &wm,
            &mut guard,
        )
        .unwrap();
        // Budget: 0.5% of 6000 = 30 alterations max.
        assert!(report.altered <= 30, "altered {}", report.altered);
        // Immutable: no touched row below 1000.
        assert!(report.touched_rows.iter().all(|&r| r >= 1000));
        assert!(report.vetoed > 0);
    }

    #[test]
    fn compile_surfaces_parse_errors_as_core_errors() {
        let gen = SalesGenerator::new(ItemScanConfig { tuples: 100, ..Default::default() });
        let rel = gen.generate();
        let err = compile("nope", &rel, 1, &gen.item_domain());
        assert!(matches!(err, Err(CoreError::InvalidSpec(_))));
    }
}
