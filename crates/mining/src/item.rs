//! Items, itemsets and transaction extraction.
//!
//! Association-rule mining treats each relation row as a *transaction*
//! whose items are `(attribute, value)` pairs drawn from a chosen set
//! of categorical attributes. Because an attribute holds exactly one
//! value per row, an itemset never contains two items with the same
//! attribute — candidate generation exploits this to prune early.

use std::fmt;

use catmark_relation::{Relation, RelationError, Value};

/// One `(attribute, value)` pair — the unit of association mining.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Item {
    /// Attribute index in the mined relation's schema.
    pub attr: usize,
    /// The categorical value.
    pub value: Value,
}

impl Item {
    /// Item for attribute index `attr` holding `value`.
    #[must_use]
    pub fn new(attr: usize, value: Value) -> Self {
        Item { attr, value }
    }
}

impl fmt::Display for Item {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.value {
            Value::Int(v) => write!(f, "#{}={v}", self.attr),
            Value::Text(s) => write!(f, "#{}={s:?}", self.attr),
        }
    }
}

/// A sorted, duplicate-free set of items with at most one item per
/// attribute.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Itemset {
    items: Vec<Item>,
}

impl Itemset {
    /// Itemset from arbitrary items; sorts and deduplicates.
    ///
    /// Returns `None` when two distinct items share an attribute (such
    /// a set can never be satisfied by any row).
    #[must_use]
    pub fn new(items: impl IntoIterator<Item = Item>) -> Option<Self> {
        let mut items: Vec<Item> = items.into_iter().collect();
        items.sort();
        items.dedup();
        if items.windows(2).any(|w| w[0].attr == w[1].attr) {
            return None;
        }
        Some(Itemset { items })
    }

    /// The singleton `{item}`.
    #[must_use]
    pub fn singleton(item: Item) -> Self {
        Itemset { items: vec![item] }
    }

    /// The items, sorted.
    #[must_use]
    pub fn items(&self) -> &[Item] {
        &self.items
    }

    /// Number of items.
    #[must_use]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Whether row `values` (a full tuple, indexed by attribute)
    /// satisfies every item.
    #[must_use]
    pub fn matches(&self, values: &[Value]) -> bool {
        self.items.iter().all(|it| values.get(it.attr) == Some(&it.value))
    }

    /// [`Itemset::matches`] against `values` with position `attr`
    /// substituted by `value` — the what-if form the incremental
    /// quality constraints evaluate per candidate alteration, without
    /// materializing the altered row.
    #[must_use]
    pub fn matches_substituted(&self, values: &[Value], attr: usize, value: &Value) -> bool {
        self.items.iter().all(|it| {
            if it.attr == attr {
                *value == it.value
            } else {
                values.get(it.attr) == Some(&it.value)
            }
        })
    }

    /// This set without the item at position `i` — the antecedent left
    /// when item `i` becomes a rule consequent.
    #[must_use]
    pub fn without(&self, i: usize) -> Itemset {
        let mut items = self.items.clone();
        items.remove(i);
        Itemset { items }
    }

    /// Union with another itemset; `None` on attribute conflict.
    #[must_use]
    pub fn union(&self, other: &Itemset) -> Option<Itemset> {
        Itemset::new(self.items.iter().chain(other.items.iter()).cloned())
    }

    /// Whether `self` contains every item of `other`.
    #[must_use]
    pub fn is_superset_of(&self, other: &Itemset) -> bool {
        other.items.iter().all(|it| self.items.binary_search(it).is_ok())
    }

    /// Try extending by one item (keeps sortedness); `None` when the
    /// attribute is already present.
    #[must_use]
    pub fn extended(&self, item: Item) -> Option<Itemset> {
        if self.items.iter().any(|it| it.attr == item.attr) {
            return None;
        }
        let mut items = self.items.clone();
        let pos = items.binary_search(&item).unwrap_err();
        items.insert(pos, item);
        Some(Itemset { items })
    }
}

impl fmt::Display for Itemset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, item) in self.items.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{item}")?;
        }
        write!(f, "}}")
    }
}

/// The transaction view of a relation: per-row item lists over the
/// chosen categorical attributes, plus the row count.
#[derive(Debug, Clone)]
pub struct Transactions {
    /// Attribute indices mined, in ascending order.
    pub attrs: Vec<usize>,
    rows: Vec<Vec<Value>>,
}

impl Transactions {
    /// Extract transactions from `rel` over `attrs` (attribute names).
    ///
    /// # Errors
    ///
    /// [`RelationError::UnknownAttr`] for unknown attribute names.
    pub fn from_relation(rel: &Relation, attrs: &[&str]) -> Result<Self, RelationError> {
        let mut indices = Vec::with_capacity(attrs.len());
        for name in attrs {
            indices.push(rel.schema().index_of(name)?);
        }
        indices.sort_unstable();
        indices.dedup();
        Ok(Transactions { attrs: indices, rows: row_values(rel) })
    }

    /// Number of transactions (rows).
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether there are no transactions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The full tuples, row-major.
    #[must_use]
    pub fn rows(&self) -> &[Vec<Value>] {
        &self.rows
    }

    /// How many rows satisfy `set`.
    #[must_use]
    pub fn support_count(&self, set: &Itemset) -> u64 {
        self.rows.iter().filter(|r| set.matches(r)).count() as u64
    }
}

/// Every row of `rel` as an owned value list (the row-major snapshot
/// support counting and the mining constraints scan), filled one
/// column view at a time.
pub(crate) fn row_values(rel: &Relation) -> Vec<Vec<Value>> {
    let arity = rel.schema().arity();
    let mut rows: Vec<Vec<Value>> = (0..rel.len()).map(|_| Vec::with_capacity(arity)).collect();
    for attr in 0..arity {
        for (row, value) in rows.iter_mut().zip(rel.column_iter(attr)) {
            row.push(value);
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use catmark_relation::{AttrType, Schema};

    fn item(attr: usize, v: i64) -> Item {
        Item::new(attr, Value::Int(v))
    }

    #[test]
    fn itemset_sorts_and_dedups() {
        let s = Itemset::new([item(2, 5), item(1, 3), item(2, 5)]).unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.items()[0], item(1, 3));
    }

    #[test]
    fn itemset_rejects_attribute_conflict() {
        assert!(Itemset::new([item(1, 3), item(1, 4)]).is_none());
    }

    #[test]
    fn matches_checks_all_items() {
        let s = Itemset::new([item(1, 3), item(2, 7)]).unwrap();
        let row = vec![Value::Int(0), Value::Int(3), Value::Int(7)];
        assert!(s.matches(&row));
        let row2 = vec![Value::Int(0), Value::Int(3), Value::Int(8)];
        assert!(!s.matches(&row2));
    }

    #[test]
    fn without_and_union_are_inverse_ish() {
        let s = Itemset::new([item(1, 3), item(2, 7)]).unwrap();
        let ant = s.without(1);
        assert_eq!(ant.len(), 1);
        let back = ant.union(&Itemset::singleton(item(2, 7))).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn union_conflict_is_none() {
        let a = Itemset::singleton(item(1, 3));
        let b = Itemset::singleton(item(1, 4));
        assert!(a.union(&b).is_none());
    }

    #[test]
    fn extended_keeps_sorted_and_checks_attr() {
        let s = Itemset::singleton(item(3, 1));
        let e = s.extended(item(1, 9)).unwrap();
        assert_eq!(e.items()[0].attr, 1);
        assert!(e.extended(item(3, 2)).is_none());
    }

    #[test]
    fn superset_logic() {
        let big = Itemset::new([item(1, 1), item(2, 2), item(3, 3)]).unwrap();
        let small = Itemset::new([item(1, 1), item(3, 3)]).unwrap();
        assert!(big.is_superset_of(&small));
        assert!(!small.is_superset_of(&big));
        assert!(big.is_superset_of(&Itemset::default()));
    }

    #[test]
    fn transactions_extract_and_count() {
        let schema = Schema::builder()
            .key_attr("k", AttrType::Integer)
            .categorical_attr("a", AttrType::Integer)
            .categorical_attr("b", AttrType::Integer)
            .build()
            .unwrap();
        let mut rel = Relation::new(schema);
        for i in 0..10i64 {
            rel.push(vec![Value::Int(i), Value::Int(i % 2), Value::Int(i % 3)]).unwrap();
        }
        let tx = Transactions::from_relation(&rel, &["a", "b"]).unwrap();
        assert_eq!(tx.len(), 10);
        assert_eq!(tx.attrs, vec![1, 2]);
        let even_a = Itemset::singleton(Item::new(1, Value::Int(0)));
        assert_eq!(tx.support_count(&even_a), 5);
        let joint =
            Itemset::new([Item::new(1, Value::Int(0)), Item::new(2, Value::Int(0))]).unwrap();
        // i ≡ 0 mod 6 → rows 0, 6.
        assert_eq!(tx.support_count(&joint), 2);
    }

    #[test]
    fn transactions_unknown_attr_errors() {
        let schema = Schema::builder()
            .key_attr("k", AttrType::Integer)
            .categorical_attr("a", AttrType::Integer)
            .build()
            .unwrap();
        let rel = Relation::new(schema);
        assert!(Transactions::from_relation(&rel, &["nope"]).is_err());
    }

    #[test]
    fn display_formats_readably() {
        let s = Itemset::new([item(1, 3), Item::new(2, Value::Text("x".into()))]).unwrap();
        assert_eq!(s.to_string(), "{#1=3, #2=\"x\"}");
    }
}
