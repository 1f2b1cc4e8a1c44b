//! Columnar storage-engine tests: CSV round trips through the
//! dictionary-encoded columns (including duplicate-key data), and
//! properties pinning that the storage layout is invisible — logical
//! content, key indexing, and keyed hashing never depend on how the
//! dictionaries happen to be laid out.

use std::io::{BufRead, BufReader};

use catmark::core::{verify_evidence, CoreError, MarkSession, Watermark, WatermarkSpec};
use catmark::crypto::hex::to_hex;
use catmark::prelude::*;
use catmark::relation::column::{Column, ColumnView, Dictionary};
use catmark::relation::csv::{read_csv, read_csv_blocks, write_csv, write_csv_rows};
use catmark::relation::RelationError;
use proptest::prelude::*;

fn text_schema() -> Schema {
    Schema::builder()
        .key_attr("k", AttrType::Integer)
        .categorical_attr("city", AttrType::Text)
        .categorical_attr("qty", AttrType::Integer)
        .build()
        .unwrap()
}

#[test]
fn csv_round_trips_columnar_storage_with_duplicate_keys() {
    let mut rel = Relation::new(text_schema());
    // Duplicate keys via push_unchecked_key — attacked data shape.
    for (k, city, qty) in [
        (1, "boston", 10),
        (2, "austin", 20),
        (1, "chicago", 30),
        (3, "boston", 40),
        (2, "austin", 50),
    ] {
        rel.push_unchecked_key(vec![Value::Int(k), Value::Text(city.into()), Value::Int(qty)])
            .unwrap();
    }
    assert_eq!(rel.len(), 5);
    assert_eq!(rel.distinct_keys(), 3);

    let mut csv = Vec::new();
    write_csv(&rel, &mut csv).unwrap();
    let parsed = read_csv(text_schema(), &mut BufReader::new(csv.as_slice())).unwrap();

    // Row-for-row logical equality, duplicate rows included.
    assert_eq!(parsed, rel);
    // First-occurrence key indexing survives the round trip.
    assert_eq!(parsed.distinct_keys(), 3);
    assert_eq!(parsed.find_by_key(&Value::Int(1)), Some(0));
    assert_eq!(parsed.find_by_key(&Value::Int(2)), Some(1));
    // The columnar views agree too (text compared logically).
    for attr in 0..rel.schema().arity() {
        assert!(rel.column(attr) == parsed.column(attr), "column {attr} drifted");
    }
    // And a second serialization is byte-identical.
    let mut csv2 = Vec::new();
    write_csv(&parsed, &mut csv2).unwrap();
    assert_eq!(csv, csv2);
}

#[test]
fn dictionary_layout_is_invisible_to_hashing() {
    // Two relations with identical logical content but *different*
    // dictionary layouts: one built by row pushes (codes in
    // first-seen order), one from columns with a pre-seeded dictionary
    // in reverse order plus a stale entry no row references.
    let schema = Schema::builder()
        .key_attr("k", AttrType::Integer)
        .categorical_attr("city", AttrType::Text)
        .build()
        .unwrap();
    let rows = [(1, "chicago"), (2, "austin"), (3, "boston"), (4, "austin"), (5, "chicago")];
    let mut pushed = Relation::new(schema.clone());
    for (k, city) in rows {
        pushed.push(vec![Value::Int(k), Value::Text(city.into())]).unwrap();
    }
    let mut dict = Dictionary::new();
    let stale = dict.intern("never-used");
    for city in ["boston", "austin", "chicago"] {
        dict.intern(city);
    }
    let codes: Vec<u32> = rows.iter().map(|(_, c)| dict.code_of(c).unwrap()).collect();
    assert!(codes.iter().all(|&c| c != stale));
    let seeded = Relation::from_columns(
        schema,
        vec![Column::Int(rows.iter().map(|&(k, _)| k).collect()), Column::Text { codes, dict }],
    )
    .unwrap();

    // Logically equal despite different code assignments.
    assert!(pushed.column(1) == seeded.column(1));

    // And the watermarking pipeline cannot tell them apart: embedding
    // under the same spec produces identical marked *content*.
    let domain = CategoricalDomain::new(vec![
        Value::Text("austin".into()),
        Value::Text("boston".into()),
        Value::Text("chicago".into()),
    ])
    .unwrap();
    let spec = WatermarkSpec::builder(domain)
        .master_key("layout-invariance")
        .e(1)
        .wm_len(4)
        .wm_data_len(8)
        .build()
        .unwrap();
    let wm = Watermark::from_u64(0b1010, 4);
    let bind = |rel: &Relation| {
        MarkSession::builder(spec.clone()).key_column("k").target_column("city").bind(rel).unwrap()
    };
    let mut a = pushed.clone();
    let mut b = seeded.clone();
    let ra = bind(&a).embed(&mut a, &wm).unwrap();
    let rb = bind(&b).embed(&mut b, &wm).unwrap();
    assert_eq!(ra, rb);
    assert_eq!(a, b);
    assert_eq!(bind(&a).decode(&a).unwrap(), bind(&b).decode(&b).unwrap());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// CSV → columnar → CSV is the identity for arbitrary content,
    /// including duplicated keys and text needing quoting.
    #[test]
    fn csv_columnar_round_trip(
        rows in prop::collection::vec((0i64..20, "[a-z ,\"]{0,12}", any::<i64>()), 1..40),
    ) {
        let mut rel = Relation::new(text_schema());
        for (k, city, qty) in &rows {
            rel.push_unchecked_key(vec![
                Value::Int(*k),
                Value::Text(city.clone()),
                Value::Int(*qty),
            ])
            .unwrap();
        }
        let mut csv = Vec::new();
        write_csv(&rel, &mut csv).unwrap();
        let parsed = read_csv(text_schema(), &mut BufReader::new(csv.as_slice())).unwrap();
        prop_assert!(parsed == rel);
        prop_assert_eq!(parsed.distinct_keys(), rel.distinct_keys());
        // First occurrence wins in both stores.
        for (k, _, _) in &rows {
            prop_assert_eq!(parsed.find_by_key(&Value::Int(*k)), rel.find_by_key(&Value::Int(*k)));
        }
    }

    /// Clones (which drop the lazy key index) and gathers are
    /// indistinguishable from the original through every read API.
    #[test]
    fn clone_and_gather_preserve_logical_content(
        rows in prop::collection::vec((0i64..50, 0i64..8), 1..60),
    ) {
        let schema = Schema::builder()
            .key_attr("k", AttrType::Integer)
            .categorical_attr("a", AttrType::Integer)
            .build()
            .unwrap();
        let mut rel = Relation::new(schema);
        for (k, a) in &rows {
            rel.push_unchecked_key(vec![Value::Int(*k), Value::Int(*a)]).unwrap();
        }
        // Force the original's index, then clone (clone starts lazy).
        let _ = rel.distinct_keys();
        let cloned = rel.clone();
        prop_assert_eq!(cloned.len(), rel.len());
        prop_assert_eq!(cloned.distinct_keys(), rel.distinct_keys());
        for (k, _) in &rows {
            prop_assert_eq!(cloned.find_by_key(&Value::Int(*k)), rel.find_by_key(&Value::Int(*k)));
        }
        prop_assert!(cloned == rel);
        // An identity gather is also the identity.
        let identity: Vec<usize> = (0..rel.len()).collect();
        let gathered = rel.gather(&identity);
        prop_assert!(gathered == rel);
        prop_assert_eq!(gathered.distinct_keys(), rel.distinct_keys());
    }
}

/// The line-based reader `read_csv` and `infer_schema` replaced:
/// `BufRead::lines`, a `String` per field and a tuple per row. Kept as
/// the reference the streaming reader's relations and errors are
/// compared with.
mod reference {
    use std::io::BufRead;

    use catmark::relation::{AttrType, Relation, RelationError, Schema, Value};

    pub fn read_csv(schema: Schema, input: &mut impl BufRead) -> Result<Relation, RelationError> {
        let io = |e: std::io::Error| RelationError::Csv(e.to_string());
        let mut lines = input.lines();
        let header_line = lines
            .next()
            .ok_or_else(|| RelationError::Csv("missing header row".into()))?
            .map_err(io)?;
        let header = parse_row(&header_line)?;
        let expected: Vec<&str> = schema.attrs().iter().map(|a| a.name.as_str()).collect();
        if header != expected {
            return Err(RelationError::Csv(format!(
                "header {header:?} does not match schema attributes {expected:?}"
            )));
        }
        let mut rel = Relation::new(schema);
        for (line_no, line) in lines.enumerate() {
            let line = line.map_err(io)?;
            if line.is_empty() {
                continue;
            }
            let fields = parse_row(&line)?;
            if fields.len() != rel.schema().arity() {
                return Err(RelationError::Csv(format!(
                    "row {}: {} fields, expected {}",
                    line_no + 2,
                    fields.len(),
                    rel.schema().arity()
                )));
            }
            let values: Result<Vec<Value>, _> = fields
                .iter()
                .enumerate()
                .map(|(i, f)| match rel.schema().attr(i).ty {
                    AttrType::Integer => f
                        .trim()
                        .parse::<i64>()
                        .map(Value::Int)
                        .map_err(|e| RelationError::Csv(format!("bad integer {f:?}: {e}"))),
                    AttrType::Text => Ok(Value::Text(f.clone())),
                })
                .collect();
            rel.push_unchecked_key(values?)?;
        }
        Ok(rel)
    }

    pub fn infer_schema(
        input: &mut impl BufRead,
        cat_attrs: &[&str],
    ) -> Result<Schema, RelationError> {
        let io = |e: std::io::Error| RelationError::Csv(e.to_string());
        let mut lines = input.lines();
        let header =
            lines.next().ok_or_else(|| RelationError::Csv("empty input".into()))?.map_err(io)?;
        let names = parse_row(&header)?;
        if names.is_empty() || names.iter().any(String::is_empty) {
            return Err(RelationError::Csv(format!("malformed header {header:?}")));
        }
        let mut integral = vec![true; names.len()];
        for line in lines.take(100) {
            let line = line.map_err(io)?;
            if line.trim().is_empty() {
                continue;
            }
            for (i, field) in parse_row(&line)?.iter().enumerate() {
                if i < integral.len() && field.trim().parse::<i64>().is_err() {
                    integral[i] = false;
                }
            }
        }
        let mut builder = Schema::builder();
        for (i, name) in names.iter().enumerate() {
            let ty = if integral[i] { AttrType::Integer } else { AttrType::Text };
            builder = if i == 0 {
                builder.key_attr(name, ty)
            } else if cat_attrs.contains(&name.as_str()) {
                builder.categorical_attr(name, ty)
            } else {
                builder.attr(name, ty)
            };
        }
        builder.build()
    }

    /// Split one CSV record into unescaped fields.
    fn parse_row(line: &str) -> Result<Vec<String>, RelationError> {
        let line = line.strip_suffix('\r').unwrap_or(line);
        let mut fields = Vec::new();
        let mut current = String::new();
        let mut chars = line.chars().peekable();
        let mut in_quotes = false;
        while let Some(c) = chars.next() {
            if in_quotes {
                match c {
                    '"' if chars.peek() == Some(&'"') => {
                        chars.next();
                        current.push('"');
                    }
                    '"' => in_quotes = false,
                    other => current.push(other),
                }
            } else {
                match c {
                    '"' if current.is_empty() => in_quotes = true,
                    '"' => return Err(RelationError::Csv(format!("stray quote in {line:?}"))),
                    ',' => fields.push(std::mem::take(&mut current)),
                    other => current.push(other),
                }
            }
        }
        if in_quotes {
            return Err(RelationError::Csv(format!("unterminated quote in {line:?}")));
        }
        fields.push(current);
        Ok(fields)
    }
}

/// Byte pieces random CSV input is drawn from: whole records (plain,
/// quoted, CRLF, blank), and separators, quotes, line endings, signs,
/// digits, letters, whitespace, a two-byte character, and bytes that
/// are not UTF-8 alone.
const CSV_PIECES: &[&[u8]] = &[
    b"1,a\n",
    b"1,a\n",
    b"-23,bb\n",
    b"42,\xc3\xa9\r\n",
    b"7,\"x,\"\"y\"\n",
    b" 8 ,\n",
    b"\n",
    b"\r\n",
    b",",
    b"\"",
    b"\"\"",
    b"\n",
    b"\r",
    b"a",
    b"1",
    b"-",
    b"+",
    b" ",
    b"\xc3\xa9",
    b"\xc3",
    b"\xa9",
    b"\xff",
];

/// How many of [`CSV_PIECES`], from the start, are UTF-8 on their own.
const UTF8_PIECES: usize = 19;

/// Input drawn from `pieces`, after a matching header `k,t\n` unless
/// `raw_header`; with the pieces that are not UTF-8 alone only when
/// `invalid_utf8`.
fn csv_input(pieces: &[usize], raw_header: bool, invalid_utf8: bool) -> Vec<u8> {
    let mut input = if raw_header { Vec::new() } else { b"k,t\n".to_vec() };
    let drawn = if invalid_utf8 { CSV_PIECES.len() } else { UTF8_PIECES };
    for &p in pieces {
        input.extend_from_slice(CSV_PIECES[p % drawn]);
    }
    input
}

/// `read_csv`'s relation, or its error message, in a form that compares
/// columns, codes and dictionary order exactly.
fn csv_outcome(result: Result<Relation, RelationError>) -> Result<String, String> {
    let rel = result.map_err(|e| e.to_string())?;
    let columns: Vec<String> = (0..rel.schema().arity())
        .map(|i| match rel.column(i) {
            ColumnView::Int(xs) => format!("{xs:?}"),
            ColumnView::Text { codes, dict } => format!("{codes:?} {:?}", dict.entries()),
        })
        .collect();
    Ok(format!("{:?} {columns:?}", rel.schema()))
}

/// Whether the reference stops at an unterminated quote on a line that
/// a newline ends. There the streaming reader reads the newline as part
/// of the quoted field instead: the one intended difference. (When the
/// unterminated line is the last, dropping it changes the outcome.)
fn quoted_newline(input: &[u8], outcome: &Result<String, String>) -> bool {
    let unterminated = |o: &Result<String, String>| {
        o.as_ref().is_err_and(|msg| msg.contains("unterminated quote"))
    };
    let Some(last_newline) = input.iter().rposition(|&b| b == b'\n') else { return false };
    let head = &input[..=last_newline];
    unterminated(outcome)
        && unterminated(&csv_outcome(reference::read_csv(schema_kt(), &mut &head[..])))
}

fn schema_kt() -> Schema {
    Schema::builder()
        .key_attr("k", AttrType::Integer)
        .categorical_attr("t", AttrType::Text)
        .build()
        .unwrap()
}

/// A session keyed on the text `name` column and marking the text
/// `city` column.
fn text_session(rel: &Relation) -> MarkSession {
    let domain =
        CategoricalDomain::new(["", "a", "é", "x", "y"].map(Value::from).to_vec()).unwrap();
    let spec = WatermarkSpec::builder(domain)
        .master_key("whole-identity")
        .e(2)
        .wm_len(4)
        .wm_data_len(8)
        .build()
        .unwrap();
    MarkSession::builder(spec).key_column("name").target_column("city").bind(rel).unwrap()
}

/// `decode_certified`'s bundle for `rel` under [`text_session`].
fn certify_whole(rel: &Relation) -> Vec<u8> {
    text_session(rel).decode_certified(rel).unwrap().bundle
}

/// A relation of random rows under the `name, city, n, m` schema.
fn text_relation(rows: &[(String, String, i64, i64)]) -> Relation {
    let schema = Schema::builder()
        .key_attr("name", AttrType::Text)
        .categorical_attr("city", AttrType::Text)
        .attr("n", AttrType::Integer)
        .attr("m", AttrType::Integer)
        .build()
        .unwrap();
    let mut rel = Relation::new(schema);
    for (name, city, n, m) in rows {
        rel.push_unchecked_key(vec![
            Value::Text(name.clone()),
            Value::Text(city.clone()),
            Value::Int(*n),
            Value::Int(*m),
        ])
        .unwrap();
    }
    rel
}

/// Rows per block the block reader and the block drivers are run at.
const BLOCK_SIZES: [usize; 4] = [1, 2, 3, 7];

/// `read_csv_blocks` at `rows` rows per block, its blocks appended in
/// order. Every block but the last must be full, and the last empty
/// only when it is the only one.
fn read_blocks(schema: Schema, input: &mut dyn BufRead, rows: usize) -> Result<Relation, String> {
    let mut whole = Relation::new(schema.clone());
    let mut sizes = Vec::new();
    read_csv_blocks(schema, &mut { input }, rows, |block| {
        sizes.push(block.len());
        whole.append(&block).unwrap();
    })
    .map_err(|e| e.to_string())?;
    let (last, full) = sizes.split_last().expect("the last block is always handed over");
    assert!(full.iter().all(|&n| n == rows), "short block before the last: {sizes:?}");
    assert!(*last > 0 || full.is_empty(), "empty last block after others: {sizes:?}");
    Ok(whole)
}

/// Hand `rel`'s rows to `push` in blocks of `rows`, as a block driver's
/// source; an empty relation is one empty block.
fn blocks_of(rel: &Relation, rows: usize, push: &mut dyn FnMut(Relation)) -> Result<(), CoreError> {
    let all: Vec<usize> = (0..rel.len()).collect();
    if all.is_empty() {
        push(rel.clone());
    }
    for chunk in all.chunks(rows) {
        push(rel.gather(chunk));
    }
    Ok(())
}

/// Run `read` over `input` whole, then through buffers of one byte and
/// of seven bytes, so every record straddles a buffer boundary.
fn through_buffers<T>(input: &[u8], mut read: impl FnMut(&mut dyn BufRead) -> T) -> [T; 3] {
    [
        read(&mut &input[..]),
        read(&mut BufReader::with_capacity(1, input)),
        read(&mut BufReader::with_capacity(7, input)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Whatever `write_csv` writes, `read_csv` reads back to equal
    /// columns: text built from separators, quotes, `\n`, `\r`, spaces,
    /// non-ASCII letters and letters, and negative integers. (The
    /// line-based reader split quoted newlines and dropped a trailing
    /// `\r`.)
    #[test]
    fn csv_reads_back_everything_it_writes(
        rows in prop::collection::vec(
            ("[,\"\n\r éab]{0,8}", "[,\"\n\r éxy]{0,6}", any::<i64>(), -1000i64..1000),
            0..30,
        ),
    ) {
        let schema = Schema::builder()
            .key_attr("name", AttrType::Text)
            .categorical_attr("city", AttrType::Text)
            .attr("n", AttrType::Integer)
            .attr("m", AttrType::Integer)
            .build()
            .unwrap();
        let mut rel = Relation::new(schema.clone());
        for (name, city, n, m) in &rows {
            rel.push_unchecked_key(vec![
                Value::Text(name.clone()),
                Value::Text(city.clone()),
                Value::Int(*n),
                Value::Int(*m),
            ])
            .unwrap();
        }
        let mut csv = Vec::new();
        write_csv(&rel, &mut csv).unwrap();
        for parsed in through_buffers(&csv, |mut r| read_csv(schema.clone(), &mut r).unwrap()) {
            prop_assert_eq!(parsed.len(), rel.len());
            for attr in 0..schema.arity() {
                prop_assert!(parsed.column(attr) == rel.column(attr), "column {} drifted", attr);
            }
        }
    }

    /// A whole-relation evidence bundle commits to SHA-256 over every
    /// value's `canonical_bytes()` in row-major order, text columns
    /// included, and that identity does not depend on how the text
    /// dictionaries are laid out: the same rows rebuilt from columns
    /// whose dictionaries are permuted and hold unused entries certify
    /// to the same bundle.
    #[test]
    fn whole_identity_hashes_logical_rows(
        rows in prop::collection::vec(
            ("[,\"\n\r éab]{0,8}", "[,\"\n\r éxy]{0,6}", any::<i64>(), -1000i64..1000),
            0..30,
        ),
    ) {
        let rel = text_relation(&rows);
        let schema = rel.schema().clone();
        let mut reference = HashAlgorithm::Sha256.hasher();
        for row in 0..rel.len() {
            for attr in 0..schema.arity() {
                reference.update(&rel.value(row, attr).unwrap().canonical_bytes());
            }
        }
        let expected = format!(
            "whole relation, {} rows, sha256 {}",
            rel.len(),
            to_hex(&reference.finalize_vec())
        );
        let bundle = certify_whole(&rel);
        prop_assert_eq!(verify_evidence(&bundle).unwrap().relation, expected);

        // Each text dictionary: an unused entry, the column's values in
        // reverse order of first appearance, then another unused entry.
        let columns = (0..schema.arity())
            .map(|attr| match rel.column(attr) {
                ColumnView::Int(xs) => Column::Int(xs.to_vec()),
                ColumnView::Text { codes, dict } => {
                    let mut seen: Vec<&str> = Vec::new();
                    for &code in codes {
                        if !seen.contains(&dict.get(code)) {
                            seen.push(dict.get(code));
                        }
                    }
                    let mut permuted = Dictionary::new();
                    permuted.intern("UNUSED-FIRST");
                    for s in seen.iter().rev() {
                        permuted.intern(s);
                    }
                    permuted.intern("UNUSED-LAST");
                    let codes =
                        codes.iter().map(|&c| permuted.code_of(dict.get(c)).unwrap()).collect();
                    Column::Text { codes, dict: permuted }
                }
            })
            .collect();
        let rebuilt = Relation::from_columns(schema, columns).unwrap();
        prop_assert_eq!(certify_whole(&rebuilt), bundle);
    }

    /// The streaming reader returns what the line-based reader it
    /// replaced returns — the same schema, columns and dictionary order,
    /// or the same error message — on random input: blank lines, CRLF,
    /// ragged rows, stray and unterminated quotes, bad integers and
    /// invalid UTF-8. Input with a newline inside quotes is the one
    /// exception. Each case also runs through 1- and 7-byte buffers.
    #[test]
    fn streaming_reader_matches_the_line_reader(
        pieces in prop::collection::vec(0..CSV_PIECES.len(), 0..16),
        raw_header in 0..4,
        invalid_utf8 in any::<bool>(),
    ) {
        let input = csv_input(&pieces, raw_header == 0, invalid_utf8);
        let expected = csv_outcome(reference::read_csv(schema_kt(), &mut &input[..]));
        for outcome in through_buffers(&input, |mut r| csv_outcome(read_csv(schema_kt(), &mut r))) {
            // A quote error quotes one line, however far an open quote ran.
            let quote_error = outcome.as_ref().err().filter(|m| m.contains(" quote in "));
            prop_assert!(!quote_error.is_some_and(|m| m.contains("\\n")), "{:?}", quote_error);
            if !quoted_newline(&input, &expected) {
                prop_assert_eq!(&outcome, &expected);
            }
        }
        // The block reader's blocks make up `read_csv`'s relation, and it
        // fails as `read_csv` fails.
        let whole = read_csv(schema_kt(), &mut &input[..]).map_err(|e| e.to_string());
        for rows in BLOCK_SIZES {
            for blocks in through_buffers(&input, |r| read_blocks(schema_kt(), r, rows)) {
                prop_assert_eq!(&blocks, &whole, "{} rows per block", rows);
            }
        }
        // Inference too, and a read under the inferred schema.
        let inferred = reference::infer_schema(&mut &input[..], &["t"]).map_err(|e| e.to_string());
        let newline_in_quotes = inferred.as_ref().is_err_and(|m| m.contains("unterminated"));
        if !newline_in_quotes && !quoted_newline(&input, &expected) {
            let schemas = through_buffers(&input, |mut r| {
                catmark::relation::csv::infer_schema(&mut r, &["t"]).map_err(|e| e.to_string())
            });
            for schema in &schemas {
                prop_assert_eq!(schema, &inferred);
            }
            if let Ok(schema) = inferred {
                let expected = csv_outcome(reference::read_csv(schema.clone(), &mut &input[..]));
                for outcome in through_buffers(&input, |mut r| {
                    csv_outcome(read_csv(schema.clone(), &mut r))
                }) {
                    prop_assert_eq!(&outcome, &expected);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The block drivers, fed the relations of
    /// `whole_identity_hashes_logical_rows` in blocks of 1, 2, 3 and 7
    /// rows, give the in-memory drivers' marked bytes and reports and
    /// both certified bundles byte for byte.
    #[test]
    fn block_drivers_match_the_in_memory_drivers(
        rows in prop::collection::vec(
            ("[,\"\n\r éab]{0,8}", "[,\"\n\r éxy]{0,6}", any::<i64>(), -1000i64..1000),
            0..30,
        ),
    ) {
        let rel = text_relation(&rows);
        let session = text_session(&rel);
        let wm = Watermark::from_u64(0b1011, 4);
        let mut marked = rel.clone();
        let report = session.embed(&mut marked, &wm).unwrap();
        let mut bytes = Vec::new();
        write_csv(&marked, &mut bytes).unwrap();
        let decoded = session.decode(&marked).unwrap();
        let plain = session.decode_certified(&marked).unwrap().bundle;
        let claimed = session.detect_certified(&marked, &wm).unwrap().bundle;
        for size in BLOCK_SIZES {
            let mut streamed = Vec::new();
            let streamed_report = session
                .embed_blocks(
                    &wm,
                    |push| blocks_of(&rel, size, push),
                    |index, block| {
                        let mut out = Vec::new();
                        if index == 0 {
                            write_csv(block, &mut out).unwrap();
                        } else {
                            write_csv_rows(block, &mut out).unwrap();
                        }
                        out
                    },
                    |out| streamed.extend(out),
                )
                .unwrap();
            prop_assert_eq!(&streamed_report, &report, "{} rows per block", size);
            prop_assert!(streamed == bytes, "marked bytes differ at {} rows per block", size);
            let source = |push: &mut dyn FnMut(Relation)| blocks_of(&marked, size, push);
            prop_assert_eq!(&session.decode_blocks(source).unwrap(), &decoded);
            let bundle = session.decode_blocks_certified(None, source).unwrap().bundle;
            prop_assert!(bundle == plain, "plain bundle differs at {} rows per block", size);
            let bundle = session.decode_blocks_certified(Some(&wm), source).unwrap().bundle;
            prop_assert!(bundle == claimed, "claim bundle differs at {} rows per block", size);
        }
    }
}
