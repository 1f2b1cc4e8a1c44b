//! CSV import and export for relations, column-native and streaming.
//!
//! The dialect is RFC 4180's: comma separation, a header row of
//! attribute names, and double-quote quoting with `""` for a literal
//! quote. A quoted field may hold commas, quotes and newlines. LF and
//! CRLF line endings are both read. Implemented here rather than via an
//! external crate to stay within the approved dependency set.
//!
//! # Reading
//!
//! [`read_csv_blocks`] reads the buffers its reader's `fill_buf`
//! returns and hands over the rows in blocks of a given size;
//! [`read_csv`] is its one-block case. A record ends at a newline
//! outside quotes. A plain record (every field unquoted and well
//! formed, no `\r` before its newline) goes from the buffer into the
//! columns in one pass: integers into the column's `Vec<i64>`, text
//! interned into its [`crate::Dictionary`], so codes follow first
//! appearance. Any other record, and one that straddles
//! two buffers, goes through a quote-aware splitter. No `String` is
//! made per field and no tuple per row. Beyond the block being built,
//! memory holds one buffer and at most one record: only a record
//! that straddles two buffers is copied. A record is as long as its
//! quoted fields, so a very long quoted field, or a quote that never
//! closes (which runs the record to the end of the input), is held
//! whole.
//!
//! Parsing rules, kept from the line-based reader this replaced:
//!
//! * a `\r` before a record's newline is dropped, and then one more
//!   trailing `\r` (the last record, with no newline, loses one);
//! * blank records are skipped, except as the header;
//! * integers accept surrounding Unicode whitespace and a leading sign,
//!   exactly as `str::trim` then `i64::from_str` do;
//! * duplicate primary keys are tolerated: suspect data need not
//!   satisfy constraints.
//!
//! # Errors
//!
//! Every failure is a [`RelationError::Csv`] whose message is one of:
//!
//! * `missing header row` (no input), or `header [..] does not match
//!   schema attributes [..]`;
//! * `row N: k fields, expected a`, where `N` is the physical line the
//!   record starts on (the header is line 1);
//! * `stray quote in "…"` — a `"` inside an unquoted field — or
//!   `unterminated quote in "…"` at the end of the input, each quoting
//!   the record's first line;
//! * `bad integer "…": …`;
//! * `stream did not contain valid UTF-8`, for invalid UTF-8 in any
//!   record read (it takes precedence over the record's other errors);
//! * the reader's own I/O error text.
//!
//! # Writing
//!
//! [`write_csv`] writes the header, then the rows as
//! [`write_csv_rows`] writes them, so a file can be written one block
//! of rows at a time. Each text column's dictionary entries are escaped
//! once, then the escaped entry is copied for each cell's code and
//! integers are formatted in place. A field is quoted when it holds a
//! comma, a quote, `\n` or `\r`, so everything written reads back
//! unchanged. Output goes to the writer in pieces of about 8 KiB, so an
//! unbuffered `File` needs no `BufWriter`.

use std::borrow::Cow;
use std::io::{BufRead, ErrorKind, Write};

use crate::column::{Column, ColumnView};
use crate::{AttrType, Relation, RelationError, Schema};

/// [`write_csv`] hands its writer pieces of at least this size (the
/// last one excepted): the default capacity of `std::io::BufWriter`.
/// Larger pieces grow a `Vec` sink past its output's size.
const CHUNK: usize = 8 * 1024;

/// Records after the header that [`infer_schema`] samples.
const SAMPLE_RECORDS: usize = 100;

/// Write `rel` as CSV with a header row: the header, then the rows as
/// [`write_csv_rows`] writes them.
///
/// # Errors
///
/// Propagates I/O errors as [`RelationError::Csv`].
pub fn write_csv(rel: &Relation, out: &mut impl Write) -> Result<(), RelationError> {
    let mut buf = Vec::with_capacity(2 * CHUNK);
    let header: Vec<Cow<'_, str>> = rel.schema().attrs().iter().map(|a| escape(&a.name)).collect();
    buf.extend_from_slice(header.join(",").as_bytes());
    buf.push(b'\n');
    write_rows(rel, buf, out)
}

/// Write `rel`'s rows as CSV, without a header: one block of a file
/// that [`write_csv`] starts.
///
/// # Errors
///
/// Propagates I/O errors as [`RelationError::Csv`].
pub fn write_csv_rows(rel: &Relation, out: &mut impl Write) -> Result<(), RelationError> {
    write_rows(rel, Vec::with_capacity(2 * CHUNK), out)
}

/// Append `rel`'s rows to `buf`, handing `out` the bytes in pieces of
/// at least [`CHUNK`].
fn write_rows(rel: &Relation, mut buf: Vec<u8>, out: &mut impl Write) -> Result<(), RelationError> {
    let columns: Vec<Cells<'_>> = (0..rel.schema().arity())
        .map(|i| match rel.column(i) {
            ColumnView::Int(xs) => Cells::Int(xs),
            ColumnView::Text { codes, dict } => {
                Cells::Text(codes, dict.entries().iter().map(|e| escape(e)).collect())
            }
        })
        .collect();
    for row in 0..rel.len() {
        for (i, cells) in columns.iter().enumerate() {
            if i > 0 {
                buf.push(b',');
            }
            match cells {
                Cells::Int(xs) => push_int(&mut buf, xs[row]),
                Cells::Text(codes, entries) => {
                    buf.extend_from_slice(entries[codes[row] as usize].as_bytes());
                }
            }
        }
        buf.push(b'\n');
        if buf.len() >= CHUNK {
            out.write_all(&buf).map_err(io_error)?;
            buf.clear();
        }
    }
    out.write_all(&buf).map_err(io_error)
}

/// One column as [`write_csv`] renders it.
enum Cells<'a> {
    Int(&'a [i64]),
    /// Codes, and each dictionary entry already escaped.
    Text(&'a [u32], Vec<Cow<'a, str>>),
}

/// `field` as it appears in CSV: quoted, with quotes doubled, when it
/// holds a separator, a quote or a line-ending byte.
fn escape(field: &str) -> Cow<'_, str> {
    if field.contains([',', '"', '\n', '\r']) {
        Cow::Owned(format!("\"{}\"", field.replace('"', "\"\"")))
    } else {
        Cow::Borrowed(field)
    }
}

/// Append `v` in decimal.
fn push_int(buf: &mut Vec<u8>, v: i64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    let mut n = v.unsigned_abs();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    if v < 0 {
        buf.push(b'-');
    }
    buf.extend_from_slice(&digits[at..]);
}

/// Read a relation from CSV produced by [`write_csv`] (or compatible),
/// validating the header against `schema` and parsing each field
/// according to its attribute type. Duplicate primary keys are
/// tolerated (suspect data need not satisfy constraints). This is
/// [`read_csv_blocks`] with the whole input as one block.
///
/// # Errors
///
/// [`RelationError::Csv`] on malformed input, with the messages listed
/// in the [module docs](self).
pub fn read_csv(schema: Schema, input: &mut impl BufRead) -> Result<Relation, RelationError> {
    let mut whole = None;
    read_csv_blocks(schema, input, usize::MAX, |block| whole = Some(block))?;
    Ok(whole.expect("the last block is always handed over"))
}

/// [`read_csv`] in blocks: hand `each` the rows, in order, as
/// relations of `block_rows` rows (at least 1). Every block is full but
/// the last, which holds the rest and is handed over once the input
/// ends; an input with no data rows gives one empty block. Each block
/// owns its text dictionaries, which may also hold entries of earlier
/// blocks. Errors are [`read_csv`]'s, with the same line numbers. A full
/// block is handed over when the next record starts, so the last block
/// reaches `each` only once the whole input has read without error.
///
/// # Errors
///
/// As [`read_csv`].
pub fn read_csv_blocks(
    schema: Schema,
    input: &mut impl BufRead,
    block_rows: usize,
    mut each: impl FnMut(Relation),
) -> Result<(), RelationError> {
    let mut table = Table::new(&schema, block_rows.max(1));
    let mut seen_header = false;
    for_each_record(input, &mut table, Table::push_plain, |table, rec| {
        if !seen_header {
            seen_header = true;
            let header = rec.texts()?;
            let expected: Vec<&str> = schema.attrs().iter().map(|a| a.name.as_str()).collect();
            if header != expected {
                return Err(RelationError::Csv(format!(
                    "header {header:?} does not match schema attributes {expected:?}"
                )));
            }
        } else if !rec.line().is_empty() {
            if table.is_full() {
                each(Relation::from_columns(schema.clone(), table.take(&schema))?);
            }
            table.push_record(rec).map_err(|e| rec.utf8_first(e))?;
        }
        Ok(true)
    })?;
    if !seen_header {
        return Err(RelationError::Csv("missing header row".into()));
    }
    each(Relation::from_columns(schema, table.columns)?);
    Ok(())
}

/// The columns of the block [`read_csv_blocks`] fills.
struct Table {
    columns: Vec<Column>,
    /// The entries each column's dictionary held when the block began.
    carried: Vec<usize>,
    /// Rows a block holds.
    block_rows: usize,
}

impl Table {
    fn new(schema: &Schema, block_rows: usize) -> Self {
        // A bounded block is allocated whole; an unbounded one grows.
        let capacity = if block_rows < usize::MAX { block_rows } else { 0 };
        let columns =
            schema.attrs().iter().map(|a| Column::with_capacity(a.ty, capacity)).collect();
        Table { columns, carried: vec![0; schema.arity()], block_rows }
    }

    fn rows(&self) -> usize {
        self.columns[0].len()
    }

    fn is_full(&self) -> bool {
        self.rows() >= self.block_rows
    }

    /// The full block's columns, leaving empty ones for the next. A
    /// text dictionary whose values repeat (the block added at most one
    /// entry per two rows) hands its entries on while it holds no more
    /// entries than a block has rows, so such a value is interned once
    /// per input rather than once per block, and no dictionary outgrows
    /// two blocks' worth of entries. A near-unique column starts each
    /// block empty.
    fn take(&mut self, schema: &Schema) -> Vec<Column> {
        let mut next = Table::new(schema, self.block_rows);
        let rows = self.rows();
        for (i, full) in self.columns.iter().enumerate() {
            if let (Column::Text { dict: into, .. }, Column::Text { dict, .. }) =
                (&mut next.columns[i], full)
            {
                let added = dict.len() - self.carried[i];
                if 2 * added <= rows && dict.len() <= self.block_rows {
                    into.clone_from(dict);
                    next.carried[i] = dict.len();
                }
            }
        }
        std::mem::replace(self, next).columns
    }

    /// Append the record at the start of `bytes` if it is plain: every
    /// field unquoted and well formed, no `\r` before the newline, and
    /// the newline within `bytes`. Plain records, nearly all of them,
    /// go from the buffer to the columns in one pass, without the
    /// [`Splitter`]. Returns the bytes taken, newline included; `None`
    /// leaves the columns as they were and the record to
    /// [`Table::push_record`], as does a full block.
    fn push_plain(&mut self, bytes: &[u8]) -> Option<usize> {
        let rows = self.rows();
        if rows >= self.block_rows {
            return None;
        }
        let taken = self.try_push_plain(bytes);
        if taken.is_none() {
            for column in &mut self.columns {
                match column {
                    Column::Int(xs) => xs.truncate(rows),
                    Column::Text { codes, .. } => codes.truncate(rows),
                }
            }
        }
        taken
    }

    fn try_push_plain(&mut self, bytes: &[u8]) -> Option<usize> {
        if bytes.first() == Some(&b'\n') {
            // A blank record, which the general path skips.
            return None;
        }
        let last = self.columns.len() - 1;
        let mut at = 0;
        for (i, column) in self.columns.iter_mut().enumerate() {
            let rest = &bytes[at..];
            let separator = if i == last { b'\n' } else { b',' };
            match column {
                Column::Int(xs) => {
                    let (v, len) = leading_int(rest)?;
                    if rest.get(len) != Some(&separator) {
                        return None;
                    }
                    xs.push(v);
                    at += len + 1;
                }
                Column::Text { codes, dict } => {
                    let len = plain_prefix(rest);
                    let text = std::str::from_utf8(&rest[..len]).ok()?;
                    if rest.get(len) != Some(&separator) || text.ends_with('\r') {
                        return None;
                    }
                    // Interned only once known whole, so a record the
                    // general path takes over leaves the dictionary as
                    // that path alone would.
                    codes.push(dict.intern(text));
                    at += len + 1;
                }
            }
        }
        Some(at)
    }

    /// Append one data record's fields, through the [`Splitter`]'s
    /// field boundaries.
    fn push_record(&mut self, rec: &Record<'_>) -> Result<(), RelationError> {
        rec.check_quotes()?;
        let fields = rec.split.commas.len() + 1;
        if fields != self.columns.len() {
            return Err(RelationError::Csv(format!(
                "row {}: {fields} fields, expected {}",
                rec.line_no,
                self.columns.len()
            )));
        }
        for (raw, column) in rec.fields().zip(&mut self.columns) {
            match column {
                Column::Int(xs) => xs.push(int(raw)?),
                Column::Text { codes, dict } => codes.push(dict.intern(&text(raw)?)),
            }
        }
        Ok(())
    }
}

/// Infer a [`Schema`] from a CSV stream: the header row names the
/// attributes, and a column's type is sniffed from up to 100 sampled
/// records (Integer when every sampled value parses as `i64`, Text
/// otherwise). The first column becomes the primary key; columns named
/// in `cat_attrs` are flagged categorical.
///
/// Inference consumes the stream — re-open (or re-borrow) the input
/// before handing it to [`read_csv`], or use [`read_csv_inferred`] for
/// in-memory text.
///
/// # Errors
///
/// [`RelationError::Csv`] on an empty stream, a malformed header, or a
/// malformed sampled record.
pub fn infer_schema(input: &mut impl BufRead, cat_attrs: &[&str]) -> Result<Schema, RelationError> {
    let mut names: Option<Vec<String>> = None;
    let mut integral = Vec::new();
    let mut sampled = 0;
    for_each_record(
        input,
        &mut (),
        |(), _| None,
        |(), rec| {
            if names.is_none() {
                let header = rec.texts()?;
                if header.iter().any(String::is_empty) {
                    let line = utf8(rec.line())?;
                    return Err(RelationError::Csv(format!("malformed header {line:?}")));
                }
                integral = vec![true; header.len()];
                names = Some(header);
                return Ok(true);
            }
            sampled += 1;
            if !utf8(rec.line())?.trim().is_empty() {
                rec.check_quotes()?;
                for (raw, integral) in rec.fields().zip(integral.iter_mut()) {
                    *integral &= int(raw).is_ok();
                }
            }
            Ok(sampled < SAMPLE_RECORDS)
        },
    )?;
    let names = names.ok_or_else(|| RelationError::Csv("empty input".into()))?;
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

/// [`infer_schema`] + [`read_csv`] over in-memory text — the one-call
/// import for payloads that arrive as strings (the service protocol's
/// inline CSV).
///
/// # Errors
///
/// As [`infer_schema`] and [`read_csv`].
pub fn read_csv_inferred(text: &str, cat_attrs: &[&str]) -> Result<Relation, RelationError> {
    let schema = infer_schema(&mut text.as_bytes(), cat_attrs)?;
    read_csv(schema, &mut text.as_bytes())
}

fn io_error(e: std::io::Error) -> RelationError {
    RelationError::Csv(e.to_string())
}

/// The error for invalid UTF-8, worded as `BufRead::lines` words it.
fn utf8_error() -> RelationError {
    RelationError::Csv("stream did not contain valid UTF-8".into())
}

fn utf8(bytes: &[u8]) -> Result<&str, RelationError> {
    std::str::from_utf8(bytes).map_err(|_| utf8_error())
}

/// A field's text: validated as UTF-8 in its raw form, then unquoted
/// (`""` read as `"`) when it opens with a quote.
fn text(raw: &[u8]) -> Result<Cow<'_, str>, RelationError> {
    let raw = utf8(raw)?;
    let Some(mut rest) = raw.strip_prefix('"') else {
        return Ok(Cow::Borrowed(raw));
    };
    // The splitter admitted this field, so its quote closes (the last
    // field's is checked by `check_quotes`) and only `""` pairs sit
    // before that.
    let mut out = String::with_capacity(rest.len());
    while let Some(q) = rest.find('"') {
        out.push_str(&rest[..q]);
        if rest[q + 1..].starts_with('"') {
            out.push('"');
            rest = &rest[q + 2..];
        } else {
            rest = &rest[q + 1..];
            break;
        }
    }
    out.push_str(rest);
    Ok(Cow::Owned(out))
}

/// An integer field: [`leading_int`] when that takes the whole field,
/// else `str::trim` and `i64::from_str`, so both accept the same
/// inputs.
fn int(raw: &[u8]) -> Result<i64, RelationError> {
    match leading_int(raw) {
        Some((v, len)) if len == raw.len() => Ok(v),
        _ => {
            let text = text(raw)?;
            text.trim()
                .parse::<i64>()
                .map_err(|e| RelationError::Csv(format!("bad integer {text:?}: {e}")))
        }
    }
}

/// An optional `-` and 1 to 18 ASCII digits (which cannot overflow) at
/// the start of `bytes`, not followed by another digit: their value and
/// length.
fn leading_int(bytes: &[u8]) -> Option<(i64, usize)> {
    if let Some(word) = bytes.first_chunk::<8>() {
        if let Some(parsed) = short_uint(u64::from_le_bytes(*word)) {
            return Some(parsed);
        }
    }
    let sign = usize::from(bytes.first() == Some(&b'-'));
    let mut v = 0i64;
    let mut end = sign;
    while let Some(&d) = bytes.get(end).filter(|d| d.is_ascii_digit() && end - sign < 18) {
        v = v * 10 + i64::from(d - b'0');
        end += 1;
    }
    if end == sign || bytes.get(end).is_some_and(u8::is_ascii_digit) {
        return None;
    }
    Some((if sign == 1 { -v } else { v }, end))
}

/// [`leading_int`] for 1 to 7 digits and no sign, read from the 8 bytes
/// at the field's start as one little-endian word; `None` for any other
/// field. Most integer fields of a CSV take this path: one word test
/// finds where the digits end, and three multiplies combine them.
fn short_uint(word: u64) -> Option<(i64, usize)> {
    const LOW: u64 = 0x0101_0101_0101_0101;
    // A byte is a digit iff its high nibble is 3 and adding 6 keeps it
    // 3: those bytes read 0x33 here. A carry out of a byte above 0xf9
    // can only reach later bytes, past the first non-digit.
    let nibbles = (word & (0xf0 * LOW)) | ((word.wrapping_add(0x06 * LOW) & (0xf0 * LOW)) >> 4);
    let len = ((nibbles ^ (0x33 * LOW)).trailing_zeros() / 8) as usize;
    if !(1..8).contains(&len) {
        return None;
    }
    // The digits' values, shifted to the top so the bytes below them
    // read as leading zeros of an 8-digit number, then combined in
    // pairs, quads and the whole.
    let digits = (word & (0x0f * LOW)) << (8 * (8 - len));
    let pairs = (digits.wrapping_mul((10 << 8) + 1) >> 8) & 0x00ff_00ff_00ff_00ff;
    let quads = (pairs.wrapping_mul((100 << 16) + 1) >> 16) & 0x0000_ffff_0000_ffff;
    let value = quads.wrapping_mul((10_000 << 32) + 1) >> 32;
    Some((value as i64, len))
}

/// One record, borrowed from the reader's buffer or, when it straddled
/// two buffers, from a copy.
struct Record<'a> {
    /// The record's bytes, less the newline that ended it.
    bytes: &'a [u8],
    /// The physical line the record starts on; the header is line 1.
    line_no: usize,
    /// Whether a newline ended it (the last record may run to the end
    /// of the input).
    terminated: bool,
    split: &'a Splitter,
}

impl Record<'_> {
    /// The record as `BufRead::lines` yields it: a `\r` before the
    /// newline dropped.
    fn line(&self) -> &[u8] {
        if self.terminated {
            strip_cr(self.bytes)
        } else {
            self.bytes
        }
    }

    /// The bytes split into fields: one more trailing `\r` dropped.
    fn content(&self) -> &[u8] {
        strip_cr(self.line())
    }

    /// Each field's raw bytes, quotes included.
    fn fields(&self) -> impl Iterator<Item = &[u8]> {
        let content = self.content();
        let mut start = 0;
        self.split.commas.iter().copied().chain([content.len()]).map(move |end| {
            let field = &content[start..end];
            start = end + 1;
            field
        })
    }

    /// Every field's text (the header's names).
    fn texts(&self) -> Result<Vec<String>, RelationError> {
        self.check_quotes()?;
        self.fields().map(|raw| text(raw).map(Cow::into_owned)).collect::<Result<_, _>>()
    }

    /// A stray quote anywhere, or a quote still open at the end of the
    /// input, is an error naming the record by its first line, as the
    /// line-based reader did. (A quote left open runs the record to the
    /// end of the input.)
    fn check_quotes(&self) -> Result<(), RelationError> {
        let problem = match self.split.quote {
            Quote::Stray => "stray",
            Quote::Open => "unterminated",
            Quote::FieldStart | Quote::Plain | Quote::Closing => return Ok(()),
        };
        let first = match self.bytes.iter().position(|&b| b == b'\n') {
            Some(end) => strip_cr(strip_cr(&self.bytes[..end])),
            None => self.content(),
        };
        let first = utf8(first)?;
        Err(RelationError::Csv(format!("{problem} quote in {first:?}")))
    }

    /// `err`, unless the record is not UTF-8: that error comes first.
    fn utf8_first(&self, err: RelationError) -> RelationError {
        utf8(self.bytes).err().unwrap_or(err)
    }
}

fn strip_cr(bytes: &[u8]) -> &[u8] {
    bytes.strip_suffix(b"\r").unwrap_or(bytes)
}

/// Where the scan of the record in progress stands.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum Quote {
    /// At a field's first byte, where a `"` opens a quoted field.
    #[default]
    FieldStart,
    /// In an unquoted field, or after a quoted field closed.
    Plain,
    /// Inside quotes.
    Open,
    /// Inside quotes just after a `"`: a second `"` is a literal quote,
    /// anything else closes the field's quotes.
    Closing,
    /// A `"` inside an unquoted field: the record is malformed, and ends
    /// at the next newline.
    Stray,
}

/// Finds where records end and where their fields split, carrying its
/// state across buffer boundaries.
#[derive(Default)]
struct Splitter {
    quote: Quote,
    /// Offsets in the record of the commas outside quotes.
    commas: Vec<usize>,
    /// Newlines inside quotes: the record spans that many more lines.
    quoted_newlines: usize,
}

impl Splitter {
    /// Scan `bytes`, which continue the current record at offset
    /// `base`. Returns the index in `bytes` of the newline that ends
    /// the record, if it ends there.
    fn scan(&mut self, bytes: &[u8], base: usize) -> Option<usize> {
        let mut quote = self.quote;
        for (i, &b) in bytes.iter().enumerate() {
            quote = match (quote, b) {
                (Quote::Open, b'"') => Quote::Closing,
                (Quote::Open, b'\n') => {
                    self.quoted_newlines += 1;
                    Quote::Open
                }
                (Quote::Open, _) => Quote::Open,
                (_, b'\n') => {
                    self.quote = quote;
                    return Some(i);
                }
                (Quote::Stray, _) => Quote::Stray,
                (_, b',') => {
                    self.commas.push(base + i);
                    Quote::FieldStart
                }
                (Quote::FieldStart | Quote::Closing, b'"') => Quote::Open,
                (Quote::Plain, b'"') => Quote::Stray,
                _ => Quote::Plain,
            };
        }
        self.quote = quote;
        None
    }

    /// Ready for the next record.
    fn reset(&mut self) {
        self.quote = Quote::FieldStart;
        self.commas.clear();
        self.quoted_newlines = 0;
    }
}

/// The length of the longest prefix of `bytes` holding no `,`, `"` or
/// `\n`.
fn plain_prefix(bytes: &[u8]) -> usize {
    bytes.iter().position(|b| matches!(b, b',' | b'"' | b'\n')).unwrap_or(bytes.len())
}

/// Hand each record of `input` to `visit`, in order, until the input
/// ends or `visit` returns `Ok(false)`. Every record but the first that
/// starts inside the current buffer is offered to `plain` first, which
/// either takes it straight from the buffer (returning the bytes it
/// took, newline included) or returns `None`, and the record goes
/// through the [`Splitter`] to `visit`.
fn for_each_record<R: BufRead + ?Sized, S>(
    input: &mut R,
    state: &mut S,
    plain: impl Fn(&mut S, &[u8]) -> Option<usize>,
    mut visit: impl FnMut(&mut S, &Record<'_>) -> Result<bool, RelationError>,
) -> Result<(), RelationError> {
    let mut split = Splitter::default();
    // The start of a record that straddles buffers.
    let mut carry = Vec::new();
    let mut line_no = 1;
    loop {
        let buf = match input.fill_buf() {
            Ok(buf) => buf,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(io_error(e)),
        };
        if buf.is_empty() {
            break;
        }
        let len = buf.len();
        let mut start = 0;
        loop {
            if carry.is_empty() && line_no > 1 {
                while let Some(taken) = plain(state, &buf[start..]) {
                    start += taken;
                    line_no += 1;
                }
            }
            let Some(end) = split.scan(&buf[start..], carry.len()) else { break };
            let bytes = if carry.is_empty() {
                &buf[start..start + end]
            } else {
                carry.extend_from_slice(&buf[start..start + end]);
                &carry
            };
            let more = visit(state, &Record { bytes, line_no, terminated: true, split: &split })?;
            line_no += 1 + split.quoted_newlines;
            split.reset();
            carry.clear();
            start += end + 1;
            if !more {
                return Ok(());
            }
        }
        carry.extend_from_slice(&buf[start..]);
        input.consume(len);
    }
    if !carry.is_empty() {
        visit(state, &Record { bytes: &carry, line_no, terminated: false, split: &split })?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AttrType, Value};
    use std::io::BufReader;

    fn schema() -> Schema {
        Schema::builder()
            .key_attr("k", AttrType::Integer)
            .categorical_attr("city", AttrType::Text)
            .build()
            .unwrap()
    }

    fn sample() -> Relation {
        let mut rel = Relation::new(schema());
        rel.push(vec![Value::Int(1), Value::Text("chicago".into())]).unwrap();
        rel.push(vec![Value::Int(2), Value::Text("san, jose".into())]).unwrap();
        rel.push(vec![Value::Int(3), Value::Text("o\"hare".into())]).unwrap();
        rel
    }

    fn read(data: &[u8]) -> Result<Relation, RelationError> {
        read_csv(schema(), &mut BufReader::new(data))
    }

    fn error(data: &[u8]) -> String {
        match read(data) {
            Err(RelationError::Csv(msg)) => msg,
            other => panic!("expected a CSV error, got {other:?}"),
        }
    }

    #[test]
    fn round_trip_with_quoting() {
        let rel = sample();
        let mut buf = Vec::new();
        write_csv(&rel, &mut buf).unwrap();
        assert_eq!(read(&buf).unwrap(), rel);
    }

    #[test]
    fn blocks_hand_on_only_dictionaries_whose_values_repeat() {
        // The dictionary length of each 4-row block of 16 rows.
        let dict_lens = |city: fn(usize) -> String| {
            let mut csv = String::from("k,city\n");
            for k in 0..16 {
                csv += &format!("{k},{}\n", city(k));
            }
            let mut lens = Vec::new();
            read_csv_blocks(schema(), &mut csv.as_bytes(), 4, |block| match block.column(1) {
                ColumnView::Text { dict, .. } => lens.push(dict.len()),
                ColumnView::Int(_) => unreachable!("city is text"),
            })
            .unwrap();
            lens
        };
        // Repeating values: entries carry on although later blocks use
        // only `z`.
        assert_eq!(dict_lens(|k| if k < 4 { ["x", "y"][k % 2] } else { "z" }.into()), [2, 3, 3, 3]);
        // Unique values: every block starts empty.
        assert_eq!(dict_lens(|k| format!("c{k}")), [4, 4, 4, 4]);
        // Each value twice: carried until a dictionary outgrows a block.
        assert_eq!(dict_lens(|k| format!("p{}", k / 2)), [2, 4, 6, 2]);
    }

    #[test]
    fn quoted_newlines_and_carriage_returns_round_trip() {
        let mut rel = Relation::new(schema());
        for (k, city) in [(1, "a\nb"), (2, "cr\r"), (3, "\r\n"), (4, "\"\n\"")] {
            rel.push(vec![Value::Int(k), Value::Text(city.into())]).unwrap();
        }
        let mut buf = Vec::new();
        write_csv(&rel, &mut buf).unwrap();
        assert!(buf.starts_with(b"k,city\n1,\"a\nb\"\n2,\"cr\r\"\n"));
        let parsed = read(&buf).unwrap();
        assert_eq!(parsed, rel);
        // A record spanning lines moves later row numbers down.
        assert_eq!(error(b"k,city\n1,\"a\nb\"\n2\n"), "row 4: 1 fields, expected 2");
    }

    #[test]
    fn integers_format_and_parse_at_the_extremes() {
        let schema = Schema::builder().key_attr("n", AttrType::Integer).build().unwrap();
        let mut rel = Relation::new(schema.clone());
        for n in [i64::MIN, -1, 0, 7, i64::MAX] {
            rel.push(vec![Value::Int(n)]).unwrap();
        }
        let mut buf = Vec::new();
        write_csv(&rel, &mut buf).unwrap();
        assert_eq!(buf, b"n\n-9223372036854775808\n-1\n0\n7\n9223372036854775807\n");
        let parsed = read_csv(schema, &mut buf.as_slice()).unwrap();
        assert_eq!(parsed, rel);
    }

    #[test]
    fn integers_accept_what_from_str_accepts_after_trim() {
        let rel = read(b"k,city\n 7 ,a\n+8,b\n\"9\",c\n-0,d\n").unwrap();
        let keys: Vec<i64> = rel.column_iter(0).map(|v| v.as_int().unwrap()).collect();
        assert_eq!(keys, [7, 8, 9, 0]);
        assert_eq!(error(b"k,city\nabc,a\n"), "bad integer \"abc\": invalid digit found in string");
        assert_eq!(
            error(b"k,city\n,a\n"),
            "bad integer \"\": cannot parse integer from empty string"
        );
        assert_eq!(
            error(b"k,city\n9223372036854775808,a\n"),
            "bad integer \"9223372036854775808\": number too large to fit in target type"
        );

        // Fields of 0 to 20 digits, signed or not, with or without a
        // leading zero, read one word at a time (up to 7 digits) or a
        // byte at a time. Each ends at every offset of a short slice,
        // the word read included, followed by a separator, a `\r`, a
        // letter, the byte after `9` or a byte past ASCII, then commas.
        for digits in 0..=20 {
            for (sign, zero) in [("", false), ("", true), ("-", false), ("-", true)] {
                let body: String = (0..digits)
                    .map(
                        |i| if zero && i == 0 { '0' } else { char::from(b'1' + (i * 7 % 9) as u8) },
                    )
                    .collect();
                let field = format!("{sign}{body}");
                let expected = field.parse::<i64>().ok().filter(|_| digits <= 18);
                for next in [b',', b'\n', b'\r', b'x', b':', 0xc3] {
                    for tail in 0..10 {
                        let mut bytes = field.clone().into_bytes();
                        bytes.extend([next].into_iter().chain([b','; 9]).take(tail));
                        let parsed = leading_int(&bytes);
                        assert_eq!(parsed.map(|(v, _)| v), expected, "{bytes:?}");
                        assert!(parsed.is_none_or(|(_, len)| len == field.len()), "{bytes:?}");
                    }
                }
                assert_eq!(int(field.as_bytes()).ok(), field.trim().parse::<i64>().ok(), "{field}");
                let csv = format!("k,city\n{field},a\n");
                let keys = read(csv.as_bytes()).map(|rel| rel.value(0, 0).unwrap());
                assert_eq!(keys.ok(), field.parse::<i64>().ok().map(Value::Int), "{field}");
            }
        }
    }

    #[test]
    fn writes_in_pieces_of_at_least_eight_kib() {
        struct Pieces(Vec<usize>);
        impl Write for Pieces {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.push(buf.len());
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let schema = Schema::builder().key_attr("n", AttrType::Integer).build().unwrap();
        let mut rel = Relation::new(schema);
        for n in 0..10_000 {
            rel.push(vec![Value::Int(n)]).unwrap();
        }
        let mut pieces = Pieces(Vec::new());
        write_csv(&rel, &mut pieces).unwrap();
        let (last, full) = pieces.0.split_last().unwrap();
        assert!(full.iter().all(|n| (CHUNK..CHUNK + 16).contains(n)), "{full:?}");
        assert_eq!(full.iter().sum::<usize>() + last, 48_892);
    }

    #[test]
    fn rejects_wrong_header() {
        assert_eq!(
            error(b"x,y\n1,2\n"),
            "header [\"x\", \"y\"] does not match schema attributes [\"k\", \"city\"]"
        );
    }

    #[test]
    fn rejects_missing_header() {
        assert_eq!(error(b""), "missing header row");
    }

    #[test]
    fn rejects_ragged_rows() {
        assert_eq!(error(b"k,city\n1\n"), "row 2: 1 fields, expected 2");
        assert_eq!(error(b"k,city\n\n1,a\n1,a,b\n"), "row 4: 3 fields, expected 2");
    }

    #[test]
    fn rejects_bad_types() {
        assert_eq!(
            error(b"k,city\nnot-a-number,chicago\n"),
            "bad integer \"not-a-number\": invalid digit found in string"
        );
    }

    #[test]
    fn rejects_bad_quotes_naming_the_record() {
        assert_eq!(error(b"k,city\n1,ab\"cd\r\n"), "stray quote in \"1,ab\\\"cd\"");
        assert_eq!(error(b"k,city\n1,\"open\r"), "unterminated quote in \"1,\\\"open\"");
    }

    #[test]
    fn an_unterminated_quote_names_only_its_first_line() {
        let mut data = b"k,city\n1,\"a\r\n".to_vec();
        for row in 0..10_000 {
            data.extend_from_slice(format!("{row},tail\n").as_bytes());
        }
        assert_eq!(error(&data), "unterminated quote in \"1,\\\"a\"");
    }

    #[test]
    fn retries_interrupted_reads() {
        struct Interrupts<'a>(&'a [u8], bool);
        impl std::io::Read for Interrupts<'_> {
            fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
                let n = self.fill_buf()?.read(out)?;
                self.consume(n);
                Ok(n)
            }
        }
        impl BufRead for Interrupts<'_> {
            fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
                if std::mem::take(&mut self.1) {
                    return Err(std::io::ErrorKind::Interrupted.into());
                }
                Ok(self.0)
            }
            fn consume(&mut self, n: usize) {
                self.0 = &self.0[n..];
                self.1 = true;
            }
        }
        let data = b"k,city\n1,chicago\n2,boston\n";
        assert_eq!(read_csv(schema(), &mut Interrupts(data, true)).unwrap().len(), 2);
        let schema = infer_schema(&mut Interrupts(data, true), &[]).unwrap();
        assert_eq!(schema.attr(1).ty, AttrType::Text);
    }

    #[test]
    fn invalid_utf8_comes_before_other_errors() {
        assert_eq!(error(b"k,city\nx,\xff\n"), "stream did not contain valid UTF-8");
        assert_eq!(error(b"k,city\n1,\"\xc3\"\xa9\"\n"), "stream did not contain valid UTF-8");
    }

    #[test]
    fn skips_blank_lines_and_handles_crlf() {
        let data = b"k,city\r\n1,chicago\r\n\r\n2,boston\r\n";
        let rel = read(data).unwrap();
        assert_eq!(rel.len(), 2);
        // A one-text-column record would otherwise read a blank line
        // as an empty value.
        let schema = Schema::builder().key_attr("t", AttrType::Text).build().unwrap();
        let rel = read_csv(schema, &mut &b"t\na\n\nb\n\r\n"[..]).unwrap();
        assert_eq!(rel.len(), 2);
    }

    #[test]
    fn tolerates_duplicate_keys() {
        let data = b"k,city\n1,chicago\n1,boston\n";
        let rel = read(data).unwrap();
        assert_eq!(rel.len(), 2);
        assert_eq!(rel.distinct_keys(), 1);
    }

    #[test]
    fn infer_schema_sniffs_types_and_roles() {
        let csv = "id,city,amount\n1,austin,10\n2,boston,20\n";
        let schema = infer_schema(&mut csv.as_bytes(), &["city"]).unwrap();
        assert_eq!(schema.key_attr().name, "id");
        assert_eq!(schema.attr(0).ty, AttrType::Integer);
        assert_eq!(schema.attr(1).ty, AttrType::Text);
        assert!(schema.attr(1).categorical);
        assert_eq!(schema.attr(2).ty, AttrType::Integer);
        assert!(!schema.attr(2).categorical);
        assert!(infer_schema(&mut "".as_bytes(), &["x"]).is_err());
        assert!(infer_schema(&mut "a,,c\n".as_bytes(), &["x"]).is_err());
    }

    #[test]
    fn infer_schema_samples_only_the_first_hundred_records() {
        let mut csv = String::from("id,n\n");
        for i in 0..100 {
            csv.push_str(&format!("{i},{i}\n"));
        }
        csv.push_str("100,not-a-number\n");
        let schema = infer_schema(&mut csv.as_bytes(), &[]).unwrap();
        assert_eq!(schema.attr(1).ty, AttrType::Integer);
    }

    #[test]
    fn read_csv_inferred_round_trips() {
        let rel = sample();
        let mut buf = Vec::new();
        write_csv(&rel, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let parsed = read_csv_inferred(&text, &["city"]).unwrap();
        assert!(parsed.schema().attr(1).categorical);
        assert_eq!(parsed, rel);
    }

    #[test]
    fn fields_unescape() {
        let one = |field: &str| {
            let schema = Schema::builder().key_attr("t", AttrType::Text).build().unwrap();
            let rel = read_csv(schema, &mut format!("t\n{field}\n").as_bytes()).unwrap();
            rel.value(0, 0).unwrap()
        };
        for (field, text) in [
            ("a b", "a b"),
            ("\"a,b\"", "a,b"),
            ("\"a\"\"b\"", "a\"b"),
            ("\"\"", ""),
            ("\"ab\"cd", "abcd"),
        ] {
            assert_eq!(one(field), Value::Text(text.into()));
        }
    }
}
