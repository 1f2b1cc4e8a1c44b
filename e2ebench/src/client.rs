//! The harness's side of the daemon protocol: framed JSON requests,
//! built with the product's serializer, and replies read with the
//! linear reader in [`crate::jsonr`].

use std::io::{BufReader, Read, Write};
use std::time::Instant;

use catmark_service::{read_frame, write_frame, Json};

use crate::data::{ATTR, KEY_ATTR};
use crate::jsonr::{self, Value};

/// Something that answers protocol requests: a connection to the
/// real daemon, or the traced in-process replay.
pub trait Exchange {
    /// Send one request and wait for its reply; returns the reply and
    /// the latency in ms. `probe` marks a scale-probe-size request.
    /// Transport errors and `ok:false` replies are errors.
    fn call(&mut self, request: &[u8], probe: bool) -> Result<(Value, f64), String>;

    /// Marks the start of the client's `n`th cycle of operations.
    fn cycle(&mut self, _n: usize) {}
}

/// One connection to a daemon.
pub struct Conn<R: Read, W: Write> {
    reader: BufReader<R>,
    writer: W,
}

impl<R: Read, W: Write> Conn<R, W> {
    /// Wrap a transport.
    pub fn new(reader: R, writer: W) -> Self {
        Conn { reader: BufReader::new(reader), writer }
    }
}

impl<R: Read, W: Write> Exchange for Conn<R, W> {
    fn call(&mut self, request: &[u8], _probe: bool) -> Result<(Value, f64), String> {
        let start = Instant::now();
        write_frame(&mut self.writer, request).map_err(|e| format!("send: {e}"))?;
        let reply = read_frame(&mut self.reader)
            .map_err(|e| format!("receive: {e}"))?
            .ok_or("daemon closed the connection")?;
        let ms = start.elapsed().as_secs_f64() * 1e3;
        Ok((ok_reply(&reply)?, ms))
    }
}

/// Parse a reply; `ok:false` is an error carrying the daemon's message.
pub fn ok_reply(reply: &[u8]) -> Result<Value, String> {
    let value = jsonr::parse(reply)?;
    if value.bool("ok") != Some(true) {
        return Err(format!("daemon error: {}", value.str("error").unwrap_or("?")));
    }
    Ok(value)
}

/// A request object's text: `fields`, plus an already-escaped JSON
/// string spliced in as `"csv"` (escaping a large payload once per run
/// instead of once per request).
pub fn request(op: &str, fields: Vec<(&str, Json)>, csv: Option<&str>) -> Vec<u8> {
    let mut all = vec![("op", Json::Str(op.to_string()))];
    all.extend(fields);
    let mut text = Json::obj(all).to_text();
    if let Some(csv) = csv {
        text.pop();
        text.push_str(",\"csv\":");
        text.push_str(csv);
        text.push('}');
    }
    text.into_bytes()
}

/// The fields naming the tenant's key and the bound columns.
pub fn keyed(mut extra: Vec<(&'static str, Json)>) -> Vec<(&'static str, Json)> {
    let mut fields = vec![
        ("key", Json::Str("production".into())),
        ("key_attr", Json::Str(KEY_ATTR.into())),
        ("attr", Json::Str(ATTR.into())),
    ];
    fields.append(&mut extra);
    fields
}

/// `text` as an escaped JSON string literal.
pub fn escaped(text: &[u8]) -> String {
    Json::Str(String::from_utf8_lossy(text).into_owned()).to_text()
}

/// Shorthand for a JSON string.
pub fn s(text: impl Into<String>) -> Json {
    Json::Str(text.into())
}

/// Check a decode-style reply: the decoded mark equals `mark` and all
/// its bits match the claim with a significant verdict.
pub fn check_verdict(reply: &Value, mark: &str) -> Result<(), String> {
    let decoded = reply.str("mark").unwrap_or("");
    let matched = reply.num("matched_bits");
    let total = reply.num("total_bits");
    let fp = reply.num("false_positive").unwrap_or(1.0);
    if decoded != mark || matched.is_none() || matched != total || fp >= 0.01 {
        return Err(format!(
            "verdict mismatch: decoded {decoded:?} (want {mark}), matched {matched:?}/{total:?}, fp {fp}"
        ));
    }
    Ok(())
}
