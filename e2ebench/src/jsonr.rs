//! A linear-time JSON reader for the harness's side of the wire.
//!
//! The client must read responses carrying whole CSV relations
//! without its own parse cost growing faster than the payload, so it
//! does not reuse the product's parser (whose cost is what the
//! benchmark measures). Requests are built with the product's
//! serializer, which is linear.

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in document order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Member lookup on an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// String member `key`.
    pub fn str(&self, key: &str) -> Option<&str> {
        match self.get(key)? {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric member `key`.
    pub fn num(&self, key: &str) -> Option<f64> {
        match self.get(key)? {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Boolean member `key`.
    pub fn bool(&self, key: &str) -> Option<bool> {
        match self.get(key)? {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Array member `key`.
    pub fn arr(&self, key: &str) -> Option<&[Value]> {
        match self.get(key)? {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Parse one JSON document.
pub fn parse(text: &[u8]) -> Result<Value, String> {
    let mut p = Parser { s: text, i: 0 };
    let v = p.value(0)?;
    p.ws();
    if p.i != p.s.len() {
        return Err(format!("trailing bytes at {}", p.i));
    }
    Ok(v)
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn err<T>(&self, what: &str) -> Result<T, String> {
        Err(format!("{what} at byte {}", self.i))
    }

    fn eat(&mut self, lit: &[u8]) -> bool {
        if self.s[self.i..].starts_with(lit) {
            self.i += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, String> {
        if depth > 64 {
            return self.err("nesting too deep");
        }
        self.ws();
        match self.s.get(self.i) {
            None => self.err("unexpected end"),
            Some(b'{') => {
                self.i += 1;
                let mut fields = Vec::new();
                self.ws();
                if self.eat(b"}") {
                    return Ok(Value::Obj(fields));
                }
                loop {
                    self.ws();
                    let key = self.string()?;
                    self.ws();
                    if !self.eat(b":") {
                        return self.err("expected ':'");
                    }
                    fields.push((key, self.value(depth + 1)?));
                    self.ws();
                    if self.eat(b"}") {
                        return Ok(Value::Obj(fields));
                    }
                    if !self.eat(b",") {
                        return self.err("expected ',' or '}'");
                    }
                }
            }
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.eat(b"]") {
                    return Ok(Value::Arr(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    self.ws();
                    if self.eat(b"]") {
                        return Ok(Value::Arr(items));
                    }
                    if !self.eat(b",") {
                        return self.err("expected ',' or ']'");
                    }
                }
            }
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') if self.eat(b"true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat(b"false") => Ok(Value::Bool(false)),
            Some(b'n') if self.eat(b"null") => Ok(Value::Null),
            Some(_) => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                std::str::from_utf8(&self.s[start..self.i])
                    .ok()
                    .and_then(|t| t.parse().ok())
                    .map(Value::Num)
                    .map_or_else(|| self.err("bad number"), Ok)
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat(b"\"") {
            return self.err("expected a string");
        }
        let mut out = Vec::new();
        loop {
            // Copy the run up to the next quote or escape in one go.
            let run = self.s[self.i..].iter().position(|&b| b == b'"' || b == b'\\');
            let Some(run) = run else { return self.err("unterminated string") };
            out.extend_from_slice(&self.s[self.i..self.i + run]);
            self.i += run;
            if self.eat(b"\"") {
                return String::from_utf8(out).map_err(|e| e.to_string());
            }
            self.i += 1;
            let Some(&esc) = self.s.get(self.i) else { return self.err("bad escape") };
            self.i += 1;
            match esc {
                b'"' | b'\\' | b'/' => out.push(esc),
                b'b' => out.push(8),
                b'f' => out.push(12),
                b'n' => out.push(b'\n'),
                b'r' => out.push(b'\r'),
                b't' => out.push(b'\t'),
                b'u' => {
                    let mut code = self.hex4()?;
                    if (0xD800..0xDC00).contains(&code) && self.eat(b"\\u") {
                        let low = self.hex4()?;
                        code =
                            0x10000 + ((code - 0xD800) << 10) + (low.wrapping_sub(0xDC00) & 0x3FF);
                    }
                    let c = char::from_u32(code).unwrap_or('\u{FFFD}');
                    out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                }
                _ => return self.err("bad escape"),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let digits = self.s.get(self.i..self.i + 4).and_then(|d| std::str::from_utf8(d).ok());
        let code = digits.and_then(|d| u32::from_str_radix(d, 16).ok());
        let Some(code) = code else { return self.err("bad \\u escape") };
        self.i += 4;
        Ok(code)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use catmark_service::Json;

    #[test]
    fn reads_what_the_product_serializer_writes() {
        let doc = Json::obj(vec![
            ("ok", Json::Bool(true)),
            ("csv", Json::Str("a,b\n1,\"x\ty\"\n\u{2603}\u{1F600}".into())),
            ("n", Json::Num(12_000.0)),
            ("fp", Json::Num(9.5e-4)),
            ("list", Json::Arr(vec![Json::Null, Json::Obj(vec![])])),
        ]);
        let v = parse(doc.to_text().as_bytes()).unwrap();
        assert_eq!(v.bool("ok"), Some(true));
        assert_eq!(v.str("csv"), Some("a,b\n1,\"x\ty\"\n\u{2603}\u{1F600}"));
        assert_eq!(v.num("n"), Some(12_000.0));
        assert_eq!(v.num("fp"), Some(9.5e-4));
        assert_eq!(v.arr("list").map(<[Value]>::len), Some(2));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [&b"{"[..], b"{\"a\":}", b"[1,]", b"\"open", b"{} x", b"\"\\q\""] {
            assert!(parse(bad).is_err(), "{:?}", String::from_utf8_lossy(bad));
        }
    }
}
