//! A JSON reader for the two documents the benchmark reads back — its
//! own result lines and `BENCHMARK.json`. The workspace's `serde_json`
//! stand-in only writes; this parses into its `Value`.

use serde_json::Value;

/// Builds an object from `(key, value)` pairs, in order.
pub fn object(pairs: Vec<(&str, Value)>) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// One compact line of JSON.
pub fn to_line(value: &Value) -> String {
    serde_json::to_string(value).expect("the serde_json stand-in cannot fail")
}

pub fn get<'a>(value: &'a Value, key: &str) -> Option<&'a Value> {
    match value {
        Value::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

/// The text of a string; empty for anything else.
pub fn string(value: &Value) -> &str {
    match value {
        Value::String(s) => s,
        _ => "",
    }
}

/// Any JSON number as `f64`; NaN for anything else.
pub fn number(value: &Value) -> f64 {
    match value {
        Value::Int(i) => *i as f64,
        Value::UInt(u) => *u as f64,
        Value::Float(f) => *f,
        _ => f64::NAN,
    }
}

pub fn parse(text: &str) -> Result<Value, String> {
    let mut parser = Parser {
        bytes: text.as_bytes(),
        at: 0,
    };
    let value = parser.value()?;
    parser.skip_space();
    if parser.at != parser.bytes.len() {
        return Err(parser.fail("trailing characters"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn fail(&self, what: &str) -> String {
        format!("JSON: {what} at byte {}", self.at)
    }

    fn skip_space(&mut self) {
        while self.bytes.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
    }

    fn eat(&mut self, token: &str) -> bool {
        let hit = self.bytes[self.at..].starts_with(token.as_bytes());
        if hit {
            self.at += token.len();
        }
        hit
    }

    fn expect(&mut self, token: &str) -> Result<(), String> {
        self.skip_space();
        if self.eat(token) {
            Ok(())
        } else {
            Err(self.fail(&format!("expected `{token}`")))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_space();
        match self.bytes.get(self.at) {
            Some(b'{') => self
                .sequence(b'}', |p| {
                    let key = p.text()?;
                    p.expect(":")?;
                    Ok((key, p.value()?))
                })
                .map(Value::Object),
            Some(b'[') => self.sequence(b']', Parser::value).map(Value::Array),
            Some(b'"') => self.text().map(Value::String),
            Some(b't') if self.eat("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat("false") => Ok(Value::Bool(false)),
            Some(b'n') if self.eat("null") => Ok(Value::Null),
            Some(_) => self.numeral(),
            None => Err(self.fail("unexpected end")),
        }
    }

    /// A bracketed, comma-separated list; the opening bracket is next.
    fn sequence<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.at += 1;
        let mut items = Vec::new();
        loop {
            self.skip_space();
            if self.bytes.get(self.at) == Some(&close) {
                self.at += 1;
                return Ok(items);
            }
            if !items.is_empty() {
                self.expect(",")?;
                self.skip_space();
            }
            items.push(item(self)?);
        }
    }

    fn text(&mut self) -> Result<String, String> {
        self.expect("\"")?;
        let mut out = Vec::new();
        loop {
            let byte = *self
                .bytes
                .get(self.at)
                .ok_or_else(|| self.fail("open string"))?;
            self.at += 1;
            match byte {
                b'"' => return String::from_utf8(out).map_err(|_| self.fail("bad UTF-8")),
                b'\\' => {
                    let escape = *self
                        .bytes
                        .get(self.at)
                        .ok_or_else(|| self.fail("open escape"))?;
                    self.at += 1;
                    match escape {
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'r' => out.push(b'\r'),
                        b'"' | b'\\' | b'/' => out.push(escape),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.at..self.at + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or_else(|| self.fail("bad \\u escape"))?;
                            self.at += 4;
                            out.extend_from_slice(hex.encode_utf8(&mut [0; 4]).as_bytes());
                        }
                        _ => return Err(self.fail("unknown escape")),
                    }
                }
                other => out.push(other),
            }
        }
    }

    fn numeral(&mut self) -> Result<Value, String> {
        let start = self.at;
        while self
            .bytes
            .get(self.at)
            .is_some_and(|b| b.is_ascii_digit() || b"+-.eE".contains(b))
        {
            self.at += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.at]).expect("ASCII numeral");
        if let Ok(int) = text.parse::<i64>() {
            return Ok(Value::Int(int));
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| self.fail("bad number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_back_what_the_writer_writes() {
        let doc = object(vec![
            ("name", Value::String("a \"quoted\"\nline".into())),
            ("n", Value::Int(-3)),
            ("x", Value::Float(1.25e-3)),
            ("flags", Value::Array(vec![Value::Bool(true), Value::Null])),
            ("empty", Value::Object(Vec::new())),
        ]);
        for text in [
            serde_json::to_string(&doc).unwrap(),
            serde_json::to_string_pretty(&doc).unwrap(),
        ] {
            assert_eq!(parse(&text).unwrap(), doc);
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,", "{\"a\" 1}", "\"open", "tru", "1 2", "[1,]"] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
    }
}
