//! The metric vocabulary, read from `BENCHMARK.json` at start-up so the
//! names and units a run prints have one source: every `end_to_end` and
//! `per_layer` entry's `name` and `unit`, in file order.

use std::collections::BTreeMap;

/// `(name, unit)` of each metric of one list.
pub type Metrics = Vec<(String, String)>;

/// Reads both metric lists from the `BENCHMARK.json` at `path`.
pub fn load(path: &str) -> Result<(Metrics, Metrics), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut p = Parser { s: text.as_bytes(), i: 0 };
    let doc = p.value()?;
    p.ws();
    if p.i != p.s.len() {
        return Err(format!("{path}: trailing data at byte {}", p.i));
    }
    let list = |key: &str| -> Result<Metrics, String> {
        let Some(Json::Arr(items)) = doc.get(key) else {
            return Err(format!("{path}: no {key} list"));
        };
        items
            .iter()
            .map(|m| match (m.get("name"), m.get("unit")) {
                (Some(Json::Str(n)), Some(Json::Str(u))) => Ok((n.clone(), u.clone())),
                _ => Err(format!("{path}: a {key} entry lacks a name or unit")),
            })
            .collect()
    };
    Ok((list("end_to_end")?, list("per_layer")?))
}

/// A JSON value; numbers, booleans and null are kept only as placeholders.
#[derive(Debug)]
enum Json {
    Other,
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.s.get(self.i).is_some_and(|c| c.is_ascii_whitespace()) {
            self.i += 1;
        }
    }

    fn err<T>(&self, what: &str) -> Result<T, String> {
        Err(format!("JSON: {what} at byte {}", self.i))
    }

    /// Consumes `c` after optional whitespace.
    fn eat(&mut self, c: u8) -> bool {
        self.ws();
        let hit = self.s.get(self.i) == Some(&c);
        self.i += hit as usize;
        hit
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.s.get(self.i) {
            Some(b'{') => {
                self.i += 1;
                let mut m = BTreeMap::new();
                if self.eat(b'}') {
                    return Ok(Json::Obj(m));
                }
                loop {
                    self.ws();
                    let key = self.string()?;
                    if !self.eat(b':') {
                        return self.err("expected ':'");
                    }
                    m.insert(key, self.value()?);
                    if self.eat(b'}') {
                        return Ok(Json::Obj(m));
                    }
                    if !self.eat(b',') {
                        return self.err("expected ',' or '}'");
                    }
                }
            }
            Some(b'[') => {
                self.i += 1;
                let mut v = Vec::new();
                if self.eat(b']') {
                    return Ok(Json::Arr(v));
                }
                loop {
                    v.push(self.value()?);
                    if self.eat(b']') {
                        return Ok(Json::Arr(v));
                    }
                    if !self.eat(b',') {
                        return self.err("expected ',' or ']'");
                    }
                }
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(_) => {
                let start = self.i;
                while self
                    .s
                    .get(self.i)
                    .is_some_and(|c| c.is_ascii_alphanumeric() || b"+-.".contains(c))
                {
                    self.i += 1;
                }
                if self.i == start {
                    return self.err("unexpected character");
                }
                Ok(Json::Other)
            }
            None => self.err("unexpected end"),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.s.get(self.i) != Some(&b'"') {
            return self.err("expected a string");
        }
        self.i += 1;
        let mut out = Vec::new();
        loop {
            match self.s.get(self.i) {
                None => return self.err("unterminated string"),
                Some(b'"') => {
                    self.i += 1;
                    return String::from_utf8(out).or_else(|_| self.err("invalid UTF-8"));
                }
                Some(b'\\') => {
                    let c = match self.s.get(self.i + 1) {
                        Some(b'n') => b'\n',
                        Some(b't') => b'\t',
                        Some(&c @ (b'"' | b'\\' | b'/')) => c,
                        _ => return self.err("unsupported escape"),
                    };
                    out.push(c);
                    self.i += 2;
                }
                Some(&c) => {
                    out.push(c);
                    self.i += 1;
                }
            }
        }
    }
}
