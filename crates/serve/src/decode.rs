//! One decode path from wire bytes to a typed request, for both framings.
//!
//! A JSON line and a binary frame payload carry the same request. Both
//! decode here, through one typed walker ([`request`]) over a small
//! [`Source`] interface that each framing implements. The walker reads the
//! envelope directly, with no `serde` [`Value`] tree for the instance:
//! weights, capacity rows, initial loads and the `Measure` profile go
//! straight into the flat rows of an [`InstanceRows`]. Only the small
//! subtrees (the policy tree, `Edit`/`Release` payloads, ignored fields) go
//! through a `Value` and the serde derive.
//!
//! **Compatibility.** The walker accepts exactly what the serde derive
//! accepts and yields the same typed request (the differential tests pin
//! this against `serde_json::from_str::<Request>` and `decode_value` +
//! `Request::from_value`): fields in any order, unknown fields skipped,
//! the first of duplicated fields wins, the first field of an enum object
//! names the variant, `null` in a float position reads as NaN (which
//! instance validation then rejects), and integers and integral floats are
//! interchangeable where the derive converts them. Two deliberate
//! differences: both framings cap nesting at [`MAX_DEPTH`], where the JSON
//! derive had no cap at all; and a `\u` high surrogate followed by an
//! escape below the low-surrogate range is an error, where the derive's
//! surrogate arithmetic overflows.
//!
//! **Bounded allocation.** Binary array and object counts are checked
//! against the bytes left before anything is reserved for them.
//! [`InstanceRows`] stores capacity entries only while the instance can
//! still fit the [`Limits`]; an oversize or ragged instance is counted, not
//! stored, so the typed `Oversize` / `InvalidRequest` answer it earns never
//! costs an `n·m` allocation.

use serde::Deserialize;
use serde_json::{Number, Value};

use netuncert_core::prelude::{EffectiveCapacities, EffectiveGame, GameError, LinkLoads};

use crate::frame::MAX_DEPTH;
use crate::policy::Policy;
use crate::protocol::{
    EditRequest, ErrorKind, Limits, ReleaseRequest, Request, RequestBody, Verb, WireError,
    WireInstance,
};

/// The framing a request arrived in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Framing {
    /// A newline-delimited JSON line.
    Json,
    /// A length-prefixed binary frame.
    Binary,
}

/// A decoded, not yet validated, request.
#[derive(Debug)]
pub(crate) struct Decoded {
    pub(crate) id: u64,
    pub(crate) body: DecodedBody,
}

/// The verbs, with instances in flat-row form.
#[derive(Debug)]
pub(crate) enum DecodedBody {
    /// `Solve`, `Bracket` or `Measure`.
    Compute {
        verb: Verb,
        rows: InstanceRows,
        policy: Policy,
        /// The `Measure` profile (empty for the other verbs).
        profile: Vec<usize>,
    },
    /// `Upload`.
    Upload(InstanceRows),
    /// A verb without an instance.
    Plain(Plain),
}

/// The verbs without an instance, decoded as they are.
#[derive(Debug)]
pub(crate) enum Plain {
    Edit(EditRequest),
    Release(ReleaseRequest),
    Stats,
    Metrics,
    Shutdown,
}

impl Decoded {
    /// The flat-row form of an already typed request (the in-process entry
    /// point): the same rows a decoder would have produced from its bytes.
    pub(crate) fn from_request(request: Request, limits: &Limits) -> Decoded {
        let rows = |instance| InstanceRows::from_wire(instance, limits);
        let compute = |verb, instance, policy, profile| DecodedBody::Compute {
            verb,
            rows: rows(instance),
            policy,
            profile,
        };
        let body = match request.body {
            RequestBody::Solve(r) => compute(Verb::Solve, r.instance, r.policy, Vec::new()),
            RequestBody::Bracket(r) => compute(Verb::Bracket, r.instance, r.policy, Vec::new()),
            RequestBody::Measure(r) => compute(Verb::Measure, r.instance, r.policy, r.profile),
            RequestBody::Upload(r) => DecodedBody::Upload(rows(r.instance)),
            RequestBody::Edit(r) => DecodedBody::Plain(Plain::Edit(r)),
            RequestBody::Release(r) => DecodedBody::Plain(Plain::Release(r)),
            RequestBody::Stats => DecodedBody::Plain(Plain::Stats),
            RequestBody::Metrics => DecodedBody::Plain(Plain::Metrics),
            RequestBody::Shutdown => DecodedBody::Plain(Plain::Shutdown),
        };
        Decoded {
            id: request.id,
            body,
        }
    }
}

/// Decodes one JSON request line.
pub(crate) fn json(line: &str, limits: &Limits) -> Result<Decoded, String> {
    request(
        &mut Json {
            bytes: line.as_bytes(),
            at: 0,
        },
        limits,
    )
}

/// Decodes one binary frame payload (length prefix already stripped).
pub(crate) fn frame(payload: &[u8], limits: &Limits) -> Result<Decoded, String> {
    request(&mut crate::frame::Decoder::new(payload), limits)
}

/// An instance as it comes off the wire: weights, the capacity matrix in
/// flat row-major form, and the initial loads, plus the shape facts
/// validation needs when the matrix was too large or too ragged to keep.
#[derive(Debug)]
pub(crate) struct InstanceRows {
    max_users: usize,
    max_links: usize,
    weights: Vec<f64>,
    capacities: Vec<f64>,
    /// Capacity rows seen.
    rows: usize,
    /// Length of the first row (`0` without rows).
    links: usize,
    /// Entries seen in the row being read.
    row_len: usize,
    /// The first row whose length differs from the first row's:
    /// `(row, length)`.
    ragged: Option<(usize, usize)>,
    initial: Option<Vec<f64>>,
}

impl InstanceRows {
    fn new(limits: &Limits) -> Self {
        InstanceRows {
            max_users: limits.max_users,
            max_links: limits.max_links,
            weights: Vec::new(),
            capacities: Vec::new(),
            rows: 0,
            links: 0,
            row_len: 0,
            ragged: None,
            initial: None,
        }
    }

    fn from_wire(instance: WireInstance, limits: &Limits) -> Self {
        let mut rows = InstanceRows::new(limits);
        rows.weights = instance.weights;
        for row in &instance.capacities {
            for &c in row {
                rows.push_capacity(c);
            }
            rows.end_row();
        }
        rows.initial = instance.initial;
        rows
    }

    /// Appends one entry to the row being read. It is stored only while
    /// the instance can still be valid and within the limits.
    fn push_capacity(&mut self, capacity: f64) {
        let room = match self.rows {
            0 => self.max_links,
            _ if self.links <= self.max_links => self.links,
            _ => 0,
        };
        if self.ragged.is_none() && self.rows < self.max_users && self.row_len < room {
            self.capacities.push(capacity);
        }
        self.row_len += 1;
    }

    fn end_row(&mut self) {
        if self.rows == 0 {
            self.links = self.row_len;
        } else if self.row_len != self.links && self.ragged.is_none() {
            self.ragged = Some((self.rows, self.row_len));
        }
        self.rows += 1;
        self.row_len = 0;
    }

    /// Validates the instance into the engine's form. Checks run in a
    /// fixed order — size caps, row count, row lengths, then the game's
    /// own validation and the initial loads — so every framing and the
    /// in-process entry point give the same typed error for the same bad
    /// instance.
    pub(crate) fn build(self) -> Result<(EffectiveGame, LinkLoads), WireError> {
        let invalid = |e: GameError| WireError::new(ErrorKind::InvalidRequest, e.to_string());
        let (users, links) = (self.weights.len(), self.links);
        if users > self.max_users || links > self.max_links {
            return Err(WireError::new(
                ErrorKind::Oversize,
                format!(
                    "instance {users}x{links} exceeds the {}x{} cap",
                    self.max_users, self.max_links
                ),
            ));
        }
        if self.rows != users {
            return Err(WireError::new(
                ErrorKind::InvalidRequest,
                format!("{} capacity rows for {users} weights", self.rows),
            ));
        }
        if let Some((state, found)) = self.ragged {
            return Err(invalid(GameError::StateDimensionMismatch {
                state,
                expected: links,
                found,
            }));
        }
        let capacities =
            EffectiveCapacities::from_rows(users, links, self.capacities).map_err(invalid)?;
        let game = EffectiveGame::new(self.weights, capacities).map_err(invalid)?;
        let initial = match self.initial {
            None => LinkLoads::zero(links),
            Some(loads) => LinkLoads::new(loads).map_err(invalid)?,
        };
        if initial.links() != links {
            return Err(WireError::new(
                ErrorKind::InvalidRequest,
                format!("{} initial loads for {links} links", initial.links()),
            ));
        }
        Ok((game, initial))
    }

    /// Capacity entries actually stored (tests check the allocation bound).
    #[cfg(test)]
    fn stored(&self) -> usize {
        self.capacities.len()
    }
}

/// What the typed walker needs from a framing. `depth` is the nesting level
/// of the value about to be read (the envelope object is depth 0), checked
/// against [`MAX_DEPTH`] wherever a container opens.
pub(crate) trait Source {
    /// Iteration state of an open object or array.
    type Seq;
    /// Opens an object.
    fn object(&mut self, depth: usize) -> Result<Self::Seq, String>;
    /// The next field name of an open object; `None` at its end.
    fn key(&mut self, seq: &mut Self::Seq) -> Result<Option<String>, String>;
    /// Opens an array.
    fn array(&mut self, depth: usize) -> Result<Self::Seq, String>;
    /// Whether an open array has another element to read.
    fn item(&mut self, seq: &mut Self::Seq) -> Result<bool, String>;
    /// A number, or `None` for `null`; any other value is an error.
    fn number(&mut self) -> Result<Option<Number>, String>;
    /// An array of floats (`null` entries read as NaN), each handed to
    /// `push` — the hot loop of every instance, so each framing reads it
    /// straight off its bytes.
    fn floats(&mut self, depth: usize, push: impl FnMut(f64)) -> Result<(), String>;
    /// Consumes a `null` if one comes next.
    fn null(&mut self) -> Result<bool, String>;
    /// Whether a string comes next.
    fn at_string(&mut self) -> bool;
    /// A string.
    fn string(&mut self) -> Result<String, String>;
    /// Any value, as a tree (small subtrees only).
    fn value(&mut self, depth: usize) -> Result<Value, String>;
    /// Fails unless the whole input was consumed.
    fn end(&mut self) -> Result<(), String>;
}

/// The float a number converts to (the derive's `as_f64`, without the
/// `Value` round trip).
pub(crate) fn f64_of(number: Number) -> f64 {
    match number {
        Number::PosInt(u) => u as f64,
        Number::NegInt(i) => i as f64,
        Number::Float(f) => f,
    }
}

fn u64_of(number: Option<Number>) -> Result<u64, String> {
    number
        .and_then(|n| Value::Num(n).as_u64())
        .ok_or_else(|| "expected unsigned integer".to_string())
}

fn missing(field: &str) -> String {
    format!("missing field `{field}`")
}

/// The envelope: `{"id": u64, "body": RequestBody}`.
fn request<S: Source>(src: &mut S, limits: &Limits) -> Result<Decoded, String> {
    let mut seq = src.object(0)?;
    let (mut id, mut body) = (None, None);
    while let Some(key) = src.key(&mut seq)? {
        match key.as_str() {
            "id" if id.is_none() => id = Some(u64_of(src.number()?)?),
            "body" if body.is_none() => body = Some(request_body(src, 1, limits)?),
            _ => drop(src.value(1)?),
        }
    }
    src.end()?;
    Ok(Decoded {
        id: id.ok_or_else(|| missing("id"))?,
        body: body.ok_or_else(|| missing("body"))?,
    })
}

/// The verb: a unit-variant string, or an object whose first field names
/// the variant (later fields are skipped).
fn request_body<S: Source>(
    src: &mut S,
    depth: usize,
    limits: &Limits,
) -> Result<DecodedBody, String> {
    if src.at_string() {
        let plain = match src.string()?.as_str() {
            "Stats" => Plain::Stats,
            "Metrics" => Plain::Metrics,
            "Shutdown" => Plain::Shutdown,
            other => return Err(format!("unknown variant `{other}` of `RequestBody`")),
        };
        return Ok(DecodedBody::Plain(plain));
    }
    let mut seq = src.object(depth)?;
    let tag = src
        .key(&mut seq)?
        .ok_or("expected non-empty object for enum `RequestBody`")?;
    let body = match tag.as_str() {
        "Solve" => compute(src, depth + 1, Verb::Solve, limits)?,
        "Bracket" => compute(src, depth + 1, Verb::Bracket, limits)?,
        "Measure" => compute(src, depth + 1, Verb::Measure, limits)?,
        "Upload" => {
            let mut fields = src.object(depth + 1)?;
            let mut rows = None;
            while let Some(key) = src.key(&mut fields)? {
                match key.as_str() {
                    "instance" if rows.is_none() => {
                        rows = Some(instance(src, depth + 2, limits)?);
                    }
                    _ => drop(src.value(depth + 2)?),
                }
            }
            DecodedBody::Upload(rows.ok_or_else(|| missing("instance"))?)
        }
        "Edit" => {
            let payload = src.value(depth + 1)?;
            let edit = EditRequest::from_value(&payload).map_err(|e| e.to_string())?;
            DecodedBody::Plain(Plain::Edit(edit))
        }
        "Release" => {
            let payload = src.value(depth + 1)?;
            let release = ReleaseRequest::from_value(&payload).map_err(|e| e.to_string())?;
            DecodedBody::Plain(Plain::Release(release))
        }
        other => return Err(format!("unknown variant `{other}` of `RequestBody`")),
    };
    while src.key(&mut seq)?.is_some() {
        src.value(depth + 1)?;
    }
    Ok(body)
}

/// A `Solve` / `Bracket` / `Measure` payload.
fn compute<S: Source>(
    src: &mut S,
    depth: usize,
    verb: Verb,
    limits: &Limits,
) -> Result<DecodedBody, String> {
    let mut seq = src.object(depth)?;
    let (mut rows, mut policy, mut profile) = (None, None, None);
    while let Some(key) = src.key(&mut seq)? {
        match key.as_str() {
            "instance" if rows.is_none() => rows = Some(instance(src, depth + 1, limits)?),
            "policy" if policy.is_none() => {
                let tree = src.value(depth + 1)?;
                policy = Some(Policy::from_value(&tree).map_err(|e| e.to_string())?);
            }
            "profile" if verb == Verb::Measure && profile.is_none() => {
                let mut items = src.array(depth + 1)?;
                let mut choices = Vec::new();
                while src.item(&mut items)? {
                    choices
                        .push(usize::try_from(u64_of(src.number()?)?).map_err(|e| e.to_string())?);
                }
                profile = Some(choices);
            }
            _ => drop(src.value(depth + 1)?),
        }
    }
    let rows = rows.ok_or_else(|| missing("instance"))?;
    let profile = match verb {
        Verb::Measure => profile.ok_or_else(|| missing("profile"))?,
        _ => Vec::new(),
    };
    Ok(DecodedBody::Compute {
        verb,
        rows,
        policy: policy.ok_or_else(|| missing("policy"))?,
        profile,
    })
}

/// A wire instance, straight into flat rows.
fn instance<S: Source>(src: &mut S, depth: usize, limits: &Limits) -> Result<InstanceRows, String> {
    let mut seq = src.object(depth)?;
    let mut rows = InstanceRows::new(limits);
    let (mut weights, mut capacities, mut initial) = (false, false, false);
    while let Some(key) = src.key(&mut seq)? {
        match key.as_str() {
            "weights" if !weights => {
                weights = true;
                src.floats(depth + 1, |w| rows.weights.push(w))?;
            }
            "capacities" if !capacities => {
                capacities = true;
                let mut items = src.array(depth + 1)?;
                while src.item(&mut items)? {
                    src.floats(depth + 2, |c| rows.push_capacity(c))?;
                    rows.end_row();
                }
            }
            "initial" if !initial => {
                initial = true;
                if !src.null()? {
                    let mut loads = Vec::new();
                    src.floats(depth + 1, |t| loads.push(t))?;
                    rows.initial = Some(loads);
                }
            }
            _ => drop(src.value(depth + 1)?),
        }
    }
    for (seen, field) in [
        (weights, "weights"),
        (capacities, "capacities"),
        (initial, "initial"),
    ] {
        if !seen {
            return Err(missing(field));
        }
    }
    Ok(rows)
}

/// A JSON document, read with the grammar of the `serde_json` derive path
/// (the same whitespace, literal, string-escape and number rules).
struct Json<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Json<'_> {
    fn ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes.get(self.at) {
            self.at += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.at).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.at += 1;
            Ok(())
        } else {
            Err(format!(
                "expected `{}` at byte {}",
                char::from(byte),
                self.at
            ))
        }
    }

    fn literal(&mut self, literal: &str) -> Result<(), String> {
        if self.bytes[self.at..].starts_with(literal.as_bytes()) {
            self.at += literal.len();
            Ok(())
        } else {
            Err(format!("invalid literal at byte {}", self.at))
        }
    }

    fn open(&mut self, byte: u8, depth: usize) -> Result<bool, String> {
        if depth > MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH}"));
        }
        self.ws();
        self.expect(byte)?;
        Ok(true)
    }

    /// The separator before the next element or field: `Ok(false)` at the
    /// closing byte.
    fn next(&mut self, first: &mut bool, close: u8) -> Result<bool, String> {
        self.ws();
        if self.peek() == Some(close) {
            if *first {
                self.at += 1;
                *first = false;
                return Ok(false);
            }
        } else if *first {
            *first = false;
            return Ok(true);
        }
        match self.peek() {
            Some(b',') => {
                self.at += 1;
                Ok(true)
            }
            Some(b) if b == close => {
                self.at += 1;
                Ok(false)
            }
            _ => Err(format!(
                "expected `,` or `{}` at byte {}",
                char::from(close),
                self.at
            )),
        }
    }

    fn scan_number(&mut self) -> Result<Number, String> {
        let start = self.at;
        if self.peek() == Some(b'-') {
            self.at += 1;
        }
        let mut is_float = false;
        while let Some(&b) = self.bytes.get(self.at) {
            match b {
                b'0'..=b'9' => self.at += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.at += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.at])
            .map_err(|_| "invalid number".to_string())?;
        let float = || {
            text.parse::<f64>()
                .map(Number::Float)
                .map_err(|_| "invalid number".to_string())
        };
        if is_float {
            float()
        } else if let Ok(u) = text.parse::<u64>() {
            Ok(Number::PosInt(u))
        } else if let Ok(i) = text.parse::<i64>() {
            Ok(Number::NegInt(i))
        } else {
            float()
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let bad = || "invalid \\u escape".to_string();
        let slice = self
            .bytes
            .get(self.at..self.at + 4)
            .ok_or("truncated \\u escape")?;
        let code = std::str::from_utf8(slice)
            .ok()
            .and_then(|s| u32::from_str_radix(s, 16).ok())
            .ok_or_else(bad)?;
        self.at += 4;
        Ok(code)
    }

    fn scan_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.at;
            while let Some(&b) = self.bytes.get(self.at) {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.at += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.at])
                    .map_err(|_| "invalid UTF-8 in string".to_string())?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.at += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.at += 1;
                    let escape = self.peek().ok_or("unterminated escape")?;
                    self.at += 1;
                    out.push(match escape {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'b' => '\u{0008}',
                        b'f' => '\u{000C}',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'u' => {
                            let hi = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                self.expect(b'\\')?;
                                self.expect(b'u')?;
                                let lo = self.hex4()?;
                                let lo = lo.checked_sub(0xDC00).ok_or("invalid \\u escape")?;
                                (0x10000 + ((hi - 0xD800) << 10)).wrapping_add(lo)
                            } else {
                                hi
                            };
                            char::from_u32(code).ok_or("invalid \\u escape")?
                        }
                        _ => return Err("unknown escape".into()),
                    });
                }
                _ => return Err("unterminated string".into()),
            }
        }
    }
}

impl Source for Json<'_> {
    /// Whether no element or field has been read yet.
    type Seq = bool;

    fn object(&mut self, depth: usize) -> Result<bool, String> {
        self.open(b'{', depth)
    }

    fn key(&mut self, first: &mut bool) -> Result<Option<String>, String> {
        if !self.next(first, b'}')? {
            return Ok(None);
        }
        self.ws();
        let key = self.scan_string()?;
        self.ws();
        self.expect(b':')?;
        Ok(Some(key))
    }

    fn array(&mut self, depth: usize) -> Result<bool, String> {
        self.open(b'[', depth)
    }

    fn item(&mut self, first: &mut bool) -> Result<bool, String> {
        self.next(first, b']')
    }

    fn number(&mut self) -> Result<Option<Number>, String> {
        self.ws();
        match self.peek() {
            Some(b'n') => self.literal("null").map(|()| None),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.scan_number().map(Some),
            _ => Err(format!("expected number at byte {}", self.at)),
        }
    }

    fn floats(&mut self, depth: usize, mut push: impl FnMut(f64)) -> Result<(), String> {
        let mut first = self.array(depth)?;
        while self.item(&mut first)? {
            self.ws();
            push(match self.peek() {
                Some(b'n') => self.literal("null").map(|()| f64::NAN)?,
                Some(b) if b == b'-' || b.is_ascii_digit() => f64_of(self.scan_number()?),
                _ => return Err(format!("expected number at byte {}", self.at)),
            });
        }
        Ok(())
    }

    fn null(&mut self) -> Result<bool, String> {
        self.ws();
        if self.peek() != Some(b'n') {
            return Ok(false);
        }
        self.literal("null").map(|()| true)
    }

    fn at_string(&mut self) -> bool {
        self.ws();
        self.peek() == Some(b'"')
    }

    fn string(&mut self) -> Result<String, String> {
        self.ws();
        self.scan_string()
    }

    fn value(&mut self, depth: usize) -> Result<Value, String> {
        self.ws();
        match self.peek() {
            Some(b'n') => self.literal("null").map(|()| Value::Null),
            Some(b't') => self.literal("true").map(|()| Value::Bool(true)),
            Some(b'f') => self.literal("false").map(|()| Value::Bool(false)),
            Some(b'"') => self.scan_string().map(Value::Str),
            Some(b'[') => {
                let mut seq = self.array(depth)?;
                let mut items = Vec::new();
                while self.item(&mut seq)? {
                    items.push(self.value(depth + 1)?);
                }
                Ok(Value::Array(items))
            }
            Some(b'{') => {
                let mut seq = self.object(depth)?;
                let mut fields = Vec::new();
                while let Some(key) = self.key(&mut seq)? {
                    fields.push((key, self.value(depth + 1)?));
                }
                Ok(Value::Object(fields))
            }
            Some(b) if b == b'-' || b.is_ascii_digit() => self.scan_number().map(Value::Num),
            _ => Err(format!("unexpected character at byte {}", self.at)),
        }
    }

    fn end(&mut self) -> Result<(), String> {
        self.ws();
        if self.at == self.bytes.len() {
            Ok(())
        } else {
            Err(format!("trailing characters at byte {}", self.at))
        }
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;
    use serde::Serialize;

    use super::*;
    use crate::compile::{Built, BuiltRequest};
    use crate::frame::{decode_value, encode_value};
    use crate::protocol::{
        request_key, EditRequest, ReleaseRequest, SolveRequest, UploadRequest, WireEdit,
    };
    use crate::workload::{churn_session, default_solve_policy, mixed_request, wire_instance};

    /// The built form of a decode, printed: two decodes that print alike
    /// built the same request.
    fn built(decoded: Decoded) -> String {
        format!("{:?}", BuiltRequest::build(decoded, |_| {}))
    }

    /// The oracle's verdict on a line next to ours: both reject, or both
    /// accept and build the same request.
    fn agree_json(line: &str, limits: &Limits) -> Result<(), String> {
        let line = line.trim_end();
        let ours = json(line, limits);
        match (ours, serde_json::from_str::<Request>(line)) {
            (Err(_), Err(_)) => Ok(()),
            (Ok(ours), Ok(oracle)) => {
                let (a, b) = (built(ours), built(Decoded::from_request(oracle, limits)));
                (a == b)
                    .then_some(())
                    .ok_or(format!("built forms differ:\n{a}\n{b}"))
            }
            (ours, oracle) => Err(format!(
                "accept/reject split on {line:.200}: ours {:?}, oracle {:?}",
                ours.err(),
                oracle.err()
            )),
        }
    }

    fn agree_frame(payload: &[u8], limits: &Limits) -> Result<(), String> {
        let oracle = decode_value(payload)
            .map_err(|e| e.to_string())
            .and_then(|v| Request::from_value(&v).map_err(|e| e.to_string()));
        match (frame(payload, limits), oracle) {
            (Err(_), Err(_)) => Ok(()),
            (Ok(ours), Ok(oracle)) => {
                let (a, b) = (built(ours), built(Decoded::from_request(oracle, limits)));
                (a == b)
                    .then_some(())
                    .ok_or(format!("built forms differ:\n{a}\n{b}"))
            }
            (ours, oracle) => Err(format!(
                "accept/reject split: ours {:?}, oracle {:?}",
                ours.err(),
                oracle.err()
            )),
        }
    }

    fn line_of(request: &Request) -> String {
        serde_json::to_string(request).unwrap()
    }

    fn payload_of(request: &Request) -> Vec<u8> {
        encode_value(&request.to_value())
    }

    /// Every request shape the workloads send: the mixed workload, the
    /// `n = 512, m = 16` wire instance, and churn sessions.
    fn workload_requests() -> Vec<Request> {
        let mut requests: Vec<Request> = (0..24).map(|i| mixed_request(5, i)).collect();
        for seed in 0..2 {
            requests.push(Request {
                id: 100 + seed,
                body: RequestBody::Solve(SolveRequest {
                    instance: wire_instance(512, 16, seed),
                    policy: default_solve_policy(),
                }),
            });
        }
        let (instance, edits) = churn_session(3, 6, 3, 4);
        requests.push(Request {
            id: 200,
            body: RequestBody::Upload(UploadRequest { instance }),
        });
        for (i, edit) in edits.into_iter().enumerate() {
            requests.push(Request {
                id: 201 + i as u64,
                body: RequestBody::Edit(EditRequest { session: 1, edit }),
            });
        }
        requests.push(Request {
            id: 300,
            body: RequestBody::Release(ReleaseRequest { session: 1 }),
        });
        for body in [
            RequestBody::Stats,
            RequestBody::Metrics,
            RequestBody::Shutdown,
        ] {
            requests.push(Request { id: 301, body });
        }
        requests
    }

    #[test]
    fn workload_requests_decode_like_the_serde_derive_in_both_framings() {
        let limits = Limits::default();
        for request in workload_requests() {
            agree_json(&line_of(&request), &limits).unwrap();
            agree_frame(&payload_of(&request), &limits).unwrap();
            // Accepted, not merely co-rejected.
            assert!(json(&line_of(&request), &limits).is_ok());
            assert!(frame(&payload_of(&request), &limits).is_ok());
        }
    }

    #[test]
    fn decode_time_keys_equal_request_key_in_both_framings() {
        let limits = Limits::default();
        for request in workload_requests() {
            let expected = request_key(&request.body);
            for decoded in [
                json(&line_of(&request), &limits).unwrap(),
                frame(&payload_of(&request), &limits).unwrap(),
            ] {
                if let Built::Compute(compute) = BuiltRequest::build(decoded, |_| {}).body {
                    let instance = compute.instance.expect("workload instances are valid");
                    assert_eq!(instance.key, expected);
                }
            }
        }
    }

    /// An ASCII byte that keeps a mutated JSON line valid UTF-8, biased to
    /// the bytes JSON syntax turns on.
    fn mutation(rng: &mut TestRng) -> u8 {
        const SYNTAX: &[u8] = b"{}[]\",:-+.eE0123456789 nulltruefalse\t\n";
        if rng.below(4) == 0 {
            rng.below(128) as u8
        } else {
            SYNTAX[rng.below(SYNTAX.len() as u64) as usize]
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn truncated_and_mutated_lines_and_frames_split_like_the_oracle(
            index in 0usize..40,
            cut in any::<u64>(),
            flips in collection::vec((any::<u64>(), any::<u64>()), 1..4),
            seed in any::<u64>(),
        ) {
            let limits = Limits::default();
            let requests = workload_requests();
            let request = &requests[index % requests.len()];
            let line = line_of(request);
            let payload = payload_of(request);
            let mut rng = TestRng::new(seed);

            let at = (cut % line.len() as u64) as usize;
            agree_json(&line[..at], &limits)?;
            let mut bytes = line.clone().into_bytes();
            for &(position, _) in &flips {
                let i = (position % bytes.len() as u64) as usize;
                bytes[i] = mutation(&mut rng);
            }
            let mutated = String::from_utf8(bytes).expect("ASCII mutations");
            // The derive's `\u` surrogate arithmetic can overflow on
            // mutated escapes; every generated line is escape-free, so
            // skip the rare mutation that writes one.
            if !mutated.contains("\\u") {
                agree_json(&mutated, &limits)?;
            }

            let at = (cut % payload.len() as u64) as usize;
            agree_frame(&payload[..at], &limits)?;
            let mut bytes = payload.clone();
            for &(position, value) in &flips {
                let i = (position % bytes.len() as u64) as usize;
                bytes[i] = value as u8;
            }
            agree_frame(&bytes, &limits)?;
        }

        #[test]
        fn ragged_rows_and_null_entries_split_like_the_oracle(
            users in 2usize..7,
            links in 2usize..5,
            row in any::<u64>(),
            delta in 1usize..3,
            seed in any::<u64>(),
        ) {
            let limits = Limits::default();
            let mut instance = wire_instance(users, links, seed);
            let row = (row % users as u64) as usize;
            // A ragged row, longer or shorter than the first.
            let mut ragged = instance.clone();
            if row.is_multiple_of(2) {
                ragged.capacities[row].extend(std::iter::repeat_n(3.0, delta));
            } else {
                ragged.capacities[row].truncate(links - 1);
            }
            let request = |instance| Request {
                id: 1,
                body: RequestBody::Solve(SolveRequest {
                    instance,
                    policy: default_solve_policy(),
                }),
            };
            agree_json(&line_of(&request(ragged.clone())), &limits)?;
            agree_frame(&payload_of(&request(ragged)), &limits)?;
            // A null inside a float row: NaN on both paths, which
            // validation rejects.
            instance.capacities[row][0] = f64::NAN;
            let line = line_of(&request(instance.clone()));
            prop_assert!(line.contains("null"));
            agree_json(&line, &limits)?;
            agree_frame(&payload_of(&request(instance)), &limits)?;
        }
    }

    #[test]
    fn tolerated_forms_match_the_derive() {
        // Field order, unknown and duplicated fields, integral floats,
        // whitespace, and trailing enum fields are all the derive's rules.
        let limits = Limits::default();
        let policy = serde_json::to_string(&default_solve_policy()).unwrap();
        for line in [
            format!(
                r#"{{"body":{{"Solve":{{"policy":{policy},"instance":{{"initial":null,"capacities":[[1,2.0],[3e0,4]],"weights":[1.0,2]}}}}}},"id":7.0}}"#
            ),
            format!(
                r#" {{ "id" : 7 , "x" : [{{"y":[true,false,null,"s\n\"q\\u0041"]}}], "body" : {{"Solve":{{"instance":{{"weights":[1,2],"capacities":[[1,2],[3,4]],"initial":[0,-0.0]}},"policy":{policy},"policy":5}},"Bracket":1}} , "id" : "dup" }} "#
            ),
            r#"{"id":1,"body":"Stats"}"#.to_string(),
            r#"{"id":1,"body":{"Stats":null}}"#.to_string(),
            r#"{"id":1,"body":{}}"#.to_string(),
            r#"{"id":-1,"body":"Stats"}"#.to_string(),
            r#"{"id":1e3,"body":"Metrics"}"#.to_string(),
            r#"{"id":1,"body":{"Release":{"session":2}}}"#.to_string(),
            r#"{"id":1,"body":{"Edit":{"session":2,"edit":{"Leave":{"user":1}}}}}"#.to_string(),
            r#"{"id":1,"body":"Stats"} x"#.to_string(),
            r#"{"id":1,"body":"Stats",}"#.to_string(),
            r#"{"id":1}"#.to_string(),
        ] {
            agree_json(&line, &limits).unwrap();
        }
    }

    #[test]
    fn oversize_and_ragged_instances_are_counted_not_stored() {
        let limits = Limits {
            max_line_bytes: 1 << 20,
            max_users: 8,
            max_links: 4,
        };
        let cases = [
            // Too many users, too many links, and a ragged matrix.
            (vec![1.0; 100], vec![vec![2.0; 3]; 100]),
            (vec![1.0; 5], vec![vec![2.0; 100]; 5]),
            (
                vec![1.0; 3],
                vec![vec![2.0; 2], vec![2.0; 50], vec![2.0; 2]],
            ),
        ];
        for (weights, capacities) in cases {
            let request = Request {
                id: 1,
                body: RequestBody::Upload(UploadRequest {
                    instance: WireInstance {
                        weights,
                        capacities,
                        initial: None,
                    },
                }),
            };
            for decoded in [
                json(&line_of(&request), &limits).unwrap(),
                frame(&payload_of(&request), &limits).unwrap(),
            ] {
                let DecodedBody::Upload(rows) = decoded.body else {
                    panic!("an upload decodes as an upload");
                };
                assert!(rows.stored() <= limits.max_users * limits.max_links);
                assert!(rows.build().is_err());
            }
            agree_json(&line_of(&request), &limits).unwrap();
            agree_frame(&payload_of(&request), &limits).unwrap();
        }
    }

    #[test]
    fn fabricated_counts_and_deep_nesting_are_rejected_early() {
        let limits = Limits::default();
        // An envelope whose `id` is fine and whose `body` claims an array of
        // 2^40 elements: rejected from the count alone, before any
        // allocation could be sized by it.
        let mut payload = vec![8, 2, 2, b'i', b'd', 3, 1, 4, b'b', b'o', b'd', b'y'];
        payload.extend_from_slice(&[8, 1, 5, b'S', b'o', b'l', b'v', b'e', 8, 2]);
        payload.extend_from_slice(&[8, b'i', b'n', b's', b't', b'a', b'n', b'c', b'e', 8, 1]);
        payload.extend_from_slice(&[7, b'w', b'e', b'i', b'g', b'h', b't', b's', 7]);
        payload.extend_from_slice(&[0x80, 0x80, 0x80, 0x80, 0x80, 0x20]);
        assert!(frame(&payload, &limits).is_err());
        assert!(decode_value(&payload).is_err());

        // Nesting past MAX_DEPTH in an ignored field: both framings refuse
        // it (the binary oracle does too).
        let mut deep = serde_json::Value::Null;
        for _ in 0..MAX_DEPTH + 2 {
            deep = serde_json::Value::Array(vec![deep]);
        }
        let envelope = serde_json::Value::Object(vec![
            ("id".into(), 1u64.to_value()),
            ("body".into(), "Stats".to_value()),
            ("x".into(), deep),
        ]);
        assert!(json(&serde_json::to_string(&envelope).unwrap(), &limits).is_err());
        let payload = encode_value(&envelope);
        assert!(frame(&payload, &limits).is_err());
        assert!(decode_value(&payload).is_err());
        // A policy nested well inside the cap still decodes (each
        // `Fallback` level is two levels of nesting).
        let mut policy = default_solve_policy();
        for _ in 0..20 {
            policy = Policy::Fallback(vec![policy]);
        }
        let request = Request {
            id: 1,
            body: RequestBody::Solve(SolveRequest {
                instance: wire_instance(3, 2, 1),
                policy,
            }),
        };
        agree_json(&line_of(&request), &limits).unwrap();
        agree_frame(&payload_of(&request), &limits).unwrap();
        assert!(frame(&payload_of(&request), &limits).is_ok());
    }

    #[test]
    fn wire_edits_round_trip_through_both_decoders() {
        let limits = Limits::default();
        let edit = WireEdit::Join {
            weight: 2.0,
            capacities: vec![1.0, 2.0],
        };
        let request = Request {
            id: 4,
            body: RequestBody::Edit(EditRequest { session: 9, edit }),
        };
        agree_json(&line_of(&request), &limits).unwrap();
        agree_frame(&payload_of(&request), &limits).unwrap();
    }
}
