//! The optional binary frame mode: length-prefixed compact frames carrying
//! the same wire types as the newline-delimited JSON mode.
//!
//! A client opts in per connection by sending [`BINARY_MAGIC`] as the very
//! first byte after connecting. `0xB1` is a UTF-8 continuation byte, so it
//! can never begin a JSON request line — the server sniffs one byte and
//! knows the framing for the rest of the connection. Both directions then
//! speak length-prefixed frames:
//!
//! ```text
//! [u32 LE payload length][payload]
//! ```
//!
//! The payload is a tagged pre-order encoding of the serde [`Value`] tree
//! the JSON mode would have serialised, so a binary frame decodes to
//! exactly the `Request`/`Response` the JSON line would have produced (the
//! replay harness pins this by diffing the two framings against each other
//! and against direct in-process calls). Clients encode and decode through
//! the serde derive and [`encode_value`]/[`decode_value`]; the server reads
//! requests with the typed walker of `crate::decode`, over the same
//! `Decoder` cursor, without building the tree:
//!
//! | tag | payload |
//! |-----|-----------------------------------------------------|
//! | 0   | null                                                |
//! | 1   | false                                               |
//! | 2   | true                                                |
//! | 3   | non-negative integer, LEB128 varint                 |
//! | 4   | negative integer, LEB128 varint of the `i64` bits   |
//! | 5   | float, 8-byte LE IEEE-754 bits (lossless)           |
//! | 6   | string: varint byte length + UTF-8 bytes            |
//! | 7   | array: varint count + elements                      |
//! | 8   | object: varint count + (varint key length + key + value) per field |
//!
//! Integers and floats are kept in distinct representations so the decoded
//! [`Value`] is structurally identical to the one the encoder saw — a
//! round trip is `==`, and re-serialising the decoded value as JSON gives
//! byte-identical lines. Floats travel as raw bits, so binary frames are
//! lossless where JSON's shortest-round-trip printing already was.
//!
//! Malformed payloads (truncated, bad tags, invalid UTF-8, nesting past
//! [`MAX_DEPTH`]) decode to a typed [`FrameError`]; the length prefix
//! keeps the stream framed, so the server can answer with a typed `Parse`
//! error and continue the connection.

use std::io::{Read, Write};

use serde_json::{Number, Value};

use crate::decode::{f64_of, Source};

/// The one-byte preamble that switches a fresh connection to binary
/// framing. A UTF-8 continuation byte: no JSON request line can start with
/// it, so the sniff is unambiguous.
pub const BINARY_MAGIC: u8 = 0xB1;

/// Deepest accepted nesting while decoding (objects/arrays). The wire
/// types nest nowhere near this; the limit exists so hostile payloads
/// cannot recurse the decoder off the stack.
pub const MAX_DEPTH: usize = 64;

/// A malformed binary payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameError(String);

impl FrameError {
    fn new(message: impl Into<String>) -> Self {
        FrameError(message.into())
    }
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "binary frame error: {}", self.0)
    }
}

impl std::error::Error for FrameError {}

fn push_varint(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn push_str(out: &mut Vec<u8>, s: &str) {
    push_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn encode_into(out: &mut Vec<u8>, value: &Value) {
    match value {
        Value::Null => out.push(0),
        Value::Bool(false) => out.push(1),
        Value::Bool(true) => out.push(2),
        Value::Num(Number::PosInt(u)) => {
            out.push(3);
            push_varint(out, *u);
        }
        Value::Num(Number::NegInt(i)) => {
            out.push(4);
            push_varint(out, *i as u64);
        }
        Value::Num(Number::Float(f)) => {
            out.push(5);
            out.extend_from_slice(&f.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            out.push(6);
            push_str(out, s);
        }
        Value::Array(items) => {
            out.push(7);
            push_varint(out, items.len() as u64);
            for item in items {
                encode_into(out, item);
            }
        }
        Value::Object(fields) => {
            out.push(8);
            push_varint(out, fields.len() as u64);
            for (key, field) in fields {
                push_str(out, key);
                encode_into(out, field);
            }
        }
    }
}

/// Encodes one [`Value`] tree as a binary payload (no length prefix).
pub fn encode_value(value: &Value) -> Vec<u8> {
    let mut out = Vec::new();
    encode_into(&mut out, value);
    out
}

/// A cursor over one binary payload. [`decode_value`] reads a whole
/// [`Value`] tree with it; the request decoder ([`crate::decode`]) walks it
/// typed, through the [`Source`] impl below.
pub(crate) struct Decoder<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Decoder<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        Decoder { bytes, at: 0 }
    }

    fn byte(&mut self) -> Result<u8, FrameError> {
        let byte = *self
            .bytes
            .get(self.at)
            .ok_or_else(|| FrameError::new(format!("truncated at byte {}", self.at)))?;
        self.at += 1;
        Ok(byte)
    }

    fn varint(&mut self) -> Result<u64, FrameError> {
        let mut value: u64 = 0;
        for shift in (0..64).step_by(7) {
            let byte = self.byte()?;
            let bits = u64::from(byte & 0x7f);
            if shift == 63 && bits > 1 {
                return Err(FrameError::new("varint overflows 64 bits"));
            }
            value |= bits << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
        }
        Err(FrameError::new("varint longer than 10 bytes"))
    }

    /// The payload of a number tag: 3 (non-negative varint), 4 (negative
    /// varint) or 5 (raw f64 bits).
    fn number_after(&mut self, tag: u8) -> Result<Number, FrameError> {
        match tag {
            3 => Ok(Number::PosInt(self.varint()?)),
            4 => match self.varint()? as i64 {
                i if i < 0 => Ok(Number::NegInt(i)),
                _ => Err(FrameError::new(
                    "negative-integer tag with a non-negative value",
                )),
            },
            _ => {
                let raw = self.bytes.get(self.at..self.at + 8).ok_or_else(|| {
                    FrameError::new(format!("truncated at byte {}", self.bytes.len()))
                })?;
                self.at += 8;
                let bits = u64::from_le_bytes(raw.try_into().expect("an 8-byte slice"));
                Ok(Number::Float(f64::from_bits(bits)))
            }
        }
    }

    /// A counted array (tag 7) or object (tag 8) header: the element count,
    /// rejected before anything is allocated for it when the payload could
    /// not hold that many elements (each costs at least one byte).
    fn counted(&mut self, tag: u8) -> Result<usize, FrameError> {
        let count = self.varint()? as usize;
        if count > self.bytes.len() - self.at {
            let what = if tag == 7 { "array" } else { "object" };
            return Err(FrameError::new(format!(
                "{what} count runs past the payload"
            )));
        }
        Ok(count)
    }

    fn string(&mut self) -> Result<String, FrameError> {
        let len = self.varint()? as usize;
        let end = self
            .at
            .checked_add(len)
            .filter(|&end| end <= self.bytes.len());
        let end = end.ok_or_else(|| FrameError::new("string runs past the payload"))?;
        let s = std::str::from_utf8(&self.bytes[self.at..end])
            .map_err(|_| FrameError::new("string is not valid UTF-8"))?;
        self.at = end;
        Ok(s.to_string())
    }

    fn value(&mut self, depth: usize) -> Result<Value, FrameError> {
        if depth > MAX_DEPTH {
            return Err(FrameError::new(format!("nesting deeper than {MAX_DEPTH}")));
        }
        match self.byte()? {
            0 => Ok(Value::Null),
            1 => Ok(Value::Bool(false)),
            2 => Ok(Value::Bool(true)),
            tag @ 3..=5 => Ok(Value::Num(self.number_after(tag)?)),
            6 => Ok(Value::Str(self.string()?)),
            7 => {
                let count = self.counted(7)?;
                let mut items = Vec::with_capacity(count);
                for _ in 0..count {
                    items.push(self.value(depth + 1)?);
                }
                Ok(Value::Array(items))
            }
            8 => {
                let count = self.counted(8)?;
                let mut fields = Vec::with_capacity(count);
                for _ in 0..count {
                    let key = self.string()?;
                    let field = self.value(depth + 1)?;
                    fields.push((key, field));
                }
                Ok(Value::Object(fields))
            }
            tag => Err(FrameError::new(format!("unknown tag {tag}"))),
        }
    }

    fn end(&self) -> Result<(), FrameError> {
        if self.at == self.bytes.len() {
            Ok(())
        } else {
            Err(FrameError::new(format!(
                "{} trailing bytes after the value",
                self.bytes.len() - self.at
            )))
        }
    }

    /// Opens a container whose tag must be `tag`, at nesting `depth`.
    fn open(&mut self, tag: u8, depth: usize) -> Result<usize, String> {
        if depth > MAX_DEPTH {
            return Err(FrameError::new(format!("nesting deeper than {MAX_DEPTH}")).to_string());
        }
        match self.byte().map_err(|e| e.to_string())? {
            t if t == tag => self.counted(tag).map_err(|e| e.to_string()),
            t => Err(format!("tag {t} where tag {tag} was expected")),
        }
    }
}

/// The typed walk over a payload: the same grammar and the same checks
/// (depth cap, counts against the bytes left, whole-payload consumption)
/// as [`decode_value`], without building the tree.
impl Source for Decoder<'_> {
    /// Elements or fields left to read.
    type Seq = usize;

    fn object(&mut self, depth: usize) -> Result<usize, String> {
        self.open(8, depth)
    }

    fn key(&mut self, left: &mut usize) -> Result<Option<String>, String> {
        if *left == 0 {
            return Ok(None);
        }
        *left -= 1;
        self.string().map(Some).map_err(|e| e.to_string())
    }

    fn array(&mut self, depth: usize) -> Result<usize, String> {
        self.open(7, depth)
    }

    fn item(&mut self, left: &mut usize) -> Result<bool, String> {
        let more = *left > 0;
        *left = left.saturating_sub(1);
        Ok(more)
    }

    fn number(&mut self) -> Result<Option<Number>, String> {
        match self.byte().map_err(|e| e.to_string())? {
            0 => Ok(None),
            tag @ 3..=5 => self.number_after(tag).map(Some).map_err(|e| e.to_string()),
            tag => Err(format!("tag {tag} where a number was expected")),
        }
    }

    fn floats(&mut self, depth: usize, mut push: impl FnMut(f64)) -> Result<(), String> {
        for _ in 0..self.array(depth)? {
            // A capacity row is a run of tag-5 words: copy the bits out
            // directly; any other tag takes the general number path.
            match self.bytes.get(self.at..self.at + 9) {
                Some([5, bits @ ..]) => {
                    let bits: [u8; 8] = bits.try_into().expect("an 8-byte slice");
                    self.at += 9;
                    push(f64::from_le_bytes(bits));
                }
                _ => push(self.number()?.map_or(f64::NAN, f64_of)),
            }
        }
        Ok(())
    }

    fn null(&mut self) -> Result<bool, String> {
        let null = self.bytes.get(self.at) == Some(&0);
        self.at += usize::from(null);
        Ok(null)
    }

    fn at_string(&mut self) -> bool {
        self.bytes.get(self.at) == Some(&6)
    }

    fn string(&mut self) -> Result<String, String> {
        match self.byte().map_err(|e| e.to_string())? {
            6 => Decoder::string(self).map_err(|e| e.to_string()),
            tag => Err(format!("tag {tag} where a string was expected")),
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, String> {
        Decoder::value(self, depth).map_err(|e| e.to_string())
    }

    fn end(&mut self) -> Result<(), String> {
        Decoder::end(self).map_err(|e| e.to_string())
    }
}

/// Decodes one binary payload back into a [`Value`] tree. The whole
/// payload must be consumed — trailing bytes are an error, so a frame can
/// never smuggle a second message.
pub fn decode_value(bytes: &[u8]) -> Result<Value, FrameError> {
    let mut decoder = Decoder::new(bytes);
    let value = decoder.value(0)?;
    decoder.end()?;
    Ok(value)
}

/// Writes one length-prefixed binary frame.
pub fn write_frame(writer: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(payload);
    writer.write_all(&frame)?;
    writer.flush()
}

/// Reads one length-prefixed binary frame, rejecting payloads over
/// `max_len` before allocating for them.
pub fn read_frame(reader: &mut impl Read, max_len: usize) -> std::io::Result<Vec<u8>> {
    let mut header = [0u8; 4];
    reader.read_exact(&mut header)?;
    let len = u32::from_le_bytes(header) as usize;
    if len > max_len {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {max_len}-byte cap"),
        ));
    }
    let mut payload = vec![0u8; len];
    reader.read_exact(&mut payload)?;
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{Request, Response};
    use crate::workload::mixed_request;
    use serde::{Deserialize, Serialize};

    #[test]
    fn every_value_shape_round_trips() {
        let value = Value::Object(vec![
            ("null".into(), Value::Null),
            (
                "bools".into(),
                Value::Array(vec![Value::Bool(true), Value::Bool(false)]),
            ),
            ("pos".into(), Value::Num(Number::PosInt(u64::MAX))),
            ("neg".into(), Value::Num(Number::NegInt(i64::MIN))),
            ("float".into(), Value::Num(Number::Float(-0.1))),
            ("nan".into(), Value::Num(Number::Float(f64::NAN))),
            ("text".into(), Value::Str("naïve — ünïcode".into())),
            ("empty".into(), Value::Array(Vec::new())),
        ]);
        let decoded = decode_value(&encode_value(&value)).unwrap();
        // NaN breaks ==; compare through the JSON printer instead (which
        // folds NaN to null, same as the JSON framing does).
        assert_eq!(
            serde_json::to_string(&decoded).unwrap(),
            serde_json::to_string(&value).unwrap()
        );
    }

    #[test]
    fn workload_requests_survive_a_binary_round_trip_byte_identically() {
        for index in 0..24 {
            let request = mixed_request(11, index);
            let payload = encode_value(&request.to_value());
            let back = Request::from_value(&decode_value(&payload).unwrap()).unwrap();
            assert_eq!(
                serde_json::to_string(&request).unwrap(),
                serde_json::to_string(&back).unwrap()
            );
            // And the compact claim is real: the binary payload is smaller
            // than the JSON line for every workload request.
            assert!(payload.len() < serde_json::to_string(&request).unwrap().len());
        }
    }

    #[test]
    fn malformed_payloads_are_typed_errors_not_panics() {
        assert!(decode_value(&[]).is_err()); // empty
        assert!(decode_value(&[9]).is_err()); // unknown tag
        assert!(decode_value(&[6, 5, b'h', b'i']).is_err()); // truncated string
        assert!(decode_value(&[3, 0x80]).is_err()); // truncated varint
        assert!(decode_value(&[0, 0]).is_err()); // trailing byte
        assert!(decode_value(&[4, 1]).is_err()); // "negative" int that is not
        assert!(decode_value(&[7, 0xff, 0xff, 0xff, 0xff, 0x0f]).is_err()); // huge count
        let mut deep = Vec::new();
        for _ in 0..(MAX_DEPTH + 2) {
            deep.extend_from_slice(&[7, 1]); // array of one...
        }
        deep.push(0);
        assert!(decode_value(&deep).is_err()); // ...nested too deep
    }

    #[test]
    fn responses_round_trip_too() {
        use crate::protocol::{ErrorKind, ResponseBody, WireError};
        let response = Response {
            id: 9,
            body: ResponseBody::Error(WireError::new(ErrorKind::Parse, "truncated")),
        };
        let payload = encode_value(&response.to_value());
        let back = Response::from_value(&decode_value(&payload).unwrap()).unwrap();
        assert_eq!(response, back);
    }
}
