//! The two wire codecs behind one [`Codec`] trait, driven by one schema.
//!
//! [`JsonCodec`] is the pre-v2 wire, unchanged: one JSON object per line,
//! the debuggable compat surface. [`BinaryCodec`] is the hot-path wire: a
//! compact tag-length-value encoding of the same [`Request`]/[`Response`]
//! enums inside the journal's checksummed frame
//! ([`crate::frame::frame_bytes`]), so a damaged stream is caught by the
//! machinery that guards durability files. A server never negotiates: it
//! sniffs the first byte of a connection (`{` for JSON, a hex length digit
//! for a frame), and the mode is sticky.
//!
//! Each field type is a `Value`, holding its JSON and its binary form in
//! both directions. Each record lists its fields once, in wire order
//! (`records!`), and each request and reply shape in one `put_*` and one
//! `take_*` function that both codecs share: JSON carries the fields by
//! name, leaving out an absent option and a false flag, and binary by
//! position. The codecs add only their envelopes: a JSON request leads
//! with its `verb`, a JSON reply with `"ok"`, a binary message with its
//! tag. A JSON member that is present but of the wrong type is refused
//! with `bad_request`, naming the field, never read as absent.
//!
//! TLV layout (all integers LEB128 varints, `f64` as 8-byte LE bit
//! pattern, strings varint-length-prefixed UTF-8, options a one-byte
//! presence flag, flags one byte 0 or 1, vectors a varint count of at most
//! [`MAX_BATCH_ITEMS`]):
//!
//! ```text
//! request  := tag:u8 body
//!   0x01 submit        item
//!   0x02 submit_batch  count item*
//!   0x03 status        ticket
//!   0x04 status_batch  count ticket*
//!   0x05 result        ticket opt(timeout_ms)
//!   0x06 result_batch  count ticket* opt(timeout_ms)
//!   0x07 cancel        ticket
//!   0x08 stats         —
//!   0x09 health        —
//!   0x0A node_stats    —
//!   item := spec:str opt(priority:str) opt(deadline_ms)
//!           opt(client:str) allow_degraded:u8 opt(min_fidelity:str)
//! response := tag:u8 body
//!   0x81 submit   ticket job:str disposition:str depth opt(node) edge:u8
//!   0x82 status   state:str
//!   0x83 outcome  outcome:str opt(detail) opt(queue_ns) opt(run_ns) opt(body)
//!   0x84 cancel   cancel:str
//!   0x85 report   json:str
//!   0x86 batch    count response*        (nested, without re-framing)
//!   0x87 error    code:str verb:str opt(detail) opt(depth)
//!   body := workload:str mode:str cycles messages ipc:f64
//!           latency_mean:f64 latency_count calibrations
//!           opt(fidelity:str) opt(error_bound:f64)
//! ```
//!
//! The overload-control fields (`client`/`allow_degraded`/`min_fidelity`
//! on items, the fidelity pair on bodies) are appended at the *end* of
//! their structures, mirroring the JSON wire's append-only discipline.

use std::io;

use ra_obs::{json_array, json_object, JsonField};

use crate::frame::frame_bytes;
use crate::json::Json;
use crate::proto::{
    ErrorCode, OutcomeOk, Request, Response, ResultBody, SubmitItem, SubmitOk, WireError,
    MAX_BATCH_ITEMS,
};

/// One wire encoding: full on-wire bytes out, de-framed payloads in.
///
/// `encode_*` return everything that goes on the socket for one message
/// (the JSON line including its `\n`; the complete checksummed binary
/// frame). `decode_*` take one *extracted* message — a line stripped of
/// its terminator, or a frame body that already passed its checksum.
pub trait Codec {
    /// Stable codec name (`"json"` / `"binary"`) for logs and reports.
    fn name(&self) -> &'static str;
    fn encode_request(&self, request: &Request) -> Vec<u8>;
    fn encode_response(&self, response: &Response) -> Vec<u8>;
    /// Server side: a decode failure is answered on the wire, so the
    /// error type is a [`WireError`] ready to send back.
    fn decode_request(&self, payload: &[u8]) -> Result<Request, WireError>;
    /// Client side: a decode failure means a broken peer, surfaced as an
    /// I/O error on the call.
    fn decode_response(&self, payload: &[u8]) -> io::Result<Response>;
}

/// The line-delimited JSON wire — byte-compatible with pre-v2 peers.
#[derive(Debug, Clone, Copy, Default)]
pub struct JsonCodec;

impl Codec for JsonCodec {
    fn name(&self) -> &'static str {
        "json"
    }

    fn encode_request(&self, request: &Request) -> Vec<u8> {
        let mut fields = vec![("verb", JsonField::Str(request.verb().to_owned()))];
        put_request(request, &mut fields);
        line(json_object(&fields))
    }

    fn encode_response(&self, response: &Response) -> Vec<u8> {
        line(response_json(response))
    }

    fn decode_request(&self, payload: &[u8]) -> Result<Request, WireError> {
        let refuse = |verb: &str, detail: String| {
            WireError::new(ErrorCode::BadRequest, verb).with_detail(detail)
        };
        let text = std::str::from_utf8(payload)
            .map_err(|_| refuse("", "request is not UTF-8".to_owned()))?;
        let json = Json::parse(text).map_err(|err| refuse("", err.to_string()))?;
        let verb: String = Lenient(&json).take("verb").unwrap_or_default();
        if verb.is_empty() {
            return Err(refuse("", "`verb` must be a non-empty string".to_owned()));
        }
        match take_request(&verb, &mut Strict(&json)) {
            Ok(Some(request)) => Ok(request),
            Ok(None) => Err(WireError::new(ErrorCode::UnknownVerb, verb.as_str())
                .with_detail(format!("`{verb}`"))),
            Err(detail) => Err(refuse(&verb, detail)),
        }
    }

    fn decode_response(&self, payload: &[u8]) -> io::Result<Response> {
        let text = std::str::from_utf8(payload).map_err(|_| invalid("response is not UTF-8"))?;
        let json =
            Json::parse(text).map_err(|err| invalid(&format!("bad response JSON: {err}")))?;
        // An unrecognised reply is a report, passed on verbatim.
        Ok(
            response_from_json(&json).unwrap_or_else(|| Response::Report {
                json: text.to_owned(),
            }),
        )
    }
}

/// The framed TLV wire — same enums, a fraction of the bytes.
#[derive(Debug, Clone, Copy, Default)]
pub struct BinaryCodec;

impl Codec for BinaryCodec {
    fn name(&self) -> &'static str {
        "binary"
    }

    fn encode_request(&self, request: &Request) -> Vec<u8> {
        let (tag, _) = VERBS
            .into_iter()
            .find(|&(_, verb)| verb == request.verb())
            .expect("every verb has a tag");
        let mut body = Vec::with_capacity(64);
        body.push(tag);
        put_request(request, &mut body);
        frame_bytes(&body)
    }

    fn encode_response(&self, response: &Response) -> Vec<u8> {
        let mut body = Vec::with_capacity(64);
        response.write(&mut body);
        frame_bytes(&body)
    }

    fn decode_request(&self, payload: &[u8]) -> Result<Request, WireError> {
        read_whole(payload, |cursor| {
            let tag = cursor.byte()?;
            let (_, verb) = VERBS.into_iter().find(|&(known, _)| known == tag)?;
            take_request(verb, cursor).ok().flatten()
        })
        .map_err(|detail| WireError::new(ErrorCode::BadFrame, "").with_detail(detail))
    }

    fn decode_response(&self, payload: &[u8]) -> io::Result<Response> {
        read_whole(payload, |cursor| take_response(cursor.byte()?, cursor).ok()).map_err(invalid)
    }
}

/// Reads one whole binary body with `read`; the error says what was wrong.
fn read_whole<T>(
    payload: &[u8],
    read: impl FnOnce(&mut Cursor<'_>) -> Option<T>,
) -> Result<T, &'static str> {
    let mut cursor = Cursor(payload);
    match read(&mut cursor) {
        None => Err("undecodable frame body"),
        Some(_) if !cursor.0.is_empty() => Err("trailing bytes after the message"),
        Some(value) => Ok(value),
    }
}

fn invalid(message: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

fn line(json: String) -> Vec<u8> {
    let mut bytes = json.into_bytes();
    bytes.push(b'\n');
    bytes
}

// ---- The envelopes -------------------------------------------------------

/// Every verb with its binary tag; a JSON request names its verb instead.
const VERBS: [(u8, &str); 10] = [
    (0x01, "submit"),
    (0x02, "submit_batch"),
    (0x03, "status"),
    (0x04, "status_batch"),
    (0x05, "result"),
    (0x06, "result_batch"),
    (0x07, "cancel"),
    (0x08, "stats"),
    (0x09, "health"),
    (0x0A, "node_stats"),
];

/// A request's fields in wire order, after its verb or tag.
fn put_request(request: &Request, out: &mut impl Sink) {
    match request {
        Request::Submit(item) => item.put(out),
        Request::SubmitBatch(items) => out.put("items", items),
        Request::Status { ticket } | Request::Cancel { ticket } => out.put("ticket", ticket),
        Request::StatusBatch { tickets } => out.put("tickets", tickets),
        Request::Result { ticket, timeout_ms } => {
            out.put("ticket", ticket);
            out.put("timeout_ms", timeout_ms);
        }
        Request::ResultBatch {
            tickets,
            timeout_ms,
        } => {
            out.put("tickets", tickets);
            out.put("timeout_ms", timeout_ms);
        }
        Request::Stats | Request::Health | Request::NodeStats => {}
    }
}

/// The request `verb` names, its fields taken as [`put_request`] puts
/// them; `None` for an unknown verb.
fn take_request(verb: &str, from: &mut impl Source) -> Result<Option<Request>, String> {
    Ok(Some(match verb {
        "submit" => Request::Submit(SubmitItem::take(from)?),
        "submit_batch" => Request::SubmitBatch(from.take("items")?),
        "status" => Request::Status {
            ticket: from.take("ticket")?,
        },
        "status_batch" => Request::StatusBatch {
            tickets: from.take("tickets")?,
        },
        "result" => Request::Result {
            ticket: from.take("ticket")?,
            timeout_ms: from.take("timeout_ms")?,
        },
        "result_batch" => Request::ResultBatch {
            tickets: from.take("tickets")?,
            timeout_ms: from.take("timeout_ms")?,
        },
        "cancel" => Request::Cancel {
            ticket: from.take("ticket")?,
        },
        "stats" => Request::Stats,
        "health" => Request::Health,
        "node_stats" => Request::NodeStats,
        _ => return Ok(None),
    }))
}

/// A reply's binary tag. A JSON reply carries none: [`response_from_json`]
/// tells the shapes apart by their members.
fn response_tag(response: &Response) -> u8 {
    match response {
        Response::Submit(_) => 0x81,
        Response::Status { .. } => 0x82,
        Response::Outcome(_) => 0x83,
        Response::Cancel { .. } => 0x84,
        Response::Report { .. } => 0x85,
        Response::Batch(_) => 0x86,
        Response::Error(_) => 0x87,
    }
}

/// A reply's fields in wire order, after its tag or its `"ok"`.
fn put_response(response: &Response, out: &mut impl Sink) {
    match response {
        Response::Submit(ok) => ok.put(out),
        Response::Status { state } => out.put("state", state),
        Response::Outcome(ok) => ok.put(out),
        Response::Cancel { cancel } => out.put("cancel", cancel),
        Response::Report { json } => out.put("json", json),
        Response::Batch(items) => out.put("batch", items),
        Response::Error(err) => err.put(out),
    }
}

/// The reply a tag names, its fields taken as [`put_response`] puts them.
fn take_response(tag: u8, from: &mut impl Source) -> Result<Response, String> {
    Ok(match tag {
        0x81 => Response::Submit(SubmitOk::take(from)?),
        0x82 => Response::Status {
            state: from.take("state")?,
        },
        0x83 => Response::Outcome(OutcomeOk::take(from)?),
        0x84 => Response::Cancel {
            cancel: from.take("cancel")?,
        },
        0x85 => Response::Report {
            json: from.take("json")?,
        },
        0x86 => Response::Batch(from.take("batch")?),
        0x87 => Response::Error(WireError::take(from)?),
        _ => return Err(format!("unknown reply tag {tag:#04x}")),
    })
}

/// One reply as a JSON object: `"ok":true` and its fields. An error
/// leads with `"ok":false` and the legacy `error` member (pre-v2 clients
/// key on it) and ends with `"retryable":true` exactly when its code is
/// retryable; a report is already a whole line and passes verbatim.
fn response_json(response: &Response) -> String {
    let mut fields = match response {
        Response::Report { json } => return json.clone(),
        Response::Error(err) => {
            let mut fields = vec![("ok", JsonField::Raw("false".to_owned()))];
            fields.put("error", &err.code);
            fields
        }
        _ => vec![("ok", JsonField::Raw("true".to_owned()))],
    };
    put_response(response, &mut fields);
    if matches!(response, Response::Error(err) if err.code.retryable()) {
        fields.push(("retryable", JsonField::Raw("true".to_owned())));
    }
    json_object(&fields)
}

/// Recognises a JSON reply by the members only its shape carries and
/// decodes it; `None` when no shape matches (a report) or the matched
/// shape does not decode.
fn response_from_json(json: &Json) -> Option<Response> {
    let has = |name| json.get(name).is_some();
    let tag = if json.get("ok").and_then(Json::as_bool) == Some(false) {
        // Read leniently, whatever the peer's vintage: `code` falls back
        // to the legacy `error`, and a member that does not decode reads
        // as absent, so an error is never lost.
        let mut from = Lenient(json);
        let mut err = WireError::take(&mut from).ok()?;
        if !has("code") {
            err.code = from.take("error").ok()?;
        }
        return Some(Response::Error(err));
    } else if has("batch") {
        0x86
    } else if has("outcome") {
        0x83
    } else if has("cancel") {
        0x84
    } else if has("ticket") && has("disposition") {
        0x81
    } else if has("state") && !has("role") {
        0x82 // a `state` beside a `role` is a health report
    } else {
        return None;
    };
    take_response(tag, &mut Strict(json)).ok()
}

// ---- The schema ----------------------------------------------------------

/// One field type, in both encodings and both directions.
trait Value: Sized {
    /// The JSON member, or `None` to leave the field out.
    fn to_json(&self) -> Option<JsonField>;
    /// Reads JSON member `name`, `None` when the object leaves it out. The
    /// error is a refusal's detail, `` `<field>` must be <kind> ``.
    fn from_json(json: Option<&Json>, name: &str) -> Result<Self, String>;
    fn write(&self, out: &mut Vec<u8>);
    /// `None` on a truncated or malformed body, never a panic.
    fn read(cursor: &mut Cursor<'_>) -> Option<Self>;
}

fn must(name: &str, kind: &str) -> String {
    format!("`{name}` must be {kind}")
}

impl Value for u64 {
    fn to_json(&self) -> Option<JsonField> {
        Some(JsonField::Int(*self))
    }

    fn from_json(json: Option<&Json>, name: &str) -> Result<Self, String> {
        json.and_then(Json::as_u64)
            .ok_or_else(|| must(name, "a non-negative integer"))
    }

    fn write(&self, out: &mut Vec<u8>) {
        let mut value = *self;
        while value >= 0x80 {
            out.push((value & 0x7F) as u8 | 0x80);
            value >>= 7;
        }
        out.push(value as u8);
    }

    fn read(cursor: &mut Cursor<'_>) -> Option<Self> {
        let mut value = 0;
        for shift in (0..64).step_by(7) {
            let byte = cursor.byte()?;
            value |= u64::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                // The tenth byte holds bit 63 alone: refuse more.
                return (shift < 63 || byte <= 1).then_some(value);
            }
        }
        None
    }
}

impl Value for f64 {
    fn to_json(&self) -> Option<JsonField> {
        Some(JsonField::Num(*self))
    }

    fn from_json(json: Option<&Json>, name: &str) -> Result<Self, String> {
        json.and_then(Json::as_f64)
            .ok_or_else(|| must(name, "a number"))
    }

    fn write(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_bits().to_le_bytes());
    }

    fn read(cursor: &mut Cursor<'_>) -> Option<Self> {
        let bytes = cursor.bytes(8)?.try_into().ok()?;
        Some(f64::from_bits(u64::from_le_bytes(bytes)))
    }
}

impl Value for String {
    fn to_json(&self) -> Option<JsonField> {
        Some(JsonField::Str(self.clone()))
    }

    fn from_json(json: Option<&Json>, name: &str) -> Result<Self, String> {
        json.and_then(Json::as_str)
            .map(str::to_owned)
            .ok_or_else(|| must(name, "a string"))
    }

    fn write(&self, out: &mut Vec<u8>) {
        (self.len() as u64).write(out);
        out.extend_from_slice(self.as_bytes());
    }

    fn read(cursor: &mut Cursor<'_>) -> Option<Self> {
        let len = usize::try_from(u64::read(cursor)?).ok()?;
        String::from_utf8(cursor.bytes(len)?.to_vec()).ok()
    }
}

/// Its string; a code from a newer peer reads as the default.
impl Value for ErrorCode {
    fn to_json(&self) -> Option<JsonField> {
        Some(JsonField::Str(self.as_str().to_owned()))
    }

    fn from_json(json: Option<&Json>, name: &str) -> Result<Self, String> {
        String::from_json(json, name).map(|code| ErrorCode::parse(&code))
    }

    fn write(&self, out: &mut Vec<u8>) {
        self.as_str().to_owned().write(out);
    }

    fn read(cursor: &mut Cursor<'_>) -> Option<Self> {
        Some(ErrorCode::parse(&String::read(cursor)?))
    }
}

/// A flag: JSON writes it only when true, binary as one byte, 0 or 1.
impl Value for bool {
    fn to_json(&self) -> Option<JsonField> {
        self.then(|| JsonField::Raw("true".to_owned()))
    }

    fn from_json(json: Option<&Json>, name: &str) -> Result<Self, String> {
        json.map_or(Some(false), Json::as_bool)
            .ok_or_else(|| must(name, "a boolean"))
    }

    fn write(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }

    fn read(cursor: &mut Cursor<'_>) -> Option<Self> {
        cursor.byte().filter(|&b| b <= 1).map(|b| b == 1)
    }
}

/// Left out of JSON when absent; behind a presence flag in binary.
impl<T: Value> Value for Option<T> {
    fn to_json(&self) -> Option<JsonField> {
        self.as_ref().and_then(Value::to_json)
    }

    fn from_json(json: Option<&Json>, name: &str) -> Result<Self, String> {
        json.map(|_| T::from_json(json, name)).transpose()
    }

    fn write(&self, out: &mut Vec<u8>) {
        self.is_some().write(out);
        if let Some(value) = self {
            value.write(out);
        }
    }

    fn read(cursor: &mut Cursor<'_>) -> Option<Self> {
        if bool::read(cursor)? {
            T::read(cursor).map(Some)
        } else {
            Some(None)
        }
    }
}

/// At most [`MAX_BATCH_ITEMS`] entries, checked before any allocation
/// sized by the peer's count.
impl<T: Value> Value for Vec<T> {
    fn to_json(&self) -> Option<JsonField> {
        let items: Vec<JsonField> = self.iter().filter_map(Value::to_json).collect();
        Some(JsonField::Raw(json_array(&items)))
    }

    fn from_json(json: Option<&Json>, name: &str) -> Result<Self, String> {
        let Some(Json::Arr(items)) = json else {
            return Err(must(name, "an array"));
        };
        if items.len() > MAX_BATCH_ITEMS {
            let len = items.len();
            return Err(format!("batch of {len} exceeds {MAX_BATCH_ITEMS} items"));
        }
        items.iter().map(|i| T::from_json(Some(i), name)).collect()
    }

    fn write(&self, out: &mut Vec<u8>) {
        (self.len() as u64).write(out);
        for item in self {
            item.write(out);
        }
    }

    fn read(cursor: &mut Cursor<'_>) -> Option<Self> {
        let count = u64::read(cursor)?;
        if count > MAX_BATCH_ITEMS as u64 {
            return None;
        }
        (0..count).map(|_| T::read(cursor)).collect()
    }
}

/// A batch reply's entries: each a whole reply with its own `"ok"` or
/// tag. An unrecognised JSON entry is a protocol error, not a
/// pass-through: report shapes never appear inside a batch. Nor do
/// batches, so a binary batch item is refused as undecodable: the
/// decoder then recurses at most once, whatever a peer sends.
impl Value for Response {
    fn to_json(&self) -> Option<JsonField> {
        Some(JsonField::Raw(response_json(self)))
    }

    fn from_json(json: Option<&Json>, _: &str) -> Result<Self, String> {
        let unrecognized = || {
            Response::Error(
                WireError::new(ErrorCode::BadRequest, "").with_detail("unrecognized batch item"),
            )
        };
        Ok(json
            .and_then(response_from_json)
            .unwrap_or_else(unrecognized))
    }

    fn write(&self, out: &mut Vec<u8>) {
        out.push(response_tag(self));
        put_response(self, out);
    }

    fn read(cursor: &mut Cursor<'_>) -> Option<Self> {
        match cursor.byte()? {
            0x86 => None,
            tag => take_response(tag, cursor).ok(),
        }
    }
}

/// A struct the wire carries as an object in JSON and as its fields in a
/// row in binary.
trait Record: Sized {
    fn put(&self, out: &mut impl Sink);
    fn take(from: &mut impl Source) -> Result<Self, String>;
}

impl<R: Record> Value for R {
    fn to_json(&self) -> Option<JsonField> {
        let mut fields = Vec::new();
        self.put(&mut fields);
        Some(JsonField::Raw(json_object(&fields)))
    }

    fn from_json(json: Option<&Json>, name: &str) -> Result<Self, String> {
        match json {
            Some(object @ Json::Obj(_)) => R::take(&mut Strict(object)),
            _ => Err(must(name, "an object")),
        }
    }

    fn write(&self, out: &mut Vec<u8>) {
        self.put(out);
    }

    fn read(cursor: &mut Cursor<'_>) -> Option<Self> {
        R::take(cursor).ok()
    }
}

/// Lists each record's fields once, in wire order. A field whose JSON
/// name is not its Rust name gives it after `=`.
macro_rules! records {
    (@name $field:ident) => {
        stringify!($field)
    };
    (@name $field:ident $name:literal) => {
        $name
    };
    ($($record:ident { $($field:ident $(= $name:literal)?),* })*) => {$(
        impl Record for $record {
            fn put(&self, out: &mut impl Sink) {
                $(out.put(records!(@name $field $($name)?), &self.$field);)*
            }

            fn take(from: &mut impl Source) -> Result<Self, String> {
                Ok($record {
                    $($field: from.take(records!(@name $field $($name)?))?,)*
                })
            }
        }
    )*};
}

records! {
    SubmitItem { spec, priority, deadline_ms, client, allow_degraded, min_fidelity }
    SubmitOk { ticket, job, disposition, depth, node, edge }
    ResultBody {
        workload, mode, cycles, messages, ipc, latency_mean, latency_count, calibrations,
        fidelity, error_bound
    }
    OutcomeOk { outcome, detail, queue_ns, run_ns, body = "result" }
    WireError { code, verb, detail, depth }
}

/// Where fields go, in the order they are put.
trait Sink {
    fn put<T: Value>(&mut self, name: &'static str, value: &T);
}

/// A JSON object's members: each field by name, left out when absent.
impl Sink for Vec<(&'static str, JsonField)> {
    fn put<T: Value>(&mut self, name: &'static str, value: &T) {
        if let Some(json) = value.to_json() {
            self.push((name, json));
        }
    }
}

/// A binary body: each field by position, so the name goes unused.
impl Sink for Vec<u8> {
    fn put<T: Value>(&mut self, _: &'static str, value: &T) {
        value.write(self);
    }
}

/// Where fields come from, in the order they were put. The error is the
/// `detail` of the refusal.
trait Source {
    fn take<T: Value + Default>(&mut self, name: &'static str) -> Result<T, String>;
}

/// A JSON object, read strictly: a member of the wrong type is refused,
/// and so is a missing required one.
struct Strict<'a>(&'a Json);

impl Source for Strict<'_> {
    fn take<T: Value + Default>(&mut self, name: &'static str) -> Result<T, String> {
        T::from_json(self.0.get(name), name)
    }
}

/// A JSON object, read leniently: a member that does not decode reads as
/// its type's default.
struct Lenient<'a>(&'a Json);

impl Source for Lenient<'_> {
    fn take<T: Value + Default>(&mut self, name: &'static str) -> Result<T, String> {
        Ok(T::from_json(self.0.get(name), name).unwrap_or_default())
    }
}

/// The unread rest of one binary body.
struct Cursor<'a>(&'a [u8]);

impl<'a> Cursor<'a> {
    fn byte(&mut self) -> Option<u8> {
        self.bytes(1).map(|byte| byte[0])
    }

    fn bytes(&mut self, len: usize) -> Option<&'a [u8]> {
        let taken = self.0.get(..len)?;
        self.0 = &self.0[len..];
        Some(taken)
    }
}

impl Source for Cursor<'_> {
    fn take<T: Value + Default>(&mut self, _: &'static str) -> Result<T, String> {
        T::read(self).ok_or_else(String::new)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_codec_terminates_lines_and_decodes_without_the_terminator() {
        let wire = JsonCodec.encode_request(&Request::Health);
        assert_eq!(wire.last(), Some(&b'\n'));
        let request = JsonCodec.decode_request(&wire[..wire.len() - 1]).unwrap();
        assert_eq!(request, Request::Health);
    }

    #[test]
    fn error_json_keeps_the_legacy_error_field_first_and_adds_code_and_verb() {
        let err = WireError::new(ErrorCode::QueueFull, "submit").with_depth(5);
        let wire = JsonCodec.encode_response(&Response::Error(err.clone()));
        let line = std::str::from_utf8(&wire).unwrap().trim_end();
        assert!(
            line.starts_with(
                r#"{"ok":false,"error":"queue_full","code":"queue_full","verb":"submit""#
            ),
            "{line}"
        );
        assert!(line.ends_with(r#""depth":5,"retryable":true}"#), "{line}");
        let back = JsonCodec.decode_response(line.as_bytes()).unwrap();
        assert_eq!(back, Response::Error(err));
    }

    #[test]
    fn errors_decode_leniently_whatever_the_peer() {
        // A legacy error without `code` or `verb`, with a code from the
        // future: it folds to `unavailable`, keeping its detail.
        let line = r#"{"ok":false,"error":"heat_death","detail":"entropy"}"#;
        let Response::Error(err) = JsonCodec.decode_response(line.as_bytes()).unwrap() else {
            panic!("not an error: {line}");
        };
        assert_eq!(err.code, ErrorCode::Unavailable);
        assert_eq!(err.verb, "");
        assert_eq!(err.detail.as_deref(), Some("entropy"));
        // `code` wins over `error`, and a mistyped member reads as absent.
        let line = r#"{"ok":false,"error":"timeout","code":"queue_full","verb":3,"depth":"x"}"#;
        let Response::Error(err) = JsonCodec.decode_response(line.as_bytes()).unwrap() else {
            panic!("not an error: {line}");
        };
        assert_eq!(err, WireError::new(ErrorCode::QueueFull, ""));
    }

    #[test]
    fn responses_re_encode_to_the_exact_original_line() {
        // Every shape the old wire produced, rendered exactly as the old
        // wire rendered it: decode -> encode must be the identity.
        let lines = [
            r#"{"ok":true,"ticket":3,"job":"00000000000000aa","disposition":"enqueued","depth":2}"#,
            r#"{"ok":true,"ticket":4,"job":"00000000000000aa","disposition":"cached","depth":0,"edge":true}"#,
            r#"{"ok":true,"ticket":5,"job":"00000000000000aa","disposition":"coalesced","depth":1,"node":2}"#,
            r#"{"ok":true,"state":"running"}"#,
            r#"{"ok":true,"cancel":"signalled"}"#,
            r#"{"ok":true,"outcome":"failed","detail":"spec: boom"}"#,
            r#"{"ok":true,"outcome":"completed","queue_ns":12,"run_ns":34,"result":{"workload":"water","mode":"reciprocal","cycles":100000,"messages":512,"ipc":0.875,"latency_mean":14.25,"latency_count":512,"calibrations":4}}"#,
            r#"{"ok":true,"outcome":"completed","queue_ns":12,"run_ns":34,"result":{"workload":"water","mode":"reciprocal","cycles":100000,"messages":512,"ipc":0.875,"latency_mean":14.25,"latency_count":512,"calibrations":4,"fidelity":"calibrated","error_bound":0.15}}"#,
        ];
        for line in lines {
            let typed = JsonCodec.decode_response(line.as_bytes()).unwrap();
            assert!(
                !matches!(typed, Response::Report { .. }),
                "shape not recognized: {line}"
            );
            assert_eq!(
                JsonCodec.encode_response(&typed),
                format!("{line}\n").into_bytes()
            );
        }
    }

    #[test]
    fn report_shapes_pass_through_verbatim() {
        let health = r#"{"ok":true,"role":"backend","state":"up","queue_depth":0}"#;
        let typed = JsonCodec.decode_response(health.as_bytes()).unwrap();
        assert!(matches!(typed, Response::Report { .. }), "{typed:?}");
        assert_eq!(
            JsonCodec.encode_response(&typed),
            format!("{health}\n").into_bytes()
        );
    }

    /// Malformed JSON requests: each is refused with its code, the verb
    /// it named, and a detail naming what was wrong — a present member of
    /// the wrong type included, which must never read as absent.
    #[test]
    fn malformed_json_requests_are_refused_naming_the_field() {
        use ErrorCode::{BadRequest, UnknownVerb};
        let tickets: Vec<String> = (0..=MAX_BATCH_ITEMS).map(|t| t.to_string()).collect();
        let oversized = format!(
            r#"{{"verb":"status_batch","tickets":[{}]}}"#,
            tickets.join(",")
        );
        let cases: [(&str, ErrorCode, &str, &str); 21] = [
            (
                r#"{"verb":"stats""#,
                BadRequest,
                "",
                "JSON error at byte 15: expected `,` or `}` in object",
            ),
            (
                r#"{"ticket":3}"#,
                BadRequest,
                "",
                "`verb` must be a non-empty string",
            ),
            (
                r#"{"verb":7}"#,
                BadRequest,
                "",
                "`verb` must be a non-empty string",
            ),
            (
                r#"{"verb":""}"#,
                BadRequest,
                "",
                "`verb` must be a non-empty string",
            ),
            (r#"{"verb":"warp"}"#, UnknownVerb, "warp", "`warp`"),
            (
                r#"{"verb":"submit"}"#,
                BadRequest,
                "submit",
                "`spec` must be a string",
            ),
            (
                r#"{"verb":"submit","spec":5}"#,
                BadRequest,
                "submit",
                "`spec` must be a string",
            ),
            (
                r#"{"verb":"status","ticket":-1}"#,
                BadRequest,
                "status",
                "`ticket` must be a non-negative integer",
            ),
            (
                r#"{"verb":"cancel","ticket":1.5}"#,
                BadRequest,
                "cancel",
                "`ticket` must be a non-negative integer",
            ),
            (
                r#"{"verb":"result"}"#,
                BadRequest,
                "result",
                "`ticket` must be a non-negative integer",
            ),
            (
                r#"{"verb":"status_batch","tickets":3}"#,
                BadRequest,
                "status_batch",
                "`tickets` must be an array",
            ),
            (
                r#"{"verb":"result_batch","tickets":[1,"2"]}"#,
                BadRequest,
                "result_batch",
                "`tickets` must be a non-negative integer",
            ),
            (
                r#"{"verb":"submit_batch","items":{"spec":"a"}}"#,
                BadRequest,
                "submit_batch",
                "`items` must be an array",
            ),
            (
                r#"{"verb":"submit_batch","items":[{"spec":"a"},{"priority":"high"}]}"#,
                BadRequest,
                "submit_batch",
                "`spec` must be a string",
            ),
            (
                &oversized,
                BadRequest,
                "status_batch",
                "batch of 1025 exceeds 1024 items",
            ),
            (
                r#"{"verb":"result","ticket":3,"timeout_ms":"5"}"#,
                BadRequest,
                "result",
                "`timeout_ms` must be a non-negative integer",
            ),
            (
                r#"{"verb":"result_batch","tickets":[3],"timeout_ms":null}"#,
                BadRequest,
                "result_batch",
                "`timeout_ms` must be a non-negative integer",
            ),
            (
                r#"{"verb":"submit","spec":"a","deadline_ms":-1}"#,
                BadRequest,
                "submit",
                "`deadline_ms` must be a non-negative integer",
            ),
            (
                r#"{"verb":"submit","spec":"a","priority":4}"#,
                BadRequest,
                "submit",
                "`priority` must be a string",
            ),
            (
                r#"{"verb":"submit","spec":"a","allow_degraded":"yes"}"#,
                BadRequest,
                "submit",
                "`allow_degraded` must be a boolean",
            ),
            (
                r#"{"verb":"submit_batch","items":[{"spec":"a","client":7}]}"#,
                BadRequest,
                "submit_batch",
                "`client` must be a string",
            ),
        ];
        for (line, code, verb, detail) in cases {
            let err = JsonCodec.decode_request(line.as_bytes()).unwrap_err();
            assert_eq!(
                (err.code, err.verb.as_str(), err.detail.as_deref()),
                (code, verb, Some(detail)),
                "{line}"
            );
        }
    }

    /// Malformed binary bodies: every one is `bad_frame` for a server and
    /// `InvalidData` for a client, never a panic or an allocation sized by
    /// the peer's count.
    #[test]
    fn malformed_binary_bodies_are_refused_never_a_panic() {
        let submit = Request::Submit(
            SubmitItem::new("spec=1")
                .priority("high")
                .deadline_ms(300)
                .client("c")
                .allow_degraded(true)
                .min_fidelity("hop"),
        );
        let crate::frame::FrameStep::Ok { payload: body, .. } =
            crate::frame::step(&BinaryCodec.encode_request(&submit))
        else {
            panic!("the codec frames what it encodes");
        };
        assert_eq!(BinaryCodec.decode_request(&body), Ok(submit));
        let mut requests: Vec<&[u8]> = (0..body.len()).map(|cut| &body[..cut]).collect();
        requests.extend([
            &[0x05, 0x09, 0x02][..],               // presence byte 2
            &[0x01, 0x01, b'a', 0, 0, 0, 0x02, 0], // flag byte 2
            &[
                0x03, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01,
            ], // 11-byte varint
            &[
                0x03, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02,
            ], // bit 64 set
            &[0x04, 0x81, 0x08],                   // a count of 1,025
            &[0x04, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F], // a huge count
            &[0x0B],                               // unknown tag
            &[0x81],                               // a reply's tag
            &[0x08, 0x00],                         // one trailing byte
            &[0x01, 0x01, 0xFF, 0, 0, 0, 0, 0],    // invalid UTF-8
        ]);
        for bytes in requests {
            let err = BinaryCodec.decode_request(bytes).unwrap_err();
            assert_eq!(err.code, ErrorCode::BadFrame, "{bytes:02x?}");
        }

        let responses: [&[u8]; 9] = [
            &[],
            &[0x83, 0x01, b'x', 0x02],       // presence byte 2
            &[0x81, 0x01, 0, 0, 0, 0, 0x02], // flag byte 2
            &[0x86, 0x81, 0x08],             // a batch of 1,025
            &[0x86, 0x01, 0x86, 0x01],       // a nested batch cut short
            &[0x00],                         // unknown tag
            &[0x03],                         // a request's tag
            &[0x82, 0x00, 0x00],             // one trailing byte
            &[0x82, 0x01, 0xFF],             // invalid UTF-8
        ];
        for bytes in responses {
            let err = BinaryCodec.decode_response(bytes).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{bytes:02x?}");
        }
    }

    /// No encoder nests a batch, so the decoder refuses a batch item that
    /// is one: 200,000 nested `86 01` (400 KB, under the frame cap), which
    /// once recursed the decoding thread off its stack, and a batch
    /// holding an empty batch. A batch of a plain reply decodes.
    #[test]
    fn a_batch_nested_in_a_batch_is_refused() {
        let deep = [0x86, 0x01].repeat(200_000);
        for bytes in [&deep[..], &[0x86, 0x01, 0x86, 0x00]] {
            let err = BinaryCodec.decode_response(bytes).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        }
        let flat = BinaryCodec.decode_response(&[0x86, 0x01, 0x82, 0x01, b'x']).unwrap();
        let state = "x".to_owned();
        assert_eq!(flat, Response::Batch(vec![Response::Status { state }]));
    }
}
