//! The length-prefixed request/response wire protocol.
//!
//! Every message is one **frame**: a 4-byte little-endian payload length
//! followed by that many payload bytes. The first payload byte tags the
//! message (an opcode for requests, a status for responses); the rest is
//! the tag-specific body. All integers are little-endian; keys carry a
//! `u16` length, values a `u32` length.
//!
//! | opcode | request | body |
//! |--------|---------|------|
//! | `0x01` | GET     | `klen:u16, key` |
//! | `0x02` | PUT     | `klen:u16, key, vlen:u32, val` |
//! | `0x03` | DEL     | `klen:u16, key` |
//! | `0x04` | BATCH   | `count:u16, count × (kind:u8, klen:u16, key[, vlen:u32, val])` |
//! | `0x05` | SCAN    | `klen:u16, start, limit:u32` |
//! | `0x06` | STATS   | *(empty)* |
//!
//! | status | response | body |
//! |--------|----------|------|
//! | `0x00` | OK        | *(empty)* |
//! | `0x01` | NOT_FOUND | *(empty)* |
//! | `0x02` | ERROR     | UTF-8 message |
//! | `0x03` | VALUE     | raw value bytes |
//! | `0x04` | COMMITTED | `id:u64` |
//! | `0x05` | ENTRIES   | `count:u32, count × (klen:u16, key, vlen:u32, val)` |
//! | `0x06` | STATS     | UTF-8 JSON object |
//!
//! Responses are **self-describing** (each variant has its own status
//! byte), so a decoded stream round-trips without knowing which request
//! each frame answers — the property the codec tests lean on.
//!
//! Replies obey the frame cap too: a SCAN whose `ENTRIES` payload would
//! exceed [`MAX_FRAME_BYTES`] is answered, in its request's slot, with an
//! `ERROR` ("scan reply exceeds frame cap; lower limit") and the stream
//! continues — the client retries with a smaller `limit`.

use std::io::{self, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpStream};

/// Hard cap on a frame's payload length. Oversized frames are rejected
/// before any allocation, bounding what one connection can pin.
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// Everything that can be wrong with the bytes of one frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The payload ended before a field it promised.
    Truncated {
        /// Bytes the next field needed.
        needed: usize,
        /// Bytes actually left.
        got: usize,
    },
    /// The frame header announced a payload over [`MAX_FRAME_BYTES`].
    Oversized {
        /// The announced payload length.
        len: usize,
        /// The cap it violated.
        max: usize,
    },
    /// The first payload byte names no request.
    UnknownOpcode(u8),
    /// The first payload byte names no response.
    UnknownStatus(u8),
    /// A structurally invalid body (bad batch-op kind, empty payload,
    /// non-UTF-8 text, ...).
    Malformed(&'static str),
    /// Decoding consumed the message but bytes remain.
    TrailingBytes {
        /// How many bytes were left over.
        extra: usize,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated { needed, got } => {
                write!(f, "truncated frame: field needs {needed} bytes, {got} left")
            }
            WireError::Oversized { len, max } => {
                write!(f, "frame payload of {len} bytes exceeds the {max}-byte cap")
            }
            WireError::UnknownOpcode(op) => write!(f, "unknown request opcode {op:#04x}"),
            WireError::UnknownStatus(st) => write!(f, "unknown response status {st:#04x}"),
            WireError::Malformed(what) => write!(f, "malformed frame: {what}"),
            WireError::TrailingBytes { extra } => {
                write!(f, "frame carries {extra} trailing bytes past the message")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// One client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Point lookup.
    Get {
        /// The key.
        key: Vec<u8>,
    },
    /// Insert or update. Durability depends on the server's commit mode.
    Put {
        /// The key.
        key: Vec<u8>,
        /// The value.
        val: Vec<u8>,
    },
    /// Remove a key.
    Del {
        /// The key.
        key: Vec<u8>,
    },
    /// An atomic multi-op batch (commits durably before the reply).
    Batch {
        /// The staged operations, applied atomically.
        ops: Vec<BatchOp>,
    },
    /// Ordered scan of at most `limit` keys ≥ `start`.
    Scan {
        /// First key of the range (inclusive).
        start: Vec<u8>,
        /// Maximum number of entries returned.
        limit: u32,
    },
    /// Server counters as a JSON object.
    Stats,
}

/// One operation inside a [`Request::Batch`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchOp {
    /// Insert or update `key`.
    Put {
        /// The key.
        key: Vec<u8>,
        /// The value.
        val: Vec<u8>,
    },
    /// Remove `key`.
    Del {
        /// The key.
        key: Vec<u8>,
    },
}

/// [`Request`] borrowed from the frame it was decoded from: what the
/// server executes, so a key or value is copied once, into the store.
#[derive(Debug, PartialEq, Eq)]
pub enum RequestRef<'a> {
    /// [`Request::Get`] of the key.
    Get(&'a [u8]),
    /// [`Request::Put`] or [`Request::Del`].
    Write(BatchOpRef<'a>),
    /// [`Request::Batch`] of the operations.
    Batch(Vec<BatchOpRef<'a>>),
    /// [`Request::Scan`] from the start key, with the limit.
    Scan(&'a [u8], u32),
    /// [`Request::Stats`].
    Stats,
}

/// [`BatchOp`] borrowed from its frame.
#[derive(Debug, PartialEq, Eq)]
pub enum BatchOpRef<'a> {
    /// Insert or update the key with the value.
    Put(&'a [u8], &'a [u8]),
    /// Remove the key.
    Del(&'a [u8]),
}

impl BatchOpRef<'_> {
    /// The owned operation.
    pub fn to_owned(&self) -> BatchOp {
        match *self {
            BatchOpRef::Put(key, val) => BatchOp::Put {
                key: key.to_vec(),
                val: val.to_vec(),
            },
            BatchOpRef::Del(key) => BatchOp::Del { key: key.to_vec() },
        }
    }
}

impl RequestRef<'_> {
    /// The owned request.
    pub fn to_owned(&self) -> Request {
        match self {
            RequestRef::Get(key) => Request::Get { key: key.to_vec() },
            RequestRef::Write(op) => match op.to_owned() {
                BatchOp::Put { key, val } => Request::Put { key, val },
                BatchOp::Del { key } => Request::Del { key },
            },
            RequestRef::Batch(ops) => Request::Batch {
                ops: ops.iter().map(BatchOpRef::to_owned).collect(),
            },
            &RequestRef::Scan(start, limit) => Request::Scan {
                start: start.to_vec(),
                limit,
            },
            RequestRef::Stats => Request::Stats,
        }
    }
}

/// One server response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// The operation succeeded with nothing to return.
    Ok,
    /// The key (GET) or target (DEL) was absent.
    NotFound,
    /// The operation failed; the message says why.
    Error(String),
    /// A GET hit: the value bytes.
    Value(Vec<u8>),
    /// A BATCH commit: the durable batch id.
    Committed(u64),
    /// A SCAN result: `(key, value)` pairs in key order.
    Entries(Vec<(Vec<u8>, Vec<u8>)>),
    /// A STATS reply: a JSON object.
    Stats(String),
}

const OP_GET: u8 = 0x01;
const OP_PUT: u8 = 0x02;
const OP_DEL: u8 = 0x03;
const OP_BATCH: u8 = 0x04;
const OP_SCAN: u8 = 0x05;
const OP_STATS: u8 = 0x06;

const ST_OK: u8 = 0x00;
const ST_NOT_FOUND: u8 = 0x01;
const ST_ERROR: u8 = 0x02;
const ST_VALUE: u8 = 0x03;
const ST_COMMITTED: u8 = 0x04;
const ST_ENTRIES: u8 = 0x05;
const ST_STATS: u8 = 0x06;

// ====================================================================
// Encoding
// ====================================================================

fn put_key(out: &mut Vec<u8>, key: &[u8]) {
    debug_assert!(key.len() <= u16::MAX as usize);
    out.extend_from_slice(&(key.len() as u16).to_le_bytes());
    out.extend_from_slice(key);
}

fn put_val(out: &mut Vec<u8>, val: &[u8]) {
    out.extend_from_slice(&(val.len() as u32).to_le_bytes());
    out.extend_from_slice(val);
}

/// Appends `req` to `out` as one complete frame (header included).
pub fn encode_request(req: &Request, out: &mut Vec<u8>) {
    let at = begin_frame(out);
    match req {
        Request::Get { key } => {
            out.push(OP_GET);
            put_key(out, key);
        }
        Request::Put { key, val } => {
            out.push(OP_PUT);
            put_key(out, key);
            put_val(out, val);
        }
        Request::Del { key } => {
            out.push(OP_DEL);
            put_key(out, key);
        }
        Request::Batch { ops } => {
            out.push(OP_BATCH);
            debug_assert!(ops.len() <= u16::MAX as usize);
            out.extend_from_slice(&(ops.len() as u16).to_le_bytes());
            for op in ops {
                match op {
                    BatchOp::Put { key, val } => {
                        out.push(0);
                        put_key(out, key);
                        put_val(out, val);
                    }
                    BatchOp::Del { key } => {
                        out.push(1);
                        put_key(out, key);
                    }
                }
            }
        }
        Request::Scan { start, limit } => {
            out.push(OP_SCAN);
            put_key(out, start);
            out.extend_from_slice(&limit.to_le_bytes());
        }
        Request::Stats => out.push(OP_STATS),
    }
    end_frame(out, at);
}

/// Appends `resp` to `out` as one complete frame (header included).
pub fn encode_response(resp: &Response, out: &mut Vec<u8>) {
    let at = begin_frame(out);
    match resp {
        Response::Ok => out.push(ST_OK),
        Response::NotFound => out.push(ST_NOT_FOUND),
        Response::Error(msg) => {
            out.push(ST_ERROR);
            out.extend_from_slice(msg.as_bytes());
        }
        Response::Value(val) => {
            out.push(ST_VALUE);
            out.extend_from_slice(val);
        }
        Response::Committed(id) => {
            out.push(ST_COMMITTED);
            out.extend_from_slice(&id.to_le_bytes());
        }
        Response::Entries(entries) => {
            out.push(ST_ENTRIES);
            out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
            for (k, v) in entries {
                put_key(out, k);
                put_val(out, v);
            }
        }
        Response::Stats(json) => {
            out.push(ST_STATS);
            out.extend_from_slice(json.as_bytes());
        }
    }
    end_frame(out, at);
}

/// Appends a `VALUE` response carrying `val` as one complete frame: the
/// bytes [`encode_response`] produces for [`Response::Value`], without
/// the caller having to own the value.
pub fn encode_value(val: &[u8], out: &mut Vec<u8>) {
    let at = begin_frame(out);
    out.push(ST_VALUE);
    out.extend_from_slice(val);
    end_frame(out, at);
}

/// The `OK` response as one complete frame.
pub(crate) const OK_FRAME: [u8; 5] = [1, 0, 0, 0, ST_OK];

/// Payload bytes one `(key, value)` pair adds to an `ENTRIES` response.
pub(crate) fn entry_wire_len(key: &[u8], val: &[u8]) -> usize {
    2 + key.len() + 4 + val.len()
}

/// Payload bytes of an `ENTRIES` response before its first pair (status
/// byte + count).
pub(crate) const ENTRIES_HEADER_LEN: usize = 5;

/// Reserves a frame header; returns the payload start for [`end_frame`].
fn begin_frame(out: &mut Vec<u8>) -> usize {
    out.extend_from_slice(&[0u8; 4]);
    out.len()
}

/// Backfills the frame header with the payload length.
fn end_frame(out: &mut [u8], payload_start: usize) {
    let len = out.len() - payload_start;
    debug_assert!(len <= MAX_FRAME_BYTES);
    out[payload_start - 4..payload_start].copy_from_slice(&(len as u32).to_le_bytes());
}

// ====================================================================
// Decoding
// ====================================================================

/// A zero-copy cursor over one frame's payload.
struct Cur<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Cur<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let got = self.buf.len() - self.at;
        if got < n {
            return Err(WireError::Truncated { needed: n, got });
        }
        let s = &self.buf[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn key(&mut self) -> Result<&'a [u8], WireError> {
        let n = self.u16()? as usize;
        self.take(n)
    }

    fn val(&mut self) -> Result<&'a [u8], WireError> {
        let n = self.u32()? as usize;
        self.take(n)
    }

    fn rest(&mut self) -> &'a [u8] {
        let s = &self.buf[self.at..];
        self.at = self.buf.len();
        s
    }

    fn finish(self) -> Result<(), WireError> {
        let extra = self.buf.len() - self.at;
        if extra != 0 {
            return Err(WireError::TrailingBytes { extra });
        }
        Ok(())
    }
}

fn utf8(bytes: &[u8]) -> Result<String, WireError> {
    String::from_utf8(bytes.to_vec()).map_err(|_| WireError::Malformed("non-UTF-8 text body"))
}

/// Decodes one request from a frame payload (header already stripped).
pub fn decode_request(payload: &[u8]) -> Result<Request, WireError> {
    decode_request_ref(payload).map(|req| req.to_owned())
}

/// [`decode_request`] without the copies: keys and values borrow `payload`.
pub fn decode_request_ref(payload: &[u8]) -> Result<RequestRef<'_>, WireError> {
    let mut c = Cur {
        buf: payload,
        at: 0,
    };
    if payload.is_empty() {
        return Err(WireError::Malformed("empty payload"));
    }
    let req = match c.u8()? {
        OP_GET => RequestRef::Get(c.key()?),
        OP_PUT => RequestRef::Write(BatchOpRef::Put(c.key()?, c.val()?)),
        OP_DEL => RequestRef::Write(BatchOpRef::Del(c.key()?)),
        OP_BATCH => {
            let count = c.u16()? as usize;
            let mut ops = Vec::with_capacity(count.min(256));
            for _ in 0..count {
                ops.push(match c.u8()? {
                    0 => BatchOpRef::Put(c.key()?, c.val()?),
                    1 => BatchOpRef::Del(c.key()?),
                    _ => return Err(WireError::Malformed("unknown batch-op kind")),
                });
            }
            RequestRef::Batch(ops)
        }
        OP_SCAN => RequestRef::Scan(c.key()?, c.u32()?),
        OP_STATS => RequestRef::Stats,
        op => return Err(WireError::UnknownOpcode(op)),
    };
    c.finish()?;
    Ok(req)
}

/// Decodes one response from a frame payload (header already stripped).
pub fn decode_response(payload: &[u8]) -> Result<Response, WireError> {
    let mut c = Cur {
        buf: payload,
        at: 0,
    };
    if payload.is_empty() {
        return Err(WireError::Malformed("empty payload"));
    }
    let resp = match c.u8()? {
        ST_OK => Response::Ok,
        ST_NOT_FOUND => Response::NotFound,
        ST_ERROR => Response::Error(utf8(c.rest())?),
        ST_VALUE => Response::Value(c.rest().to_vec()),
        ST_COMMITTED => Response::Committed(c.u64()?),
        ST_ENTRIES => {
            let count = c.u32()? as usize;
            let mut entries = Vec::with_capacity(count.min(1024));
            for _ in 0..count {
                let k = c.key()?.to_vec();
                let v = c.val()?.to_vec();
                entries.push((k, v));
            }
            Response::Entries(entries)
        }
        ST_STATS => Response::Stats(utf8(c.rest())?),
        st => return Err(WireError::UnknownStatus(st)),
    };
    c.finish()?;
    Ok(resp)
}

// ====================================================================
// Framing over a stream
// ====================================================================

/// The payload length a frame header announces, checked against the cap.
fn payload_len(hdr: [u8; 4]) -> Result<usize, WireError> {
    let len = u32::from_le_bytes(hdr) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(WireError::Oversized {
            len,
            max: MAX_FRAME_BYTES,
        });
    }
    Ok(len)
}

/// Bytes of the frame (header included) that `buf` starts with, or `None`
/// until its whole header has arrived.
pub(crate) fn frame_len(buf: &[u8]) -> Result<Option<usize>, WireError> {
    buf.first_chunk()
        .map(|hdr| payload_len(*hdr).map(|len| 4 + len))
        .transpose()
}

/// Reads one frame payload from `r`. Returns `Ok(None)` on a clean EOF
/// **between** frames; EOF mid-frame is an [`io::ErrorKind::UnexpectedEof`]
/// error, and an oversized header surfaces as
/// [`io::ErrorKind::InvalidData`] wrapping [`WireError::Oversized`].
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut hdr = [0u8; 4];
    let mut at = 0;
    while at < 4 {
        match r.read(&mut hdr[at..])? {
            0 if at == 0 => return Ok(None),
            0 => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    WireError::Truncated { needed: 4, got: at },
                ))
            }
            n => at += n,
        }
    }
    let len = payload_len(hdr).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// A pipelining client over one TCP connection.
///
/// [`Client::send`] queues a request (buffered; flushed on demand) and
/// [`Client::recv`] blocks for the next in-order response — the caller
/// decides how many to keep in flight.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    buf: Vec<u8>,
}

impl Client {
    /// Connects to the server.
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let sock = TcpStream::connect(addr)?;
        sock.set_nodelay(true)?;
        let reader = BufReader::new(sock.try_clone()?);
        Ok(Client {
            reader,
            writer: BufWriter::new(sock),
            buf: Vec::with_capacity(256),
        })
    }

    /// Queues one request into the write buffer.
    pub fn send(&mut self, req: &Request) -> io::Result<()> {
        self.buf.clear();
        encode_request(req, &mut self.buf);
        self.writer.write_all(&self.buf)
    }

    /// Pushes buffered requests onto the wire.
    pub fn flush(&mut self) -> io::Result<()> {
        self.writer.flush()
    }

    /// Blocks for the next response.
    pub fn recv(&mut self) -> io::Result<Response> {
        let payload = read_frame(&mut self.reader)?
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "server closed"))?;
        decode_response(&payload).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    /// Convenience: send, flush, receive — one synchronous round trip.
    pub fn call(&mut self, req: &Request) -> io::Result<Response> {
        self.send(req)?;
        self.flush()?;
        self.recv()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req_roundtrip(req: Request) {
        let mut buf = Vec::new();
        encode_request(&req, &mut buf);
        let len = u32::from_le_bytes(buf[..4].try_into().unwrap()) as usize;
        assert_eq!(len, buf.len() - 4, "header must match payload");
        assert_eq!(decode_request(&buf[4..]).unwrap(), req);
    }

    fn resp_roundtrip(resp: Response) {
        let mut buf = Vec::new();
        encode_response(&resp, &mut buf);
        assert_eq!(decode_response(&buf[4..]).unwrap(), resp);
    }

    #[test]
    fn every_request_shape_roundtrips() {
        req_roundtrip(Request::Get { key: b"k".to_vec() });
        req_roundtrip(Request::Get { key: Vec::new() });
        req_roundtrip(Request::Put {
            key: b"key".to_vec(),
            val: vec![0u8; 3000],
        });
        req_roundtrip(Request::Del {
            key: b"gone".to_vec(),
        });
        req_roundtrip(Request::Batch { ops: Vec::new() });
        req_roundtrip(Request::Batch {
            ops: vec![
                BatchOp::Put {
                    key: b"a".to_vec(),
                    val: b"1".to_vec(),
                },
                BatchOp::Del { key: b"b".to_vec() },
            ],
        });
        req_roundtrip(Request::Scan {
            start: b"m".to_vec(),
            limit: 77,
        });
        req_roundtrip(Request::Stats);
    }

    #[test]
    fn every_response_shape_roundtrips() {
        resp_roundtrip(Response::Ok);
        let mut ok = Vec::new();
        encode_response(&Response::Ok, &mut ok);
        assert_eq!(ok, OK_FRAME);
        resp_roundtrip(Response::NotFound);
        resp_roundtrip(Response::Error("bad".into()));
        resp_roundtrip(Response::Value(vec![9u8; 100]));
        resp_roundtrip(Response::Value(Vec::new()));
        let (mut owned, mut borrowed) = (Vec::new(), Vec::new());
        encode_response(&Response::Value(vec![9u8; 100]), &mut owned);
        encode_value(&[9u8; 100], &mut borrowed);
        assert_eq!(owned, borrowed);
        resp_roundtrip(Response::Committed(u64::MAX));
        resp_roundtrip(Response::Entries(vec![
            (b"a".to_vec(), b"1".to_vec()),
            (b"b".to_vec(), Vec::new()),
        ]));
        resp_roundtrip(Response::Stats("{\"x\":1}".into()));
    }

    #[test]
    fn truncation_is_detected_at_every_cut() {
        let mut buf = Vec::new();
        encode_request(
            &Request::Put {
                key: b"key".to_vec(),
                val: b"value".to_vec(),
            },
            &mut buf,
        );
        let payload = &buf[4..];
        for cut in 0..payload.len() {
            let err = decode_request(&payload[..cut]).unwrap_err();
            assert!(
                matches!(err, WireError::Truncated { .. } | WireError::Malformed(_)),
                "cut at {cut} gave {err:?}"
            );
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut buf = Vec::new();
        encode_request(&Request::Stats, &mut buf);
        buf.push(0xAA);
        assert_eq!(
            decode_request(&buf[4..]),
            Err(WireError::TrailingBytes { extra: 1 })
        );
    }

    #[test]
    fn unknown_tags_are_typed() {
        assert_eq!(decode_request(&[0xEE]), Err(WireError::UnknownOpcode(0xEE)));
        assert_eq!(
            decode_response(&[0xEE]),
            Err(WireError::UnknownStatus(0xEE))
        );
        assert_eq!(
            decode_request(&[OP_BATCH, 1, 0, 7]),
            Err(WireError::Malformed("unknown batch-op kind"))
        );
    }

    #[test]
    fn oversized_header_is_rejected_before_allocation() {
        let mut hdr = ((MAX_FRAME_BYTES + 1) as u32).to_le_bytes().to_vec();
        hdr.extend_from_slice(&[0u8; 8]);
        let err = read_frame(&mut &hdr[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn clean_eof_is_none_but_midframe_eof_is_an_error() {
        assert!(read_frame(&mut &[][..]).unwrap().is_none());
        let partial = [5u8, 0, 0, 0, 1, 2]; // promises 5 payload bytes, has 2
        let err = read_frame(&mut &partial[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        let cut_header = [5u8, 0]; // EOF inside the length prefix itself
        let err = read_frame(&mut &cut_header[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }
}
