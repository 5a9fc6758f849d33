//! Compact binary wire codec.
//!
//! A small, dependency-free serialization layer over [`bytes`], shared by the
//! simulated transport and the real TCP transport. All fixed-width
//! integers are big-endian; strings and sequences are length-prefixed with
//! `u32`. Frame headers whose fields are usually small use LEB128 varints
//! ([`put_varint`], [`get_varint`]) instead.
//!
//! # Example
//!
//! ```
//! use simnet::wire::{Decode, Encode};
//! use bytes::{Bytes, BytesMut};
//!
//! let mut buf = BytesMut::new();
//! ("hello".to_string(), 42u32).encode(&mut buf);
//! let mut bytes: Bytes = buf.freeze();
//! let (s, n) = <(String, u32)>::decode(&mut bytes).unwrap();
//! assert_eq!(s, "hello");
//! assert_eq!(n, 42);
//! ```

use crate::message::Message;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::error::Error;
use std::fmt;

/// Errors produced while decoding wire data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the value was complete (recoverable with
    /// more bytes when decoding a stream; fatal for a fixed slice).
    Truncated,
    /// The bytes are structurally impossible — no suffix can complete them
    /// into a valid value (e.g. a frame whose length prefix is smaller than
    /// the fixed frame header).
    Corrupt(&'static str),
    /// A string field held invalid UTF-8.
    InvalidUtf8,
    /// An enum tag byte was not recognised (context, value).
    InvalidTag(&'static str, u8),
    /// A length prefix exceeded the sanity limit.
    LengthOverflow(u64),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "buffer truncated before value was complete"),
            WireError::Corrupt(what) => write!(f, "corrupt wire data: {what}"),
            WireError::InvalidUtf8 => write!(f, "invalid utf-8 in string field"),
            WireError::InvalidTag(ctx, v) => write!(f, "invalid tag {v} for {ctx}"),
            WireError::LengthOverflow(n) => write!(f, "length prefix {n} too large"),
        }
    }
}

impl Error for WireError {}

/// Sanity cap on any single length prefix (16 MiB).
const MAX_LEN: u64 = 16 * 1024 * 1024;

/// Types that can serialize themselves onto a buffer.
pub trait Encode {
    /// Appends this value's encoding to `buf`.
    fn encode(&self, buf: &mut BytesMut);

    /// Convenience: encodes into a fresh byte vector.
    fn encode_to_vec(&self) -> Vec<u8> {
        let mut buf = BytesMut::new();
        self.encode(&mut buf);
        buf.to_vec()
    }
}

/// Types that can deserialize themselves from a buffer.
pub trait Decode: Sized {
    /// Consumes this value's encoding from the front of `buf`.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] when the buffer is truncated or malformed.
    fn decode(buf: &mut Bytes) -> Result<Self, WireError>;

    /// Decodes exactly one value from `bytes`, without copying them.
    ///
    /// # Errors
    ///
    /// As [`Decode::decode`], and [`WireError::Corrupt`] when bytes remain
    /// after the value.
    fn decode_exact(mut bytes: Bytes) -> Result<Self, WireError> {
        let value = Self::decode(&mut bytes)?;
        if !bytes.is_empty() {
            return Err(WireError::Corrupt("bytes after the value"));
        }
        Ok(value)
    }

    /// Decodes exactly one value from a copy of `slice`, as
    /// [`Decode::decode_exact`]: bytes after the value are
    /// [`WireError::Corrupt`].
    fn decode_from_slice(slice: &[u8]) -> Result<Self, WireError> {
        Self::decode_exact(Bytes::copy_from_slice(slice))
    }
}

/// Reads the `u32` length prefix of a string or list, rejecting lengths
/// above the 16 MiB sanity cap before anything is allocated for them.
///
/// # Errors
///
/// [`WireError::Truncated`] when fewer than four bytes remain,
/// [`WireError::LengthOverflow`] when the length exceeds the cap.
pub fn decode_len(buf: &mut Bytes) -> Result<usize, WireError> {
    let len = u64::from(u32::decode(buf)?);
    if len > MAX_LEN {
        return Err(WireError::LengthOverflow(len));
    }
    Ok(len as usize)
}

/// Appends `v` as an unsigned LEB128 varint: seven bits per byte, the
/// lowest group first, the high bit set on every byte but the last. Values
/// below 128 take one byte, a full `u64` ten.
pub fn put_varint(buf: &mut BytesMut, mut v: u64) {
    while v >= 0x80 {
        buf.put_u8(v as u8 | 0x80);
        v >>= 7;
    }
    buf.put_u8(v as u8);
}

/// Reads a varint written by [`put_varint`].
///
/// # Errors
///
/// [`WireError::Truncated`] when the buffer ends inside the varint,
/// [`WireError::Corrupt`] when its tenth byte carries more than the one
/// bit a `u64` has left.
pub fn get_varint(buf: &mut Bytes) -> Result<u64, WireError> {
    let mut v = 0u64;
    for shift in (0..64).step_by(7) {
        let byte = u8::decode(buf)?;
        if shift == 63 && byte > 1 {
            return Err(WireError::Corrupt("varint overflows u64"));
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            break;
        }
    }
    Ok(v)
}

/// Reads a varint length prefix, rejecting lengths above the 16 MiB sanity
/// cap before anything is allocated for them.
///
/// # Errors
///
/// Those of [`get_varint`], and [`WireError::LengthOverflow`] when the
/// length exceeds the cap.
pub fn get_varint_len(buf: &mut Bytes) -> Result<usize, WireError> {
    let len = get_varint(buf)?;
    if len > MAX_LEN {
        return Err(WireError::LengthOverflow(len));
    }
    Ok(len as usize)
}

/// Maps a signed value onto an unsigned one so that small magnitudes of
/// either sign stay small: 0, -1, 1, -2, … become 0, 1, 2, 3, ….
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// The inverse of [`zigzag`].
pub fn unzigzag(v: u64) -> i64 {
    (v >> 1) as i64 ^ -((v & 1) as i64)
}

fn need(buf: &Bytes, n: usize) -> Result<(), WireError> {
    if buf.remaining() < n {
        Err(WireError::Truncated)
    } else {
        Ok(())
    }
}

macro_rules! impl_int {
    ($ty:ty, $put:ident, $get:ident, $size:expr) => {
        impl Encode for $ty {
            fn encode(&self, buf: &mut BytesMut) {
                buf.$put(*self);
            }
        }
        impl Decode for $ty {
            fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
                need(buf, $size)?;
                Ok(buf.$get())
            }
        }
    };
}

impl_int!(u8, put_u8, get_u8, 1);
impl_int!(u16, put_u16, get_u16, 2);
impl_int!(u32, put_u32, get_u32, 4);
impl_int!(u64, put_u64, get_u64, 8);
impl_int!(i64, put_i64, get_i64, 8);
impl_int!(f64, put_f64, get_f64, 8);

impl Encode for bool {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u8(u8::from(*self));
    }
}

impl Decode for bool {
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        match u8::decode(buf)? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(WireError::InvalidTag("bool", v)),
        }
    }
}

impl Encode for String {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u32(self.len() as u32);
        buf.put_slice(self.as_bytes());
    }
}

impl Decode for String {
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        let len = decode_len(buf)?;
        need(buf, len)?;
        let raw = buf.copy_to_bytes(len);
        String::from_utf8(raw.to_vec()).map_err(|_| WireError::InvalidUtf8)
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u32(self.len() as u32);
        for item in self {
            item.encode(buf);
        }
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        let len = decode_len(buf)?;
        let mut out = Vec::with_capacity(len.min(1024));
        for _ in 0..len {
            out.push(T::decode(buf)?);
        }
        Ok(out)
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            None => buf.put_u8(0),
            Some(v) => {
                buf.put_u8(1);
                v.encode(buf);
            }
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        match u8::decode(buf)? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(buf)?)),
            v => Err(WireError::InvalidTag("option", v)),
        }
    }
}

impl<A: Encode, B: Encode> Encode for (A, B) {
    fn encode(&self, buf: &mut BytesMut) {
        self.0.encode(buf);
        self.1.encode(buf);
    }
}

impl<A: Decode, B: Decode> Decode for (A, B) {
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok((A::decode(buf)?, B::decode(buf)?))
    }
}

impl<A: Encode, B: Encode, C: Encode> Encode for (A, B, C) {
    fn encode(&self, buf: &mut BytesMut) {
        self.0.encode(buf);
        self.1.encode(buf);
        self.2.encode(buf);
    }
}

impl<A: Decode, B: Decode, C: Decode> Decode for (A, B, C) {
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok((A::decode(buf)?, B::decode(buf)?, C::decode(buf)?))
    }
}

/// Encodes a [`Message`] into a length-prefixed frame:
/// `len:u32 | kind:u16 | request_id:u64 | payload`.
pub fn encode_frame(msg: &Message) -> Vec<u8> {
    let body_len = 2 + 8 + msg.payload.len();
    let mut buf = BytesMut::with_capacity(4 + body_len);
    buf.put_u32(body_len as u32);
    buf.put_u16(msg.kind);
    buf.put_u64(msg.request_id);
    buf.put_slice(&msg.payload);
    buf.to_vec()
}

/// Decodes one frame from the front of `buf`, if complete.
///
/// Returns `Ok(None)` when more bytes are needed.
///
/// # Errors
///
/// Returns [`WireError::LengthOverflow`] for frames above the 16 MiB cap
/// and [`WireError::Corrupt`] for frames whose length prefix is smaller
/// than the fixed `kind + request_id` header — no further bytes can ever
/// complete such a frame, so the connection must be torn down rather than
/// waited on.
pub fn decode_frame(buf: &mut BytesMut) -> Result<Option<Message>, WireError> {
    if buf.len() < 4 {
        return Ok(None);
    }
    let body_len = u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]) as u64;
    if body_len > MAX_LEN {
        return Err(WireError::LengthOverflow(body_len));
    }
    if body_len < 10 {
        return Err(WireError::Corrupt("frame body shorter than header"));
    }
    if (buf.len() as u64) < 4 + body_len {
        return Ok(None);
    }
    buf.advance(4);
    let mut body = buf.split_to(body_len as usize).freeze();
    let kind = u16::decode(&mut body)?;
    let request_id = u64::decode(&mut body)?;
    Ok(Some(Message {
        kind,
        request_id,
        payload: body,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Encode + Decode + PartialEq + fmt::Debug>(value: T) {
        let encoded = value.encode_to_vec();
        let decoded = T::decode_from_slice(&encoded).unwrap();
        assert_eq!(decoded, value);
    }

    #[test]
    fn primitive_roundtrips() {
        roundtrip(0u8);
        roundtrip(255u8);
        roundtrip(65_535u16);
        roundtrip(u32::MAX);
        roundtrip(u64::MAX);
        roundtrip(i64::MIN);
        roundtrip(std::f64::consts::PI);
        roundtrip(true);
        roundtrip(false);
    }

    #[test]
    fn string_roundtrips() {
        roundtrip(String::new());
        roundtrip("héllo wörld — ünïcode".to_string());
    }

    #[test]
    fn collection_roundtrips() {
        roundtrip(vec![1u32, 2, 3]);
        roundtrip(Vec::<u64>::new());
        roundtrip(Some("x".to_string()));
        roundtrip(Option::<u32>::None);
        roundtrip(("pair".to_string(), 7u64));
        roundtrip(("triple".to_string(), 7u64, true));
        roundtrip(vec![Some(1u8), None, Some(3)]);
    }

    #[test]
    fn truncated_buffer_errors() {
        let encoded = 12345u64.encode_to_vec();
        let r = u64::decode_from_slice(&encoded[..4]);
        assert_eq!(r, Err(WireError::Truncated));
    }

    #[test]
    fn bytes_after_the_value_are_corrupt() {
        let mut encoded = 12345u64.encode_to_vec();
        encoded.push(0);
        let r = u64::decode_from_slice(&encoded);
        assert_eq!(r, Err(WireError::Corrupt("bytes after the value")));
        let r = u64::decode_exact(Bytes::from(encoded));
        assert_eq!(r, Err(WireError::Corrupt("bytes after the value")));
    }

    #[test]
    fn undersized_frame_body_is_corrupt_not_truncated() {
        // A length prefix of 3 can never hold the 10-byte frame header:
        // waiting for more bytes would hang forever.
        let mut buf = BytesMut::new();
        buf.put_u32(3);
        buf.put_slice(&[0, 0, 0]);
        assert!(matches!(decode_frame(&mut buf), Err(WireError::Corrupt(_))));
    }

    #[test]
    fn invalid_bool_tag() {
        assert_eq!(
            bool::decode_from_slice(&[7]),
            Err(WireError::InvalidTag("bool", 7))
        );
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u32(2);
        buf.put_slice(&[0xFF, 0xFE]);
        assert_eq!(
            String::decode(&mut buf.freeze()),
            Err(WireError::InvalidUtf8)
        );
    }

    #[test]
    fn oversized_length_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u32(u32::MAX);
        let r = String::decode(&mut buf.freeze());
        assert!(matches!(r, Err(WireError::LengthOverflow(_))));
    }

    #[test]
    fn frame_roundtrip() {
        let msg = Message::request(9, 1234, vec![1, 2, 3, 4]);
        let framed = encode_frame(&msg);
        let mut buf = BytesMut::from(framed.as_slice());
        let decoded = decode_frame(&mut buf).unwrap().unwrap();
        assert_eq!(decoded, msg);
        assert!(buf.is_empty());
    }

    #[test]
    fn partial_frame_waits_for_more() {
        let msg = Message::event(1, vec![0; 32]);
        let framed = encode_frame(&msg);
        let mut buf = BytesMut::from(&framed[..10]);
        assert_eq!(decode_frame(&mut buf).unwrap(), None);
        buf.extend_from_slice(&framed[10..]);
        assert_eq!(decode_frame(&mut buf).unwrap(), Some(msg));
    }

    #[test]
    fn two_frames_back_to_back() {
        let a = Message::event(1, vec![1]);
        let b = Message::event(2, vec![2, 2]);
        let mut buf = BytesMut::new();
        buf.extend_from_slice(&encode_frame(&a));
        buf.extend_from_slice(&encode_frame(&b));
        assert_eq!(decode_frame(&mut buf).unwrap(), Some(a));
        assert_eq!(decode_frame(&mut buf).unwrap(), Some(b));
        assert_eq!(decode_frame(&mut buf).unwrap(), None);
    }

    #[test]
    fn varints_roundtrip_and_reject_overlong_input() {
        for v in [0, 1, 127, 128, 300, 1 << 48, u64::MAX - 1, u64::MAX] {
            let mut buf = BytesMut::new();
            put_varint(&mut buf, v);
            let mut bytes = buf.freeze();
            assert_eq!(get_varint(&mut bytes), Ok(v));
            assert!(bytes.is_empty());
        }
        let mut one = BytesMut::new();
        put_varint(&mut one, 127);
        assert_eq!(one.len(), 1);
        // Ends inside the varint.
        assert_eq!(
            get_varint(&mut Bytes::from(vec![0x80])),
            Err(WireError::Truncated)
        );
        // A tenth byte above 1 would overflow u64.
        let mut long = vec![0xff; 9];
        long.push(0x02);
        assert!(matches!(
            get_varint(&mut Bytes::from(long)),
            Err(WireError::Corrupt(_))
        ));
        let mut cap = BytesMut::new();
        put_varint(&mut cap, MAX_LEN + 1);
        assert_eq!(
            get_varint_len(&mut cap.freeze()),
            Err(WireError::LengthOverflow(MAX_LEN + 1))
        );
        for v in [0, -1, 1, i64::MIN, i64::MAX] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        assert_eq!((zigzag(-1), zigzag(1), zigzag(-2)), (1, 2, 3));
    }

    #[test]
    fn error_display() {
        assert!(WireError::Truncated.to_string().contains("truncated"));
        assert!(WireError::Corrupt("frame").to_string().contains("frame"));
        assert!(WireError::InvalidTag("bool", 9)
            .to_string()
            .contains("bool"));
    }
}
