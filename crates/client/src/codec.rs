//! The one bounded reader every binary decoder goes through.
//!
//! Every codec in the stack — the `Raw*` interchange frames, the wire
//! payloads, the socket frame header, persist records and (in
//! `fides-core`) plan-cache entries — decodes through [`Reader`]. It is
//! the single place input bounds are checked: every read returns a typed
//! [`ClientError::Serialization`] instead of panicking on short input,
//! and [`Reader::count`] refuses a declared element count whose minimum
//! encoded size exceeds the bytes that are left, so a `Vec::with_capacity`
//! sized by a count is bounded by the input itself.

use crate::error::ClientError;

/// Cap on a count of items that may encode in zero bytes. The only such
/// items are the limbs of a polynomial with ring degree 0 — cost-only
/// placeholder keys carry a full chain of empty limbs — so the bytes left
/// cannot bound them. Set far above any RNS chain (`Q ∪ P`) this
/// workspace builds.
pub const MAX_EMPTY_ITEMS: usize = 1 << 10;

/// A cursor over a borrowed byte slice. Multi-byte integers follow the
/// encoders' `BufMut` conventions: big-endian except the `_le` reads.
/// Every fallible method fails with [`ClientError::Serialization`] and
/// never panics.
#[derive(Debug)]
pub struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader positioned at the start of `data`.
    pub fn new(data: &'a [u8]) -> Self {
        Self { data, pos: 0 }
    }

    /// The next `len` bytes, borrowed from the input.
    pub fn bytes(&mut self, len: usize) -> Result<&'a [u8], ClientError> {
        let left = self.data.len() - self.pos;
        if len > left {
            return Err(ClientError::Serialization(format!(
                "truncated input: {len} bytes needed at offset {}, {left} left",
                self.pos
            )));
        }
        let head = &self.data[self.pos..self.pos + len];
        self.pos += len;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], ClientError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.bytes(N)?);
        Ok(out)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, ClientError> {
        Ok(self.array::<1>()?[0])
    }

    /// Reads a big-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, ClientError> {
        self.array().map(u32::from_be_bytes)
    }

    /// Reads a little-endian `u64`.
    pub fn u64_le(&mut self) -> Result<u64, ClientError> {
        self.array().map(u64::from_le_bytes)
    }

    /// Reads a big-endian `f64`.
    pub fn f64(&mut self) -> Result<f64, ClientError> {
        self.array().map(f64::from_be_bytes)
    }

    /// Reads a `u32` element count and applies the count rule: that many
    /// items of at least `min_item_bytes` each must fit in the bytes left,
    /// and items that may encode in zero bytes are capped at
    /// [`MAX_EMPTY_ITEMS`].
    pub fn count(&mut self, min_item_bytes: usize, what: &str) -> Result<usize, ClientError> {
        let n = self.u32()? as usize;
        self.check_count(n, min_item_bytes, what)
    }

    /// The count rule of [`Self::count`], for a count whose item size is
    /// only known after it was read (a polynomial's limb count precedes its
    /// ring degree).
    pub(crate) fn check_count(
        &self,
        n: usize,
        min_item_bytes: usize,
        what: &str,
    ) -> Result<usize, ClientError> {
        let left = self.data.len() - self.pos;
        let fits = if min_item_bytes == 0 {
            n <= MAX_EMPTY_ITEMS
        } else {
            n.checked_mul(min_item_bytes).is_some_and(|b| b <= left)
        };
        if fits {
            Ok(n)
        } else {
            Err(ClientError::Serialization(format!(
                "{what}: count {n} of {min_item_bytes}-byte items exceeds the {left} bytes left"
            )))
        }
    }

    /// Consumes the reader, requiring that the whole input was read.
    pub fn finish(self, what: &str) -> Result<(), ClientError> {
        let left = self.data.len() - self.pos;
        if left == 0 {
            Ok(())
        } else {
            Err(ClientError::Serialization(format!(
                "{left} trailing bytes after {what}"
            )))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BufMut;

    #[test]
    fn reads_every_width_in_encoder_byte_order() {
        let mut buf = Vec::new();
        buf.put_u8(0xAB);
        buf.put_u32(0xDEAD_BEEF);
        buf.put_u64_le(0x0123_4567_89AB_CDEF);
        buf.put_f64(-1234.5678);
        buf.extend_from_slice(b"tail");
        let mut r = Reader::new(&buf);
        assert_eq!(r.u8().unwrap(), 0xAB);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64_le().unwrap(), 0x0123_4567_89AB_CDEF);
        assert_eq!(r.f64().unwrap(), -1234.5678);
        assert_eq!(r.bytes(4).unwrap(), b"tail");
        r.finish("sample").unwrap();
    }

    #[test]
    fn short_input_is_typed_and_consumes_nothing() {
        let mut r = Reader::new(&[1, 2, 3]);
        assert!(matches!(r.u32(), Err(ClientError::Serialization(_))));
        assert!(r.bytes(4).is_err());
        assert_eq!(r.bytes(3).unwrap(), &[1, 2, 3]);
        assert!(r.u8().is_err());
        assert!(Reader::new(&[0]).finish("one byte").is_err());
    }

    #[test]
    fn count_is_bounded_by_the_bytes_left() {
        let mut buf = Vec::new();
        buf.put_u32(3);
        buf.extend_from_slice(&[0; 12]);
        assert_eq!(Reader::new(&buf).count(4, "items").unwrap(), 3);
        assert!(Reader::new(&buf).count(5, "items").is_err());
        let mut huge = Vec::new();
        huge.put_u32(u32::MAX);
        assert!(Reader::new(&huge).count(1, "items").is_err());
        let r = Reader::new(&[]);
        assert_eq!(
            r.check_count(MAX_EMPTY_ITEMS, 0, "empty").unwrap(),
            MAX_EMPTY_ITEMS
        );
        assert!(r.check_count(MAX_EMPTY_ITEMS + 1, 0, "empty").is_err());
        assert!(r.check_count(usize::MAX, 8, "wide").is_err());
    }
}
