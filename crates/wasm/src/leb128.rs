//! LEB128 variable-length integer encoding (WebAssembly binary format §5.2).

use crate::error::DecodeError;

/// Encode an unsigned 32-bit integer.
pub fn write_u32(out: &mut Vec<u8>, mut v: u32) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Encode a signed 32-bit integer (SLEB128).
pub(crate) fn write_i32(out: &mut Vec<u8>, v: i32) {
    write_i64(out, v as i64)
}

/// Encode a signed 64-bit integer (SLEB128).
pub fn write_i64(out: &mut Vec<u8>, mut v: i64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        let sign = byte & 0x40 != 0;
        if (v == 0 && !sign) || (v == -1 && sign) {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Decode an unsigned 32-bit integer; returns (value, bytes consumed).
pub fn read_u32(buf: &[u8]) -> Result<(u32, usize), DecodeError> {
    let (v, n) = read_u64_impl(buf, 5)?;
    if v > u32::MAX as u64 {
        return Err(DecodeError::IntegerTooLarge);
    }
    Ok((v as u32, n))
}

fn read_u64_impl(buf: &[u8], max_bytes: usize) -> Result<(u64, usize), DecodeError> {
    let mut result: u64 = 0;
    let mut shift = 0u32;
    for (i, &byte) in buf.iter().enumerate().take(max_bytes) {
        let low = (byte & 0x7f) as u64;
        // Check the final byte doesn't overflow the target width.
        if shift >= 64 || (shift == 63 && low > 1) {
            return Err(DecodeError::IntegerTooLarge);
        }
        result |= low << shift;
        if byte & 0x80 == 0 {
            return Ok((result, i + 1));
        }
        shift += 7;
    }
    if buf.len() < max_bytes {
        Err(DecodeError::UnexpectedEof)
    } else {
        Err(DecodeError::IntegerTooLong)
    }
}

/// Decode a signed 32-bit integer; returns (value, bytes consumed).
pub(crate) fn read_i32(buf: &[u8]) -> Result<(i32, usize), DecodeError> {
    let (v, n) = read_i64_impl(buf, 5)?;
    if v > i32::MAX as i64 || v < i32::MIN as i64 {
        return Err(DecodeError::IntegerTooLarge);
    }
    Ok((v as i32, n))
}

/// Decode a signed 64-bit integer; returns (value, bytes consumed).
pub fn read_i64(buf: &[u8]) -> Result<(i64, usize), DecodeError> {
    read_i64_impl(buf, 10)
}

fn read_i64_impl(buf: &[u8], max_bytes: usize) -> Result<(i64, usize), DecodeError> {
    let mut result: i64 = 0;
    let mut shift = 0u32;
    for (i, &byte) in buf.iter().enumerate().take(max_bytes) {
        if shift >= 64 {
            return Err(DecodeError::IntegerTooLarge);
        }
        result |= ((byte & 0x7f) as i64) << shift;
        shift += 7;
        if byte & 0x80 == 0 {
            // Sign-extend.
            if shift < 64 && byte & 0x40 != 0 {
                result |= -1i64 << shift;
            }
            return Ok((result, i + 1));
        }
    }
    if buf.len() < max_bytes {
        Err(DecodeError::UnexpectedEof)
    } else {
        Err(DecodeError::IntegerTooLong)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_u32(v: u32) {
        let mut buf = Vec::new();
        write_u32(&mut buf, v);
        let (got, n) = read_u32(&buf).unwrap();
        assert_eq!(got, v);
        assert_eq!(n, buf.len());
    }

    fn roundtrip_i64(v: i64) {
        let mut buf = Vec::new();
        write_i64(&mut buf, v);
        let (got, n) = read_i64(&buf).unwrap();
        assert_eq!(got, v);
        assert_eq!(n, buf.len());
    }

    #[test]
    fn u32_edges() {
        for v in [0, 1, 127, 128, 16383, 16384, u32::MAX] {
            roundtrip_u32(v);
        }
    }

    #[test]
    fn i64_edges() {
        for v in [0, 1, -1, 63, 64, -64, -65, i64::MAX, i64::MIN, 624485, -123456] {
            roundtrip_i64(v);
        }
    }

    #[test]
    fn i32_roundtrip_edges() {
        for v in [0i32, -1, i32::MIN, i32::MAX, 42, -42] {
            let mut buf = Vec::new();
            write_i32(&mut buf, v);
            let (got, n) = read_i32(&buf).unwrap();
            assert_eq!(got, v);
            assert_eq!(n, buf.len());
        }
    }

    #[test]
    fn known_encodings() {
        let mut buf = Vec::new();
        write_u32(&mut buf, 624485);
        assert_eq!(buf, vec![0xe5, 0x8e, 0x26]);
        buf.clear();
        write_i64(&mut buf, -123456);
        assert_eq!(buf, vec![0xc0, 0xbb, 0x78]);
    }

    #[test]
    fn truncated_input() {
        assert_eq!(read_u32(&[0x80]), Err(DecodeError::UnexpectedEof));
        assert_eq!(read_u32(&[]), Err(DecodeError::UnexpectedEof));
    }

    #[test]
    fn overlong_rejected() {
        // 6 continuation bytes for a u32.
        assert!(read_u32(&[0x80, 0x80, 0x80, 0x80, 0x80, 0x01]).is_err());
        // Too-large final byte for u32.
        assert!(read_u32(&[0xff, 0xff, 0xff, 0xff, 0x7f]).is_err());
    }
}
