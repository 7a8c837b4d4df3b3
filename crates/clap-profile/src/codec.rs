//! LEB128 varint encoding for compact path logs.
//!
//! Path ids in hot loops are tiny (usually < 128), so most log records are
//! one tag byte plus one payload byte — this is what gives CLAP its large
//! log-size advantage over value/dependency recorders in Table 2.

/// Appends `value` to `out` as an unsigned LEB128 varint.
pub fn write_varint(out: &mut Vec<u8>, mut value: u64) {
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

/// Reads a varint from `bytes` starting at `*pos`, advancing `*pos`.
///
/// Returns `None` on truncated or over-long (more than 10 byte) input.
pub fn read_varint(bytes: &[u8], pos: &mut usize) -> Option<u64> {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *bytes.get(*pos)?;
        *pos += 1;
        if shift >= 64 {
            return None;
        }
        value |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Some(value);
        }
        shift += 7;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clap_vm::Rng;

    #[test]
    fn small_values_take_one_byte() {
        let mut out = Vec::new();
        write_varint(&mut out, 127);
        assert_eq!(out.len(), 1);
        write_varint(&mut out, 128);
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn read_rejects_truncation() {
        let mut pos = 0;
        assert_eq!(read_varint(&[0x80], &mut pos), None);
    }

    #[test]
    fn round_trip_extremes() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut out = Vec::new();
            write_varint(&mut out, v);
            let mut pos = 0;
            assert_eq!(read_varint(&out, &mut pos), Some(v));
            assert_eq!(pos, out.len());
        }
    }

    #[test]
    fn round_trip_any() {
        let mut rng = Rng::for_test("clap_profile::codec::tests::round_trip_any");
        for _ in 0..32 {
            let values: Vec<u64> = (0..rng.below(50)).map(|_| rng.next_u64()).collect();
            let mut out = Vec::new();
            for &v in &values {
                write_varint(&mut out, v);
            }
            let mut pos = 0;
            let mut back = Vec::new();
            while pos < out.len() {
                back.push(read_varint(&out, &mut pos).unwrap());
            }
            assert_eq!(back, values);
        }
    }
}
