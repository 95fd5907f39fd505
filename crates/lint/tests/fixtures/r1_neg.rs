// Fixture: R1 must stay silent — failures travel as `Err`, the
// non-panicking cousins of `unwrap` are fine, a site that stays states
// its invariant, and test code may assert what it likes.
//
// `.unwrap()`, `.expect("…")`, `panic!` and `assert!` in comments and
// strings never count.
use std::io::{self, Read};

pub fn read_len(mut r: impl Read) -> io::Result<u64> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    let len = u64::from_le_bytes(buf);
    if len >= 1 << 20 {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "assert!(len) failed"));
    }
    Ok(len)
}

pub fn parse(field: Option<&str>) -> u64 {
    field.and_then(|t| t.parse().ok()).unwrap_or_default()
}

pub fn first_word(bytes: &[u8; 16]) -> u64 {
    // kagen-lint: allow(r1) -- a [u8; 16] always has an 8-byte prefix
    u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes"))
}

pub fn expect(x: u64) -> u64 {
    let unwrap = x;
    unwrap
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_panic() {
        assert_eq!(super::parse(Some("7")), 7);
        super::read_len(&[0u8; 8][..]).unwrap();
    }
}
