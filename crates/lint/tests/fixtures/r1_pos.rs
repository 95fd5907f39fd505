// Fixture: R1 must fire — every way a reader of outside data turns a
// failure into a panic instead of an `Err`.
use std::io::Read;

pub fn read_len(mut r: impl Read) -> u64 {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf).unwrap();
    let len = u64::from_le_bytes(buf);
    assert!(len < 1 << 20, "length field too large");
    assert_eq!(len % 16, 0);
    debug_assert_ne!(len, 0);
    len
}

pub fn parse(field: Option<&str>) -> u64 {
    let text = field.expect("missing field");
    match text.parse() {
        Ok(x) => x,
        Err(_) if text.is_empty() => unreachable!("split never yields an empty field"),
        Err(e) => panic!("bad number: {e}"),
    }
}
