//! Test inputs for the parsers' robustness proptests: strings that are
//! mostly the grammar's own tokens, with raw bytes mixed in.

use proptest::prelude::*;

/// Strings of up to 63 pieces, each one of `tokens` (three times in
/// four) or an arbitrary byte; the bytes are joined and decoded as lossy
/// UTF-8, so stray bytes become U+FFFD.
pub(crate) fn grammar_text(tokens: &'static [&'static str]) -> impl Strategy<Value = String> {
    prop::collection::vec((0u8..4, 0..tokens.len(), any::<u32>()), 0..64).prop_map(move |pieces| {
        let mut bytes = Vec::new();
        for (kind, token, byte) in pieces {
            if kind == 0 {
                bytes.push(byte as u8);
            } else {
                bytes.extend_from_slice(tokens[token].as_bytes());
            }
        }
        String::from_utf8_lossy(&bytes).into_owned()
    })
}
