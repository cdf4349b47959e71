//! Properties of the table-driven data path: the slicing-by-8
//! `crc16`, and `crc16_update` continued from any split point, agree
//! with the bitwise CRC16-CCITT definition, and `encode_frame` lays out
//! `SOF | VER | KIND | LEN | payload | CRC` after whatever the buffer
//! already holds.

use peert_frame::{crc16, crc16_update, encode_frame, WIRE_SOF};
use peert_prop::{any, check, prop_assert_eq, vec_of, Index};

/// CRC16-CCITT one bit at a time (poly 0x1021, MSB first), from the
/// register value `crc`: the definition the tables must reproduce.
fn bitwise(mut crc: u16, data: &[u8]) -> u16 {
    for &b in data {
        crc ^= (b as u16) << 8;
        for _ in 0..8 {
            crc = if crc & 0x8000 != 0 { (crc << 1) ^ 0x1021 } else { crc << 1 };
        }
    }
    crc
}

#[test]
fn crc16_matches_the_bitwise_definition() {
    check(
        256,
        |rng| vec_of(rng, 0..4097, any::<u8>),
        |data| {
            prop_assert_eq!(crc16(&data), bitwise(0xFFFF, &data));
            Ok(())
        },
    );
}

#[test]
fn crc16_update_from_any_split_matches_the_bitwise_definition() {
    check(
        256,
        |rng| (vec_of(rng, 0..4097, any::<u8>), any::<Index>(rng), any::<u16>(rng)),
        |(data, cut, init)| {
            let (head, tail) = data.split_at(cut.index(data.len() + 1));
            prop_assert_eq!(crc16_update(crc16(head), tail), bitwise(0xFFFF, &data));
            prop_assert_eq!(crc16_update(init, &data), bitwise(init, &data));
            Ok(())
        },
    );
}

#[test]
fn encode_frame_appends_the_grammar_after_any_prefix() {
    check(
        64,
        |rng| {
            (
                vec_of(rng, 0..32, any::<u8>),
                any::<u8>(rng),
                any::<u8>(rng),
                vec_of(rng, 0..300, any::<u8>),
            )
        },
        |(prefix, version, kind, payload)| {
            let mut out = prefix.clone();
            encode_frame(&mut out, version, kind, |e| e.bytes(&payload));
            let mut want = prefix;
            want.extend([WIRE_SOF, version, kind]);
            want.extend((payload.len() as u32).to_le_bytes());
            want.extend(&payload);
            let crc = bitwise(0xFFFF, &want[want.len() - payload.len() - 6..]);
            want.extend(crc.to_le_bytes());
            prop_assert_eq!(out, want);
            Ok(())
        },
    );
}
