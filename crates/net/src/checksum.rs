//! The Internet checksum (RFC 1071) and incremental updates (RFC 1624).
//!
//! The simulated router validates the IP header checksum on input and fixes
//! it incrementally after decrementing the TTL, exactly as a real forwarding
//! path does — the cheap RFC 1624 update rather than a full recompute.

/// Computes the one's-complement Internet checksum over `data`.
///
/// Returns the checksum in host byte order, ready to be stored with
/// `to_be_bytes`. A buffer whose existing checksum field is correct sums to
/// zero (see [`verify`]).
///
/// # Examples
///
/// ```
/// use livelock_net::checksum::checksum;
///
/// // RFC 1071 example words: 0x0001 0xf203 0xf4f5 0xf6f7 -> sum 0xddf2,
/// // checksum = !0xddf2 = 0x220d.
/// let data = [0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
/// assert_eq!(checksum(&data), 0x220d);
/// ```
pub fn checksum(data: &[u8]) -> u16 {
    !fold(sum_words(data))
}

/// Sums `data` as big-endian 16-bit words into a 32-bit accumulator,
/// padding a trailing odd byte with zero.
pub fn sum_words(data: &[u8]) -> u32 {
    let mut sum: u32 = 0;
    let mut chunks = data.chunks_exact(2);
    for w in &mut chunks {
        sum += u32::from(u16::from_be_bytes([w[0], w[1]]));
    }
    if let [last] = chunks.remainder() {
        sum += u32::from(u16::from_be_bytes([*last, 0]));
    }
    sum
}

/// Folds a 32-bit accumulator into 16 bits with end-around carry.
pub fn fold(mut sum: u32) -> u16 {
    while sum > 0xffff {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    sum as u16
}

/// Verifies a buffer whose checksum field is already in place.
///
/// Per RFC 1071, summing the entire buffer (checksum included) yields
/// `0xffff` when the checksum is correct.
pub fn verify(data: &[u8]) -> bool {
    fold(sum_words(data)) == 0xffff
}

/// Incrementally updates a checksum after a 16-bit field changes
/// (RFC 1624, equation 3: `HC' = ~(~HC + ~m + m')`).
///
/// `old_checksum` is the checksum currently stored in the header, `old` the
/// previous value of the changed 16-bit field and `new` its new value.
///
/// # Examples
///
/// ```
/// use livelock_net::checksum::{checksum, incremental_update};
///
/// let mut buf = [0x45, 0x00, 0x12, 0x34, 0x40, 0x01, 0x00, 0x00];
/// let c = checksum(&buf);
/// buf[6..8].copy_from_slice(&c.to_be_bytes());
///
/// // Change the word at offset 4 from 0x4001 to 0x3f01 (TTL decrement).
/// buf[4] = 0x3f;
/// let updated = incremental_update(c, 0x4001, 0x3f01);
/// buf[6..8].copy_from_slice(&updated.to_be_bytes());
/// assert!(livelock_net::checksum::verify(&buf));
/// ```
pub fn incremental_update(old_checksum: u16, old: u16, new: u16) -> u16 {
    let sum = u32::from(!old_checksum) + u32::from(!old) + u32::from(new);
    !fold(sum)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn zero_buffer_checksums_to_ffff() {
        assert_eq!(checksum(&[0u8; 20]), 0xffff);
    }

    #[test]
    fn odd_length_pads_with_zero() {
        assert_eq!(checksum(&[0xab]), checksum(&[0xab, 0x00]));
    }

    #[test]
    fn empty_buffer() {
        assert_eq!(checksum(&[]), 0xffff);
        assert!(!verify(&[0x00, 0x01]));
    }

    #[test]
    fn known_ip_header_vector() {
        // Classic example header from RFC 1071 discussions:
        // 45 00 00 3c 1c 46 40 00 40 06 [b1 e6] ac 10 0a 63 ac 10 0a 0c
        let mut h = [
            0x45, 0x00, 0x00, 0x3c, 0x1c, 0x46, 0x40, 0x00, 0x40, 0x06, 0x00, 0x00, 0xac, 0x10,
            0x0a, 0x63, 0xac, 0x10, 0x0a, 0x0c,
        ];
        let c = checksum(&h);
        assert_eq!(c, 0xb1e6);
        h[10..12].copy_from_slice(&c.to_be_bytes());
        assert!(verify(&h));
    }

    #[test]
    fn verify_detects_single_bit_corruption() {
        let mut h = [
            0x45, 0x00, 0x00, 0x1c, 0x00, 0x01, 0x00, 0x00, 0x40, 0x11, 0x00, 0x00,
        ];
        let c = checksum(&h);
        h[10..12].copy_from_slice(&c.to_be_bytes());
        assert!(verify(&h));
        for byte in 0..h.len() {
            for bit in 0..8 {
                let mut corrupt = h;
                corrupt[byte] ^= 1 << bit;
                assert!(!verify(&corrupt), "flip byte {byte} bit {bit} undetected");
            }
        }
    }

    proptest! {
        #[test]
        fn filled_checksum_always_verifies(data in proptest::collection::vec(any::<u8>(), 1..128)) {
            // The checksum field must be 16-bit aligned: use an even-length
            // buffer with the last word reserved for the checksum.
            let mut buf = data;
            buf.push(0);
            buf.push(0);
            if buf.len() % 2 == 1 {
                buf.push(0);
            }
            let n = buf.len();
            buf[n - 2] = 0;
            buf[n - 1] = 0;
            let c = checksum(&buf);
            buf[n - 2..].copy_from_slice(&c.to_be_bytes());
            prop_assert!(verify(&buf));
        }

        #[test]
        fn incremental_matches_full_recompute(
            mut words in proptest::collection::vec(any::<u16>(), 4..64),
            idx in 0usize..64,
            new_val in any::<u16>(),
        ) {
            // Treat words[0] as the checksum field; compute it over the rest.
            let idx = 1 + idx % (words.len() - 1);
            let encode = |ws: &[u16]| -> Vec<u8> {
                ws.iter().flat_map(|w| w.to_be_bytes()).collect()
            };
            words[0] = 0;
            let mut bytes = encode(&words);
            let c0 = checksum(&bytes);
            words[0] = c0;

            // Mutate one word both ways and compare checksums.
            let old = words[idx];
            words[idx] = new_val;
            let inc = incremental_update(c0, old, new_val);

            words[0] = 0;
            bytes = encode(&words);
            let full = checksum(&bytes);

            // RFC 1624: the incremental result is equivalent under the
            // one's-complement equality (0x0000 == 0xffff is impossible here
            // because eq-3 never produces 0xffff unless full does... compare
            // by verification instead of raw equality).
            words[0] = inc;
            let bytes_inc = encode(&words);
            prop_assert!(verify(&bytes_inc), "inc {inc:#06x} full {full:#06x}");
        }
    }
}
