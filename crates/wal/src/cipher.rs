//! ChaCha20 stream cipher core (RFC 8439 block function).
//!
//! Used to seal degradable payloads in the WAL under time-windowed keys, so
//! that shredding a key renders the corresponding log bytes unreadable
//! ("cryptographic erasure"). Implemented from scratch because the offline
//! dependency set contains no cryptography crate. The implementation follows
//! the RFC test vectors (checked in the tests below), but this build is a
//! research artifact: **do not reuse as production crypto** (no AEAD, no
//! constant-time guarantees needed here since keys protect only synthetic
//! data).

/// 256-bit key.
pub type Key = [u8; 32];

const SIGMA: [u32; 4] = [0x61707865, 0x3320646e, 0x79622d32, 0x6b206574];

#[inline]
fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

#[expect(
    clippy::unwrap_used,
    reason = "fixed 4-byte chunks of a 32-byte key and a 12-byte nonce"
)]
fn chacha20_block(key: &Key, counter: u32, nonce: &[u8; 12]) -> [u8; 64] {
    let mut state = [0u32; 16];
    state[0..4].copy_from_slice(&SIGMA);
    for i in 0..8 {
        state[4 + i] = u32::from_le_bytes(key[i * 4..i * 4 + 4].try_into().unwrap());
    }
    state[12] = counter;
    for i in 0..3 {
        state[13 + i] = u32::from_le_bytes(nonce[i * 4..i * 4 + 4].try_into().unwrap());
    }
    let mut working = state;
    for _ in 0..10 {
        // column rounds
        quarter_round(&mut working, 0, 4, 8, 12);
        quarter_round(&mut working, 1, 5, 9, 13);
        quarter_round(&mut working, 2, 6, 10, 14);
        quarter_round(&mut working, 3, 7, 11, 15);
        // diagonal rounds
        quarter_round(&mut working, 0, 5, 10, 15);
        quarter_round(&mut working, 1, 6, 11, 12);
        quarter_round(&mut working, 2, 7, 8, 13);
        quarter_round(&mut working, 3, 4, 9, 14);
    }
    let mut out = [0u8; 64];
    for i in 0..16 {
        let word = working[i].wrapping_add(state[i]);
        out[i * 4..i * 4 + 4].copy_from_slice(&word.to_le_bytes());
    }
    out
}

/// XOR `data` with the ChaCha20 keystream for `(key, nonce)`.
/// Encryption and decryption are the same operation.
pub fn apply_keystream(key: &Key, nonce64: u64, data: &mut [u8]) {
    let mut nonce = [0u8; 12];
    nonce[4..12].copy_from_slice(&nonce64.to_le_bytes());
    let mut counter = 1u32; // RFC convention: counter 0 reserved for AEAD tag
    let mut off = 0usize;
    while off < data.len() {
        let block = chacha20_block(key, counter, &nonce);
        let n = (data.len() - off).min(64);
        for i in 0..n {
            data[off + i] ^= block[i];
        }
        off += n;
        counter = counter.wrapping_add(1);
    }
}

/// Convenience: seal a buffer (copies).
pub fn seal(key: &Key, nonce64: u64, plain: &[u8]) -> Vec<u8> {
    let mut out = plain.to_vec();
    apply_keystream(key, nonce64, &mut out);
    out
}

/// Convenience: open a sealed buffer (copies).
pub fn open(key: &Key, nonce64: u64, sealed: &[u8]) -> Vec<u8> {
    seal(key, nonce64, sealed)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// RFC 8439 §2.3.2 block-function test vector.
    #[test]
    fn rfc8439_block_vector() {
        let mut key = [0u8; 32];
        for (i, b) in key.iter_mut().enumerate() {
            *b = i as u8;
        }
        let nonce: [u8; 12] = [0, 0, 0, 9, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let block = chacha20_block(&key, 1, &nonce);
        let expect_first16: [u8; 16] = [
            0x10, 0xf1, 0xe7, 0xe4, 0xd1, 0x3b, 0x59, 0x15, 0x50, 0x0f, 0xdd, 0x1f, 0xa3, 0x20,
            0x71, 0xc4,
        ];
        assert_eq!(&block[..16], &expect_first16);
    }

    /// RFC 8439 §2.4.2 encryption test vector (first bytes).
    #[test]
    fn rfc8439_encrypt_vector() {
        let mut key = [0u8; 32];
        for (i, b) in key.iter_mut().enumerate() {
            *b = i as u8;
        }
        // nonce 00:00:00:00 / 00:00:00:4a:00:00:00:00 — matches our u64 path
        // only partially, so use the raw block path for the vector:
        let plaintext = b"Ladies and Gentlemen of the class of '99: If I could offer you only one tip for the future, sunscreen would be it.";
        let nonce: [u8; 12] = [0, 0, 0, 0, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let mut data = plaintext.to_vec();
        let mut counter = 1u32;
        let mut off = 0;
        while off < data.len() {
            let block = chacha20_block(&key, counter, &nonce);
            let n = (data.len() - off).min(64);
            for i in 0..n {
                data[off + i] ^= block[i];
            }
            off += n;
            counter += 1;
        }
        let expect_first8: [u8; 8] = [0x6e, 0x2e, 0x35, 0x9a, 0x25, 0x68, 0xf9, 0x80];
        assert_eq!(&data[..8], &expect_first8);
    }

    #[test]
    fn seal_open_round_trip() {
        let key = [7u8; 32];
        let msg = b"degradable payload: Domaine de Voluceau".to_vec();
        let sealed = seal(&key, 42, &msg);
        assert_ne!(sealed, msg);
        assert_eq!(open(&key, 42, &sealed), msg);
    }

    #[test]
    fn wrong_key_or_nonce_fails_to_open() {
        let key = [7u8; 32];
        let other = [8u8; 32];
        let msg = b"secret".to_vec();
        let sealed = seal(&key, 1, &msg);
        assert_ne!(open(&other, 1, &sealed), msg);
        assert_ne!(open(&key, 2, &sealed), msg);
    }

    #[test]
    fn ciphertext_hides_plaintext_patterns() {
        let key = [3u8; 32];
        let msg = vec![b'A'; 256];
        let sealed = seal(&key, 9, &msg);
        // No 8-byte window of the ciphertext equals the plaintext run.
        assert!(!sealed.windows(8).any(|w| w == &msg[..8]));
    }

    #[test]
    fn empty_and_block_boundary_lengths() {
        let key = [1u8; 32];
        for len in [0usize, 1, 63, 64, 65, 128, 257] {
            let msg = vec![0xAB; len];
            let sealed = seal(&key, 5, &msg);
            assert_eq!(open(&key, 5, &sealed), msg, "len {len}");
        }
    }
}
