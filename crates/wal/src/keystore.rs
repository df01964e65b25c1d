//! Time-windowed key store with shredding.
//!
//! Log payloads written during time window `w` are sealed under `key(w)`.
//! When the degradation process no longer needs any image from window `w`
//! (every tuple has moved past the states logged then), the key is
//! **shredded**: zeroed and dropped. The sealed bytes still sitting in the
//! log file become unreadable — physical log rewriting is never needed.
//! This is the mechanism the paper's "how to enforce timely data
//! degradation … in the logs" challenge calls for.
//!
//! Key material derives from a seed via SplitMix64 (simulation-grade; see
//! crate docs). Windows are indexed by `floor(now / window_len)`.
//!
//! **Threat model note.** Because keys are seed-derived, the seed plays the
//! role of a *key vault*: shredding raises the watermark below which the
//! vault will never serve a window again. The engine only ever shreds at a
//! checkpoint, with the checkpoint's own timestamp as the horizon, so the
//! watermark needs no storage of its own: recovery restores it from the
//! last `Checkpoint` record. The adversary of the paper's experiments
//! obtains the disk and the log but not the vault — matching the authors'
//! broader line of work, which places keys in tamper-resistant secure
//! hardware. A production deployment would use random per-window keys whose
//! bytes are physically destroyed on shredding.

use std::collections::HashMap;

use parking_lot::RwLock;

use instant_common::{Duration, Error, Result, Timestamp};

use crate::cipher::Key;

/// Identifier of a key window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct WindowId(pub u64);

#[derive(Debug)]
struct Inner {
    keys: HashMap<WindowId, Key>,
    /// Every window below this one is shredded — derived in this process
    /// or not.
    shredded_below: WindowId,
    counter: u64,
}

/// Key store covering the log's lifetime in fixed windows.
#[derive(Debug)]
pub struct KeyStore {
    window_len: Duration,
    seed: u64,
    inner: RwLock<Inner>,
}

impl KeyStore {
    /// A store with the given window length and key-derivation seed.
    pub fn new(window_len: Duration, seed: u64) -> KeyStore {
        assert!(window_len.as_micros() > 0, "window length must be positive");
        KeyStore {
            window_len,
            seed,
            inner: RwLock::ranked(
                530,
                Inner {
                    keys: HashMap::new(),
                    shredded_below: WindowId(0),
                    counter: 0,
                },
            ),
        }
    }

    pub fn window_len(&self) -> Duration {
        self.window_len
    }

    /// The window containing `t`.
    pub fn window_of(&self, t: Timestamp) -> WindowId {
        WindowId(t.0 / self.window_len.as_micros())
    }

    /// The key for the window containing `t`, deriving it on first use.
    /// Errors if that window has been shredded (writers must never seal
    /// into the past).
    pub fn key_for(&self, t: Timestamp) -> Result<(WindowId, Key)> {
        let w = self.window_of(t);
        let mut inner = self.inner.write();
        if w < inner.shredded_below {
            return Err(Error::Policy(format!(
                "window {w:?} already shredded; cannot seal into the past"
            )));
        }
        if let Some(k) = inner.keys.get(&w) {
            return Ok((w, *k));
        }
        let key = derive_key(self.seed, w.0);
        inner.keys.insert(w, key);
        Ok((w, key))
    }

    /// The key for window `w` if it is still alive (for opening payloads).
    /// Keys are seed-derived, so a restart can re-derive any window at or
    /// above the shred watermark — only those below it are truly destroyed.
    pub fn key_of(&self, w: WindowId) -> Option<Key> {
        {
            let inner = self.inner.read();
            if w < inner.shredded_below {
                return None;
            }
            if let Some(k) = inner.keys.get(&w) {
                return Some(*k);
            }
        }
        let key = derive_key(self.seed, w.0);
        self.inner.write().keys.insert(w, key);
        Some(key)
    }

    /// Has `w` been shredded?
    pub fn is_shredded(&self, w: WindowId) -> bool {
        w < self.inner.read().shredded_below
    }

    /// Shred every window that ended strictly before `horizon`. Returns the
    /// derived keys destroyed. After this call the sealed payloads of
    /// every such window — whether or not this process ever derived its
    /// key — are unrecoverable: the log-side counterpart of the heap's
    /// secure overwrite.
    pub fn shred_before(&self, horizon: Timestamp) -> Vec<WindowId> {
        let horizon_window = self.window_of(horizon);
        let mut inner = self.inner.write();
        inner.shredded_below = inner.shredded_below.max(horizon_window);
        let victims: Vec<WindowId> = inner
            .keys
            .keys()
            .copied()
            .filter(|w| *w < horizon_window)
            .collect();
        for w in &victims {
            if let Some(mut k) = inner.keys.remove(w) {
                // Zero the key material before dropping (belt and braces —
                // the HashMap copy semantics mean other copies never existed
                // outside short-lived seal/open calls).
                k.fill(0);
            }
        }
        victims
    }

    /// Number of live keys.
    pub fn live_keys(&self) -> usize {
        self.inner.read().keys.len()
    }

    /// The shred watermark: every window below it is destroyed.
    pub fn shredded_below(&self) -> WindowId {
        self.inner.read().shredded_below
    }

    /// A fresh unique nonce (per-record).
    pub fn next_nonce(&self) -> u64 {
        let mut inner = self.inner.write();
        inner.counter += 1;
        inner.counter
    }
}

/// SplitMix64-based key derivation (simulation-grade).
fn derive_key(seed: u64, window: u64) -> Key {
    let mut state = seed ^ window.wrapping_mul(0x9E3779B97F4A7C15);
    let mut key = [0u8; 32];
    for chunk in key.chunks_mut(8) {
        state = state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^= z >> 31;
        chunk.copy_from_slice(&z.to_le_bytes());
    }
    key
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ks() -> KeyStore {
        KeyStore::new(Duration::hours(1), 0xDEADBEEF)
    }

    #[test]
    fn same_window_same_key() {
        let ks = ks();
        let t1 = Timestamp::ZERO + Duration::minutes(10);
        let t2 = Timestamp::ZERO + Duration::minutes(50);
        let (w1, k1) = ks.key_for(t1).unwrap();
        let (w2, k2) = ks.key_for(t2).unwrap();
        assert_eq!(w1, w2);
        assert_eq!(k1, k2);
    }

    #[test]
    fn different_windows_different_keys() {
        let ks = ks();
        let (w1, k1) = ks.key_for(Timestamp::ZERO).unwrap();
        let (w2, k2) = ks.key_for(Timestamp::ZERO + Duration::hours(2)).unwrap();
        assert_ne!(w1, w2);
        assert_ne!(k1, k2);
    }

    #[test]
    fn shred_destroys_old_keys_only() {
        let ks = ks();
        let (w0, _) = ks.key_for(Timestamp::ZERO).unwrap();
        let (w5, _) = ks.key_for(Timestamp::ZERO + Duration::hours(5)).unwrap();
        let victims = ks.shred_before(Timestamp::ZERO + Duration::hours(5));
        assert_eq!(victims, vec![w0]);
        assert!(ks.is_shredded(w0));
        assert!(ks.key_of(w0).is_none());
        assert!(!ks.is_shredded(w5));
        assert!(ks.key_of(w5).is_some());
    }

    #[test]
    fn shredding_covers_windows_never_derived_here() {
        // A fresh process (nothing derived) restores the watermark from a
        // checkpoint: windows below it must not be re-derivable on demand.
        let ks = ks();
        assert!(ks
            .shred_before(Timestamp::ZERO + Duration::hours(5))
            .is_empty());
        assert!(ks.key_of(WindowId(4)).is_none());
        assert!(ks.key_of(WindowId(5)).is_some());
        // The watermark never moves backwards.
        ks.shred_before(Timestamp::ZERO + Duration::hours(2));
        assert!(ks.is_shredded(WindowId(4)));
    }

    #[test]
    fn sealing_into_shredded_window_rejected() {
        let ks = ks();
        ks.key_for(Timestamp::ZERO).unwrap();
        ks.shred_before(Timestamp::ZERO + Duration::hours(3));
        assert!(matches!(
            ks.key_for(Timestamp::ZERO + Duration::minutes(5)),
            Err(Error::Policy(_))
        ));
    }

    #[test]
    fn derivation_is_deterministic_across_instances() {
        let a = KeyStore::new(Duration::hours(1), 7);
        let b = KeyStore::new(Duration::hours(1), 7);
        let t = Timestamp::ZERO + Duration::minutes(30);
        assert_eq!(a.key_for(t).unwrap(), b.key_for(t).unwrap());
        // Different seeds → different keys.
        let c = KeyStore::new(Duration::hours(1), 8);
        assert_ne!(a.key_for(t).unwrap().1, c.key_for(t).unwrap().1);
    }

    #[test]
    fn nonces_are_unique() {
        let ks = ks();
        let n1 = ks.next_nonce();
        let n2 = ks.next_nonce();
        assert_ne!(n1, n2);
    }

    #[test]
    fn counters() {
        let ks = ks();
        ks.key_for(Timestamp::ZERO).unwrap();
        ks.key_for(Timestamp::ZERO + Duration::hours(2)).unwrap();
        assert_eq!(ks.live_keys(), 2);
        ks.shred_before(Timestamp::ZERO + Duration::hours(10));
        assert_eq!(ks.live_keys(), 0);
        assert_eq!(ks.shredded_below(), WindowId(10));
    }
}
