//! Secure-deletion policy and the forensic scanner.
//!
//! The paper (citing Stahlberg, Miklau & Levine, SIGMOD'07) observes that
//! "traditional DBMSs cannot even guarantee the non-recoverability of
//! deleted data due to different forms of unintended retention in the data
//! space, the indexes and the logs". [`SecurePolicy`] selects between the
//! classical behaviour ([`SecurePolicy::Naive`] — pointer drop only, bytes
//! linger) and degradation-grade physical erasure
//! ([`SecurePolicy::Overwrite`]). The [`ForensicScanner`] plays the
//! attacker: it greps raw storage images for byte patterns that should have
//! been destroyed, and is the instrument of the forensic tests.

/// How record bytes are treated on delete / in-place update.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SecurePolicy {
    /// Classical engine: only metadata changes; old bytes stay on the page
    /// (and in the log) until overwritten by chance. Recoverable by
    /// forensics — the behaviour the paper deems unacceptable.
    Naive,
    /// Degradation-grade: previous bytes are zeroed before release, in the
    /// page image itself. Combined with WAL cryptographic erasure this
    /// closes the forensic channel.
    #[default]
    Overwrite,
}

impl SecurePolicy {
    pub fn overwrites(self) -> bool {
        matches!(self, SecurePolicy::Overwrite)
    }
}

/// A forensic "attacker" scanning raw byte images for recoverable values.
#[derive(Debug, Default)]
pub struct ForensicScanner {
    needles: Vec<Vec<u8>>,
}

/// Result of a forensic scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForensicReport {
    /// Needles found somewhere in the scanned images.
    pub recovered: Vec<Vec<u8>>,
    /// Total occurrences across all images.
    pub occurrences: usize,
    /// Bytes scanned.
    pub bytes_scanned: usize,
}

impl ForensicScanner {
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a sensitive byte pattern the attacker is hunting for
    /// (typically the encoding of an accurate attribute value).
    pub fn hunt(&mut self, needle: impl Into<Vec<u8>>) {
        let n = needle.into();
        if !n.is_empty() {
            self.needles.push(n);
        }
    }

    /// Number of registered patterns.
    pub fn needle_count(&self) -> usize {
        self.needles.len()
    }

    /// Scan one or more raw images (heap file bytes, WAL bytes, index pages).
    pub fn scan<'a>(&self, images: impl IntoIterator<Item = &'a [u8]>) -> ForensicReport {
        let mut recovered: Vec<Vec<u8>> = Vec::new();
        let mut occurrences = 0usize;
        let mut bytes_scanned = 0usize;
        let images: Vec<&[u8]> = images.into_iter().collect();
        for needle in &self.needles {
            let mut found = false;
            for img in &images {
                let c = count_occurrences(img, needle);
                occurrences += c;
                found |= c > 0;
            }
            if found {
                recovered.push(needle.clone());
            }
        }
        for img in &images {
            bytes_scanned += img.len();
        }
        ForensicReport {
            recovered,
            occurrences,
            bytes_scanned,
        }
    }
}

impl ForensicReport {
    /// Fraction of hunted patterns that were recovered, in `[0, 1]`.
    pub fn recovery_rate(&self, total_needles: usize) -> f64 {
        if total_needles == 0 {
            0.0
        } else {
            self.recovered.len() as f64 / total_needles as f64
        }
    }

    pub fn clean(&self) -> bool {
        self.recovered.is_empty()
    }
}

fn count_occurrences(hay: &[u8], needle: &[u8]) -> usize {
    if needle.is_empty() || hay.len() < needle.len() {
        return 0;
    }
    hay.windows(needle.len()).filter(|w| *w == needle).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scanner_finds_plaintext() {
        let mut s = ForensicScanner::new();
        s.hunt(b"SECRET".to_vec());
        s.hunt(b"ADDRESS".to_vec());
        let img1 = b"xxxSECRETyyy".to_vec();
        let img2 = b"nothing here".to_vec();
        let r = s.scan([img1.as_slice(), img2.as_slice()]);
        assert_eq!(r.recovered, vec![b"SECRET".to_vec()]);
        assert_eq!(r.occurrences, 1);
        assert_eq!(r.bytes_scanned, img1.len() + img2.len());
        assert!((r.recovery_rate(2) - 0.5).abs() < 1e-12);
        assert!(!r.clean());
    }

    #[test]
    fn clean_report_when_nothing_recovered() {
        let mut s = ForensicScanner::new();
        s.hunt(b"GONE".to_vec());
        let img = vec![0u8; 128];
        let r = s.scan([img.as_slice()]);
        assert!(r.clean());
        assert_eq!(r.recovery_rate(1), 0.0);
    }

    #[test]
    fn counts_multiple_occurrences() {
        let mut s = ForensicScanner::new();
        s.hunt(b"ab".to_vec());
        let img = b"ababab".to_vec();
        let r = s.scan([img.as_slice()]);
        // Overlapping windows: positions 0,2,4 — plus 1,3 ("ba") don't match.
        assert_eq!(r.occurrences, 3);
    }

    #[test]
    fn empty_needles_ignored() {
        let mut s = ForensicScanner::new();
        s.hunt(Vec::<u8>::new());
        assert_eq!(s.needle_count(), 0);
    }

    #[test]
    fn policy_flags() {
        assert!(SecurePolicy::Overwrite.overwrites());
        assert!(!SecurePolicy::Naive.overwrites());
        assert_eq!(SecurePolicy::default(), SecurePolicy::Overwrite);
    }
}
