//! Output digests: the correctness gate compares these against the golden
//! table, across repetitions of one run, and between the traced and the
//! untraced run.

use std::io;
use std::sync::{Arc, Mutex};

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// A streaming 64-bit digest, FNV-1a over little-endian 8-byte words. The
/// result depends only on the byte stream, not on how it was split into
/// `update` calls.
#[derive(Debug, Clone)]
pub struct Digest {
    state: u64,
    tail: [u8; 8],
    tail_len: usize,
}

impl Default for Digest {
    fn default() -> Self {
        Digest {
            state: OFFSET,
            tail: [0; 8],
            tail_len: 0,
        }
    }
}

impl Digest {
    fn mix(&mut self, word: [u8; 8]) {
        self.state = (self.state ^ u64::from_le_bytes(word)).wrapping_mul(PRIME);
    }

    /// Feeds `bytes`.
    pub fn update(&mut self, mut bytes: &[u8]) {
        if self.tail_len > 0 {
            let take = (8 - self.tail_len).min(bytes.len());
            self.tail[self.tail_len..self.tail_len + take].copy_from_slice(&bytes[..take]);
            self.tail_len += take;
            bytes = &bytes[take..];
            if self.tail_len < 8 {
                return;
            }
            self.mix(self.tail);
            self.tail_len = 0;
        }
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            let mut word = [0; 8];
            word.copy_from_slice(w);
            self.mix(word);
        }
        let rest = words.remainder();
        self.tail[..rest.len()].copy_from_slice(rest);
        self.tail_len = rest.len();
    }

    /// The digest of everything fed so far.
    pub fn value(&self) -> u64 {
        let mut d = self.clone();
        if d.tail_len > 0 {
            let mut word = [0; 8];
            word[..d.tail_len].copy_from_slice(&d.tail[..d.tail_len]);
            // The length byte keeps "ab" and "ab\0" apart.
            word[7] ^= d.tail_len as u8;
            d.mix(word);
        }
        d.state
    }
}

/// Digest of a string.
pub fn of_str(s: &str) -> u64 {
    let mut d = Digest::default();
    d.update(s.as_bytes());
    d.value()
}

/// Digest of a value's `Debug` rendering (used for `Stats`, which has no
/// other stable serialisation).
pub fn of_debug(v: &impl std::fmt::Debug) -> u64 {
    of_str(&format!("{v:?}"))
}

/// What a [`DigestWriter`] saw.
#[derive(Debug, Clone, Default)]
pub struct StreamSummary {
    /// Digest of the bytes.
    pub digest: u64,
    /// Bytes written.
    pub bytes: u64,
    /// Newlines written (JSONL lines).
    pub lines: u64,
}

/// A discarding writer that digests and counts the bytes it is given. A
/// clone shares the same state, so the caller keeps one handle while the
/// JSONL sink owns the other.
#[derive(Debug, Clone, Default)]
pub struct DigestWriter(Arc<Mutex<(Digest, u64, u64)>>);

impl DigestWriter {
    /// Digest and counts of the stream so far.
    pub fn summary(&self) -> StreamSummary {
        let g = self
            .0
            .lock()
            .expect("digest writer poisoned by a panicking run");
        StreamSummary {
            digest: g.0.value(),
            bytes: g.1,
            lines: g.2,
        }
    }
}

impl io::Write for DigestWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let mut g = self
            .0
            .lock()
            .expect("digest writer poisoned by a panicking run");
        g.0.update(buf);
        g.1 += buf.len() as u64;
        g.2 += buf.iter().filter(|&&b| b == b'\n').count() as u64;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_ignores_how_the_stream_is_split() {
        let text = b"{\"cycle\":12,\"event\":\"bus\"}\n{\"cycle\":13}\n";
        let whole = {
            let mut d = Digest::default();
            d.update(text);
            d.value()
        };
        for split in 0..text.len() {
            let mut d = Digest::default();
            d.update(&text[..split]);
            d.update(&text[split..]);
            assert_eq!(d.value(), whole, "split at {split}");
        }
        assert_ne!(of_str("ab"), of_str("ab\0"));
        assert_ne!(of_str("a"), of_str("b"));
    }
}
