//! [`CountingReader`]: a `BufRead` adapter that counts consumed bytes.
//!
//! The streaming check loop drains VCDs via `fill_buf`/`consume` —
//! the header through `BufRead::read_line`, the body by decoding each
//! window in place — so counting inside `consume` sees every byte
//! exactly once. The count lives in a
//! shared atomic cell so the progress heartbeat thread can read it
//! while the reader is mid-stream.

use std::io::{self, BufRead, Read};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Wraps any [`BufRead`], tallying bytes as they are consumed.
#[derive(Debug)]
pub struct CountingReader<R> {
    inner: R,
    count: Arc<AtomicU64>,
}

impl<R: BufRead> CountingReader<R> {
    /// Wraps `inner` with a fresh zeroed byte counter.
    pub fn new(inner: R) -> Self {
        CountingReader {
            inner,
            count: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Bytes consumed so far.
    pub fn bytes_read(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A shareable handle on the byte counter, for observers on
    /// other threads (the progress heartbeat).
    pub fn cell(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.count)
    }
}

impl<R: BufRead> Read for CountingReader<R> {
    // Route plain reads through fill_buf/consume so every byte is
    // counted exactly once regardless of the access pattern.
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let available = self.inner.fill_buf()?;
        let n = available.len().min(buf.len());
        buf[..n].copy_from_slice(&available[..n]);
        self.consume(n);
        Ok(n)
    }
}

impl<R: BufRead> BufRead for CountingReader<R> {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        self.inner.fill_buf()
    }

    fn consume(&mut self, amt: usize) {
        self.count.fetch_add(amt as u64, Ordering::Relaxed);
        self.inner.consume(amt);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_line_counts_every_byte() {
        let data = "one\ntwo\nthree\n";
        let mut r = CountingReader::new(data.as_bytes());
        let cell = r.cell();
        let mut line = String::new();
        let mut total = 0;
        loop {
            line.clear();
            let n = r.read_line(&mut line).unwrap();
            if n == 0 {
                break;
            }
            total += n;
        }
        assert_eq!(total, data.len());
        assert_eq!(r.bytes_read(), data.len() as u64);
        assert_eq!(cell.load(Ordering::Relaxed), data.len() as u64);
    }

    #[test]
    fn plain_read_counts_too() {
        let data = b"abcdefgh";
        let mut r = CountingReader::new(&data[..]);
        let mut buf = [0u8; 3];
        let mut total = 0;
        loop {
            let n = r.read(&mut buf).unwrap();
            if n == 0 {
                break;
            }
            total += n;
        }
        assert_eq!(total, data.len());
        assert_eq!(r.bytes_read(), data.len() as u64);
    }
}
