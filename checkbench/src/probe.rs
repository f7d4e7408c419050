//! Machine-speed probe: a fixed amount of VCD-like text scanning done
//! by code that is not the program under test.
//!
//! On a shared host the speed of the whole machine drifts for seconds to
//! minutes at a time, and a `cesc check` child slows down with it. The
//! probe runs next to each timed check, so the ratio of the two times
//! stays put when the machine's speed moves, and moves only when the
//! program's does. The probe reads the dump through a buffered reader and
//! hashes every line, as a decoder's inner loop would, but it never calls
//! into the repository's crates: no change to the program changes it.

use std::fs::File;
use std::io::{self, BufRead, BufReader};
use std::path::Path;

/// Bytes one probe process scans next to each timed check. The file is
/// re-read from the start as needed, so every workload's probe does the
/// same work.
pub const PROBE_BYTES: u64 = 32 << 20;

/// Bytes of the smaller in-process probe run before each set-up rep.
pub const SETUP_PROBE_BYTES: u64 = PROBE_BYTES / 128;

/// Scans `bytes` of `path` line by line; returns a hash of what it read,
/// so the work cannot be optimized away.
pub fn probe(path: &Path, bytes: u64) -> io::Result<u64> {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut done = 0u64;
    let mut line = Vec::new();
    while done < bytes {
        let mut reader = BufReader::new(File::open(path)?);
        loop {
            line.clear();
            let n = reader.read_until(b'\n', &mut line)?;
            if n == 0 || done >= bytes {
                break;
            }
            done += n as u64;
            // a timestamp's digits are parsed, any other line is hashed
            if line[0] == b'#' {
                let t = line[1..]
                    .iter()
                    .take_while(|b| b.is_ascii_digit())
                    .fold(0u64, |t, b| t * 10 + u64::from(b - b'0'));
                hash ^= t;
            } else {
                for &b in &line {
                    hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
                }
            }
        }
        if done == 0 {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "empty file"));
        }
    }
    Ok(hash)
}
