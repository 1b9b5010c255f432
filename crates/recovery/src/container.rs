//! The on-disk snapshot container.
//!
//! A snapshot file is a small self-describing header followed by the
//! shim-serde encoding of [`EngineState`]:
//!
//! ```text
//! offset  size  field
//!      0     8  magic            b"CAESNAP\0"
//!      8     4  version          u32 LE, [`SNAPSHOT_VERSION`]
//!     12     4  flags            u32 LE, reserved (0)
//!     16     8  stream_position  u64 LE — events ingested when taken
//!     24     8  payload_len      u64 LE
//!     32     8  crc64            u64 LE, CRC-64/XZ over the payload
//!     40     …  payload          serde encoding of EngineState
//! ```
//!
//! Writes are atomic: the container is assembled in a `.tmp` sibling and
//! renamed over the destination, so a crash mid-write leaves either the
//! previous snapshot or none — never a half-written one. Reads verify
//! magic, version, length and checksum (in that order) before a single
//! byte of payload is decoded, returning a typed [`RecoveryError`] for
//! each failure mode.

use crate::error::RecoveryError;
use caesar_runtime::EngineState;
use std::fs;
use std::io::Write;
use std::path::Path;

/// First 8 bytes of every snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"CAESNAP\0";
/// Snapshot format version written (and required) by this build.
/// Version history:
/// * 1 — initial format;
/// * 2 — `EngineConfig` gained the batch policy and the router gained
///   the `events_routed` counter, changing the payload encoding;
/// * 3 — `EngineState.partitions` holds thin per-partition run state
///   (the state of stateful operators that have any, plus feedback)
///   instead of a clone of every plan per partition; the operator
///   counters moved into the one program in `EngineState.template`;
/// * 4 — the scheduler is one single-timestamp frontier (buffered
///   events, watermark, peak transaction, transaction count) instead
///   of a queue per partition ever seen plus a head index;
///   `EngineState.peak_partials` is gone and the program's slab
///   high-water mark (`pool_peak`) is persisted in its place;
/// * 5 — `EngineConfig` lost the batch policy, the kernel switch, the
///   tick scale, the GC period and the two baseline switches (now
///   `ExecutionMode::BusyWait`); `EngineState` lost the queueing-model
///   clock, latency tracker and busy time;
/// * 6 — expiry is one worklist over global progress: `EngineState`
///   lost `last_gc` and the context table its `expiries` set; each
///   partition record carries its earliest deadline and latest
///   transaction time, each operator state its deadline floor, and
///   the state names the bound partition (the worklist itself is
///   rebuilt from the records on restore);
/// * 7 — the filter and projection operators in `EngineState.template`
///   lost their two vectorized-kernel row counters.
pub const SNAPSHOT_VERSION: u32 = 7;
/// Fixed header length in bytes.
const HEADER_LEN: usize = 40;

/// CRC-64/XZ (ECMA-182 polynomial, reflected), table-driven. Computed at
/// compile time so the hot path is one table lookup per byte.
const CRC64_TABLE: [u64; 256] = {
    let mut table = [0u64; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u64;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xC96C_5795_D787_0F42
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC-64/XZ of `data`.
#[must_use]
pub fn crc64(data: &[u8]) -> u64 {
    let mut crc = !0u64;
    for &b in data {
        crc = CRC64_TABLE[((crc ^ u64::from(b)) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// A decoded snapshot: the engine state plus the stream position the
/// recovery log is rebased against.
#[derive(Debug)]
pub struct Snapshot {
    /// Number of input events the engine had ingested when the snapshot
    /// was taken.
    pub stream_position: u64,
    /// The captured engine state.
    pub state: EngineState,
}

/// Serializes `state` into a container and atomically installs it at
/// `path` (temp file + rename within the same directory).
pub fn write_snapshot(
    path: &Path,
    stream_position: u64,
    state: &EngineState,
) -> Result<(), RecoveryError> {
    let payload = serde::to_bytes(state);
    let mut file = Vec::with_capacity(HEADER_LEN + payload.len());
    file.extend_from_slice(&SNAPSHOT_MAGIC);
    file.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    file.extend_from_slice(&0u32.to_le_bytes()); // flags, reserved
    file.extend_from_slice(&stream_position.to_le_bytes());
    file.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    file.extend_from_slice(&crc64(&payload).to_le_bytes());
    file.extend_from_slice(&payload);

    let tmp = path.with_extension("tmp");
    {
        let mut out = fs::File::create(&tmp).map_err(|e| RecoveryError::io(&tmp, e))?;
        out.write_all(&file)
            .map_err(|e| RecoveryError::io(&tmp, e))?;
        out.sync_all().map_err(|e| RecoveryError::io(&tmp, e))?;
    }
    fs::rename(&tmp, path).map_err(|e| RecoveryError::io(path, e))?;
    Ok(())
}

/// Reads and fully verifies a snapshot container.
pub fn read_snapshot(path: &Path) -> Result<Snapshot, RecoveryError> {
    let data = fs::read(path).map_err(|e| RecoveryError::io(path, e))?;
    if data.len() < HEADER_LEN {
        return Err(RecoveryError::corrupt(
            path,
            format!("only {} bytes, header needs {HEADER_LEN}", data.len()),
        ));
    }
    if data[..8] != SNAPSHOT_MAGIC {
        return Err(RecoveryError::BadMagic {
            path: path.to_path_buf(),
            found: String::from_utf8_lossy(&data[..8]).into_owned(),
        });
    }
    let u32_at = |o: usize| u32::from_le_bytes(data[o..o + 4].try_into().expect("header slice"));
    let u64_at = |o: usize| u64::from_le_bytes(data[o..o + 8].try_into().expect("header slice"));
    let version = u32_at(8);
    if version != SNAPSHOT_VERSION {
        return Err(RecoveryError::VersionMismatch {
            path: path.to_path_buf(),
            found: version,
            expected: SNAPSHOT_VERSION,
        });
    }
    let stream_position = u64_at(16);
    let payload_len = u64_at(24) as usize;
    let recorded = u64_at(32);
    let payload = &data[HEADER_LEN..];
    if payload.len() != payload_len {
        return Err(RecoveryError::corrupt(
            path,
            format!(
                "payload is {} bytes, header promises {payload_len}",
                payload.len()
            ),
        ));
    }
    let computed = crc64(payload);
    if computed != recorded {
        return Err(RecoveryError::ChecksumMismatch {
            path: path.to_path_buf(),
            recorded,
            computed,
        });
    }
    let state: EngineState = serde::from_bytes(payload)
        .map_err(|e| RecoveryError::corrupt(path, format!("payload decode failed: {e}")))?;
    Ok(Snapshot {
        stream_position,
        state,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc64_check_vector() {
        // CRC-64/XZ of "123456789" (standard check value).
        assert_eq!(crc64(b"123456789"), 0x995D_C9BB_DF19_39FA);
        assert_eq!(crc64(b""), 0);
    }

    #[test]
    fn crc64_detects_single_bit_flip() {
        let mut data = b"context-aware event stream analytics".to_vec();
        let clean = crc64(&data);
        data[7] ^= 0x10;
        assert_ne!(crc64(&data), clean);
    }
}
