//! Binary checkpoints for [`ParamStore`].
//!
//! A compact little-endian format carrying every parameter tensor plus the
//! full Adam state, so training can pause/resume exactly and trained models
//! can ship without the training graph. JSON (serde) stays available for
//! debugging; this format is ~4 bytes/scalar instead of ~12.
//!
//! Version 2 layout: `magic "HALKCKPT" | version u32 | step u64 |
//! n_params u32 |` then per parameter `rows u32 | cols u32 | values f32* |
//! Adam m f32* | v f32*`, followed by a trailing `crc32 u32` (IEEE) over
//! every preceding byte including the magic. Version 1 files — the same
//! layout without the checksum — remain readable.
//!
//! [`save_file`] is crash-safe: the checkpoint is written to a sibling
//! temporary file, fsynced, and atomically renamed over the destination, so
//! a crash mid-save leaves either the old file or the new one, never a
//! torn mixture. The [`fault`] module provides an injectable IO layer used
//! by the robustness tests (partial writes, bit flips, transient errors);
//! transient errors are retried with bounded backoff.

use crate::params::ParamStore;
use crate::tensor::Tensor;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Duration;

const MAGIC: &[u8; 8] = b"HALKCKPT";
/// Current (written) format version.
pub const VERSION: u32 = 2;
/// Legacy checksum-less format, still accepted by [`from_bytes`].
pub const VERSION_V1: u32 = 1;

/// Errors produced while decoding a checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The buffer does not start with the checkpoint magic.
    BadMagic,
    /// Unknown format version.
    BadVersion(u32),
    /// The buffer ended before the declared content.
    Truncated,
    /// Bytes remain after the declared content.
    TrailingBytes,
    /// The v2 trailing CRC32 does not match the payload.
    ChecksumMismatch { stored: u32, computed: u32 },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::BadMagic => write!(f, "not a HaLk checkpoint (bad magic)"),
            CheckpointError::BadVersion(v) => write!(f, "unsupported checkpoint version {v}"),
            CheckpointError::Truncated => write!(f, "checkpoint truncated"),
            CheckpointError::TrailingBytes => write!(f, "checkpoint has trailing bytes"),
            CheckpointError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checkpoint corrupted: stored crc32 {stored:#010x}, computed {computed:#010x}"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Slicing-by-8 lookup tables for [`crc32`], built at compile time.
/// `CRC_TABLES[0]` is the classic byte-at-a-time table; table `k` advances
/// a byte through `k` further zero bytes, so eight table lookups consume
/// eight input bytes per iteration.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut j = 0;
        while j < 8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            j += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
};

/// Slicing-by-8 over a running (non-inverted) CRC state.
fn crc32_sliced(mut crc: u32, data: &[u8]) -> u32 {
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = CRC_TABLES[7][(lo & 0xFF) as usize]
            ^ CRC_TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[4][(lo >> 24) as usize]
            ^ CRC_TABLES[3][(hi & 0xFF) as usize]
            ^ CRC_TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// Carry-less-multiplication CRC32 (the classic folding scheme from
/// Intel's "Fast CRC Computation Using PCLMULQDQ" note): fold 64-byte
/// blocks through four 128-bit lanes, collapse to one lane, then Barrett-
/// reduce to 32 bits. Runs at roughly memory speed, an order of magnitude
/// past the table kernel. Guarded by runtime feature detection; callers
/// fall back to [`crc32_sliced`] on other hardware. The constants are the
/// standard precomputed `x^k mod P` residues for the reflected IEEE
/// polynomial, so the result is bit-identical to the table kernel — pinned
/// by the equivalence test across every length class.
#[cfg(target_arch = "x86_64")]
mod crc_pclmul {
    use std::arch::x86_64::*;

    const K1: i64 = 0x0001_5444_2bd4; // x^(4·128+32) mod P
    const K2: i64 = 0x0001_c6e4_1596; // x^(4·128-32) mod P
    const K3: i64 = 0x0001_7519_97d0; // x^(128+32)   mod P
    const K4: i64 = 0x0000_ccaa_009e; // x^(128-32)   mod P
    const K5: i64 = 0x0001_63cd_6124; // x^64         mod P
    const P_X: i64 = 0x0001_db71_0641; // P (reflected, with x^32 term)
    const U_PRIME: i64 = 0x0001_f701_1641; // Barrett µ

    #[inline]
    #[target_feature(enable = "pclmulqdq", enable = "sse4.1")]
    unsafe fn next16(data: &mut &[u8]) -> __m128i {
        let v = _mm_loadu_si128(data.as_ptr() as *const __m128i);
        *data = &data[16..];
        v
    }

    #[inline]
    #[target_feature(enable = "pclmulqdq", enable = "sse4.1")]
    unsafe fn fold16(a: __m128i, b: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(a, keys, 0x00);
        let hi = _mm_clmulepi64_si128(a, keys, 0x11);
        _mm_xor_si128(_mm_xor_si128(b, lo), hi)
    }

    /// Advances CRC state over the longest prefix of whole 16-byte blocks
    /// (requires ≥ 64 bytes); returns the new state and the unconsumed
    /// tail for the table kernel.
    #[target_feature(enable = "pclmulqdq", enable = "sse4.1")]
    pub unsafe fn fold(crc: u32, mut data: &[u8]) -> (u32, &[u8]) {
        debug_assert!(data.len() >= 64);
        let k1k2 = _mm_set_epi64x(K2, K1);
        let mut x3 = next16(&mut data);
        let mut x2 = next16(&mut data);
        let mut x1 = next16(&mut data);
        let mut x0 = next16(&mut data);
        x3 = _mm_xor_si128(x3, _mm_set_epi32(0, 0, 0, crc as i32));
        while data.len() >= 64 {
            x3 = fold16(x3, next16(&mut data), k1k2);
            x2 = fold16(x2, next16(&mut data), k1k2);
            x1 = fold16(x1, next16(&mut data), k1k2);
            x0 = fold16(x0, next16(&mut data), k1k2);
        }
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = fold16(x3, x2, k3k4);
        x = fold16(x, x1, k3k4);
        x = fold16(x, x0, k3k4);
        while data.len() >= 16 {
            x = fold16(x, next16(&mut data), k3k4);
        }
        // 128 → 64 bits.
        let lo32 = _mm_set_epi32(0, 0, 0, !0);
        x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
        x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, lo32), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(x, 4),
        );
        // Barrett reduction 64 → 32 bits.
        let pu = _mm_set_epi64x(U_PRIME, P_X);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, lo32), pu, 0x10);
        let t2 = _mm_xor_si128(_mm_clmulepi64_si128(_mm_and_si128(t1, lo32), pu, 0x00), x);
        (_mm_extract_epi32(t2, 1) as u32, data)
    }

    /// Whether the fold kernel can run on this CPU (checked once).
    pub fn available() -> bool {
        use std::sync::OnceLock;
        static AVAILABLE: OnceLock<bool> = OnceLock::new();
        *AVAILABLE.get_or_init(|| {
            std::is_x86_feature_detected!("pclmulqdq") && std::is_x86_feature_detected!("sse4.1")
        })
    }
}

/// CRC32 (IEEE 802.3, reflected polynomial 0xEDB88320). Checkpoints and
/// snapshots checksum every byte they read and write, so this sits on the
/// cold-boot path of multi-megabyte files; the original bitwise
/// formulation (8 shift/xor steps per byte) was the dominant cost of
/// snapshot decode. Large inputs take the carry-less-multiply fold where
/// the CPU supports it, the slicing-by-8 table kernel otherwise; values
/// are identical either way and match the bitwise reference — the on-disk
/// format is unchanged.
pub fn crc32(data: &[u8]) -> u32 {
    let mut state = 0xFFFF_FFFFu32;
    let mut rest = data;
    #[cfg(target_arch = "x86_64")]
    if rest.len() >= 64 && crc_pclmul::available() {
        // SAFETY: `available()` verified pclmulqdq + sse4.1 at runtime.
        let (s, r) = unsafe { crc_pclmul::fold(state, rest) };
        state = s;
        rest = r;
    }
    !crc32_sliced(state, rest)
}

fn encode(store: &ParamStore, version: u32) -> Vec<u8> {
    let mut buf = Vec::with_capacity(28 + store.num_scalars() * 12);
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&version.to_le_bytes());
    buf.extend_from_slice(&store.steps_taken().to_le_bytes());
    buf.extend_from_slice(&(store.len() as u32).to_le_bytes());
    for i in 0..store.len() {
        let id = crate::params::ParamId(i);
        let (value, m, v) = store.checkpoint_views(id);
        buf.extend_from_slice(&(value.rows as u32).to_le_bytes());
        buf.extend_from_slice(&(value.cols as u32).to_le_bytes());
        for t in [value, m, v] {
            for &x in &t.data {
                buf.extend_from_slice(&x.to_le_bytes());
            }
        }
    }
    if version >= 2 {
        let crc = crc32(&buf);
        buf.extend_from_slice(&crc.to_le_bytes());
    }
    buf
}

/// Serializes a store (values + optimizer state) to v2 bytes.
pub fn to_bytes(store: &ParamStore) -> Vec<u8> {
    encode(store, VERSION)
}

/// Serializes in the legacy v1 (checksum-less) layout. Kept so
/// compatibility tests can fabricate v1 inputs; new code should use
/// [`to_bytes`].
pub fn to_bytes_v1(store: &ParamStore) -> Vec<u8> {
    encode(store, VERSION_V1)
}

/// Bounds-checked little-endian reader over a byte slice.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        let end = self.pos.checked_add(n).ok_or(CheckpointError::Truncated)?;
        if end > self.buf.len() {
            return Err(CheckpointError::Truncated);
        }
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u32_le(&mut self) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64_le(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f32_vec(&mut self, n: usize) -> Result<Vec<f32>, CheckpointError> {
        let raw = self.take(n.checked_mul(4).ok_or(CheckpointError::Truncated)?)?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
}

/// Restores a store from bytes produced by [`to_bytes`] (v2) or a legacy
/// v1 writer. Never panics on malformed input: every defect maps to a
/// typed [`CheckpointError`].
pub fn from_bytes(buf: &[u8]) -> Result<ParamStore, CheckpointError> {
    if buf.len() < 8 || &buf[..8] != MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    if buf.len() < 12 {
        return Err(CheckpointError::Truncated);
    }
    let version = u32::from_le_bytes(buf[8..12].try_into().unwrap());
    let payload = match version {
        VERSION_V1 => buf,
        VERSION => {
            // Verify the trailing checksum before trusting any of the
            // payload structure.
            if buf.len() < 16 {
                return Err(CheckpointError::Truncated);
            }
            let body = &buf[..buf.len() - 4];
            let stored = u32::from_le_bytes(buf[buf.len() - 4..].try_into().unwrap());
            let computed = crc32(body);
            if stored != computed {
                return Err(CheckpointError::ChecksumMismatch { stored, computed });
            }
            body
        }
        other => return Err(CheckpointError::BadVersion(other)),
    };

    let mut cur = Cursor {
        buf: payload,
        pos: 12,
    };
    let step = cur.u64_le()?;
    let n_params = cur.u32_le()? as usize;

    let mut store = ParamStore::new();
    for _ in 0..n_params {
        let rows = cur.u32_le()? as usize;
        let cols = cur.u32_le()? as usize;
        let n = rows.checked_mul(cols).ok_or(CheckpointError::Truncated)?;
        let value = Tensor::from_vec(rows, cols, cur.f32_vec(n)?);
        let m = Tensor::from_vec(rows, cols, cur.f32_vec(n)?);
        let v = Tensor::from_vec(rows, cols, cur.f32_vec(n)?);
        let id = store.add(value);
        store.restore_adam_state(id, m, v);
    }
    if cur.remaining() != 0 {
        return Err(CheckpointError::TrailingBytes);
    }
    store.restore_step(step);
    Ok(store)
}

/// Retry policy for transient IO errors during [`write_atomic_with`].
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts (first try included). Must be at least 1.
    pub max_attempts: u32,
    /// Base backoff; attempt `k` sleeps `backoff * k` before retrying.
    pub backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            backoff: Duration::from_millis(10),
        }
    }
}

fn is_transient(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

fn temp_sibling(path: &Path) -> PathBuf {
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "file".to_string());
    path.with_file_name(format!(".{name}.tmp"))
}

/// Writes `data` to `path` crash-safely: temp sibling `.<name>.tmp` +
/// fsync + atomic rename + directory fsync, retrying transient IO errors
/// per the default [`RetryPolicy`]. A crash or failure at any point leaves
/// either the previous file or the new one, never a torn mix. Every
/// durable artifact of the workspace (checkpoints, a model's
/// `config.json`, snapshots) is written through it.
pub fn write_atomic(path: &Path, data: &[u8]) -> io::Result<()> {
    write_atomic_with(path, data, &RetryPolicy::default(), &mut fault::RealIo)
}

/// [`write_atomic`] with an explicit retry policy and IO layer (the latter
/// so tests can inject faults).
pub fn write_atomic_with(
    path: &Path,
    data: &[u8],
    policy: &RetryPolicy,
    io: &mut dyn fault::CheckpointIo,
) -> io::Result<()> {
    let tmp = temp_sibling(path);
    let mut attempt = 0u32;
    loop {
        attempt += 1;
        let result = io
            .write_file(&tmp, data)
            .and_then(|()| io.rename(&tmp, path))
            .and_then(|()| match path.parent() {
                Some(dir) if !dir.as_os_str().is_empty() => io.sync_dir(dir),
                _ => Ok(()),
            });
        match result {
            Ok(()) => return Ok(()),
            Err(e) if is_transient(&e) && attempt < policy.max_attempts.max(1) => {
                let _ = std::fs::remove_file(&tmp);
                std::thread::sleep(policy.backoff.saturating_mul(attempt));
            }
            Err(e) => {
                let _ = std::fs::remove_file(&tmp);
                return Err(e);
            }
        }
    }
}

/// Writes a checkpoint file with [`write_atomic`].
pub fn save_file(store: &ParamStore, path: &Path) -> io::Result<()> {
    write_atomic(path, &to_bytes(store))
}

/// Reads a checkpoint file; decode defects surface as
/// `io::ErrorKind::InvalidData` wrapping the [`CheckpointError`].
pub fn load_file(path: &Path) -> io::Result<ParamStore> {
    let data = std::fs::read(path)?;
    from_bytes(&data).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

/// Injectable IO layer for [`write_atomic_with`], plus fault-injecting
/// implementations used by the robustness tests.
pub mod fault {
    use std::fs;
    use std::io::{self, Write};
    use std::path::Path;

    /// The three filesystem operations `write_atomic` performs, in order.
    pub trait CheckpointIo {
        /// Create `path`, write `data` fully, and fsync it.
        fn write_file(&mut self, path: &Path, data: &[u8]) -> io::Result<()>;
        /// Atomically rename `from` onto `to`.
        fn rename(&mut self, from: &Path, to: &Path) -> io::Result<()>;
        /// Fsync the directory entry so the rename is durable.
        fn sync_dir(&mut self, dir: &Path) -> io::Result<()>;
    }

    /// The real filesystem.
    pub struct RealIo;

    impl CheckpointIo for RealIo {
        fn write_file(&mut self, path: &Path, data: &[u8]) -> io::Result<()> {
            let mut f = fs::File::create(path)?;
            f.write_all(data)?;
            f.sync_all()
        }

        fn rename(&mut self, from: &Path, to: &Path) -> io::Result<()> {
            fs::rename(from, to)
        }

        fn sync_dir(&mut self, dir: &Path) -> io::Result<()> {
            // Directory fsync is a durability nicety; not every platform
            // allows opening a directory, so fall back to a no-op there.
            match fs::File::open(dir) {
                Ok(d) => d.sync_all().or(Ok(())),
                Err(_) => Ok(()),
            }
        }
    }

    /// Scripted faults layered over [`RealIo`].
    #[derive(Default)]
    pub struct FaultyIo {
        /// Fail this many leading `write_file` calls with a transient
        /// (retryable) error before succeeding.
        pub transient_write_failures: u32,
        /// On the next `write_file`, persist only this many bytes and then
        /// fail hard — simulates a crash mid-write.
        pub partial_write_then_crash: Option<usize>,
        /// Flip this bit (byte offset * 8 + bit index, taken modulo the
        /// buffer length) in the written data — simulates silent media
        /// corruption.
        pub flip_bit: Option<u64>,
        /// Fail this many leading `rename` calls with a transient error.
        pub transient_rename_failures: u32,
        /// Observed operation counts, for assertions.
        pub writes: u32,
        pub renames: u32,
    }

    impl FaultyIo {
        fn transient(msg: &str) -> io::Error {
            io::Error::new(io::ErrorKind::Interrupted, msg.to_string())
        }
    }

    impl CheckpointIo for FaultyIo {
        fn write_file(&mut self, path: &Path, data: &[u8]) -> io::Result<()> {
            self.writes += 1;
            if self.transient_write_failures > 0 {
                self.transient_write_failures -= 1;
                return Err(Self::transient("injected transient write failure"));
            }
            if let Some(keep) = self.partial_write_then_crash.take() {
                let keep = keep.min(data.len());
                let mut f = fs::File::create(path)?;
                f.write_all(&data[..keep])?;
                f.sync_all()?;
                return Err(io::Error::other("injected crash after partial write"));
            }
            if let Some(bit) = self.flip_bit.take() {
                let mut corrupt = data.to_vec();
                if !corrupt.is_empty() {
                    let idx = (bit / 8) as usize % corrupt.len();
                    corrupt[idx] ^= 1 << (bit % 8);
                }
                return RealIo.write_file(path, &corrupt);
            }
            RealIo.write_file(path, data)
        }

        fn rename(&mut self, from: &Path, to: &Path) -> io::Result<()> {
            self.renames += 1;
            if self.transient_rename_failures > 0 {
                self.transient_rename_failures -= 1;
                return Err(Self::transient("injected transient rename failure"));
            }
            RealIo.rename(from, to)
        }

        fn sync_dir(&mut self, dir: &Path) -> io::Result<()> {
            RealIo.sync_dir(dir)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_store() -> ParamStore {
        let mut rng = StdRng::seed_from_u64(5);
        let mut s = ParamStore::new();
        let a = s.add(crate::init::uniform(3, 4, -1.0, 1.0, &mut rng));
        let b = s.add(crate::init::uniform(1, 2, -1.0, 1.0, &mut rng));
        // Take some optimizer steps so Adam state is non-trivial.
        for _ in 0..3 {
            s.zero_grads();
            s.accumulate_grad(a, &Tensor::full(3, 4, 0.1));
            s.accumulate_grad(b, &Tensor::full(1, 2, -0.2));
            s.adam_step(0.01);
        }
        s
    }

    fn stores_equal(a: &ParamStore, b: &ParamStore) -> bool {
        a.len() == b.len()
            && a.steps_taken() == b.steps_taken()
            && (0..a.len()).all(|i| {
                let id = crate::params::ParamId(i);
                a.checkpoint_views(id) == b.checkpoint_views(id)
            })
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_sliced_matches_bitwise_reference() {
        // The slicing-by-8 kernel must agree with the bitwise definition
        // at every length mod 8 (full chunks plus each remainder path).
        fn bitwise(data: &[u8]) -> u32 {
            let mut crc = 0xFFFF_FFFFu32;
            for &b in data {
                crc ^= b as u32;
                for _ in 0..8 {
                    let mask = (crc & 1).wrapping_neg();
                    crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
                }
            }
            !crc
        }
        // 0..64 exercises pure table paths; 64..257 mixes the clmul fold
        // (where available) with every remainder class; the larger sweep
        // covers multi-block folding with misaligned tails.
        let data: Vec<u8> = (0..4096u32)
            .map(|i| (i.wrapping_mul(97) >> 3) as u8)
            .collect();
        for len in (0..257).chain((257..data.len()).step_by(61)) {
            assert_eq!(crc32(&data[..len]), bitwise(&data[..len]), "len {len}");
        }
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let s = sample_store();
        let restored = from_bytes(&to_bytes(&s)).unwrap();
        assert!(stores_equal(&s, &restored));
    }

    #[test]
    fn v1_buffers_still_load() {
        let s = sample_store();
        let v1 = to_bytes_v1(&s);
        assert_eq!(u32::from_le_bytes(v1[8..12].try_into().unwrap()), 1);
        let restored = from_bytes(&v1).unwrap();
        assert!(stores_equal(&s, &restored));
    }

    #[test]
    fn resumed_training_matches_uninterrupted() {
        // Train 3 + 3 steps with a save/load in the middle: identical to 6.
        let mut a = sample_store();
        let mut b = from_bytes(&to_bytes(&a)).unwrap();
        let id = crate::params::ParamId(0);
        for _ in 0..3 {
            for s in [&mut a, &mut b] {
                s.zero_grads();
                s.accumulate_grad(id, &Tensor::full(3, 4, 0.05));
                s.adam_step(0.01);
            }
        }
        assert_eq!(a.value(id), b.value(id));
    }

    #[test]
    fn bad_inputs_rejected() {
        assert_eq!(
            from_bytes(b"nonsense").unwrap_err(),
            CheckpointError::BadMagic
        );

        let mut truncated = to_bytes(&sample_store());
        truncated.truncate(truncated.len() - 5);
        assert!(matches!(
            from_bytes(&truncated).unwrap_err(),
            CheckpointError::ChecksumMismatch { .. }
        ));

        let mut versioned = to_bytes(&sample_store());
        versioned[8] = 99;
        assert_eq!(
            from_bytes(&versioned).unwrap_err(),
            CheckpointError::BadVersion(99)
        );

        // v1 truncation has no checksum to catch it, so it must surface as
        // a structural error instead.
        let mut v1 = to_bytes_v1(&sample_store());
        v1.truncate(v1.len() - 5);
        assert_eq!(from_bytes(&v1).unwrap_err(), CheckpointError::Truncated);
        let mut v1_extra = to_bytes_v1(&sample_store());
        v1_extra.extend_from_slice(&[0, 0, 0]);
        assert_eq!(
            from_bytes(&v1_extra).unwrap_err(),
            CheckpointError::TrailingBytes
        );
    }

    #[test]
    fn flipped_payload_byte_is_a_checksum_mismatch() {
        let mut data = to_bytes(&sample_store());
        let mid = data.len() / 2;
        data[mid] ^= 0x40;
        assert!(matches!(
            from_bytes(&data).unwrap_err(),
            CheckpointError::ChecksumMismatch { .. }
        ));
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("halk_ckpt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.ckpt");
        let s = sample_store();
        save_file(&s, &path).unwrap();
        let restored = load_file(&path).unwrap();
        assert!(stores_equal(&s, &restored));
        // The temp sibling must not linger after a successful save.
        assert!(!temp_sibling(&path).exists());
    }

    #[test]
    fn transient_write_errors_are_retried() {
        let dir = std::env::temp_dir().join("halk_ckpt_retry");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.ckpt");
        let s = sample_store();
        let mut io = fault::FaultyIo {
            transient_write_failures: 2,
            ..Default::default()
        };
        let policy = RetryPolicy {
            max_attempts: 3,
            backoff: Duration::ZERO,
        };
        write_atomic_with(&path, &to_bytes(&s), &policy, &mut io).unwrap();
        assert_eq!(io.writes, 3);
        assert!(stores_equal(&s, &load_file(&path).unwrap()));
    }

    #[test]
    fn retry_budget_is_bounded() {
        let dir = std::env::temp_dir().join("halk_ckpt_retry_budget");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.ckpt");
        let mut io = fault::FaultyIo {
            transient_write_failures: 10,
            ..Default::default()
        };
        let policy = RetryPolicy {
            max_attempts: 3,
            backoff: Duration::ZERO,
        };
        let err =
            write_atomic_with(&path, &to_bytes(&sample_store()), &policy, &mut io).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Interrupted);
        assert_eq!(io.writes, 3);
    }

    #[test]
    fn crash_mid_write_leaves_previous_checkpoint_intact() {
        let dir = std::env::temp_dir().join("halk_ckpt_crash");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.ckpt");

        let old = sample_store();
        save_file(&old, &path).unwrap();

        let mut newer = sample_store();
        newer.zero_grads();
        newer.accumulate_grad(crate::params::ParamId(0), &Tensor::full(3, 4, 0.3));
        newer.adam_step(0.05);

        let mut io = fault::FaultyIo {
            partial_write_then_crash: Some(10),
            ..Default::default()
        };
        let policy = RetryPolicy {
            max_attempts: 1,
            backoff: Duration::ZERO,
        };
        write_atomic_with(&path, &to_bytes(&newer), &policy, &mut io).unwrap_err();
        // The destination still holds the complete previous checkpoint.
        assert!(stores_equal(&old, &load_file(&path).unwrap()));
    }

    #[test]
    fn failed_atomic_rewrite_leaves_previous_file_intact() {
        let dir = std::env::temp_dir().join("halk_write_atomic_fault");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("config.json");
        write_atomic(&path, b"{\"dim\": 8}").unwrap();
        let policy = RetryPolicy {
            max_attempts: 2,
            backoff: Duration::ZERO,
        };
        // A crash mid-write, then a rename that keeps failing past the
        // retry budget: neither may touch the destination.
        for mut io in [
            fault::FaultyIo {
                partial_write_then_crash: Some(4),
                ..Default::default()
            },
            fault::FaultyIo {
                transient_rename_failures: 5,
                ..Default::default()
            },
        ] {
            write_atomic_with(&path, b"{\"dim\": 16}", &policy, &mut io).unwrap_err();
            assert_eq!(std::fs::read(&path).unwrap(), b"{\"dim\": 8}");
            assert!(!temp_sibling(&path).exists());
        }
    }

    #[test]
    fn bit_flip_on_disk_is_detected_at_load() {
        let dir = std::env::temp_dir().join("halk_ckpt_flip");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.ckpt");
        let mut io = fault::FaultyIo {
            flip_bit: Some(997),
            ..Default::default()
        };
        let policy = RetryPolicy {
            max_attempts: 1,
            backoff: Duration::ZERO,
        };
        write_atomic_with(&path, &to_bytes(&sample_store()), &policy, &mut io).unwrap();
        let err = load_file(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
