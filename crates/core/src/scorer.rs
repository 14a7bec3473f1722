//! Vectorized online scoring kernels (the product hot path).
//!
//! Every table and figure funnels through "rank all entities against a query
//! region", and the naive entity-major loop re-derives per-branch trig for
//! every entity. This module splits that work by who it belongs to:
//!
//! * **Per entity** (changes only when parameters change): the half-angle
//!   trig `sin(θ/2), cos(θ/2)` of every entity coordinate, precomputed once
//!   into an [`EntityTrig`].
//! * **Per query** (changes every query): per-branch, per-dim sin/cos of the
//!   arc's half start/end/center angles plus the inside-distance cap, packed
//!   into an [`ArcScorer`].
//!
//! The chord of Eq. 16, `2ρ|sin((θ−a)/2)|`, then factors through the angle
//! subtraction identity `sin((θ−a)/2) = sin(θ/2)cos(a/2) − cos(θ/2)sin(a/2)`,
//! so the per-entity work is pure multiply/abs/min — branch-free and
//! trig-free.
//!
//! **SIMD lanes run across entities, not dims.** A score is an `f32` sum
//! over dims, and the compiler may not reassociate it, so a dim loop keeps
//! its order and runs one lane wide. [`EntityTrig`] therefore stores its
//! trig in entity-lane blocks, `[block][dim][lane]` with [`LANES`] entities
//! per block, and the sweep keeps one `[f32; LANES]` accumulator pair per
//! block. Each lane performs exactly the one-entity sequence of
//! mul/sub/abs/min/add in dim order, so every score is bit-identical to the
//! row kernel ([`ArcScorer::score_rows_into`] still runs it) while the lane
//! loop compiles to packed SIMD. The same `#[inline(always)]` body is
//! compiled twice, portable (SSE2 on x86-64) and under
//! `#[target_feature(enable = "avx2")]`, and each sweep runs the AVX2 copy
//! when the CPU has it. FMA stays off: fusing would change rounding.
//!
//! The scalar reference path ([`HalkModel::score_all_scalar`]) is kept for
//! equivalence tests and the regression bench; proptests pin agreement to
//! 1e-4 across all [`DistanceMode`]s (see `tests/hotpath_equivalence.rs`),
//! and `tests/lane_kernel.rs` pins the lane kernel bitwise to the row
//! kernel.
//!
//! [`HalkModel::score_all_scalar`]: crate::model::HalkModel::score_all_scalar
//!
//! [`BoxScorer`] and [`L1Scorer`] give the interval/point baselines the same
//! table-major treatment (their geometry needs no trig at all), and
//! [`top_k_indices`] replaces full sorts with partial selection everywhere a
//! caller only needs the best `k`.

use crate::config::DistanceMode;
use halk_geometry::Arc;
use halk_nn::Tensor;
use halk_obs::Deadline;
use serde::{Deserialize, Serialize};

/// The fixed scoring-slice size shared by every sweep over the entity
/// table: the parallel `par_chunks_mut` sweep, the deadline-checked
/// `score_until` loop and the streaming [`ArcScorer::top_k_until`] path
/// all quantize work in rows of this many entities. Slice boundaries
/// depend only on the entity count, never on thread or shard counts, so
/// every partition of the table scores bit-identically.
pub const SCORE_SLICE: usize = 1024;

/// Storage precision of the precomputed entity-trig working set — the
/// accuracy/bandwidth knob of the memory diet (DESIGN.md §14). HaLk's
/// ranking only needs score *order* preserved, not bits, so the hot
/// tables can trade precision for bytes. Trig values are bounded in
/// `[-1, 1]`, so the quantized modes use **fixed-point** integers rather
/// than IEEE half floats: on a bounded domain, `i16` fixed point is both
/// strictly more accurate near ±1 than binary16 (3.1e-5 worst-case error
/// vs ~4.9e-4) and far cheaper to decode (integer convert + one multiply,
/// which autovectorizes; no exponent/subnormal handling).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Precision {
    /// Full `f32` storage — the default. Scores are bit-identical to the
    /// historical unquantized path; every bit-identity contract in this
    /// module holds only in this mode.
    #[default]
    F32,
    /// 16-bit fixed point (`round(x · 32767)` stored as `i16`, decoded as
    /// `v / 32767`). Halves resident table bytes; worst-case per-coordinate
    /// error 1.6e-5, which preserves MRR/H@k to well under the 1e-3
    /// equivalence gate on the seed eval.
    I16,
    /// 8-bit fixed point (scale 127) — experimental. Quarters resident
    /// bytes; per-coordinate error up to 4e-3, enough to reorder
    /// near-tied entities. Not covered by the rank-equivalence gate.
    I8,
}

impl Precision {
    /// Bytes one stored trig coordinate pair (`sin`, `cos`) occupies.
    pub fn bytes_per_pair(self) -> usize {
        match self {
            Precision::F32 => 8,
            Precision::I16 => 4,
            Precision::I8 => 2,
        }
    }

    /// The CLI / STATS name (`f32`, `i16`, `i8`).
    pub fn name(self) -> &'static str {
        match self {
            Precision::F32 => "f32",
            Precision::I16 => "i16",
            Precision::I8 => "i8",
        }
    }
}

impl std::str::FromStr for Precision {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "f32" | "exact" => Ok(Precision::F32),
            "i16" | "f16" => Ok(Precision::I16), // `f16` accepted as the colloquial 16-bit name
            "i8" => Ok(Precision::I8),
            other => Err(format!("unknown precision '{other}' (f32|i16|i8)")),
        }
    }
}

impl std::fmt::Display for Precision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

const I16_SCALE: f32 = 32767.0;
const I8_SCALE: f32 = 127.0;

#[inline]
fn quantize_i16(x: f32) -> i16 {
    (x * I16_SCALE).round().clamp(-I16_SCALE, I16_SCALE) as i16
}

#[inline]
fn quantize_i8(x: f32) -> i8 {
    (x * I8_SCALE).round().clamp(-I8_SCALE, I8_SCALE) as i8
}

/// Entities per lane block of an [`EntityTrig`]: the SIMD width of the
/// sweep (one AVX2 register of `f32`). [`SCORE_SLICE`] is a multiple, so
/// slice and shard boundaries never split a block.
pub const LANES: usize = 8;

const _: () = assert!(SCORE_SLICE.is_multiple_of(LANES));

/// Position of row-major element `(row, j)` of a `d`-dim table in the
/// entity-lane block layout.
#[inline]
fn lane_index(row: usize, j: usize, d: usize) -> usize {
    (row / LANES) * d * LANES + j * LANES + row % LANES
}

/// The trig arrays in one of the [`Precision`] storage modes, each in the
/// entity-lane block layout: element `(row, j)` at [`lane_index`], with
/// the pad lanes of a partial last block zero.
enum TrigStore {
    F32 {
        half_sin: Vec<f32>,
        half_cos: Vec<f32>,
    },
    I16 {
        half_sin: Vec<i16>,
        half_cos: Vec<i16>,
    },
    I8 {
        half_sin: Vec<i8>,
        half_cos: Vec<i8>,
    },
}

/// Source of a trig table under construction: `fill(rows, sin, cos)`
/// writes the full-precision `sin(θ/2)` / `cos(θ/2)` of `rows` row-major
/// into the two buffers (`rows.len() · d` values each). Producing a whole
/// block row-major keeps the source reads (and the sin/cos calls)
/// sequential; [`blocked`] transposes.
type Fill<'a> = dyn FnMut(std::ops::Range<usize>, &mut [f32], &mut [f32]) + 'a;

/// Lays out an `n × d` table in entity-lane blocks, `[block][dim][lane]`,
/// one [`LANES`]-row block at a time from `fill`, storing each value
/// through `store` (the precision's quantizer).
fn blocked<T: Copy + Default>(
    n: usize,
    d: usize,
    fill: &mut Fill<'_>,
    store: impl Fn(f32) -> T,
) -> (Vec<T>, Vec<T>) {
    let len = n.div_ceil(LANES) * d * LANES;
    let (mut half_sin, mut half_cos) = (Vec::with_capacity(len), Vec::with_capacity(len));
    let (mut rows_s, mut rows_c) = (vec![0.0f32; d * LANES], vec![0.0f32; d * LANES]);
    for row0 in (0..n).step_by(LANES) {
        let k = LANES.min(n - row0);
        fill(row0..row0 + k, &mut rows_s[..k * d], &mut rows_c[..k * d]);
        for j in 0..d {
            let lane = |rows: &[f32], l: usize| {
                if l < k {
                    store(rows[l * d + j])
                } else {
                    T::default()
                }
            };
            half_sin.extend((0..LANES).map(|l| lane(&rows_s, l)));
            half_cos.extend((0..LANES).map(|l| lane(&rows_c, l)));
        }
    }
    (half_sin, half_cos)
}

impl TrigStore {
    /// Builds an `n × d` store at `precision` from `fill`. Quantization is
    /// per element, so the same source values give the same stored bits
    /// whatever the source (angle table, snapshot bytes, or another
    /// table).
    fn build(n: usize, d: usize, precision: Precision, fill: &mut Fill<'_>) -> Self {
        match precision {
            Precision::F32 => {
                let (half_sin, half_cos) = blocked(n, d, fill, |v| v);
                TrigStore::F32 { half_sin, half_cos }
            }
            Precision::I16 => {
                let (half_sin, half_cos) = blocked(n, d, fill, quantize_i16);
                TrigStore::I16 { half_sin, half_cos }
            }
            Precision::I8 => {
                let (half_sin, half_cos) = blocked(n, d, fill, quantize_i8);
                TrigStore::I8 { half_sin, half_cos }
            }
        }
    }
}

/// Precomputed half-angle trig of an entity table: `sin(θ/2)` and
/// `cos(θ/2)` for every entity coordinate. Build once, reuse across every
/// query scored against the same parameters (rebuild after a training step
/// moves the table). Storage [`Precision`] is chosen at build time; the
/// kernels always compute in `f32`, decoding quantized lanes on the fly.
///
/// Storage is entity-lane blocked, `[block][dim][lane]` with [`LANES`]
/// entities per block (see the module docs); the last block is
/// zero-padded. The row-major view survives at the edges:
/// [`EntityTrig::decoded`] indexes row-major, and the snapshot wire form
/// ([`EntityTrig::to_row_major_le`]) is row-major.
pub struct EntityTrig {
    store: TrigStore,
    n_entities: usize,
    dim: usize,
}

impl EntityTrig {
    /// Precomputes trig for an `n×d` table of entity angles at full
    /// precision.
    pub fn new(table: &Tensor) -> Self {
        Self::from_rows(table, 0..table.rows)
    }

    /// [`EntityTrig::new`] at an explicit storage precision.
    pub fn with_precision(table: &Tensor, precision: Precision) -> Self {
        Self::from_rows_with(table, 0..table.rows, precision)
    }

    /// Precomputes trig for the contiguous row range `rows` of a table —
    /// the shard-local constructor: each arc shard owns the trig of its own
    /// entity range and nothing else, so per-shard memory is bounded by the
    /// shard size. Entry `i` of the result is row `rows.start + i` of the
    /// table, element-for-element bit-identical to the same row of a
    /// whole-table [`EntityTrig::new`].
    pub fn from_rows(table: &Tensor, rows: std::ops::Range<usize>) -> Self {
        Self::from_rows_with(table, rows, Precision::F32)
    }

    /// [`EntityTrig::from_rows`] at an explicit storage precision.
    /// Quantization is per element, so the range invariant carries over:
    /// entry `i` equals row `rows.start + i` of a whole-table build at the
    /// same precision, element for element.
    pub fn from_rows_with(
        table: &Tensor,
        rows: std::ops::Range<usize>,
        precision: Precision,
    ) -> Self {
        assert!(rows.end <= table.rows, "trig row range out of bounds");
        let d = table.cols;
        let angles = &table.data[rows.start * d..rows.end * d];
        let mut fill = |r: std::ops::Range<usize>, sin: &mut [f32], cos: &mut [f32]| {
            let src = &angles[r.start * d..r.end * d];
            for ((s, c), &t) in sin.iter_mut().zip(cos.iter_mut()).zip(src) {
                *s = (t * 0.5).sin();
                *c = (t * 0.5).cos();
            }
        };
        Self {
            store: TrigStore::build(rows.len(), d, precision, &mut fill),
            n_entities: rows.len(),
            dim: d,
        }
    }

    /// Number of entities covered.
    pub fn n_entities(&self) -> usize {
        self.n_entities
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The storage precision this table was built at.
    pub fn precision(&self) -> Precision {
        match self.store {
            TrigStore::F32 { .. } => Precision::F32,
            TrigStore::I16 { .. } => Precision::I16,
            TrigStore::I8 { .. } => Precision::I8,
        }
    }

    /// Bytes of trig the table holds (the memory-diet number STATS
    /// reports): `n_entities · dim` coordinate pairs. The zero pad lanes of
    /// the last block (under [`LANES`] rows) and the struct header are
    /// excluded.
    pub fn resident_bytes(&self) -> usize {
        self.n_entities * self.dim * self.precision().bytes_per_pair()
    }

    /// The snapshot wire form of a full-precision table: every `sin(θ/2)`
    /// in row-major order, then every `cos(θ/2)`, as little-endian `f32`.
    /// `None` for quantized stores (snapshots ship full precision).
    /// [`EntityTrig::from_row_major_le`] restores it bit-exactly.
    pub fn to_row_major_le(&self) -> Option<Vec<u8>> {
        let TrigStore::F32 { half_sin, half_cos } = &self.store else {
            return None;
        };
        let (n, d) = (self.n_entities, self.dim);
        let mut out = Vec::with_capacity(2 * n * d * 4);
        for values in [half_sin, half_cos] {
            for row in 0..n {
                for j in 0..d {
                    out.extend_from_slice(&values[lane_index(row, j, d)].to_le_bytes());
                }
            }
        }
        Some(out)
    }

    /// Rebuilds a full-precision table from [`EntityTrig::to_row_major_le`]
    /// bytes, decoding straight into lane blocks (no row-major copy) — the
    /// snapshot fast-boot constructor that skips the `O(n_entities · dim)`
    /// sin/cos sweep. A length mismatch is a typed error (snapshot decode
    /// must never panic).
    pub fn from_row_major_le(bytes: &[u8], n_entities: usize, dim: usize) -> Result<Self, String> {
        let half = n_entities
            .checked_mul(dim)
            .and_then(|v| v.checked_mul(4))
            .filter(|&h| h.checked_mul(2) == Some(bytes.len()))
            .ok_or_else(|| {
                format!(
                    "trig payload holds {} bytes, not two {n_entities}x{dim} f32 arrays",
                    bytes.len()
                )
            })?;
        let (sin_le, cos_le) = bytes.split_at(half);
        let mut fill = |r: std::ops::Range<usize>, sin: &mut [f32], cos: &mut [f32]| {
            let bytes = r.start * dim * 4..r.end * dim * 4;
            for (out, src) in [(sin, sin_le), (cos, cos_le)] {
                for (v, le) in out.iter_mut().zip(src[bytes.clone()].chunks_exact(4)) {
                    *v = f32::from_le_bytes(le.try_into().expect("chunks_exact(4) yields 4 bytes"));
                }
            }
        };
        Ok(Self {
            store: TrigStore::build(n_entities, dim, Precision::F32, &mut fill),
            n_entities,
            dim,
        })
    }

    /// Re-slices rows of a full-precision table into a (possibly
    /// quantized) shard table. Quantization applies the same per-element
    /// mapping as [`EntityTrig::from_rows_with`] to the same stored f32
    /// values, so the result is element-for-element bit-identical to
    /// building the shard from the angle table directly — that equality is
    /// what lets a snapshot-booted server serve the same bits as a
    /// TSV-booted one. Any `rows` works; the result's blocks start at
    /// `rows.start`.
    ///
    /// # Panics
    /// If `self` is not an `F32` table or `rows` is out of bounds — both
    /// are caller bugs (callers hold the full-precision table by
    /// construction).
    pub fn slice_rows(&self, rows: std::ops::Range<usize>, precision: Precision) -> Self {
        assert!(rows.end <= self.n_entities, "trig row range out of bounds");
        let TrigStore::F32 { half_sin, half_cos } = &self.store else {
            panic!("slice_rows requires a full-precision source table");
        };
        let d = self.dim;
        let mut fill = |r: std::ops::Range<usize>, sin: &mut [f32], cos: &mut [f32]| {
            for (i, row) in r.enumerate() {
                for j in 0..d {
                    let at = lane_index(rows.start + row, j, d);
                    sin[i * d + j] = half_sin[at];
                    cos[i * d + j] = half_cos[at];
                }
            }
        };
        Self {
            store: TrigStore::build(rows.len(), d, precision, &mut fill),
            n_entities: rows.len(),
            dim: d,
        }
    }

    /// Decodes row-major element `k` (row `k / dim`, dim `k % dim`) to the
    /// `(sin, cos)` pair the kernel computes with — exact storage bits in
    /// `F32` mode, dequantized values otherwise. Diagnostics and tests;
    /// the hot path decodes whole lanes.
    pub fn decoded(&self, k: usize) -> (f32, f32) {
        assert!(k < self.n_entities * self.dim, "trig element out of range");
        let i = lane_index(k / self.dim, k % self.dim, self.dim);
        match &self.store {
            TrigStore::F32 { half_sin, half_cos } => (half_sin[i], half_cos[i]),
            TrigStore::I16 { half_sin, half_cos } => (
                half_sin[i] as f32 * (1.0 / I16_SCALE),
                half_cos[i] as f32 * (1.0 / I16_SCALE),
            ),
            TrigStore::I8 { half_sin, half_cos } => (
                half_sin[i] as f32 * (1.0 / I8_SCALE),
                half_cos[i] as f32 * (1.0 / I8_SCALE),
            ),
        }
    }
}

/// A bounded top-k accumulator: a max-heap of the `k` best (lowest)
/// `(score, index)` entries seen so far, with the *worst* kept entry at the
/// root so a streaming producer can reject most rows with one comparison.
///
/// Ordering is ascending score with ties broken by index — via
/// `f32::total_cmp`, which on the scorer's output domain (finite,
/// non-negative: every kernel score is a `min`-fold of sums of absolute
/// values times `2ρ`) coincides exactly with the `partial_cmp`-plus-index
/// order of [`top_k_indices`]. Offering every row of a score vector
/// therefore yields *bit-identically* the same selection as
/// `top_k_indices`, in any offer order and under any partition of the rows
/// (distinct indices make the total order strict, so the k-smallest set is
/// unique). The backing buffer is reusable via [`TopK::reset`], so pooled
/// callers (the pruning engine, the serve workers) allocate nothing per
/// query in steady state.
#[derive(Debug, Clone)]
pub struct TopK {
    k: usize,
    /// Max-heap by `(score, index)`; `heap[0]` is the worst kept entry.
    heap: Vec<(f32, u32)>,
}

/// The selection order: ascending score, ties broken by ascending index.
#[inline]
fn rank_cmp(a: (f32, u32), b: (f32, u32)) -> std::cmp::Ordering {
    a.0.total_cmp(&b.0).then(a.1.cmp(&b.1))
}

impl TopK {
    /// An empty accumulator keeping the best `k` entries.
    pub fn new(k: usize) -> Self {
        Self {
            k,
            heap: Vec::with_capacity(k.min(4096)),
        }
    }

    /// Clears the accumulator for a new sweep with bound `k`, keeping the
    /// backing allocation.
    pub fn reset(&mut self, k: usize) {
        self.k = k;
        self.heap.clear();
    }

    /// The configured bound.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Entries currently held (≤ `k`).
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no entry has been kept yet.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Offers one `(index, score)` row. Kept iff it ranks among the best
    /// `k` seen so far; once the heap is full the common case is a single
    /// comparison against the root.
    #[inline]
    pub fn offer(&mut self, idx: u32, score: f32) {
        if self.heap.len() < self.k {
            self.heap.push((score, idx));
            self.sift_up(self.heap.len() - 1);
            return;
        }
        if self.k == 0 || rank_cmp((score, idx), self.heap[0]).is_ge() {
            return;
        }
        self.heap[0] = (score, idx);
        self.sift_down(0);
    }

    /// The kept entries in unspecified (heap) order, as `(index, score)`.
    pub fn entries(&self) -> impl Iterator<Item = (u32, f32)> + '_ {
        self.heap.iter().map(|&(s, i)| (i, s))
    }

    /// Merges another accumulator's entries into this one (the coordinator
    /// side of merge-k). Order-independent: the union's k-smallest set is
    /// unique under the strict total order.
    pub fn absorb(&mut self, other: &TopK) {
        for (i, s) in other.entries() {
            self.offer(i, s);
        }
    }

    /// Drains the kept entries into `out` (cleared first) in ascending rank
    /// order — the order [`top_k_indices`] returns — keeping both
    /// allocations for reuse.
    pub fn drain_sorted_into(&mut self, out: &mut Vec<(u32, f32)>) {
        self.heap.sort_unstable_by(|&a, &b| rank_cmp(a, b));
        out.clear();
        out.extend(self.heap.iter().map(|&(s, i)| (i, s)));
        self.heap.clear();
    }

    /// The kept entries in ascending rank order, consuming the accumulator.
    pub fn into_sorted(mut self) -> Vec<(u32, f32)> {
        let mut out = Vec::new();
        self.drain_sorted_into(&mut out);
        out
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if rank_cmp(self.heap[i], self.heap[parent]).is_le() {
                break;
            }
            self.heap.swap(i, parent);
            i = parent;
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        let n = self.heap.len();
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut largest = i;
            if l < n && rank_cmp(self.heap[l], self.heap[largest]).is_gt() {
                largest = l;
            }
            if r < n && rank_cmp(self.heap[r], self.heap[largest]).is_gt() {
                largest = r;
            }
            if largest == i {
                return;
            }
            self.heap.swap(i, largest);
            i = largest;
        }
    }
}

/// One dim of one DNF branch's compiled arc: sin/cos of the half
/// start/end/center angles, the inside-distance cap and the ZeroedInside
/// containment threshold, all in "|sin|" units (the shared `2ρ` chord
/// factor is applied once per score). Packed per dim so the sweep reads
/// one record per dim step.
#[derive(Debug, Clone, Copy)]
struct DimArc {
    sin_s: f32,
    cos_s: f32,
    sin_e: f32,
    cos_e: f32,
    sin_c: f32,
    cos_c: f32,
    /// `|sin(half_angle/2)|` — the Eq. 16 inside-distance cap.
    cap: f32,
    /// `sin(min(half_angle + 1e-6, π)/2)` — `|sin((θ−c)/2)| ≤ thr` iff
    /// `Arc::contains_angle(θ)` (both sides are monotone images of the
    /// angular offset on `[0, π]`).
    thr: f32,
}

impl DimArc {
    /// One entity coordinate's `(outside, inside)` distance terms, in
    /// `|sin|` units, from its half-angle trig `(sh, ch)`. Both kernels
    /// (row and lane) run exactly this sequence of operations.
    #[inline(always)]
    fn terms<const MODE: u8>(&self, sh: f32, ch: f32) -> (f32, f32) {
        // sin((θ−a)/2) = sin(θ/2)cos(a/2) − cos(θ/2)sin(a/2).
        let s_s = sh * self.cos_s - ch * self.sin_s;
        let s_e = sh * self.cos_e - ch * self.sin_e;
        let s_c = sh * self.cos_c - ch * self.sin_c;
        let endpoints = s_s.abs().min(s_e.abs());
        let d_o = if MODE == MODE_CENTER {
            endpoints.min(s_c.abs())
        } else if MODE == MODE_ZEROED {
            // Branch-free containment mask: 1.0 outside the arc.
            endpoints * f32::from(s_c.abs() > self.thr)
        } else {
            endpoints
        };
        (d_o, s_c.abs().min(self.cap))
    }
}

const MODE_LITERAL: u8 = 0;
const MODE_CENTER: u8 = 1;
const MODE_ZEROED: u8 = 2;

/// A query region compiled for scoring: per-branch, per-dim arc trig plus
/// the distance-mode/η/ρ configuration. Scores are identical (within fp
/// tolerance) to the scalar per-arc formulas in `halk_geometry::Arc`.
pub struct ArcScorer {
    branches: Vec<Vec<DimArc>>,
    dim: usize,
    rho: f32,
    eta: f32,
    mode: DistanceMode,
}

impl ArcScorer {
    /// Compiles DNF branches of [`Arc`]s (all sharing radius `rho`).
    pub fn from_arcs(branches: &[Vec<Arc>], rho: f32, eta: f32, mode: DistanceMode) -> Self {
        let params: Vec<Vec<(f32, f32)>> = branches
            .iter()
            .map(|arcs| arcs.iter().map(|a| (a.center, a.half_angle())).collect())
            .collect();
        Self::from_params(&params, rho, eta, mode)
    }

    /// Compiles DNF branches of raw `(center, half_angle)` pairs per dim.
    /// Angles need not be normalized: the kernel only uses them through
    /// `|sin(·/2)|`, which is invariant under full turns.
    pub fn from_params(
        branches: &[Vec<(f32, f32)>],
        rho: f32,
        eta: f32,
        mode: DistanceMode,
    ) -> Self {
        let dim = branches.first().map_or(0, Vec::len);
        let compiled = branches
            .iter()
            .map(|arcs| {
                assert_eq!(arcs.len(), dim, "ragged branch dimensionality");
                arcs.iter()
                    .map(|&(center, half)| {
                        let start = center - half;
                        let end = center + half;
                        DimArc {
                            sin_s: (start * 0.5).sin(),
                            cos_s: (start * 0.5).cos(),
                            sin_e: (end * 0.5).sin(),
                            cos_e: (end * 0.5).cos(),
                            sin_c: (center * 0.5).sin(),
                            cos_c: (center * 0.5).cos(),
                            cap: (half * 0.5).sin().abs(),
                            thr: ((half + 1e-6).min(std::f32::consts::PI) * 0.5).sin(),
                        }
                    })
                    .collect()
            })
            .collect();
        Self {
            branches: compiled,
            dim,
            rho,
            eta,
            mode,
        }
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Scores every entity of `trig` into `out` (cleared and refilled; lower
    /// is better; unions take the min across branches). Entities with no
    /// branch score `f32::INFINITY`, matching the scalar fold.
    pub fn score_into(&self, trig: &EntityTrig, out: &mut Vec<f32>) {
        out.clear();
        out.resize(trig.n_entities, f32::INFINITY);
        self.score_slice(trig, 0, out);
    }

    /// Scores the contiguous entity rows `[row0, row0 + out.len())`, folding
    /// each score into `out` with `min` (pre-fill with `f32::INFINITY` for a
    /// plain score). Rows are scored independently — a lane's score never
    /// depends on its block neighbours — so any partition of the entity
    /// range, aligned to [`LANES`] or not, including the sharded parallel
    /// sweep, produces bit-identical results to one full-table pass.
    pub fn score_slice(&self, trig: &EntityTrig, row0: usize, out: &mut [f32]) {
        self.check_slice(trig, row0, out);
        #[cfg(target_arch = "x86_64")]
        if std::is_x86_feature_detected!("avx2") {
            // SAFETY: the CPU supports AVX2, checked just above (std caches
            // the detection, so this is one relaxed load per slice).
            unsafe { self.score_table_avx2(trig, row0, out) };
            return;
        }
        self.score_table(trig, row0, out);
    }

    /// [`ArcScorer::score_slice`] pinned to the portable compile of the
    /// lane kernel, whatever the CPU offers — lets tests prove the AVX2
    /// copy bit-identical to it.
    #[doc(hidden)]
    pub fn score_slice_portable(&self, trig: &EntityTrig, row0: usize, out: &mut [f32]) {
        self.check_slice(trig, row0, out);
        self.score_table(trig, row0, out);
    }

    fn check_slice(&self, trig: &EntityTrig, row0: usize, out: &[f32]) {
        assert_eq!(trig.dim, self.dim, "entity/query dimensionality mismatch");
        assert!(
            row0 + out.len() <= trig.n_entities,
            "entity slice out of range"
        );
    }

    /// [`ArcScorer::score_slice`] under a [`Deadline`], checked once per
    /// `slice_rows` rows (the slice boundary — never per entity, so the
    /// inner kernel stays branch-free). Returns the number of rows scored,
    /// always a multiple of `slice_rows` except at the end of the table;
    /// rows beyond it are untouched. Scored prefixes are bit-identical to
    /// the same rows of a full [`ArcScorer::score_slice`] pass, because
    /// rows are scored independently.
    pub fn score_until(
        &self,
        trig: &EntityTrig,
        row0: usize,
        out: &mut [f32],
        slice_rows: usize,
        deadline: &Deadline,
    ) -> usize {
        let slice_rows = slice_rows.max(1);
        let mut done = 0;
        while done < out.len() {
            if deadline.expired() {
                return done;
            }
            let n = slice_rows.min(out.len() - done);
            self.score_slice(trig, row0 + done, &mut out[done..done + n]);
            done += n;
        }
        done
    }

    /// Streaming bounded top-k over the rows of `trig` under a
    /// [`Deadline`]: scores [`SCORE_SLICE`]-row slices into a small stack
    /// scratch and offers each row into `heap`, never materializing a
    /// full score vector. `global_row0` is the table-global index of
    /// `trig`'s first row (the shard offset), so offered indices are
    /// table-global. Returns the number of rows scored; the deadline is
    /// checked once per slice like [`ArcScorer::score_until`].
    ///
    /// Offering rows through a [`TopK`] selects bit-identically the same
    /// entries as [`top_k_indices`] over a full score vector (see the
    /// [`TopK`] ordering contract), so shard-local sweeps merged by
    /// [`TopK::absorb`] reproduce the full-vector reference exactly.
    pub fn top_k_until(
        &self,
        trig: &EntityTrig,
        global_row0: usize,
        heap: &mut TopK,
        deadline: &Deadline,
    ) -> usize {
        let n = trig.n_entities;
        let mut scratch = [0.0f32; SCORE_SLICE];
        let mut done = 0;
        while done < n {
            if deadline.expired() {
                return done;
            }
            let take = SCORE_SLICE.min(n - done);
            let out = &mut scratch[..take];
            out.fill(f32::INFINITY); // score_slice min-folds into `out`
            self.score_slice(trig, done, out);
            for (j, &s) in out.iter().enumerate() {
                heap.offer((global_row0 + done + j) as u32, s);
            }
            done += take;
        }
        done
    }

    /// Convenience wrapper over [`ArcScorer::score_into`].
    pub fn score_all(&self, trig: &EntityTrig) -> Vec<f32> {
        let mut out = Vec::new();
        self.score_into(trig, &mut out);
        out
    }

    /// Scores only the rows `ids` of an angle table (the LSH candidate
    /// path), computing the per-row trig on the fly: `out[i]` is the score
    /// of entity `ids[i]`. Runs the one-entity row kernel, bit-identical to
    /// the same rows of a lane sweep over [`EntityTrig::new`]`(table)`.
    pub fn score_rows_into(&self, table: &Tensor, ids: &[u32], out: &mut Vec<f32>) {
        assert_eq!(table.cols, self.dim, "entity/query dimensionality mismatch");
        out.clear();
        out.reserve(ids.len());
        let mut sh = vec![0.0f32; self.dim];
        let mut ch = vec![0.0f32; self.dim];
        for &e in ids {
            let row = table.row(e as usize);
            for ((s, c), &t) in sh.iter_mut().zip(ch.iter_mut()).zip(row) {
                *s = (t * 0.5).sin();
                *c = (t * 0.5).cos();
            }
            let score = match self.mode {
                DistanceMode::LiteralEq16 => self.score_row::<MODE_LITERAL>(&sh, &ch),
                DistanceMode::CenterAnchored => self.score_row::<MODE_CENTER>(&sh, &ch),
                DistanceMode::ZeroedInside => self.score_row::<MODE_ZEROED>(&sh, &ch),
            };
            out.push(score);
        }
    }

    /// Min-over-branches score of one entity from its half-angle trig row.
    fn score_row<const MODE: u8>(&self, sh: &[f32], ch: &[f32]) -> f32 {
        let mut best = f32::INFINITY;
        for br in &self.branches {
            let mut acc_o = 0.0f32;
            let mut acc_i = 0.0f32;
            for ((arc, &s), &c) in br.iter().zip(sh).zip(ch) {
                let (d_o, d_i) = arc.terms::<MODE>(s, c);
                acc_o += d_o;
                acc_i += d_i;
            }
            best = best.min(acc_o + self.eta * acc_i);
        }
        2.0 * self.rho * best
    }

    /// The AVX2 compile of [`ArcScorer::score_table`]: the same inlined
    /// body, so the lane loop becomes one 8-wide op per step. No FMA.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn score_table_avx2(&self, trig: &EntityTrig, row0: usize, out: &mut [f32]) {
        self.score_table(trig, row0, out);
    }

    /// Dispatches the lane sweep on distance mode and storage precision.
    #[inline(always)]
    fn score_table(&self, trig: &EntityTrig, row0: usize, out: &mut [f32]) {
        match self.mode {
            DistanceMode::LiteralEq16 => self.score_store::<MODE_LITERAL>(trig, row0, out),
            DistanceMode::CenterAnchored => self.score_store::<MODE_CENTER>(trig, row0, out),
            DistanceMode::ZeroedInside => self.score_store::<MODE_ZEROED>(trig, row0, out),
        }
    }

    #[inline(always)]
    fn score_store<const MODE: u8>(&self, trig: &EntityTrig, row0: usize, out: &mut [f32]) {
        match &trig.store {
            TrigStore::F32 { half_sin, half_cos } => {
                self.score_lanes::<MODE, _>(half_sin, half_cos, 1.0, row0, out)
            }
            TrigStore::I16 { half_sin, half_cos } => {
                self.score_lanes::<MODE, _>(half_sin, half_cos, 1.0 / I16_SCALE, row0, out)
            }
            TrigStore::I8 { half_sin, half_cos } => {
                self.score_lanes::<MODE, _>(half_sin, half_cos, 1.0 / I8_SCALE, row0, out)
            }
        }
    }

    /// The lane sweep over rows `[row0, row0 + out.len())`: every block
    /// the range touches is scored whole, and only its in-range lanes are
    /// folded into `out` — so unaligned starts and lengths work, and the
    /// zero pad lanes of a table's last block are never read out.
    #[inline(always)]
    fn score_lanes<const MODE: u8, S: Copy + Into<f32>>(
        &self,
        half_sin: &[S],
        half_cos: &[S],
        inv_scale: f32,
        row0: usize,
        out: &mut [f32],
    ) {
        let d = self.dim;
        if d == 0 {
            return;
        }
        let block = d * LANES;
        let mut done = 0;
        while done < out.len() {
            let row = row0 + done;
            let (b, lane) = (row / LANES, row % LANES);
            let take = (LANES - lane).min(out.len() - done);
            let span = b * block..(b + 1) * block;
            let scores =
                self.score_block::<MODE, S>(&half_sin[span.clone()], &half_cos[span], inv_scale);
            for (slot, &s) in out[done..done + take]
                .iter_mut()
                .zip(&scores[lane..lane + take])
            {
                *slot = slot.min(s);
            }
            done += take;
        }
    }

    /// Scores the [`LANES`] entities of one block (`d · LANES` values per
    /// array, `[dim][lane]`). Each lane runs [`ArcScorer::score_row`]'s
    /// exact operation sequence — dequantized inputs decode into stack
    /// lanes exactly as [`EntityTrig::decoded`] does — so lane `l` is
    /// bit-identical to the row kernel on entity `l`.
    #[inline(always)]
    fn score_block<const MODE: u8, S: Copy + Into<f32>>(
        &self,
        half_sin: &[S],
        half_cos: &[S],
        inv_scale: f32,
    ) -> [f32; LANES] {
        let (sin_rows, _) = half_sin.as_chunks::<LANES>();
        let (cos_rows, _) = half_cos.as_chunks::<LANES>();
        let mut best = [f32::INFINITY; LANES];
        for br in &self.branches {
            let mut acc_o = [0.0f32; LANES];
            let mut acc_i = [0.0f32; LANES];
            for ((arc, qs), qc) in br.iter().zip(sin_rows).zip(cos_rows) {
                for l in 0..LANES {
                    let (d_o, d_i) =
                        arc.terms::<MODE>(qs[l].into() * inv_scale, qc[l].into() * inv_scale);
                    acc_o[l] += d_o;
                    acc_i[l] += d_i;
                }
            }
            for l in 0..LANES {
                best[l] = best[l].min(acc_o[l] + self.eta * acc_i[l]);
            }
        }
        best.map(|b| 2.0 * self.rho * b)
    }
}

/// NewLook-style interval scoring compiled to SoA: per branch and dim a
/// `(center, offset)` box, scored as
/// `Σ max(|x−c|−o, 0) + η·min(|x−c|, o)` with the min over branches.
pub struct BoxScorer {
    centers: Vec<Vec<f32>>,
    offsets: Vec<Vec<f32>>,
    dim: usize,
    eta: f32,
}

impl BoxScorer {
    /// Compiles DNF branches of `(center, offset)` pairs per dim.
    pub fn new(branches: &[Vec<(f32, f32)>], eta: f32) -> Self {
        let dim = branches.first().map_or(0, Vec::len);
        let centers = branches
            .iter()
            .map(|b| b.iter().map(|&(c, _)| c).collect())
            .collect();
        let offsets = branches
            .iter()
            .map(|b| b.iter().map(|&(_, o)| o).collect())
            .collect();
        Self {
            centers,
            offsets,
            dim,
            eta,
        }
    }

    /// Scores every row of a raw-value table into `out` (cleared and
    /// refilled).
    pub fn score_into(&self, table: &Tensor, out: &mut Vec<f32>) {
        assert_eq!(table.cols, self.dim, "entity/query dimensionality mismatch");
        out.clear();
        out.resize(table.rows, f32::INFINITY);
        let d = self.dim;
        if d == 0 {
            return;
        }
        for (c, o) in self.centers.iter().zip(&self.offsets) {
            let (c, o) = (&c[..d], &o[..d]);
            for (row, slot) in table.data.chunks_exact(d).zip(out.iter_mut()) {
                let mut acc = 0.0f32;
                for j in 0..d {
                    let a = (row[j] - c[j]).abs();
                    acc += (a - o[j]).max(0.0) + self.eta * a.min(o[j]);
                }
                *slot = slot.min(acc);
            }
        }
    }
}

/// Plain L1 point scoring (the MLPMix baseline): per branch a center vector,
/// scored as `Σ|x−c|` with the min over branches.
pub struct L1Scorer {
    centers: Vec<Vec<f32>>,
    dim: usize,
}

impl L1Scorer {
    /// Compiles DNF branches of center vectors.
    pub fn new(branches: &[Vec<f32>]) -> Self {
        let dim = branches.first().map_or(0, Vec::len);
        Self {
            centers: branches.to_vec(),
            dim,
        }
    }

    /// Scores every row of a raw-value table into `out` (cleared and
    /// refilled).
    pub fn score_into(&self, table: &Tensor, out: &mut Vec<f32>) {
        assert_eq!(table.cols, self.dim, "entity/query dimensionality mismatch");
        out.clear();
        out.resize(table.rows, f32::INFINITY);
        let d = self.dim;
        if d == 0 {
            return;
        }
        for c in &self.centers {
            let c = &c[..d];
            for (row, slot) in table.data.chunks_exact(d).zip(out.iter_mut()) {
                let mut acc = 0.0f32;
                for j in 0..d {
                    acc += (row[j] - c[j]).abs();
                }
                *slot = slot.min(acc);
            }
        }
    }
}

/// Indices of the `k` lowest scores, ascending by score with ties broken by
/// index — the same order a stable full sort produces, but via `O(n)`
/// partial selection plus an `O(k log k)` sort of the winners.
pub fn top_k_indices(scores: &[f32], k: usize) -> Vec<u32> {
    let k = k.min(scores.len());
    if k == 0 {
        return Vec::new();
    }
    let cmp = |a: &u32, b: &u32| {
        scores[*a as usize]
            .partial_cmp(&scores[*b as usize])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.cmp(b))
    };
    let mut idx: Vec<u32> = (0..scores.len() as u32).collect();
    if k < idx.len() {
        idx.select_nth_unstable_by(k - 1, cmp);
        idx.truncate(k);
    }
    idx.sort_unstable_by(cmp);
    idx
}

#[cfg(test)]
mod tests {
    use super::*;
    use halk_geometry::TAU;

    fn scalar_score(arcs: &[Vec<Arc>], theta: &[f32], eta: f32, mode: DistanceMode) -> f32 {
        arcs.iter()
            .map(|branch| {
                branch
                    .iter()
                    .zip(theta)
                    .map(|(a, &t)| match mode {
                        DistanceMode::LiteralEq16 => a.dist(t, eta),
                        DistanceMode::ZeroedInside => {
                            a.outside_dist_zeroed(t) + eta * a.inside_dist(t)
                        }
                        DistanceMode::CenterAnchored => {
                            let d_o = a
                                .outside_dist(t)
                                .min(halk_geometry::chord(t, a.center, a.rho));
                            d_o + eta * a.inside_dist(t)
                        }
                    })
                    .sum::<f32>()
            })
            .fold(f32::INFINITY, f32::min)
    }

    fn grid_arcs(rho: f32) -> Vec<Vec<Arc>> {
        vec![
            vec![Arc::new(0.3, 0.8 * rho, rho), Arc::new(5.9, 2.0 * rho, rho)],
            vec![Arc::new(2.0, 0.0, rho), Arc::new(4.0, TAU * rho, rho)],
        ]
    }

    #[test]
    fn matches_scalar_on_grid_all_modes() {
        let rho = 1.0;
        let eta = 0.05;
        let arcs = grid_arcs(rho);
        let n = 64;
        let mut data = Vec::with_capacity(n * 2);
        for i in 0..n {
            data.push(i as f32 * TAU / n as f32);
            data.push((i as f32 * 0.77 + 1.3) % TAU);
        }
        let table = Tensor::from_vec(n, 2, data);
        let trig = EntityTrig::new(&table);
        for mode in [
            DistanceMode::LiteralEq16,
            DistanceMode::CenterAnchored,
            DistanceMode::ZeroedInside,
        ] {
            let scorer = ArcScorer::from_arcs(&arcs, rho, eta, mode);
            let fast = scorer.score_all(&trig);
            for (e, &got) in fast.iter().enumerate() {
                let want = scalar_score(&arcs, table.row(e), eta, mode);
                assert!(
                    (got - want).abs() < 1e-4,
                    "{mode:?} entity {e}: {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn score_rows_matches_full_table() {
        let rho = 1.0;
        let arcs = grid_arcs(rho);
        let table = Tensor::from_vec(4, 2, vec![0.1, 0.2, 3.0, 4.0, 5.5, 0.9, 2.2, 2.3]);
        let scorer = ArcScorer::from_arcs(&arcs, rho, 0.1, DistanceMode::CenterAnchored);
        let full = scorer.score_all(&EntityTrig::new(&table));
        let mut subset = Vec::new();
        scorer.score_rows_into(&table, &[3, 0, 2], &mut subset);
        assert_eq!(subset, vec![full[3], full[0], full[2]]);
    }

    #[test]
    fn empty_branches_score_infinity() {
        let scorer = ArcScorer::from_arcs(&[], 1.0, 0.1, DistanceMode::LiteralEq16);
        let table = Tensor::from_vec(2, 0, vec![]);
        let out = scorer.score_all(&EntityTrig::new(&table));
        assert_eq!(out, vec![f32::INFINITY; 2]);
    }

    #[test]
    fn box_scorer_matches_scalar() {
        let branches = vec![
            vec![(0.5f32, 0.2f32), (-1.0, 0.8)],
            vec![(2.0, 0.0), (0.0, 3.0)],
        ];
        let eta = 0.3;
        let table = Tensor::from_vec(3, 2, vec![0.4, -0.9, 2.5, 0.1, -4.0, 7.0]);
        let scorer = BoxScorer::new(&branches, eta);
        let mut out = Vec::new();
        scorer.score_into(&table, &mut out);
        for (e, &got) in out.iter().enumerate() {
            let want = branches
                .iter()
                .map(|b| {
                    b.iter()
                        .zip(table.row(e))
                        .map(|(&(c, o), &x)| {
                            let a = (x - c).abs();
                            (a - o).max(0.0) + eta * a.min(o)
                        })
                        .sum::<f32>()
                })
                .fold(f32::INFINITY, f32::min);
            assert!((got - want).abs() < 1e-5);
        }
    }

    #[test]
    fn l1_scorer_matches_scalar() {
        let branches = vec![vec![1.0f32, -2.0], vec![0.0, 0.0]];
        let table = Tensor::from_vec(2, 2, vec![0.5, 0.5, -3.0, 2.0]);
        let scorer = L1Scorer::new(&branches);
        let mut out = Vec::new();
        scorer.score_into(&table, &mut out);
        assert!((out[0] - 1.0f32.min(3.0)).abs() < 1e-6);
        assert!((out[1] - 5.0f32.min(8.0)).abs() < 1e-6);
    }

    #[test]
    fn score_until_prefix_is_bit_identical_and_stops_on_expiry() {
        use halk_obs::Clock;
        let rho = 1.0;
        let arcs = grid_arcs(rho);
        let n = 64;
        let mut data = Vec::with_capacity(n * 2);
        for i in 0..n {
            data.push(i as f32 * TAU / n as f32);
            data.push((i as f32 * 0.77 + 1.3) % TAU);
        }
        let table = Tensor::from_vec(n, 2, data);
        let trig = EntityTrig::new(&table);
        let scorer = ArcScorer::from_arcs(&arcs, rho, 0.05, DistanceMode::LiteralEq16);
        let full = scorer.score_all(&trig);

        // Unarmed deadline: everything scored, bit-identical to score_all.
        let mut out = vec![f32::INFINITY; n];
        let done = scorer.score_until(&trig, 0, &mut out, 16, &Deadline::never());
        assert_eq!(done, n);
        assert!(full
            .iter()
            .zip(&out)
            .all(|(a, b)| a.to_bits() == b.to_bits()));

        // An expired mock deadline stops at the first slice boundary:
        // zero rows scored, the buffer untouched.
        let (clock, now) = Clock::mock();
        let d = Deadline::at_ns(&clock, 1);
        now.store(5, std::sync::atomic::Ordering::SeqCst);
        let mut partial = vec![f32::INFINITY; n];
        assert_eq!(scorer.score_until(&trig, 0, &mut partial, 16, &d), 0);
        assert!(partial.iter().all(|s| s.is_infinite()));

        // Partial run resumed from row `done` equals the full pass.
        let mut halves = vec![f32::INFINITY; n];
        let first = scorer.score_until(&trig, 0, &mut halves[..n / 2], 16, &Deadline::never());
        assert_eq!(first, n / 2);
        let second = scorer.score_until(&trig, n / 2, &mut halves[n / 2..], 16, &Deadline::never());
        assert_eq!(second, n / 2);
        assert!(full
            .iter()
            .zip(&halves)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    #[test]
    fn top_k_matches_stable_sort() {
        let scores = vec![3.0, 1.0, 2.0, 1.0, 0.5, 2.0, 9.0];
        let got = top_k_indices(&scores, 4);
        // Stable order: 0.5@4, 1.0@1, 1.0@3, 2.0@2.
        assert_eq!(got, vec![4, 1, 3, 2]);
        assert_eq!(top_k_indices(&scores, 0), Vec::<u32>::new());
        assert_eq!(top_k_indices(&scores, 100).len(), scores.len());
    }

    #[test]
    fn topk_heap_matches_reference_with_ties_and_reuse() {
        let scores = vec![3.0, 1.0, 2.0, 1.0, 0.5, 2.0, 9.0, 1.0];
        for k in [0, 1, 4, scores.len(), scores.len() + 5] {
            let mut heap = TopK::new(k);
            for (i, &s) in scores.iter().enumerate() {
                heap.offer(i as u32, s);
            }
            let got: Vec<u32> = heap.into_sorted().iter().map(|&(i, _)| i).collect();
            assert_eq!(got, top_k_indices(&scores, k), "k={k}");
        }
        // reset() keeps the buffer but clears state and changes the bound.
        let mut heap = TopK::new(2);
        heap.offer(0, 1.0);
        heap.reset(3);
        for (i, &s) in scores.iter().enumerate() {
            heap.offer(i as u32, s);
        }
        let mut out = Vec::new();
        heap.drain_sorted_into(&mut out);
        assert_eq!(out.iter().map(|&(i, _)| i).collect::<Vec<_>>(), [4, 1, 3]);
        assert!(heap.is_empty());
    }

    #[test]
    fn topk_absorb_is_order_independent() {
        let scores: Vec<f32> = (0..200).map(|i| ((i * 37) % 50) as f32 * 0.25).collect();
        let want = top_k_indices(&scores, 7);
        // Split the offers across three heaps in a scrambled order, then merge.
        let mut parts = [TopK::new(7), TopK::new(7), TopK::new(7)];
        for (i, &s) in scores.iter().enumerate().rev() {
            parts[i % 3].offer(i as u32, s);
        }
        let mut merged = TopK::new(7);
        for p in &parts {
            merged.absorb(p);
        }
        let got: Vec<u32> = merged.into_sorted().iter().map(|&(i, _)| i).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn trig_from_rows_matches_full_table() {
        let table = Tensor::from_vec(4, 2, vec![0.1, 0.2, 3.0, 4.0, 5.5, 0.9, 2.2, 2.3]);
        for p in [Precision::F32, Precision::I16, Precision::I8] {
            let full = EntityTrig::with_precision(&table, p);
            let part = EntityTrig::from_rows_with(&table, 1..3, p);
            assert_eq!(part.n_entities(), 2);
            assert_eq!(part.precision(), p);
            for j in 0..4 {
                let (ps, pc) = part.decoded(j);
                let (fs, fc) = full.decoded(2 + j);
                assert_eq!(ps.to_bits(), fs.to_bits(), "{p} sin {j}");
                assert_eq!(pc.to_bits(), fc.to_bits(), "{p} cos {j}");
            }
        }
    }

    #[test]
    fn precision_parses_and_sizes() {
        assert_eq!("f32".parse::<Precision>().unwrap(), Precision::F32);
        assert_eq!("f16".parse::<Precision>().unwrap(), Precision::I16);
        assert_eq!("i16".parse::<Precision>().unwrap(), Precision::I16);
        assert_eq!("i8".parse::<Precision>().unwrap(), Precision::I8);
        assert!("f64".parse::<Precision>().is_err());
        assert_eq!(Precision::default(), Precision::F32);
        let table = Tensor::from_vec(4, 2, vec![0.0; 8]);
        assert_eq!(EntityTrig::new(&table).resident_bytes(), 4 * 2 * 8);
        assert_eq!(
            EntityTrig::with_precision(&table, Precision::I16).resident_bytes(),
            4 * 2 * 4
        );
        assert_eq!(
            EntityTrig::with_precision(&table, Precision::I8).resident_bytes(),
            4 * 2 * 2
        );
    }

    #[test]
    fn quantized_scores_track_exact_within_error_bound() {
        let rho = 1.0;
        let eta = 0.05;
        let arcs = grid_arcs(rho);
        let n = 128;
        let d = 2;
        let mut data = Vec::with_capacity(n * d);
        for i in 0..n {
            data.push(i as f32 * TAU / n as f32);
            data.push((i as f32 * 0.77 + 1.3) % TAU);
        }
        let table = Tensor::from_vec(n, d, data);
        let exact = EntityTrig::new(&table);
        for mode in [
            DistanceMode::LiteralEq16,
            DistanceMode::CenterAnchored,
            DistanceMode::ZeroedInside,
        ] {
            let scorer = ArcScorer::from_arcs(&arcs, rho, eta, mode);
            let want = scorer.score_all(&exact);
            // Worst-case per-coordinate decode error is 1/(2·scale); each
            // coordinate contributes ≤ 2 decoded values per distance term,
            // so bound the score gap by a small multiple of dims · step
            // (the ZeroedInside containment mask can flip on boundary
            // entities, so skip exact-boundary rows there via the bound).
            for (p, step) in [
                (Precision::I16, 0.5 / I16_SCALE),
                (Precision::I8, 0.5 / I8_SCALE),
            ] {
                let q = EntityTrig::with_precision(&table, p);
                let got = scorer.score_all(&q);
                let tol = 2.0 * rho * (d as f32) * 8.0 * step + 1e-5;
                let mut close = 0;
                for (e, (&a, &b)) in want.iter().zip(&got).enumerate() {
                    if (a - b).abs() <= tol {
                        close += 1;
                    } else {
                        // Mask flips under ZeroedInside can move a term by
                        // the full endpoint distance; allow only there.
                        assert_eq!(
                            mode,
                            DistanceMode::ZeroedInside,
                            "{p} {mode:?} entity {e}: {a} vs {b} (tol {tol})"
                        );
                    }
                }
                assert!(close >= n - 2, "{p} {mode:?}: only {close}/{n} close");
            }
        }
    }

    #[test]
    fn quantized_top_k_ranks_match_exact_on_separated_scores() {
        // Rank equivalence on a table whose score gaps dwarf the i16
        // quantization step — the regime the serving gate runs in.
        let rho = 1.0;
        let arcs = grid_arcs(rho);
        let n = SCORE_SLICE + 77;
        let mut data = Vec::with_capacity(n * 2);
        for i in 0..n {
            data.push(i as f32 * TAU / n as f32);
            data.push((i as f32 * 0.77 + 1.3) % TAU);
        }
        let table = Tensor::from_vec(n, 2, data);
        let scorer = ArcScorer::from_arcs(&arcs, rho, 0.05, DistanceMode::CenterAnchored);
        let exact = scorer.score_all(&EntityTrig::new(&table));
        let want = top_k_indices(&exact, 10);

        let q = EntityTrig::with_precision(&table, Precision::I16);
        let mut heap = TopK::new(10);
        let rows = scorer.top_k_until(&q, 0, &mut heap, &Deadline::never());
        assert_eq!(rows, n);
        let got: Vec<u32> = heap.into_sorted().iter().map(|&(i, _)| i).collect();
        assert_eq!(got, want, "i16 top-k order drifted from exact");
    }

    #[test]
    fn streaming_top_k_matches_full_vector_reference() {
        let rho = 1.0;
        let arcs = grid_arcs(rho);
        // More rows than one SCORE_SLICE so the streaming loop takes
        // multiple slices.
        let n = SCORE_SLICE + 300;
        let mut data = Vec::with_capacity(n * 2);
        for i in 0..n {
            data.push(i as f32 * TAU / n as f32);
            data.push((i as f32 * 0.77 + 1.3) % TAU);
        }
        let table = Tensor::from_vec(n, 2, data);
        let trig = EntityTrig::new(&table);
        let scorer = ArcScorer::from_arcs(&arcs, rho, 0.05, DistanceMode::LiteralEq16);
        let full = scorer.score_all(&trig);
        let want = top_k_indices(&full, 10);

        let mut heap = TopK::new(10);
        let rows = scorer.top_k_until(&trig, 0, &mut heap, &Deadline::never());
        assert_eq!(rows, n);
        let got = heap.into_sorted();
        assert_eq!(got.len(), want.len());
        for (&w, &(i, s)) in want.iter().zip(&got) {
            assert_eq!(i, w);
            assert_eq!(s.to_bits(), full[w as usize].to_bits());
        }

        // An already-expired deadline scores zero rows.
        use halk_obs::Clock;
        let (clock, now) = Clock::mock();
        let d = Deadline::at_ns(&clock, 1);
        now.store(5, std::sync::atomic::Ordering::SeqCst);
        let mut h2 = TopK::new(10);
        assert_eq!(scorer.top_k_until(&trig, 0, &mut h2, &d), 0);
        assert!(h2.is_empty());
    }
}
