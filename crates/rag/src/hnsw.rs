//! Hierarchical Navigable Small World (HNSW) approximate nearest-neighbor
//! index — zero dependencies, deterministic, serializable.
//!
//! Layout follows Malkov & Yashunin: every point lives on layer 0; a point
//! additionally appears on layer `l` with probability `exp(-l / mL)` where
//! `mL = 1/ln(M)`. Upper layers form an expressway of long links descended
//! greedily; layer 0 is searched with a beam of width `ef`. Insertion links
//! each new point to neighbors chosen by the *heuristic* rule (a candidate
//! is kept only if it is closer to the query than to any already-selected
//! neighbor), which preserves links across cluster boundaries and is what
//! keeps recall high on clustered corpora.
//!
//! Determinism: level draws come from a private splitmix64 stream seeded by
//! [`HnswConfig::seed`], so the same insertion order always builds the same
//! graph, and [`Hnsw::to_bytes`] / [`Hnsw::from_bytes`] round-trip the
//! entire structure bit-identically (`LRAG` magic, versioned).

use crate::vecs::{l2_sq, Neighbor, VecSet};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Build/search parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HnswConfig {
    /// Max links per point on layers ≥ 1.
    pub m: usize,
    /// Max links per point on layer 0 (conventionally `2·m`).
    pub m0: usize,
    /// Beam width while building.
    pub ef_construction: usize,
    /// Default beam width while searching (raised to `k` when `k` larger).
    pub ef_search: usize,
    /// Seed for the level-sampling stream.
    pub seed: u64,
}

impl Default for HnswConfig {
    fn default() -> Self {
        HnswConfig { m: 16, m0: 32, ef_construction: 100, ef_search: 64, seed: 0x11f3_5eed }
    }
}

/// Highest layer a point may be assigned (bounds per-node link storage).
const MAX_LEVEL: u8 = 16;

/// Why a serialized index failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// First four bytes were not `LRAG`.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u32),
    /// Buffer ended before the declared contents.
    Truncated,
    /// Structurally invalid contents (reason attached).
    Corrupt(&'static str),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::BadMagic => write!(f, "not an LRAG index (bad magic)"),
            DecodeError::BadVersion(v) => write!(f, "unsupported LRAG version {v}"),
            DecodeError::Truncated => write!(f, "truncated LRAG index"),
            DecodeError::Corrupt(why) => write!(f, "corrupt LRAG index: {why}"),
        }
    }
}

impl std::error::Error for DecodeError {}

const MAGIC: [u8; 4] = *b"LRAG";
const VERSION: u32 = 1;

/// The index. Points are addressed by insertion order (`u32` ids shared
/// with the caller's side tables, e.g. [`crate::store::RunStore`] records).
#[derive(Debug, Clone, PartialEq)]
pub struct Hnsw {
    cfg: HnswConfig,
    vecs: VecSet,
    /// `links[id][layer]` = neighbor ids of `id` on `layer`.
    links: Vec<Vec<Vec<u32>>>,
    /// Top layer of each point.
    levels: Vec<u8>,
    /// Entry point id (meaningful only when non-empty).
    entry: u32,
    /// Current top layer of the graph.
    max_level: u8,
    /// Level-sampling stream state.
    rng: u64,
}

fn splitmix64(z: &mut u64) -> u64 {
    *z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut x = *z;
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl Hnsw {
    /// Empty index over `dim`-dimensional vectors.
    pub fn new(dim: usize, cfg: HnswConfig) -> Hnsw {
        assert!(cfg.m >= 2 && cfg.m0 >= cfg.m, "HNSW needs m >= 2 and m0 >= m");
        assert!(cfg.ef_construction >= cfg.m, "ef_construction must be >= m");
        Hnsw {
            cfg,
            vecs: VecSet::new(dim),
            links: Vec::new(),
            levels: Vec::new(),
            entry: 0,
            max_level: 0,
            rng: cfg.seed,
        }
    }

    /// Vector dimensionality.
    pub fn dim(&self) -> usize {
        self.vecs.dim()
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.vecs.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.vecs.is_empty()
    }

    /// Build parameters.
    pub fn config(&self) -> &HnswConfig {
        &self.cfg
    }

    /// Borrow the flat vector storage (the recall oracle scans this).
    pub fn vectors(&self) -> &VecSet {
        &self.vecs
    }

    fn m_for(&self, layer: u8) -> usize {
        if layer == 0 {
            self.cfg.m0
        } else {
            self.cfg.m
        }
    }

    /// Draw a level: geometric with `mL = 1/ln(M)`, capped at
    /// [`MAX_LEVEL`].
    fn sample_level(&mut self) -> u8 {
        let bits = splitmix64(&mut self.rng);
        // Map the top 53 bits to a uniform in (0, 1].
        let u = ((bits >> 11) as f64 + 1.0) / (1u64 << 53) as f64;
        let ml = 1.0 / (self.cfg.m as f64).ln();
        let level = (-u.ln() * ml).floor();
        if level.is_finite() && level > 0.0 {
            (level as u64).min(MAX_LEVEL as u64) as u8
        } else {
            0
        }
    }

    /// Greedy descent on one upper layer: walk to the closest neighbor
    /// until no neighbor improves.
    fn greedy_step(&self, q: &[f32], mut ep: u32, layer: u8) -> u32 {
        let mut best = self.vecs.dist(ep, q);
        loop {
            let mut improved = false;
            for &n in &self.links[ep as usize][layer as usize] {
                let d = self.vecs.dist(n, q);
                if d.total_cmp(&best).is_lt() {
                    best = d;
                    ep = n;
                    improved = true;
                }
            }
            if !improved {
                return ep;
            }
        }
    }

    /// Beam search on one layer: returns up to `ef` nearest candidates,
    /// ascending by `(distance, id)`.
    fn search_layer(&self, q: &[f32], ep: u32, ef: usize, layer: u8) -> Vec<Neighbor> {
        let mut visited = vec![false; self.len()];
        visited[ep as usize] = true;
        let start = Neighbor { dist: self.vecs.dist(ep, q), id: ep };
        // Min-heap of frontier candidates, max-heap of current best `ef`.
        let mut frontier: BinaryHeap<Reverse<Neighbor>> = BinaryHeap::new();
        frontier.push(Reverse(start));
        let mut best: BinaryHeap<Neighbor> = BinaryHeap::new();
        best.push(start);

        while let Some(Reverse(cand)) = frontier.pop() {
            if best.len() >= ef {
                if let Some(worst) = best.peek() {
                    if cand.dist.total_cmp(&worst.dist).is_gt() {
                        break;
                    }
                }
            }
            for &n in &self.links[cand.id as usize][layer as usize] {
                if std::mem::replace(&mut visited[n as usize], true) {
                    continue;
                }
                let next = Neighbor { dist: self.vecs.dist(n, q), id: n };
                let admit =
                    best.len() < ef || best.peek().is_none_or(|worst| next.cmp(worst).is_lt());
                if admit {
                    frontier.push(Reverse(next));
                    best.push(next);
                    if best.len() > ef {
                        best.pop();
                    }
                }
            }
        }
        let mut out = best.into_vec();
        out.sort_unstable();
        out
    }

    /// Heuristic neighbor selection: keep a candidate only when it is
    /// closer to the query point than to every neighbor already kept, then
    /// backfill with the nearest skipped candidates ("keep pruned
    /// connections") so low-degree nodes stay reachable.
    fn select_heuristic(&self, cands: &[Neighbor], m: usize) -> Vec<u32> {
        let mut kept: Vec<Neighbor> = Vec::with_capacity(m);
        let mut skipped: Vec<Neighbor> = Vec::new();
        for &c in cands {
            if kept.len() >= m {
                break;
            }
            let diverse = kept.iter().all(|s| {
                let between = l2_sq(self.vecs.get(c.id), self.vecs.get(s.id));
                c.dist.total_cmp(&between).is_lt()
            });
            if diverse {
                kept.push(c);
            } else {
                skipped.push(c);
            }
        }
        for &c in &skipped {
            if kept.len() >= m {
                break;
            }
            kept.push(c);
        }
        kept.into_iter().map(|n| n.id).collect()
    }

    /// Re-prune `node`'s links on `layer` after gaining a backlink, using
    /// the same heuristic as insertion.
    fn shrink_links(&mut self, node: u32, layer: u8) {
        let m = self.m_for(layer);
        let current = &self.links[node as usize][layer as usize];
        if current.len() <= m {
            return;
        }
        let base = self.vecs.get(node);
        let mut cands: Vec<Neighbor> = current
            .iter()
            .map(|&n| Neighbor { dist: l2_sq(self.vecs.get(n), base), id: n })
            .collect();
        cands.sort_unstable();
        let pruned = self.select_heuristic(&cands, m);
        self.links[node as usize][layer as usize] = pruned;
    }

    /// Insert one vector, returning its id.
    pub fn insert(&mut self, v: &[f32]) -> u32 {
        let id = self.vecs.push(v);
        let level = self.sample_level();
        self.levels.push(level);
        self.links.push(vec![Vec::new(); level as usize + 1]);
        if id == 0 {
            self.entry = 0;
            self.max_level = level;
            return id;
        }

        let q = self.vecs.get(id).to_vec();
        let mut ep = self.entry;
        for layer in (level + 1..=self.max_level).rev() {
            ep = self.greedy_step(&q, ep, layer);
        }
        for layer in (0..=level.min(self.max_level)).rev() {
            let cands = self.search_layer(&q, ep, self.cfg.ef_construction, layer);
            let chosen = self.select_heuristic(&cands, self.m_for(layer));
            for &n in &chosen {
                self.links[id as usize][layer as usize].push(n);
                self.links[n as usize][layer as usize].push(id);
                self.shrink_links(n, layer);
            }
            if let Some(closest) = cands.first() {
                ep = closest.id;
            }
        }
        if level > self.max_level {
            self.entry = id;
            self.max_level = level;
        }
        id
    }

    /// Search: up to `k` approximate nearest neighbors, ascending by
    /// `(distance, id)`. The beam width is `max(ef_search, k)`.
    pub fn search(&self, q: &[f32], k: usize) -> Vec<Neighbor> {
        self.search_ef(q, k, self.cfg.ef_search)
    }

    /// Search with an explicit beam width (`ef` is raised to `k`).
    pub fn search_ef(&self, q: &[f32], k: usize, ef: usize) -> Vec<Neighbor> {
        if self.is_empty() || k == 0 {
            return Vec::new();
        }
        let mut ep = self.entry;
        for layer in (1..=self.max_level).rev() {
            ep = self.greedy_step(q, ep, layer);
        }
        let mut out = self.search_layer(q, ep, ef.max(k), 0);
        out.truncate(k);
        out
    }

    /// Serialize to the versioned `LRAG` binary format (little-endian).
    pub fn to_bytes(&self) -> Vec<u8> {
        let n = self.len();
        let mut out = Vec::with_capacity(64 + n * (self.dim() * 4 + 16));
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&(self.dim() as u32).to_le_bytes());
        out.extend_from_slice(&(n as u32).to_le_bytes());
        out.extend_from_slice(&(self.cfg.m as u32).to_le_bytes());
        out.extend_from_slice(&(self.cfg.m0 as u32).to_le_bytes());
        out.extend_from_slice(&(self.cfg.ef_construction as u32).to_le_bytes());
        out.extend_from_slice(&(self.cfg.ef_search as u32).to_le_bytes());
        out.extend_from_slice(&self.cfg.seed.to_le_bytes());
        out.extend_from_slice(&self.rng.to_le_bytes());
        out.extend_from_slice(&self.entry.to_le_bytes());
        out.push(self.max_level);
        out.extend_from_slice(&self.levels);
        for per_node in &self.links {
            out.push(per_node.len() as u8);
            for layer in per_node {
                out.extend_from_slice(&(layer.len() as u32).to_le_bytes());
                for &nbr in layer {
                    out.extend_from_slice(&nbr.to_le_bytes());
                }
            }
        }
        for &x in self.vecs.raw() {
            out.extend_from_slice(&x.to_le_bytes());
        }
        out
    }

    /// Decode an index previously produced by [`Hnsw::to_bytes`]. Every
    /// read is bounds-checked; malformed input yields a [`DecodeError`],
    /// never a panic.
    pub fn from_bytes(bytes: &[u8]) -> Result<Hnsw, DecodeError> {
        let mut r = Reader { bytes, pos: 0 };
        if r.take(4)? != MAGIC {
            return Err(DecodeError::BadMagic);
        }
        let version = r.u32()?;
        if version != VERSION {
            return Err(DecodeError::BadVersion(version));
        }
        let dim = r.u32()? as usize;
        let n = r.u32()? as usize;
        let cfg = HnswConfig {
            m: r.u32()? as usize,
            m0: r.u32()? as usize,
            ef_construction: r.u32()? as usize,
            ef_search: r.u32()? as usize,
            seed: r.u64()?,
        };
        if cfg.m < 2 || cfg.m0 < cfg.m || cfg.ef_construction < cfg.m {
            return Err(DecodeError::Corrupt("invalid build parameters"));
        }
        let rng = r.u64()?;
        let entry = r.u32()?;
        let max_level = r.u8()?;
        if n > 0 && entry as usize >= n {
            return Err(DecodeError::Corrupt("entry point out of range"));
        }
        // Everything below is sized from `n` and `dim`: refuse counts the
        // input is too short to back (a point costs at least its level
        // byte and its vector) before reserving anything for them.
        let vector_bytes = n.checked_mul(dim).and_then(|floats| floats.checked_mul(4));
        if n > bytes.len() || vector_bytes.is_none_or(|b| b > bytes.len()) {
            return Err(DecodeError::Truncated);
        }
        let mut levels = Vec::with_capacity(n);
        for _ in 0..n {
            let l = r.u8()?;
            if l > MAX_LEVEL {
                return Err(DecodeError::Corrupt("level above cap"));
            }
            levels.push(l);
        }
        // The search descends from `entry` on every layer up to
        // `max_level`, and follows a link on the layer it is stored under:
        // both ends must exist there.
        if n > 0 && levels[entry as usize] != max_level {
            return Err(DecodeError::Corrupt("entry point is not on the top layer"));
        }
        let mut links = Vec::with_capacity(n);
        for &level in &levels {
            let layer_count = r.u8()? as usize;
            if layer_count != level as usize + 1 {
                return Err(DecodeError::Corrupt("layer count disagrees with level"));
            }
            let mut per_node = Vec::with_capacity(layer_count);
            for _ in 0..layer_count {
                let cnt = r.u32()? as usize;
                if cnt > n {
                    return Err(DecodeError::Corrupt("neighbor count exceeds points"));
                }
                let mut layer = Vec::with_capacity(cnt);
                for _ in 0..cnt {
                    let nbr = r.u32()?;
                    if nbr as usize >= n {
                        return Err(DecodeError::Corrupt("neighbor id out of range"));
                    }
                    if (levels[nbr as usize] as usize) < per_node.len() {
                        return Err(DecodeError::Corrupt("neighbor below the link's layer"));
                    }
                    layer.push(nbr);
                }
                per_node.push(layer);
            }
            links.push(per_node);
        }
        if dim == 0 {
            return Err(DecodeError::Corrupt("zero dimension"));
        }
        let mut data = Vec::with_capacity(n * dim);
        for _ in 0..n * dim {
            data.push(f32::from_le_bytes(
                r.take(4)?.try_into().map_err(|_| DecodeError::Truncated)?,
            ));
        }
        if r.pos != bytes.len() {
            return Err(DecodeError::Corrupt("trailing bytes"));
        }
        let vecs = VecSet::from_raw(dim, data).ok_or(DecodeError::Corrupt("vector storage"))?;
        Ok(Hnsw { cfg, vecs, links, levels, entry, max_level, rng })
    }
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let end = self.pos.checked_add(n).ok_or(DecodeError::Truncated)?;
        let slice = self.bytes.get(self.pos..end).ok_or(DecodeError::Truncated)?;
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().map_err(|_| DecodeError::Truncated)?))
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().map_err(|_| DecodeError::Truncated)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vecs::exact_knn;

    fn grid_index(n: usize) -> Hnsw {
        let mut h = Hnsw::new(2, HnswConfig::default());
        for i in 0..n {
            h.insert(&[(i % 17) as f32, (i / 17) as f32]);
        }
        h
    }

    #[test]
    fn finds_exact_neighbors_on_small_grid() {
        let h = grid_index(200);
        let q = [3.2, 4.9];
        let got = h.search(&q, 5);
        let want = exact_knn(h.vectors(), &q, 5);
        assert_eq!(got, want, "small-index search should be exact");
    }

    #[test]
    fn roundtrip_is_bit_identical() {
        let h = grid_index(137);
        let bytes = h.to_bytes();
        let back = Hnsw::from_bytes(&bytes).expect("own bytes decode");
        assert_eq!(h, back);
        assert_eq!(bytes, back.to_bytes(), "re-serialization is byte-identical");
    }

    #[test]
    fn decode_rejects_garbage_without_panicking() {
        assert_eq!(Hnsw::from_bytes(b"np"), Err(DecodeError::Truncated));
        assert_eq!(Hnsw::from_bytes(b"nope"), Err(DecodeError::BadMagic));
        assert_eq!(Hnsw::from_bytes(b"XXXX\0\0\0\0"), Err(DecodeError::BadMagic));
        let mut bytes = grid_index(5).to_bytes();
        bytes[4] = 9; // version
        assert_eq!(Hnsw::from_bytes(&bytes), Err(DecodeError::BadVersion(9)));
        let good = grid_index(5).to_bytes();
        for cut in [5, 20, good.len() - 1] {
            assert!(Hnsw::from_bytes(&good[..cut]).is_err());
        }
    }

    #[test]
    fn nan_and_inf_points_do_not_panic_and_order_deterministically() {
        let mut h = Hnsw::new(2, HnswConfig::default());
        for i in 0..32 {
            h.insert(&[i as f32, (i * 3 % 7) as f32]);
        }
        h.insert(&[f32::NAN, 0.0]);
        h.insert(&[f32::INFINITY, f32::NEG_INFINITY]);
        for i in 0..16 {
            h.insert(&[0.5 + i as f32, 0.25]);
        }
        let a = h.search(&[f32::NAN, 1.0], 8);
        let b = h.search(&[f32::NAN, 1.0], 8);
        assert_eq!(a, b, "NaN query must stay deterministic");
        let c = h.search(&[1.0, 1.0], 8);
        let d = h.search(&[1.0, 1.0], 8);
        assert_eq!(c, d);
        assert!(c.iter().all(|n| n.dist.is_finite()), "finite points win over NaN/inf ones");
    }

    #[test]
    fn empty_and_k_zero() {
        let h = Hnsw::new(4, HnswConfig::default());
        assert!(h.search(&[0.0; 4], 3).is_empty());
        let h = grid_index(10);
        assert!(h.search(&[0.0, 0.0], 0).is_empty());
    }
}
