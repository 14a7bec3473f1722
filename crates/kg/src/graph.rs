//! The knowledge-graph triple store.
//!
//! `G = {V, R, T}` of §II-A: entities, relations and fact triples `(h, r, t)`.
//! Storage is one CSR index per relation in each direction, so the two
//! operations everything else is built on — `neighbors(h, r)` for the
//! projection operator's ground truth and `inverse_neighbors(t, r)` for
//! backward query sampling — are contiguous slice lookups, and membership
//! `has(h, r, t)` is a binary search.

use crate::ids::{EntityId, RelationId};
use serde::{Deserialize, Serialize};

/// A fact triple `(head, relation, tail)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Triple {
    /// Subject (head) entity.
    pub h: EntityId,
    /// Predicate (relation).
    pub r: RelationId,
    /// Object (tail) entity.
    pub t: EntityId,
}

impl Triple {
    /// Convenience constructor from raw ids.
    pub fn new(h: u32, r: u32, t: u32) -> Self {
        Self {
            h: EntityId(h),
            r: RelationId(r),
            t: EntityId(t),
        }
    }
}

/// Compressed sparse rows over entities: `offsets[e]..offsets[e+1]` indexes
/// the sorted neighbor list of entity `e`.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Csr {
    offsets: Vec<u32>,
    targets: Vec<u32>,
}

impl Csr {
    /// Builds from `(src, dst)` pairs already strictly sorted by `(src,
    /// dst)` — one counting pass, no sort.
    fn from_sorted_pairs(n_entities: usize, pairs: &[(u32, u32)]) -> Self {
        let mut offsets = vec![0u32; n_entities + 1];
        for &(src, _) in pairs {
            offsets[src as usize + 1] += 1;
        }
        for i in 0..n_entities {
            offsets[i + 1] += offsets[i];
        }
        let targets = pairs.iter().map(|&(_, dst)| dst).collect();
        Self { offsets, targets }
    }

    /// Builds the transpose of `from_sorted_pairs(pairs)` by stable
    /// counting scatter: for a fixed `dst`, the `src` values arrive in
    /// ascending order, so every transposed row comes out sorted without
    /// sorting.
    fn transpose_sorted_pairs(n_entities: usize, pairs: &[(u32, u32)]) -> Self {
        let mut offsets = vec![0u32; n_entities + 1];
        for &(_, dst) in pairs {
            offsets[dst as usize + 1] += 1;
        }
        for i in 0..n_entities {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor = offsets.clone();
        let mut targets = vec![0u32; pairs.len()];
        for &(src, dst) in pairs {
            let pos = cursor[dst as usize] as usize;
            targets[pos] = src;
            cursor[dst as usize] += 1;
        }
        Self { offsets, targets }
    }

    #[inline]
    fn neighbors(&self, e: usize) -> &[u32] {
        &self.targets[self.offsets[e] as usize..self.offsets[e + 1] as usize]
    }
}

/// An immutable knowledge graph with per-relation forward and inverse
/// adjacency indexes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Graph {
    n_entities: usize,
    n_relations: usize,
    triples: Vec<Triple>,
    out: Vec<Csr>,
    inv: Vec<Csr>,
}

impl Graph {
    /// Builds a graph from a triple list. Duplicates are removed; triples
    /// referencing entities/relations beyond the declared counts panic.
    pub fn from_triples(n_entities: usize, n_relations: usize, triples: Vec<Triple>) -> Self {
        let mut tri = triples;
        tri.sort_unstable();
        tri.dedup();
        for t in &tri {
            assert!(
                t.h.index() < n_entities && t.t.index() < n_entities,
                "triple {t:?} references entity out of range (n={n_entities})"
            );
            assert!(
                t.r.index() < n_relations,
                "triple {t:?} references relation out of range (m={n_relations})"
            );
        }
        Self::build_indexes(n_entities, n_relations, tri)
    }

    /// Builds a graph from a triple list that is already strictly sorted
    /// (sorted and deduplicated) — the snapshot boot path. Skips the sort
    /// and returns a typed error instead of panicking, so corrupted input
    /// cannot take the process down: strict order and id ranges are
    /// *checked*, then both adjacency directions are built with counting
    /// passes in `O(|T| + |V|·|R|)`.
    pub fn from_sorted_triples(
        n_entities: usize,
        n_relations: usize,
        triples: Vec<Triple>,
    ) -> Result<Graph, String> {
        if triples.windows(2).any(|w| w[0] >= w[1]) {
            return Err("triple list not strictly sorted".into());
        }
        for t in &triples {
            if t.h.index() >= n_entities || t.t.index() >= n_entities {
                return Err(format!(
                    "triple {t:?} references entity out of range (n={n_entities})"
                ));
            }
            if t.r.index() >= n_relations {
                return Err(format!(
                    "triple {t:?} references relation out of range (m={n_relations})"
                ));
            }
        }
        Ok(Self::build_indexes(n_entities, n_relations, triples))
    }

    /// Index construction for a strictly sorted, in-range triple list.
    ///
    /// One pass buckets `(h, t)` pairs by relation — `(h, r, t)` order
    /// means each bucket comes out sorted by `(h, t)` — then each
    /// direction is a counting build, never a sort. `O(|T| + |V|·|R|)`
    /// total, versus the old per-relation filter sweep's `O(|R|·|T|)`
    /// scan plus `O(|T| log |T|)` re-sorts.
    fn build_indexes(n_entities: usize, n_relations: usize, tri: Vec<Triple>) -> Self {
        let mut counts = vec![0u32; n_relations];
        for t in &tri {
            counts[t.r.index()] += 1;
        }
        let mut buckets: Vec<Vec<(u32, u32)>> = counts
            .iter()
            .map(|&c| Vec::with_capacity(c as usize))
            .collect();
        for t in &tri {
            buckets[t.r.index()].push((t.h.0, t.t.0));
        }
        let out = buckets
            .iter()
            .map(|pairs| Csr::from_sorted_pairs(n_entities, pairs))
            .collect();
        let inv = buckets
            .iter()
            .map(|pairs| Csr::transpose_sorted_pairs(n_entities, pairs))
            .collect();
        Self {
            n_entities,
            n_relations,
            triples: tri,
            out,
            inv,
        }
    }

    /// Number of entities `|V|`.
    #[inline]
    pub fn n_entities(&self) -> usize {
        self.n_entities
    }

    /// Number of relations `|R|`.
    #[inline]
    pub fn n_relations(&self) -> usize {
        self.n_relations
    }

    /// Number of distinct triples `|T|`.
    #[inline]
    pub fn n_triples(&self) -> usize {
        self.triples.len()
    }

    /// The sorted, deduplicated triple list.
    pub fn triples(&self) -> &[Triple] {
        &self.triples
    }

    /// Tails reachable from `h` by relation `r` (sorted).
    #[inline]
    pub fn neighbors(&self, h: EntityId, r: RelationId) -> &[u32] {
        self.out[r.index()].neighbors(h.index())
    }

    /// Heads that reach `t` by relation `r` (sorted).
    #[inline]
    pub fn inverse_neighbors(&self, t: EntityId, r: RelationId) -> &[u32] {
        self.inv[r.index()].neighbors(t.index())
    }

    /// Whether the fact `(h, r, t)` is present.
    pub fn has(&self, h: EntityId, r: RelationId, t: EntityId) -> bool {
        self.neighbors(h, r).binary_search(&t.0).is_ok()
    }

    /// Out-degree of `h` under relation `r`.
    pub fn out_degree(&self, h: EntityId, r: RelationId) -> usize {
        self.neighbors(h, r).len()
    }

    /// Total degree (all relations, both directions) of an entity.
    pub fn degree(&self, e: EntityId) -> usize {
        (0..self.n_relations)
            .map(|r| {
                self.neighbors(e, RelationId(r as u32)).len()
                    + self.inverse_neighbors(e, RelationId(r as u32)).len()
            })
            .sum()
    }

    /// Iterator over all entity ids.
    pub fn entities(&self) -> impl Iterator<Item = EntityId> + '_ {
        (0..self.n_entities as u32).map(EntityId)
    }

    /// Iterator over all relation ids.
    pub fn relations(&self) -> impl Iterator<Item = RelationId> + '_ {
        (0..self.n_relations as u32).map(RelationId)
    }

    /// Relations with at least one outgoing edge from `h` — used by the
    /// matching engine's candidate filtering.
    pub fn relations_from(&self, h: EntityId) -> Vec<RelationId> {
        self.relations()
            .filter(|&r| !self.neighbors(h, r).is_empty())
            .collect()
    }

    /// Returns a new graph restricted to the given entity set (edges with
    /// both endpoints inside). Entity ids are preserved, so embeddings and
    /// answers remain comparable — this is the "induced data graph" of the
    /// pruning experiment (§IV-D).
    pub fn induced_subgraph(&self, keep: &[bool]) -> Graph {
        assert_eq!(keep.len(), self.n_entities);
        let tri: Vec<Triple> = self
            .triples
            .iter()
            .filter(|t| keep[t.h.index()] && keep[t.t.index()])
            .copied()
            .collect();
        Graph::from_triples(self.n_entities, self.n_relations, tri)
    }

    /// True when every triple of `self` is also in `other` — the
    /// `G_train ⊆ G_valid ⊆ G_test` invariant of §IV-A.
    pub fn is_subgraph_of(&self, other: &Graph) -> bool {
        self.triples.iter().all(|t| other.has(t.h, t.r, t.t))
    }

    // ------------------------------------------------------------- snapshot

    /// Relation `r`'s forward CSR arrays `(offsets, targets)` — read access
    /// for snapshot encoding.
    pub fn out_csr(&self, r: usize) -> (&[u32], &[u32]) {
        let c = &self.out[r];
        (&c.offsets, &c.targets)
    }

    /// Relation `r`'s inverse CSR arrays `(offsets, targets)`.
    pub fn inv_csr(&self, r: usize) -> (&[u32], &[u32]) {
        let c = &self.inv[r];
        (&c.offsets, &c.targets)
    }

    /// Rebuilds a graph from raw CSR arrays — the snapshot fast path.
    /// [`Graph::from_triples`] re-derives every per-relation index with an
    /// `O(|R|·|T|)` filter sweep; this constructor takes the indexes as
    /// decoded and instead *validates* them in `O(|T| log deg)`:
    ///
    /// * every CSR has `n_entities + 1` monotone offsets ending at its
    ///   target count, with all targets in range and every neighbor row
    ///   strictly sorted (the binary-search invariant of [`Graph::has`]);
    /// * the triple list is strictly sorted (sorted + deduplicated);
    /// * both directions index exactly the triple list: per-direction
    ///   target counts equal `|T|` and every triple is found in both —
    ///   with strictly sorted rows that makes the edge sets equal, so a
    ///   corrupted file can never load as a silently wrong graph.
    pub fn from_csr_parts(
        n_entities: usize,
        n_relations: usize,
        triples: Vec<Triple>,
        out: Vec<(Vec<u32>, Vec<u32>)>,
        inv: Vec<(Vec<u32>, Vec<u32>)>,
    ) -> Result<Graph, String> {
        if out.len() != n_relations || inv.len() != n_relations {
            return Err(format!(
                "expected {n_relations} CSR pairs per direction, got {} forward / {} inverse",
                out.len(),
                inv.len()
            ));
        }
        let check_csr = |dir: &str, r: usize, offsets: &[u32], targets: &[u32]| {
            if offsets.len() != n_entities + 1 {
                return Err(format!(
                    "{dir} CSR {r}: {} offsets for {n_entities} entities",
                    offsets.len()
                ));
            }
            if offsets[0] != 0 || *offsets.last().unwrap() as usize != targets.len() {
                return Err(format!("{dir} CSR {r}: offset bounds do not frame targets"));
            }
            if offsets.windows(2).any(|w| w[0] > w[1]) {
                return Err(format!("{dir} CSR {r}: offsets not monotone"));
            }
            if targets.iter().any(|&t| t as usize >= n_entities) {
                return Err(format!("{dir} CSR {r}: target entity out of range"));
            }
            // Rows of length 0 or 1 are trivially sorted; skipping them
            // keeps this loop O(offsets + nonzero pairs) instead of paying
            // a slice per entity — the difference between validating and
            // re-sorting dominating snapshot boot.
            for (e, w) in offsets.windows(2).enumerate() {
                if w[1].saturating_sub(w[0]) > 1 {
                    let row = &targets[w[0] as usize..w[1] as usize];
                    if row.windows(2).any(|p| p[0] >= p[1]) {
                        return Err(format!(
                            "{dir} CSR {r}: neighbor row {e} not strictly sorted"
                        ));
                    }
                }
            }
            Ok(())
        };
        let mut total_out = 0usize;
        let mut total_inv = 0usize;
        for r in 0..n_relations {
            check_csr("forward", r, &out[r].0, &out[r].1)?;
            check_csr("inverse", r, &inv[r].0, &inv[r].1)?;
            total_out += out[r].1.len();
            total_inv += inv[r].1.len();
        }
        if triples.windows(2).any(|w| w[0] >= w[1]) {
            return Err("triple list not strictly sorted".into());
        }
        if total_out != triples.len() || total_inv != triples.len() {
            return Err(format!(
                "CSR edge counts ({total_out} forward, {total_inv} inverse) \
                 do not match {} triples",
                triples.len()
            ));
        }
        let graph = Graph {
            n_entities,
            n_relations,
            triples,
            out: out
                .into_iter()
                .map(|(offsets, targets)| Csr { offsets, targets })
                .collect(),
            inv: inv
                .into_iter()
                .map(|(offsets, targets)| Csr { offsets, targets })
                .collect(),
        };
        for t in &graph.triples {
            if t.h.index() >= n_entities || t.t.index() >= n_entities {
                return Err(format!("triple {t:?} references entity out of range"));
            }
            if t.r.index() >= n_relations {
                return Err(format!("triple {t:?} references relation out of range"));
            }
            if !graph.has(t.h, t.r, t.t) {
                return Err(format!("forward CSR missing triple {t:?}"));
            }
            if graph
                .inverse_neighbors(t.t, t.r)
                .binary_search(&t.h.0)
                .is_err()
            {
                return Err(format!("inverse CSR missing triple {t:?}"));
            }
        }
        Ok(graph)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Graph {
        // 0 -r0-> 1, 0 -r0-> 2, 1 -r1-> 2, 2 -r0-> 0
        Graph::from_triples(
            3,
            2,
            vec![
                Triple::new(0, 0, 1),
                Triple::new(0, 0, 2),
                Triple::new(1, 1, 2),
                Triple::new(2, 0, 0),
            ],
        )
    }

    #[test]
    fn neighbors_sorted_and_complete() {
        let g = toy();
        assert_eq!(g.neighbors(EntityId(0), RelationId(0)), &[1, 2]);
        assert_eq!(g.neighbors(EntityId(1), RelationId(0)), &[] as &[u32]);
        assert_eq!(g.neighbors(EntityId(1), RelationId(1)), &[2]);
    }

    #[test]
    fn inverse_neighbors() {
        let g = toy();
        assert_eq!(g.inverse_neighbors(EntityId(2), RelationId(0)), &[0]);
        assert_eq!(g.inverse_neighbors(EntityId(0), RelationId(0)), &[2]);
        assert_eq!(g.inverse_neighbors(EntityId(2), RelationId(1)), &[1]);
    }

    #[test]
    fn has_and_degree() {
        let g = toy();
        assert!(g.has(EntityId(0), RelationId(0), EntityId(1)));
        assert!(!g.has(EntityId(1), RelationId(0), EntityId(0)));
        assert_eq!(g.out_degree(EntityId(0), RelationId(0)), 2);
        assert_eq!(g.degree(EntityId(2)), 3); // in: 0->2, 1->2; out: 2->0
    }

    #[test]
    fn duplicates_removed() {
        let g = Graph::from_triples(
            2,
            1,
            vec![
                Triple::new(0, 0, 1),
                Triple::new(0, 0, 1),
                Triple::new(0, 0, 1),
            ],
        );
        assert_eq!(g.n_triples(), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_entity() {
        Graph::from_triples(2, 1, vec![Triple::new(0, 0, 5)]);
    }

    #[test]
    fn induced_subgraph_keeps_internal_edges() {
        let g = toy();
        let sub = g.induced_subgraph(&[true, false, true]);
        // Only edges among {0, 2} survive.
        assert_eq!(sub.n_triples(), 2);
        assert!(sub.has(EntityId(0), RelationId(0), EntityId(2)));
        assert!(sub.has(EntityId(2), RelationId(0), EntityId(0)));
        assert!(!sub.has(EntityId(0), RelationId(0), EntityId(1)));
    }

    #[test]
    fn subgraph_relation() {
        let g = toy();
        let smaller = Graph::from_triples(3, 2, vec![Triple::new(0, 0, 1)]);
        assert!(smaller.is_subgraph_of(&g));
        assert!(!g.is_subgraph_of(&smaller));
        assert!(g.is_subgraph_of(&g));
    }

    #[test]
    fn relations_from_lists_active_only() {
        let g = toy();
        assert_eq!(g.relations_from(EntityId(1)), vec![RelationId(1)]);
        assert_eq!(g.relations_from(EntityId(0)), vec![RelationId(0)]);
    }

    #[test]
    fn empty_graph_is_fine() {
        let g = Graph::from_triples(4, 2, vec![]);
        assert_eq!(g.n_triples(), 0);
        assert_eq!(g.neighbors(EntityId(3), RelationId(1)), &[] as &[u32]);
    }

    /// Per-relation `(offsets, targets)` copies of one CSR direction.
    type CsrParts = Vec<(Vec<u32>, Vec<u32>)>;

    fn csr_parts_of(g: &Graph) -> (CsrParts, CsrParts) {
        let grab = |f: &dyn Fn(usize) -> (Vec<u32>, Vec<u32>)| {
            (0..g.n_relations()).map(f).collect::<Vec<_>>()
        };
        (
            grab(&|r| {
                let (o, t) = g.out_csr(r);
                (o.to_vec(), t.to_vec())
            }),
            grab(&|r| {
                let (o, t) = g.inv_csr(r);
                (o.to_vec(), t.to_vec())
            }),
        )
    }

    #[test]
    fn csr_parts_roundtrip_rebuilds_identical_graph() {
        let g = toy();
        let (out, inv) = csr_parts_of(&g);
        let g2 = Graph::from_csr_parts(
            g.n_entities(),
            g.n_relations(),
            g.triples().to_vec(),
            out,
            inv,
        )
        .expect("valid parts");
        assert_eq!(g.triples(), g2.triples());
        for r in 0..g.n_relations() {
            assert_eq!(g.out_csr(r), g2.out_csr(r));
            assert_eq!(g.inv_csr(r), g2.inv_csr(r));
        }
        assert!(g2.has(EntityId(0), RelationId(0), EntityId(1)));
    }

    #[test]
    fn csr_parts_reject_inconsistent_indexes() {
        let g = toy();
        let (out, inv) = csr_parts_of(&g);

        // A target edited to a different entity: counts still match, but
        // the triple membership check catches the drift.
        let mut bad = out.clone();
        bad[0].1[0] = 0;
        let err = Graph::from_csr_parts(
            g.n_entities(),
            g.n_relations(),
            g.triples().to_vec(),
            bad,
            inv.clone(),
        )
        .unwrap_err();
        assert!(
            err.contains("missing triple") || err.contains("sorted"),
            "{err}"
        );

        // An out-of-range target.
        let mut oob = out.clone();
        oob[0].1[0] = 99;
        let err = Graph::from_csr_parts(
            g.n_entities(),
            g.n_relations(),
            g.triples().to_vec(),
            oob,
            inv.clone(),
        )
        .unwrap_err();
        assert!(err.contains("out of range"), "{err}");

        // Broken offset framing.
        let mut off = out.clone();
        *off[0].0.last_mut().unwrap() += 1;
        let err = Graph::from_csr_parts(
            g.n_entities(),
            g.n_relations(),
            g.triples().to_vec(),
            off,
            inv.clone(),
        )
        .unwrap_err();
        assert!(err.contains("offset"), "{err}");

        // An unsorted triple list.
        let mut tri = g.triples().to_vec();
        tri.swap(0, 1);
        let err =
            Graph::from_csr_parts(g.n_entities(), g.n_relations(), tri, out, inv).unwrap_err();
        assert!(err.contains("sorted"), "{err}");
    }
}
