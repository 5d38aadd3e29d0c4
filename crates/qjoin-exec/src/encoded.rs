//! Encoded join-tree execution: semi-join reduction, counting, and enumeration over
//! dictionary codes.
//!
//! This is the encoded-path counterpart of [`JoinTreeContext`](crate::JoinTreeContext),
//! [`count`](crate::count), and [`yannakakis`](crate::yannakakis): the same
//! preprocessing (materialize per join-tree node, full reducer, join-group indexes)
//! and the same algorithms, but every join key is a small array of `u64` codes
//! ([`Key`]) read straight out of shared columns through selection vectors — no
//! [`Value`](qjoin_data::Value) hashing, no per-key `Tuple::project` allocation.
//!
//! # One probe per edge
//!
//! [`EncodedContext::build`] resolves every join-tree edge **once** and keeps the
//! result as arrays. Bottom-up, a child's rows are interned `key → gid` (a dense
//! `u32`, numbered by first occurrence in row order: one hash insert per child
//! row) and every parent row probes once, storing the gid it joins in
//! `child_links[slot][row]`; a miss is the bottom-up semi-join. Top-down, a
//! `live[gid]` pass over those links drops the child groups no surviving parent
//! row reaches and renumbers the rest densely — no hashing. The adjacency index
//! is a CSR (`group_offsets` / `group_members`, members ascending) built by a
//! counting sort. After the build nothing constructs or hashes a [`Key`] again:
//! counting, the pivot scan, enumeration and direct access read
//! [`link`](EncodedContext::link) and [`group`](EncodedContext::group).
//! Enumeration is one kernel ([`walk_answer_chunks`]): each level's links, groups,
//! rows and copy list are resolved once per walk, a mask limits the slots copied,
//! and a walk can be confined to listed root rows.
//!
//! Invariants the equivalence suites pin: `rows` stay in view order, group members
//! ascend, the survivor set is the full reducer's, and gid numbering — though
//! deterministic at any thread count (interning is sequential) — is never
//! observable: gids only ever connect a parent row to its child group, and no
//! output is emitted in gid order.
//!
//! Because the dictionary assigns codes in value order (and synthesized columns use
//! order-compatible code spaces), every answer, count, and group computed here equals
//! the row path's result exactly; the cross-crate equivalence suite asserts this.

use crate::{ExecError, Result};
use qjoin_query::{acyclicity, EncodedInstance, JoinQuery, JoinTree, Variable};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// A join key: the codes of the variables shared with the parent node, in sorted
/// variable order. Keys of up to three components are inline (after a two-pass
/// LEX/MIN/MAX trim every atom carries two partition tags, so every join key is
/// three wide); larger keys box a slice. Keys are only ever compared within one
/// arity.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Key {
    /// The empty key (root nodes, cartesian products).
    Unit,
    /// A single-variable key.
    One(u64),
    /// A two-variable key.
    Two(u64, u64),
    /// A three-variable key.
    Three(u64, u64, u64),
    /// Four or more components.
    Many(Box<[u64]>),
}

impl Key {
    /// Builds a key from its components.
    pub fn from_codes(codes: &[u64]) -> Key {
        match codes {
            [] => Key::Unit,
            [a] => Key::One(*a),
            [a, b] => Key::Two(*a, *b),
            [a, b, c] => Key::Three(*a, *b, *c),
            more => Key::Many(more.into()),
        }
    }
}

/// A fast, deterministic hasher for dictionary-code join keys (the classic
/// multiply-rotate "Fx" scheme). The context build hashes a key per row and join
/// edge — millions per solve at benchmark scale — and SipHash's keyed security
/// buys nothing here: key maps are probed and interned in canonical row order,
/// never iterated in hash order, so an unkeyed multiplicative hash changes
/// nothing observable.
#[derive(Clone, Default)]
pub struct KeyHasher(u64);

impl KeyHasher {
    #[inline]
    fn add(&mut self, v: u64) {
        const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(SEED);
    }
}

impl std::hash::Hasher for KeyHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }
    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(u64::from(v));
    }
    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(u64::from(v));
    }
    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }
    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

/// A join-key map with the [`KeyHasher`].
pub type KeyMap<V> = HashMap<Key, V, std::hash::BuildHasherDefault<KeyHasher>>;

/// Per-node state of an [`EncodedContext`].
#[derive(Clone, Debug)]
pub struct EncodedNode {
    /// The join-tree node id this data belongs to.
    pub node_id: usize,
    /// Index of the query atom materialized at this node.
    pub atom_index: usize,
    /// Surviving `(segment, row)` coordinates into the node's relation view, in view
    /// order, after the consistency filter and the full reducer.
    pub rows: Vec<(u32, u32)>,
    /// Positions of the variables shared with the parent within this node's atom
    /// (sorted variable order; empty for the root).
    pub own_key_positions: Vec<usize>,
    /// Positions of the same variables within the parent node's atom.
    pub parent_key_positions: Vec<usize>,
    /// This node's index among its parent's children (0 for the root).
    slot: usize,
    /// One column per child, in the tree's child order: `child_links[slot][i]` is
    /// the gid of the child group joining row `i`.
    child_links: Vec<Vec<u32>>,
    /// CSR adjacency towards the parent: group `g` holds the rows
    /// `group_members[group_offsets[g]..group_offsets[g + 1]]`, ascending. Empty
    /// for the root.
    group_offsets: Vec<u32>,
    group_members: Vec<u32>,
}

/// A rooted join tree with, per node, the semi-join reduced row set of an encoded
/// relation view, the resolved links to its children's join groups, and its own
/// join groups as a CSR index (see the module docs).
#[derive(Clone, Debug)]
pub struct EncodedContext {
    query: JoinQuery,
    tree: JoinTree,
    nodes: Vec<EncodedNode>,
    rels: Vec<qjoin_data::EncodedRelation>,
    /// `|Q(D)|`, once some caller has counted (see [`count_answers_ctx`]).
    total: OnceLock<u128>,
}

impl EncodedContext {
    /// Builds a context for an acyclic encoded instance using its GYO join tree.
    pub fn build(instance: &EncodedInstance) -> Result<Self> {
        let tree = acyclicity::gyo_join_tree(instance.query())
            .ok_or_else(|| ExecError::CyclicQuery(instance.query().to_string()))?;
        Self::build_with_tree(instance, tree)
    }

    /// Builds a context using the provided join tree of the instance's query.
    pub fn build_with_tree(instance: &EncodedInstance, tree: JoinTree) -> Result<Self> {
        let query = instance.query().clone();
        debug_assert!(tree.satisfies_running_intersection(&query));

        let mut nodes: Vec<EncodedNode> = Vec::with_capacity(tree.num_nodes());
        let mut rels: Vec<qjoin_data::EncodedRelation> = Vec::with_capacity(tree.num_nodes());
        for node_id in 0..tree.num_nodes() {
            let atom_index = tree.node(node_id).atom_index;
            let atom = query.atom(atom_index);
            let rel = instance.relation_of_atom(atom_index).clone();

            // Repeated variables in the atom (e.g. R(x, x)) constrain matching rows.
            let repeated: Vec<Vec<usize>> = atom
                .distinct_variable_positions()
                .into_iter()
                .map(|(v, _)| atom.positions_of(&v))
                .filter(|p| p.len() > 1)
                .collect();
            let rows = consistent_coords(&rel, &repeated);

            let shared: Vec<Variable> = tree
                .shared_with_parent(&query, node_id)
                .into_iter()
                .collect();
            let own_key_positions: Vec<usize> =
                shared.iter().map(|v| atom.positions_of(v)[0]).collect();
            let (slot, parent_key_positions) = match tree.node(node_id).parent {
                None => (0, Vec::new()),
                Some(p) => {
                    let parent_atom = query.atom(tree.node(p).atom_index);
                    let siblings = &tree.node(p).children;
                    (
                        siblings
                            .iter()
                            .position(|&c| c == node_id)
                            .expect("a node is among its parent's children"),
                        shared
                            .iter()
                            .map(|v| parent_atom.positions_of(v)[0])
                            .collect(),
                    )
                }
            };

            nodes.push(EncodedNode {
                node_id,
                atom_index,
                rows,
                own_key_positions,
                parent_key_positions,
                slot,
                child_links: Vec::new(),
                group_offsets: Vec::new(),
                group_members: Vec::new(),
            });
            rels.push(rel);
        }

        let mut ctx = EncodedContext {
            query,
            tree,
            nodes,
            rels,
            total: OnceLock::new(),
        };

        // Bottom-up semi-joins, resolving each edge as they go. A child is interned
        // after its own reduction (sequentially, so gids number its keys by first
        // occurrence whatever the thread count); its parent's rows then probe all
        // their children in one chunked pass. Survivors and their links concatenate
        // in canonical chunk order, so the reduced row sets match a sequential pass.
        let mut row_gids: Vec<Vec<u32>> = vec![Vec::new(); ctx.nodes.len()];
        let mut n_groups: Vec<usize> = vec![0; ctx.nodes.len()];
        for &node_id in &ctx.tree.bottom_up_order() {
            let children = ctx.tree.node(node_id).children.clone();
            if children.is_empty() {
                continue;
            }
            let mut interned: Vec<KeyMap<u32>> = Vec::with_capacity(children.len());
            for &child in &children {
                let positions = &ctx.nodes[child].own_key_positions;
                let mut gids: KeyMap<u32> = KeyMap::default();
                row_gids[child] = (0..ctx.nodes[child].rows.len())
                    .map(|i| {
                        let next = gids.len() as u32;
                        *gids
                            .entry(ctx.key_from_positions(child, i, positions))
                            .or_insert(next)
                    })
                    .collect();
                n_groups[child] = gids.len();
                interned.push(gids);
            }
            let rows = &ctx.nodes[node_id].rows;
            let parts =
                qjoin_par::par_map_chunks(rows.len(), qjoin_par::DEFAULT_CHUNK, |_, range| {
                    let mut kept = Vec::with_capacity(range.len());
                    let mut links = vec![Vec::with_capacity(range.len()); children.len()];
                    let mut found = vec![0u32; children.len()];
                    'rows: for i in range {
                        for (slot, &child) in children.iter().enumerate() {
                            let positions = &ctx.nodes[child].parent_key_positions;
                            let key = ctx.key_from_positions(node_id, i, positions);
                            match interned[slot].get(&key) {
                                Some(&gid) => found[slot] = gid,
                                None => continue 'rows,
                            }
                        }
                        kept.push(rows[i]);
                        for (column, &gid) in links.iter_mut().zip(&found) {
                            column.push(gid);
                        }
                    }
                    (kept, links)
                });
            let mut kept = Vec::with_capacity(rows.len());
            let mut links = vec![Vec::with_capacity(rows.len()); children.len()];
            for (part_rows, part_links) in parts {
                kept.extend(part_rows);
                for (column, part) in links.iter_mut().zip(part_links) {
                    column.extend(part);
                }
            }
            ctx.nodes[node_id].rows = kept;
            ctx.nodes[node_id].child_links = links;
        }

        // Top-down semi-joins over the resolved links: a child group survives iff a
        // surviving parent row links to it. Dead groups take their rows with them,
        // live ones are renumbered densely in gid order, and the child's final rows
        // are bucketed by gid (a counting sort, so members stay ascending).
        for &node_id in &ctx.tree.top_down_order() {
            for (slot, &child) in ctx.tree.node(node_id).children.iter().enumerate() {
                let mut links = std::mem::take(&mut ctx.nodes[node_id].child_links[slot]);
                let mut live = vec![false; n_groups[child]];
                for &gid in &links {
                    live[gid as usize] = true;
                }
                let mut n_live = 0u32;
                let remap: Vec<u32> = live
                    .iter()
                    .map(|&alive| {
                        let dense = n_live;
                        n_live += u32::from(alive);
                        dense
                    })
                    .collect();
                let mut gids = std::mem::take(&mut row_gids[child]);
                if (n_live as usize) < live.len() {
                    for gid in &mut links {
                        *gid = remap[*gid as usize];
                    }
                    let keep: Vec<bool> = gids.iter().map(|&g| live[g as usize]).collect();
                    let node = &mut ctx.nodes[child];
                    retain_by(&mut node.rows, &keep);
                    for column in &mut node.child_links {
                        retain_by(column, &keep);
                    }
                    retain_by(&mut gids, &keep);
                    for gid in &mut gids {
                        *gid = remap[*gid as usize];
                    }
                }
                ctx.nodes[node_id].child_links[slot] = links;

                let (offsets, members) = bucket_by_gid(&gids, n_live as usize);
                ctx.nodes[child].group_offsets = offsets;
                ctx.nodes[child].group_members = members;
            }
        }

        Ok(ctx)
    }

    /// The query this context evaluates.
    pub fn query(&self) -> &JoinQuery {
        &self.query
    }

    /// The join tree.
    pub fn tree(&self) -> &JoinTree {
        &self.tree
    }

    /// The root node id.
    pub fn root(&self) -> usize {
        self.tree.root()
    }

    /// Per-node data, indexed by node id.
    pub fn nodes(&self) -> &[EncodedNode] {
        &self.nodes
    }

    /// Data of one node.
    pub fn node(&self, id: usize) -> &EncodedNode {
        &self.nodes[id]
    }

    /// The code of column `col` of row `i` (an index into the node's surviving rows).
    #[inline]
    pub fn code(&self, node: usize, i: usize, col: usize) -> u64 {
        let (seg, row) = self.nodes[node].rows[i];
        self.rels[node].code(seg as usize, row as usize, col)
    }

    fn key_from_positions(&self, node: usize, i: usize, positions: &[usize]) -> Key {
        match positions {
            [] => Key::Unit,
            [a] => Key::One(self.code(node, i, *a)),
            [a, b] => Key::Two(self.code(node, i, *a), self.code(node, i, *b)),
            [a, b, c] => Key::Three(
                self.code(node, i, *a),
                self.code(node, i, *b),
                self.code(node, i, *c),
            ),
            more => Key::Many(more.iter().map(|&p| self.code(node, i, p)).collect()),
        }
    }

    /// True if the query has no answers (some node lost all rows during reduction).
    pub fn has_no_answers(&self) -> bool {
        self.nodes.iter().any(|n| n.rows.is_empty())
    }

    /// The resolved edge towards the non-root node `child`: one gid per surviving
    /// row of its parent, naming the [`group`](Self::group) of `child` that row
    /// joins (the full reducer guarantees there is one).
    pub fn links(&self, child: usize) -> &[u32] {
        let parent = self
            .tree
            .node(child)
            .parent
            .expect("links need a non-root child");
        &self.nodes[parent].child_links[self.nodes[child].slot]
    }

    /// The gid of the group of `child` that row `parent_i` of its parent joins.
    #[inline]
    pub fn link(&self, child: usize, parent_i: usize) -> u32 {
        self.links(child)[parent_i]
    }

    /// The number of join groups of a non-root node (gids are `0..num_groups`).
    pub fn num_groups(&self, node: usize) -> usize {
        self.nodes[node].group_offsets.len().saturating_sub(1)
    }

    /// Where group `gid` of `node` lies within the node's member array.
    #[inline]
    pub fn group_range(&self, node: usize, gid: u32) -> std::ops::Range<usize> {
        let offsets = &self.nodes[node].group_offsets;
        offsets[gid as usize] as usize..offsets[gid as usize + 1] as usize
    }

    /// The indices (into `node`'s rows, ascending) of join group `gid`.
    #[inline]
    pub fn group(&self, node: usize, gid: u32) -> &[u32] {
        &self.nodes[node].group_members[self.group_range(node, gid)]
    }

    /// Total surviving rows across all nodes.
    pub fn total_rows(&self) -> usize {
        self.nodes.iter().map(|n| n.rows.len()).sum()
    }
}

/// Buckets row indices by gid with a counting sort: the CSR `(offsets, members)`
/// in which group `g` is `members[offsets[g]..offsets[g + 1]]`, ascending.
fn bucket_by_gid(gids: &[u32], n_groups: usize) -> (Vec<u32>, Vec<u32>) {
    let mut offsets = vec![0u32; n_groups + 1];
    for &gid in gids {
        offsets[gid as usize + 1] += 1;
    }
    for g in 0..n_groups {
        offsets[g + 1] += offsets[g];
    }
    let mut cursor = offsets.clone();
    let mut members = vec![0u32; gids.len()];
    for (i, &gid) in gids.iter().enumerate() {
        members[cursor[gid as usize] as usize] = i as u32;
        cursor[gid as usize] += 1;
    }
    (offsets, members)
}

/// Keeps the elements whose index is marked in `keep`, in order.
fn retain_by<T>(items: &mut Vec<T>, keep: &[bool]) {
    let mut marks = keep.iter();
    items.retain(|_| *marks.next().expect("one mark per element"));
}

/// Scans a relation view in fixed-size chunks over the executor pool and
/// returns the `(segment, row)` coordinates whose repeated-variable positions
/// agree, in view order (partials concatenate in canonical chunk order).
fn consistent_coords(
    rel: &qjoin_data::EncodedRelation,
    repeated: &[Vec<usize>],
) -> Vec<(u32, u32)> {
    // Prefix offsets turn a global row index into (segment, row) coordinates.
    let mut offsets: Vec<usize> = Vec::with_capacity(rel.segments().len() + 1);
    let mut total = 0usize;
    offsets.push(0);
    for seg in rel.segments() {
        total += seg.len();
        offsets.push(total);
    }
    let parts: Vec<Vec<(u32, u32)>> =
        qjoin_par::par_map_chunks(total, qjoin_par::DEFAULT_CHUNK, |_, range| {
            let mut out = Vec::with_capacity(range.len());
            let mut seg = offsets.partition_point(|&o| o <= range.start) - 1;
            for idx in range {
                while idx >= offsets[seg + 1] {
                    seg += 1;
                }
                let row = idx - offsets[seg];
                let consistent = repeated.iter().all(|positions| {
                    let first = rel.code(seg, row, positions[0]);
                    positions[1..]
                        .iter()
                        .all(|&p| rel.code(seg, row, p) == first)
                });
                if consistent {
                    out.push((seg as u32, row as u32));
                }
            }
            out
        });
    let mut rows = Vec::with_capacity(total);
    for part in parts {
        rows.extend(part);
    }
    rows
}

/// Per-tuple subtree answer counts of an encoded context, plus the per-group
/// aggregated messages (the encoded analogue of
/// [`count::subtree_counts`](crate::count::subtree_counts)).
#[derive(Clone, Debug)]
pub struct EncodedCounts {
    /// `per_tuple[node][i]` is the number of partial answers of the subtree rooted
    /// at row `i` of `node`.
    pub per_tuple: Vec<Vec<u128>>,
    /// `per_group[node][gid]` is the summed count of join group `gid` of `node`.
    pub per_group: Vec<Vec<u128>>,
}

/// Computes per-row subtree counts bottom-up (Example 2.1 of the paper).
pub fn subtree_counts(ctx: &EncodedContext) -> EncodedCounts {
    let n_nodes = ctx.nodes().len();
    let mut per_tuple: Vec<Vec<u128>> = vec![Vec::new(); n_nodes];
    let mut per_group: Vec<Vec<u128>> = vec![Vec::new(); n_nodes];

    for &node_id in &ctx.tree().bottom_up_order() {
        let n_rows = ctx.node(node_id).rows.len();
        let child_msgs: Vec<(&[u32], &[u128])> = ctx
            .tree()
            .node(node_id)
            .children
            .iter()
            .map(|&child| (ctx.links(child), per_group[child].as_slice()))
            .collect();
        // Rows of one node are independent: chunk the per-row child-message
        // products over the executor pool. Concatenating the chunk partials in
        // canonical order reproduces the sequential per-tuple vector exactly
        // (the per-row products themselves are exact u128 arithmetic).
        let values: Vec<u128> =
            qjoin_par::par_map_chunks(n_rows, qjoin_par::DEFAULT_CHUNK, |_, range| {
                range
                    .map(|i| {
                        child_msgs.iter().fold(1u128, |val, (links, msgs)| {
                            val.checked_mul(msgs[links[i] as usize])
                                .expect("answer count overflowed u128")
                        })
                    })
                    .collect::<Vec<u128>>()
            })
            .concat();

        if node_id != ctx.root() {
            // Group sums are independent too; each sum folds its members in
            // ascending row order (exact integer arithmetic), so the aggregated
            // messages are identical at any thread count.
            let n_groups = ctx.num_groups(node_id);
            per_group[node_id] =
                qjoin_par::par_map_chunks(n_groups, qjoin_par::DEFAULT_CHUNK, |_, range| {
                    range
                        .map(|g| {
                            let members = ctx.group(node_id, g as u32);
                            members.iter().map(|&i| values[i as usize]).sum()
                        })
                        .collect::<Vec<u128>>()
                })
                .concat();
        }
        per_tuple[node_id] = values;
    }

    EncodedCounts {
        per_tuple,
        per_group,
    }
}

/// The number of answers `|Q(D)|` of the context's instance. The first call runs
/// the counting pass and leaves the total with the context (16 bytes, not the
/// per-row arrays: a plan's context lives as long as its generation), so the
/// engine's compile and every solve's `prepare` on the same context count once.
/// The pass runs *outside* the cell and is stored first-wins — it fans out over
/// the executor pool, and a thread waiting on a pool region can be handed work
/// that asks for the same total, which would re-enter a running `get_or_init`.
pub fn count_answers_ctx(ctx: &EncodedContext) -> u128 {
    if ctx.has_no_answers() {
        return 0;
    }
    if let Some(&total) = ctx.total.get() {
        return total;
    }
    let total = subtree_counts(ctx).per_tuple[ctx.root()].iter().sum();
    let _ = ctx.total.set(total);
    total
}

/// The number of answers `|Q(D)|` of an acyclic encoded instance, in linear time.
pub fn count_answers(instance: &EncodedInstance) -> Result<u128> {
    let ctx = shared_context(instance)?;
    Ok(count_answers_ctx(&ctx))
}

/// The instance's default-tree [`EncodedContext`], built at most once per instance:
/// the first caller builds (GYO tree, semi-join reduction, edge links, group indexes) and parks
/// the result in the instance's [exec memo](EncodedInstance::exec_memo); later
/// callers — count, pivot scan, leaf materialization and direct access over the
/// same instance — reuse it.
/// Clones share the memo, so the quantile driver's `instance.clone()` at the leaf
/// still hits the cache. Callers that need a *custom* join tree must use
/// [`EncodedContext::build_with_tree`] directly and bypass the memo.
pub fn shared_context(instance: &EncodedInstance) -> Result<Arc<EncodedContext>> {
    if let Some(ctx) = instance.exec_memo().get::<EncodedContext>() {
        return Ok(ctx);
    }
    let ctx = Arc::new(EncodedContext::build(instance)?);
    instance.exec_memo().set(Arc::clone(&ctx));
    Ok(ctx)
}

/// One join-tree node of an [`AnswerWalk`], in top-down order, with everything
/// the walk reads per step resolved once.
struct WalkLevel<'a> {
    /// Walk depth of the parent node (unused at the root).
    parent: usize,
    /// Parent row → gid, and this node's groups as a CSR (all empty at the root).
    links: &'a [u32],
    group_offsets: &'a [u32],
    group_members: &'a [u32],
    rows: &'a [(u32, u32)],
    rel: &'a qjoin_data::EncodedRelation,
    /// `(atom column, answer slot)` of each needed variable this node binds first
    /// (one an ancestor bound already holds the same code: it is in the join key).
    copy: Vec<(usize, usize)>,
}

/// The answer-walk kernel behind every enumeration: a depth-first walk of the
/// join tree that fills an answer row laid out like `ctx.query().variables()`.
struct AnswerWalk<'a> {
    levels: Vec<WalkLevel<'a>>,
    n_vars: usize,
}

impl<'a> AnswerWalk<'a> {
    /// Resolves the walk of `ctx`. Only the slots `needed` marks are filled (all of
    /// them when `None`); the others hold `u64::MAX`, which is no code.
    fn new(ctx: &'a EncodedContext, needed: Option<&[bool]>) -> Self {
        let variables = ctx.query().variables();
        let order = ctx.tree().top_down_order();
        let mut bound = vec![false; variables.len()];
        let levels = order
            .iter()
            .map(|&id| {
                let node = &ctx.nodes[id];
                let parent = ctx.tree().node(id).parent;
                let copy = (ctx.query().atom(node.atom_index))
                    .distinct_variable_positions()
                    .into_iter()
                    .filter_map(|(v, col)| {
                        let slot = variables.iter().position(|s| *s == v)?;
                        let wanted = needed.is_none_or(|mask| mask[slot]);
                        (wanted && !std::mem::replace(&mut bound[slot], true))
                            .then_some((col, slot))
                    })
                    .collect();
                WalkLevel {
                    parent: parent.map_or(0, |p| {
                        (order.iter().position(|&o| o == p)).expect("a parent precedes its child")
                    }),
                    links: parent.map_or(&[], |_| ctx.links(id)),
                    group_offsets: &node.group_offsets,
                    group_members: &node.group_members,
                    rows: &node.rows,
                    rel: &ctx.rels[id],
                    copy,
                }
            })
            .collect();
        AnswerWalk {
            levels,
            n_vars: variables.len(),
        }
    }

    /// Fresh per-walker state: the selected row per level and the answer row.
    fn scratch(&self) -> (Vec<usize>, Vec<u64>) {
        (vec![0; self.levels.len()], vec![u64::MAX; self.n_vars])
    }

    /// Binds row `i` of the node at `depth`, then calls `f` once per answer of the
    /// subtree walk below it (so `visit(0, r, ..)` yields the answers of root row `r`).
    fn visit(
        &self,
        depth: usize,
        i: usize,
        selected: &mut [usize],
        row: &mut [u64],
        f: &mut impl FnMut(&[u64]),
    ) {
        let level = &self.levels[depth];
        selected[depth] = i;
        let (seg, r) = level.rows[i];
        for &(col, slot) in &level.copy {
            row[slot] = level.rel.code(seg as usize, r as usize, col);
        }
        let Some(next) = self.levels.get(depth + 1) else {
            return f(row);
        };
        let gid = next.links[selected[next.parent]] as usize;
        let members = next.group_offsets[gid] as usize..next.group_offsets[gid + 1] as usize;
        for &j in &next.group_members[members] {
            self.visit(depth + 1, j as usize, selected, row, f);
        }
    }
}

/// Calls `f` once per query answer with the answer's codes laid out according to
/// `ctx.query().variables()` (the same schema order as the row path's
/// [`yannakakis::for_each_answer`](crate::yannakakis::for_each_answer)).
pub fn for_each_answer_codes(ctx: &EncodedContext, mut f: impl FnMut(&[u64])) {
    if ctx.has_no_answers() {
        return;
    }
    let walk = AnswerWalk::new(ctx, None);
    let (mut selected, mut row) = walk.scratch();
    for root in 0..walk.levels[0].rows.len() {
        walk.visit(0, root, &mut selected, &mut row, &mut f);
    }
}

/// Chunked answer enumeration, the general form: the root rows — all of them, or
/// `only` the listed ones (indices into the root node's rows, walked in the order
/// given) — are split into `chunk`-sized ranges over the executor pool; each range
/// gets a fresh accumulator from `make` and `per_answer` sees every answer rooted
/// in the range as `(accumulator, root row, codes)`, where `codes` holds the slots
/// `needed` marks (every slot when `None`) and `u64::MAX` elsewhere. The
/// accumulators come back in canonical chunk order, so concatenating them yields
/// the answer sequence of [`for_each_answer_codes`] restricted to those root rows
/// — determinism comes from chunk order, not from how chunks land on threads.
pub fn walk_answer_chunks<T: Send>(
    ctx: &EncodedContext,
    needed: Option<&[bool]>,
    only: Option<&[u32]>,
    chunk: usize,
    make: impl Fn() -> T + Sync,
    per_answer: impl Fn(&mut T, usize, &[u64]) + Sync,
) -> Vec<T> {
    if ctx.has_no_answers() {
        return Vec::new();
    }
    let walk = AnswerWalk::new(ctx, needed);
    let n_roots = only.map_or(walk.levels[0].rows.len(), <[u32]>::len);
    qjoin_par::par_map_chunks(n_roots, chunk, |_, range| {
        let mut acc = make();
        let (mut selected, mut row) = walk.scratch();
        for at in range {
            let root = only.map_or(at, |roots| roots[at] as usize);
            let mut emit = |codes: &[u64]| per_answer(&mut acc, root, codes);
            walk.visit(0, root, &mut selected, &mut row, &mut emit);
        }
        acc
    })
}

/// [`walk_answer_chunks`] over every root row and every slot.
pub fn map_answer_code_chunks<T: Send>(
    ctx: &EncodedContext,
    chunk: usize,
    make: impl Fn() -> T + Sync,
    per_answer: impl Fn(&mut T, &[u64]) + Sync,
) -> Vec<T> {
    walk_answer_chunks(ctx, None, None, chunk, make, |acc, _, codes| {
        per_answer(acc, codes)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{count, yannakakis, DirectAccess, EncodedDirectAccess, JoinTreeContext};
    use qjoin_data::{Database, Relation, Value};
    use qjoin_query::query::{figure1_query, path_query};
    use qjoin_query::{Atom, Instance};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn figure1_instance() -> Instance {
        let r = Relation::from_rows("R", &[&[1, 1], &[2, 2]]).unwrap();
        let s = Relation::from_rows("S", &[&[1, 3], &[1, 4], &[1, 5], &[2, 3], &[2, 4]]).unwrap();
        let t = Relation::from_rows("T", &[&[1, 6], &[1, 7], &[2, 6]]).unwrap();
        let u = Relation::from_rows("U", &[&[6, 8], &[6, 9], &[7, 9]]).unwrap();
        Instance::new(
            figure1_query(),
            Database::from_relations([r, s, t, u]).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn encoded_count_matches_row_count() {
        let inst = figure1_instance();
        let enc = EncodedInstance::from_instance(&inst).unwrap();
        assert_eq!(
            count_answers(&enc).unwrap(),
            count::count_answers(&inst).unwrap()
        );
    }

    #[test]
    fn full_reducer_drops_the_same_rows() {
        let r1 = Relation::from_rows("R1", &[&[1, 1], &[2, 99]]).unwrap();
        let r2 = Relation::from_rows("R2", &[&[1, 10], &[98, 20]]).unwrap();
        let inst =
            Instance::new(path_query(2), Database::from_relations([r1, r2]).unwrap()).unwrap();
        let enc = EncodedInstance::from_instance(&inst).unwrap();
        let ctx = EncodedContext::build(&enc).unwrap();
        assert_eq!(ctx.total_rows(), 2);
        assert!(!ctx.has_no_answers());
    }

    #[test]
    fn emptiness_propagates() {
        let r1 = Relation::from_rows("R1", &[&[1, 1]]).unwrap();
        let r2 = Relation::from_rows("R2", &[&[2, 5]]).unwrap();
        let inst =
            Instance::new(path_query(2), Database::from_relations([r1, r2]).unwrap()).unwrap();
        let enc = EncodedInstance::from_instance(&inst).unwrap();
        assert!(EncodedContext::build(&enc).unwrap().has_no_answers());
        assert_eq!(count_answers(&enc).unwrap(), 0);
    }

    #[test]
    fn enumeration_decodes_to_the_row_answers() {
        let inst = figure1_instance();
        let enc = EncodedInstance::from_instance(&inst).unwrap();
        let ctx = EncodedContext::build(&enc).unwrap();
        let dict = enc.dictionary();
        let mut decoded: Vec<Vec<qjoin_data::Value>> = Vec::new();
        for_each_answer_codes(&ctx, |codes| {
            decoded.push(codes.iter().map(|&c| dict.decode(c).clone()).collect());
        });
        let row_answers = yannakakis::materialize(&inst).unwrap();
        let mut expected: Vec<Vec<qjoin_data::Value>> = row_answers.rows().to_vec();
        decoded.sort();
        expected.sort();
        assert_eq!(decoded, expected);
    }

    #[test]
    fn repeated_variable_atoms_filter_by_code_equality() {
        let r = Relation::from_rows("R", &[&[1, 1], &[1, 2], &[3, 3]]).unwrap();
        let q = qjoin_query::JoinQuery::new(vec![qjoin_query::Atom::from_names("R", &["x", "x"])]);
        let inst = Instance::new(q, Database::from_relations([r]).unwrap()).unwrap();
        let enc = EncodedInstance::from_instance(&inst).unwrap();
        let ctx = EncodedContext::build(&enc).unwrap();
        assert_eq!(ctx.node(0).rows.len(), 2);
    }

    #[test]
    fn cyclic_queries_are_rejected() {
        let mut db = Database::new();
        for name in ["R", "S", "T"] {
            db.add_relation(Relation::from_rows(name, &[&[1, 1]]).unwrap())
                .unwrap();
        }
        let inst = Instance::new(qjoin_query::query::triangle_query(), db).unwrap();
        let enc = EncodedInstance::from_instance(&inst).unwrap();
        assert!(matches!(
            EncodedContext::build(&enc).unwrap_err(),
            ExecError::CyclicQuery(_)
        ));
    }

    /// A random acyclic instance. Atom `k > 0` shares one to four variables with a
    /// random earlier atom (so join keys are 1–4 wide and the shapes include paths
    /// and stars) and adds fresh ones; a quarter of the atoms repeat a variable and
    /// a quarter re-read an earlier atom's relation (a self-join). Values come from
    /// a two- or three-value domain, so every edge has matching tuples and dangling
    /// ones on both sides, and some joins are empty.
    fn random_acyclic_instance(rng: &mut StdRng) -> Instance {
        let mut fresh = 0usize;
        let mut fresh_var = || {
            fresh += 1;
            Variable::new(format!("v{fresh}"))
        };
        let mut atoms: Vec<Atom> = Vec::new();
        let mut db = Database::new();
        for k in 0..rng.random_range(1..=4usize) {
            let mut variables: Vec<Variable> = Vec::new();
            if k > 0 {
                let parent = &atoms[rng.random_range(0..k)];
                let candidates: Vec<Variable> = parent.variable_set().into_iter().collect();
                let widest = candidates.len().min(4);
                let width = if rng.random_bool(0.3) {
                    widest
                } else {
                    rng.random_range(1..=widest)
                };
                let skip = rng.random_range(0..=candidates.len() - width);
                variables.extend(candidates[skip..skip + width].iter().cloned());
            }
            let n_fresh = if k == 0 {
                rng.random_range(1..=4)
            } else {
                rng.random_range(0..=2)
            };
            variables.extend((0..n_fresh).map(|_| fresh_var()));
            if rng.random_bool(0.25) {
                variables.push(variables[rng.random_range(0..variables.len())].clone());
            }
            let reused = atoms
                .iter()
                .find(|a| a.arity() == variables.len() && rng.random_bool(0.25));
            let name = match reused {
                Some(earlier) => earlier.relation().to_string(),
                None => {
                    let name = format!("R{k}");
                    let mut rel = Relation::new(name.as_str(), variables.len());
                    let domain = if variables.len() > 2 { 2 } else { 3 };
                    for _ in 0..rng.random_range(0..=14usize) {
                        let row = (0..variables.len())
                            .map(|_| Value::from(rng.random_range(0..domain)))
                            .collect();
                        rel.push(row).unwrap();
                    }
                    db.add_relation(rel).unwrap();
                    name
                }
            };
            atoms.push(Atom::new(name, variables));
        }
        Instance::new(JoinQuery::new(atoms), db).unwrap()
    }

    /// Everything the encoded context computes, against the row path's
    /// [`JoinTreeContext`] on the same instance and against brute force.
    fn assert_context_matches_row_path(inst: &Instance, enc: &EncodedInstance, context: &str) {
        let row_ctx = JoinTreeContext::build(inst).unwrap();
        let ctx = EncodedContext::build(enc).unwrap();
        let dict = enc.dictionary();
        assert_eq!(ctx.has_no_answers(), row_ctx.has_no_answers(), "{context}");

        for (node, row_node) in ctx.nodes().iter().zip(row_ctx.nodes()) {
            let id = node.node_id;
            // Survivors: the row path's, in the same (relation) order.
            let arity = ctx.query().atom(node.atom_index).arity();
            let decoded: Vec<Vec<Value>> = (0..node.rows.len())
                .map(|i| {
                    (0..arity)
                        .map(|col| dict.decode(ctx.code(id, i, col)).clone())
                        .collect()
                })
                .collect();
            let expected: Vec<Vec<Value>> = row_node
                .tuples
                .iter()
                .map(|t| t.values().to_vec())
                .collect();
            assert_eq!(decoded, expected, "{context}: survivors of node {id}");

            // Adjacency: a parent row's group is exactly the child rows sharing
            // its join key, ascending; every group is reached and none is empty.
            let Some(parent) = ctx.tree().node(id).parent else {
                assert_eq!(ctx.num_groups(id), 0, "{context}: the root has no groups");
                continue;
            };
            let mut reached = vec![false; ctx.num_groups(id)];
            for i in 0..ctx.node(parent).rows.len() {
                let key: Vec<u64> = node
                    .parent_key_positions
                    .iter()
                    .map(|&p| ctx.code(parent, i, p))
                    .collect();
                let brute: Vec<u32> = (0..node.rows.len() as u32)
                    .filter(|&j| {
                        let own = node.own_key_positions.iter();
                        own.map(|&p| ctx.code(id, j as usize, p))
                            .eq(key.iter().copied())
                    })
                    .collect();
                assert!(!brute.is_empty(), "{context}: node {id} row {i} dangles");
                assert_eq!(
                    ctx.group(id, ctx.link(id, i)),
                    brute,
                    "{context}: node {id}"
                );
                reached[ctx.link(id, i) as usize] = true;
            }
            assert!(
                reached.iter().all(|&r| r),
                "{context}: node {id} has a dead group"
            );
        }

        assert_eq!(
            count_answers_ctx(&ctx),
            count::count_answers_ctx(&row_ctx),
            "{context}: count"
        );

        // Enumeration: the sequential walk, the concatenated chunked walk (chunks
        // of 3 root rows, so several per instance) and the row path's walk agree
        // answer for answer, in order.
        let mut walked: Vec<Vec<u64>> = Vec::new();
        for_each_answer_codes(&ctx, |codes| walked.push(codes.to_vec()));
        let chunked: Vec<Vec<u64>> =
            map_answer_code_chunks(&ctx, 3, Vec::new, |out, codes| out.push(codes.to_vec()))
                .concat();
        assert_eq!(walked, chunked, "{context}: chunked enumeration");
        assert_kernel_modes_agree(&ctx, &walked, context);
        let mut row_answers: Vec<Vec<Value>> = Vec::new();
        yannakakis::for_each_answer(&row_ctx, |values| row_answers.push(values.to_vec()));
        let decoded: Vec<Vec<Value>> = walked
            .iter()
            .map(|codes| codes.iter().map(|&c| dict.decode(c).clone()).collect())
            .collect();
        assert_eq!(decoded, row_answers, "{context}: enumeration");

        // Direct access: the same answer at every index.
        let access = EncodedDirectAccess::from_context(ctx, Arc::clone(dict));
        let row_access = DirectAccess::from_context(row_ctx);
        assert_eq!(access.total(), row_access.total(), "{context}: total");
        for i in 0..access.total() {
            assert_eq!(
                access.answer_at(i).unwrap(),
                row_access.answer_at(i).unwrap(),
                "{context}: answer_at({i})"
            );
        }
    }

    /// The walk kernel's modes against the plain sequential walk `walked`: the
    /// root row handed to the callback, the needed-slot mask, and the
    /// only-these-roots mode, each at chunk sizes 1, 5 and 1024.
    fn assert_kernel_modes_agree(ctx: &EncodedContext, walked: &[Vec<u64>], context: &str) {
        type Rooted = Vec<(usize, Vec<u64>)>;
        let collect = |needed: Option<&[bool]>, only: Option<&[u32]>, chunk: usize| -> Rooted {
            let per_answer = |out: &mut Rooted, root: usize, codes: &[u64]| {
                out.push((root, codes.to_vec()));
            };
            walk_answer_chunks(ctx, needed, only, chunk, Vec::new, per_answer).concat()
        };
        let full = collect(None, None, 1024);
        let codes_of = |rooted: &Rooted| -> Vec<Vec<u64>> {
            rooted.iter().map(|(_, codes)| codes.clone()).collect()
        };
        assert_eq!(codes_of(&full), walked, "{context}: rooted walk");
        assert!(
            full.windows(2).all(|pair| pair[0].0 <= pair[1].0),
            "{context}: root rows ascend along the walk"
        );
        // Each answer's root row is the root-node row its codes were read from.
        let root_slots = AnswerWalk::new(ctx, None).levels[0].copy.clone();
        for (root, codes) in &full {
            for &(col, slot) in &root_slots {
                assert_eq!(codes[slot], ctx.code(ctx.root(), *root, col), "{context}");
            }
        }

        let n_vars = ctx.query().variables().len();
        let n_roots = ctx.node(ctx.root()).rows.len() as u32;
        let masks: Vec<Vec<bool>> = vec![
            vec![false; n_vars],
            (0..n_vars).map(|slot| slot % 2 == 0).collect(),
            (0..n_vars).map(|slot| slot + 1 == n_vars).collect(),
        ];
        let root_sets: Vec<Vec<u32>> = vec![
            Vec::new(),
            (0..n_roots).step_by(2).collect(),
            (0..n_roots).filter(|r| r % 3 == 1).collect(),
            (0..n_roots).collect(),
        ];
        for chunk in [1, 5, 1024] {
            assert_eq!(collect(None, None, chunk), full, "{context}: chunk {chunk}");
            for mask in &masks {
                // An unneeded slot holds the no-code sentinel, never a plausible 0.
                let expected: Rooted = (full.iter())
                    .map(|(root, codes)| {
                        let masked = codes.iter().zip(mask);
                        let masked = masked.map(|(&c, &keep)| if keep { c } else { u64::MAX });
                        (*root, masked.collect())
                    })
                    .collect();
                assert_eq!(
                    collect(Some(mask), None, chunk),
                    expected,
                    "{context}: mask {mask:?} chunk {chunk}"
                );
            }
            for roots in &root_sets {
                let expected: Rooted = (full.iter())
                    .filter(|(root, _)| roots.contains(&(*root as u32)))
                    .cloned()
                    .collect();
                assert_eq!(
                    collect(None, Some(roots), chunk),
                    expected,
                    "{context}: only {roots:?} chunk {chunk}"
                );
            }
        }
    }

    #[test]
    fn random_acyclic_contexts_match_the_row_path_at_one_and_four_threads() {
        let pools = [qjoin_par::Pool::new(1), qjoin_par::Pool::new(4)];
        let mut rng = StdRng::seed_from_u64(0x51ab);
        let (mut empty, mut self_joins) = (0, 0);
        let mut key_widths = [0usize; 5];
        for case in 0..300 {
            let inst = random_acyclic_instance(&mut rng);
            let enc = EncodedInstance::from_instance(&inst).unwrap();
            let mut twins = vec![(inst.clone(), enc.clone())];
            if inst.query().has_self_joins() {
                self_joins += 1;
                twins.push((
                    qjoin_query::self_join::eliminate_self_joins(&inst).unwrap(),
                    enc.eliminate_self_joins().unwrap(),
                ));
            }
            for pool in &pools {
                for (inst, enc) in &twins {
                    let context = format!("case {case} T={}: {}", pool.threads(), inst.query());
                    qjoin_par::with_pool(pool, || {
                        assert_context_matches_row_path(inst, enc, &context)
                    });
                }
            }
            let ctx = EncodedContext::build(&enc).unwrap();
            empty += usize::from(ctx.has_no_answers());
            for node in ctx.nodes() {
                key_widths[node.own_key_positions.len()] += 1;
            }
        }
        // The generator reaches the shapes the test is for.
        assert!(empty > 10 && self_joins > 10, "{empty} {self_joins}");
        assert!(key_widths[1..].iter().all(|&n| n > 10), "{key_widths:?}");
    }

    #[test]
    fn keys_pack_small_arities() {
        assert_eq!(Key::from_codes(&[]), Key::Unit);
        assert_eq!(Key::from_codes(&[7]), Key::One(7));
        assert_eq!(Key::from_codes(&[7, 8]), Key::Two(7, 8));
        assert_eq!(Key::from_codes(&[7, 8, 9]), Key::Three(7, 8, 9));
        assert!(matches!(Key::from_codes(&[1, 2, 3, 4]), Key::Many(_)));
    }
}
