//! Bump-allocated parse trees for the bytecode VM.
//!
//! The tree-walking interpreter allocates one `Rc<Tree>` (plus a children
//! `Vec`) per node, which dominates its hot loop. The VM instead appends
//! every node to a [`TreeArena`]: nodes are addressed by dense `u32`
//! [`TreeId`]s and children live as contiguous index ranges in one shared
//! vector, so building a node is two `Vec` pushes and *sharing* a memoized
//! subtree is copying a `u32`.
//!
//! The memoizing semantics reuse a cached result at several call sites
//! (the O(n²) bound of §3.3 of the paper relies on it). Arena nodes are
//! therefore immutable once allocated: the caller-side `start`/`end`
//! re-basing of rule T-NTSucc (`TreeArena::adjust`) allocates a fresh
//! root record that *shares* the original children range, exactly like the
//! interpreter's `Rc`-sharing `adjust_tree`.
//!
//! Read access goes through the zero-copy views [`TreeRef`], [`NodeRef`],
//! [`ArrayRef`], and [`BlackboxRef`], which mirror the accessors of
//! [`crate::tree::Node`] (`child_node_nt`, `attr`, `span`, …) so
//! extractors migrate mechanically. [`TreeRef::to_tree`] converts back to the
//! `Rc`-based [`Tree`] — the differential tests use it to require
//! node-for-node equality between the two engines.

use crate::check::NtId;
use crate::env::{wellknown, Env};
use crate::intern::Sym;
use crate::tree::{ArrayNode, BlackboxNode, Leaf, Node, Tree};
use std::rc::Rc;
use std::sync::Arc;

/// Handle of a tree record in a [`TreeArena`]: the record kind in the low
/// three bits, a 29-bit index within that kind's storage above them.
/// Keeping the kind in the id lets the per-kind vectors stay densely
/// packed — a leaf costs 16 bytes instead of one full node-sized enum
/// slot.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct TreeId(u32);

const TAG_NODE: u32 = 0;
const TAG_ARRAY: u32 = 1;
const TAG_LEAF: u32 = 2;
const TAG_BLACKBOX: u32 = 3;
/// A re-based reference to a node/blackbox (rule T-NTSucc): instead of
/// cloning the record with shifted `start`/`end`, the arena stores a
/// 16-byte `(inner id, delta)` pair and readers apply the delta lazily.
const TAG_SHIFT: u32 = 4;

impl TreeId {
    #[inline]
    fn new(tag: u32, index: usize) -> Self {
        // 2^29 records of one kind would need multi-GiB inputs under a
        // byte-granular grammar; fail loudly instead of aliasing ids.
        assert!(index < (1 << 29), "tree arena overflow: {index} records");
        TreeId((index as u32) << 3 | tag)
    }

    #[inline]
    fn tag(self) -> u32 {
        self.0 & 7
    }

    #[inline]
    fn index(self) -> usize {
        (self.0 >> 3) as usize
    }
}

impl std::fmt::Debug for TreeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match self.tag() {
            TAG_NODE => "node",
            TAG_ARRAY => "array",
            TAG_LEAF => "leaf",
            TAG_BLACKBOX => "blackbox",
            _ => "shift",
        };
        write!(f, "TreeId({kind} {})", self.index())
    }
}

/// A contiguous range of entries in the arena's shared children vector.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct ChildRange {
    pub(crate) start: u32,
    pub(crate) len: u32,
}

impl ChildRange {
    const EMPTY: ChildRange = ChildRange { start: 0, len: 0 };
}

/// Nonterminal name table shared between a program and the arenas of its
/// parses, so views can resolve names without the grammar in hand.
#[derive(Debug)]
pub(crate) struct NtTable {
    pub(crate) names: Vec<Arc<str>>,
    pub(crate) syms: Vec<Sym>,
}

/// A borrowed tree record — the arena-side mirror of [`Tree`]. Records
/// live in per-kind vectors; this enum is only a dispatch view.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Entry<'a> {
    Node(&'a ANode),
    Array(&'a AArray),
    Leaf(&'a Leaf),
    Blackbox(&'a ABlackbox),
}

/// Arena mirror of [`crate::tree::Node`].
#[derive(Clone, Debug)]
pub(crate) struct ANode {
    pub(crate) nt: NtId,
    pub(crate) env: Env,
    pub(crate) children: ChildRange,
    pub(crate) base: usize,
    pub(crate) input_len: usize,
    pub(crate) alt_index: u32,
}

/// Arena mirror of [`crate::tree::ArrayNode`].
#[derive(Clone, Debug)]
pub(crate) struct AArray {
    pub(crate) nt: NtId,
    pub(crate) elems: ChildRange,
}

/// Arena mirror of [`crate::tree::BlackboxNode`].
#[derive(Clone, Debug)]
pub(crate) struct ABlackbox {
    pub(crate) nt: NtId,
    pub(crate) env: Env,
    pub(crate) data: Arc<[u8]>,
    pub(crate) base: usize,
    pub(crate) input_len: usize,
}

/// All parse-tree records of one VM parse, stored per kind.
#[derive(Debug)]
pub struct TreeArena {
    nodes: Vec<ANode>,
    arrays: Vec<AArray>,
    leaves: Vec<Leaf>,
    blackboxes: Vec<ABlackbox>,
    /// Lazy re-basings: `(inner node/blackbox id, start/end delta)`.
    shifts: Vec<(TreeId, i64)>,
    children: Vec<TreeId>,
    table: Arc<NtTable>,
}

impl TreeArena {
    /// An allocation-free placeholder (what a finished streaming session
    /// swaps in when handing its arena over).
    pub(crate) fn empty(table: Arc<NtTable>) -> Self {
        TreeArena {
            nodes: Vec::new(),
            arrays: Vec::new(),
            leaves: Vec::new(),
            blackboxes: Vec::new(),
            shifts: Vec::new(),
            children: Vec::new(),
            table,
        }
    }

    /// An arena pre-sized from compile-time program statistics
    /// ([`crate::bytecode::Program::size_hints`]) instead of the default
    /// small capacities.
    pub(crate) fn with_hints(table: Arc<NtTable>, hints: &crate::bytecode::SizeHints) -> Self {
        TreeArena {
            nodes: Vec::with_capacity(hints.nodes),
            arrays: Vec::new(),
            leaves: Vec::with_capacity(hints.leaves),
            blackboxes: Vec::new(),
            shifts: Vec::with_capacity(hints.shifts),
            children: Vec::with_capacity(hints.children),
            table,
        }
    }

    /// Dispatch view of `id`. Shifted references resolve to their inner
    /// record; use [`TreeArena::resolve`] when the delta matters.
    pub(crate) fn entry(&self, id: TreeId) -> Entry<'_> {
        match id.tag() {
            TAG_NODE => Entry::Node(&self.nodes[id.index()]),
            TAG_ARRAY => Entry::Array(&self.arrays[id.index()]),
            TAG_LEAF => Entry::Leaf(&self.leaves[id.index()]),
            TAG_BLACKBOX => Entry::Blackbox(&self.blackboxes[id.index()]),
            _ => {
                let (inner, _) = self.shifts[id.index()];
                self.entry(inner)
            }
        }
    }

    /// Unwraps a possibly-shifted id into `(raw id, start/end delta)`.
    #[inline]
    pub(crate) fn resolve(&self, id: TreeId) -> (TreeId, i64) {
        if id.tag() == TAG_SHIFT {
            self.shifts[id.index()]
        } else {
            (id, 0)
        }
    }

    pub(crate) fn child_ids(&self, range: ChildRange) -> &[TreeId] {
        &self.children[range.start as usize..(range.start + range.len) as usize]
    }

    fn push_children(&mut self, ids: &[TreeId]) -> ChildRange {
        if ids.is_empty() {
            return ChildRange::EMPTY;
        }
        let start = self.children.len() as u32;
        self.children.extend_from_slice(ids);
        ChildRange { start, len: ids.len() as u32 }
    }

    pub(crate) fn alloc_leaf(&mut self, start: usize, end: usize) -> TreeId {
        let id = TreeId::new(TAG_LEAF, self.leaves.len());
        self.leaves.push(Leaf { start, end });
        id
    }

    pub(crate) fn alloc_node(
        &mut self,
        nt: NtId,
        env: Env,
        children: &[TreeId],
        base: usize,
        input_len: usize,
        alt_index: u32,
    ) -> TreeId {
        let children = self.push_children(children);
        let id = TreeId::new(TAG_NODE, self.nodes.len());
        self.nodes.push(ANode { nt, env, children, base, input_len, alt_index });
        id
    }

    pub(crate) fn alloc_array(&mut self, nt: NtId, elems: &[TreeId]) -> TreeId {
        let elems = self.push_children(elems);
        let id = TreeId::new(TAG_ARRAY, self.arrays.len());
        self.arrays.push(AArray { nt, elems });
        id
    }

    pub(crate) fn alloc_blackbox(
        &mut self,
        nt: NtId,
        env: Env,
        data: Arc<[u8]>,
        base: usize,
        input_len: usize,
    ) -> TreeId {
        let id = TreeId::new(TAG_BLACKBOX, self.blackboxes.len());
        self.blackboxes.push(ABlackbox { nt, env, data, base, input_len });
        id
    }

    /// The callee-relative `(start, end)` of a returned tree (mirror of the
    /// interpreter's `tree_start_end`). Only called on results fresh from a
    /// rule invocation, which are never shifted references.
    pub(crate) fn start_end(&self, id: TreeId) -> (i64, i64) {
        debug_assert_ne!(id.tag(), TAG_SHIFT, "start_end on an adjusted tree");
        match id.tag() {
            TAG_NODE => {
                let env = &self.nodes[id.index()].env;
                (env.fast_start(), env.fast_end())
            }
            TAG_BLACKBOX => {
                let env = &self.blackboxes[id.index()].env;
                (env.fast_start(), env.fast_end())
            }
            _ => (0, 0),
        }
    }

    /// Rule T-NTSucc's re-basing, observably identical to the
    /// interpreter's `adjust_tree` (a copied root with `start`/`end`
    /// shifted by `l`, children shared) but stored as a lazy 16-byte
    /// shifted reference instead of a cloned record.
    pub(crate) fn adjust(&mut self, id: TreeId, l: i64) -> TreeId {
        debug_assert_ne!(id.tag(), TAG_SHIFT, "adjust of an already-adjusted tree");
        if l == 0 {
            return id;
        }
        match id.tag() {
            TAG_NODE | TAG_BLACKBOX => {
                let sid = TreeId::new(TAG_SHIFT, self.shifts.len());
                self.shifts.push((id, l));
                sid
            }
            _ => id,
        }
    }

    /// Attribute lookup on a node-like tree, checking the nonterminal
    /// (mirror of the interpreter's `node_attr`; arrays read the *last*
    /// element's attribute).
    pub(crate) fn node_attr(&self, id: TreeId, nt: NtId, attr: Sym) -> Option<i64> {
        let (id, delta) = self.resolve(id);
        let v = match self.entry(id) {
            Entry::Node(n) if n.nt == nt => n.env.get(attr),
            Entry::Blackbox(b) if b.nt == nt => b.env.get(attr),
            Entry::Array(a) if a.nt == nt => {
                let last = *self.child_ids(a.elems).last()?;
                return self.node_attr(last, nt, attr);
            }
            _ => None,
        };
        // A shifted reference reads like the interpreter's adjusted copy:
        // `start`/`end` carry the delta, every other attribute is shared.
        if delta != 0
            && (attr == crate::env::wellknown::START || attr == crate::env::wellknown::END)
        {
            v.map(|v| v + delta)
        } else {
            v
        }
    }

    /// The name of nonterminal `nt`.
    pub fn nt_name(&self, nt: NtId) -> &str {
        &self.table.names[nt.0 as usize]
    }

    /// A view of tree `id`.
    pub fn view(&self, id: TreeId) -> TreeRef<'_> {
        TreeRef { arena: self, id }
    }

    /// Number of allocated tree records (nodes created for memo-shared
    /// subtrees and re-based copies included).
    pub fn len(&self) -> usize {
        self.nodes.len()
            + self.arrays.len()
            + self.leaves.len()
            + self.blackboxes.len()
            + self.shifts.len()
    }

    /// Whether nothing has been allocated yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A borrowed view of any tree record — the arena-side analogue of
/// [`Tree`].
#[derive(Clone, Copy)]
pub struct TreeRef<'a> {
    arena: &'a TreeArena,
    id: TreeId,
}

/// A borrowed nonterminal node — the arena-side analogue of [`Node`].
/// Carries the `start`/`end` delta of a shifted reference so attribute
/// reads match the interpreter's adjusted copies.
#[derive(Clone, Copy)]
pub struct NodeRef<'a> {
    arena: &'a TreeArena,
    node: &'a ANode,
    delta: i64,
}

/// A borrowed array — the arena-side analogue of
/// [`crate::tree::ArrayNode`].
#[derive(Clone, Copy)]
pub struct ArrayRef<'a> {
    arena: &'a TreeArena,
    arr: &'a AArray,
}

/// A borrowed blackbox result — the arena-side analogue of
/// [`BlackboxNode`].
#[derive(Clone, Copy)]
pub struct BlackboxRef<'a> {
    arena: &'a TreeArena,
    bb: &'a ABlackbox,
    delta: i64,
}

impl<'a> TreeRef<'a> {
    /// This tree's arena id.
    pub fn id(&self) -> TreeId {
        self.id
    }

    /// This tree as a nonterminal node, if it is one.
    pub fn as_node(&self) -> Option<NodeRef<'a>> {
        let (id, delta) = self.arena.resolve(self.id);
        match self.arena.entry(id) {
            Entry::Node(node) => Some(NodeRef { arena: self.arena, node, delta }),
            _ => None,
        }
    }

    /// This tree as an array, if it is one.
    pub fn as_array(&self) -> Option<ArrayRef<'a>> {
        match self.arena.entry(self.id) {
            Entry::Array(arr) => Some(ArrayRef { arena: self.arena, arr }),
            _ => None,
        }
    }

    /// This tree as a terminal leaf, if it is one.
    pub fn as_leaf(&self) -> Option<Leaf> {
        match self.arena.entry(self.id) {
            Entry::Leaf(l) => Some(*l),
            _ => None,
        }
    }

    /// This tree as a blackbox result, if it is one.
    pub fn as_blackbox(&self) -> Option<BlackboxRef<'a>> {
        let (id, delta) = self.arena.resolve(self.id);
        match self.arena.entry(id) {
            Entry::Blackbox(bb) => Some(BlackboxRef { arena: self.arena, bb, delta }),
            _ => None,
        }
    }

    /// The first direct child node parsed with nonterminal `nt` (resolve
    /// a name once via [`crate::check::Grammar::nt_id`]).
    pub fn child_node_nt(&self, nt: NtId) -> Option<NodeRef<'a>> {
        self.as_node()?.child_node_nt(nt)
    }

    /// The first direct child array of `nt` elements.
    pub fn child_array_nt(&self, nt: NtId) -> Option<ArrayRef<'a>> {
        self.as_node()?.child_array_nt(nt)
    }

    /// The first direct blackbox child parsed with nonterminal `nt`.
    pub fn child_blackbox_nt(&self, nt: NtId) -> Option<BlackboxRef<'a>> {
        self.as_node()?.child_blackbox_nt(nt)
    }

    /// Total number of tree records reachable from this tree (counts
    /// shared subtrees once per reference, like [`Tree::size`]).
    pub fn size(&self) -> usize {
        match self.arena.entry(self.id) {
            Entry::Node(n) => {
                1 + self
                    .arena
                    .child_ids(n.children)
                    .iter()
                    .map(|c| self.arena.view(*c).size())
                    .sum::<usize>()
            }
            Entry::Array(a) => {
                1 + self
                    .arena
                    .child_ids(a.elems)
                    .iter()
                    .map(|c| self.arena.view(*c).size())
                    .sum::<usize>()
            }
            Entry::Leaf(_) | Entry::Blackbox(_) => 1,
        }
    }

    /// Deep conversion to the `Rc`-based [`Tree`] (shared subtrees are
    /// duplicated by value). The differential tests compare the result
    /// against the reference interpreter's output with `==`.
    pub fn to_tree(&self) -> Rc<Tree> {
        let table = &self.arena.table;
        let (id, delta) = self.arena.resolve(self.id);
        match self.arena.entry(id) {
            Entry::Leaf(l) => Rc::new(Tree::Leaf(*l)),
            Entry::Node(n) => {
                let children = self
                    .arena
                    .child_ids(n.children)
                    .iter()
                    .map(|c| self.arena.view(*c).to_tree())
                    .collect();
                let mut env = n.env.clone();
                if delta != 0 {
                    env.fast_shift_start_end(delta);
                }
                Rc::new(Tree::Node(Node {
                    nt: n.nt,
                    name: table.names[n.nt.0 as usize].clone(),
                    name_sym: table.syms[n.nt.0 as usize],
                    env,
                    children,
                    base: n.base,
                    input_len: n.input_len,
                    alt_index: n.alt_index as usize,
                }))
            }
            Entry::Array(a) => {
                let elems = self
                    .arena
                    .child_ids(a.elems)
                    .iter()
                    .map(|c| self.arena.view(*c).to_tree())
                    .collect();
                Rc::new(Tree::Array(ArrayNode {
                    nt: a.nt,
                    name: table.names[a.nt.0 as usize].clone(),
                    name_sym: table.syms[a.nt.0 as usize],
                    elems,
                }))
            }
            Entry::Blackbox(b) => {
                let mut env = b.env.clone();
                if delta != 0 {
                    env.fast_shift_start_end(delta);
                }
                Rc::new(Tree::Blackbox(BlackboxNode {
                    nt: b.nt,
                    name: table.names[b.nt.0 as usize].clone(),
                    name_sym: table.syms[b.nt.0 as usize],
                    env,
                    data: b.data.clone(),
                    base: b.base,
                    input_len: b.input_len,
                }))
            }
        }
    }
}

impl<'a> NodeRef<'a> {
    /// The nonterminal this node was parsed with.
    pub fn nt(&self) -> NtId {
        self.node.nt
    }

    /// The nonterminal's name.
    pub fn name(&self) -> &'a str {
        self.arena.nt_name(self.node.nt)
    }

    /// Looks up a user attribute by name (requires the grammar for symbol
    /// resolution), mirroring [`Node::attr`].
    pub fn attr(&self, grammar: &crate::check::Grammar, name: &str) -> Option<i64> {
        let sym = grammar.attr_sym(name)?;
        self.attr_by_sym(sym)
    }

    /// Looks up an attribute by pre-resolved symbol.
    pub fn attr_by_sym(&self, sym: Sym) -> Option<i64> {
        let v = self.node.env.get(sym)?;
        if self.delta != 0 && (sym == wellknown::START || sym == wellknown::END) {
            Some(v + self.delta)
        } else {
            Some(v)
        }
    }

    /// The node's `start` special attribute, as in [`Node::touched_start`].
    pub fn touched_start(&self) -> i64 {
        self.node.env.fast_start() + self.delta
    }

    /// The node's `end` special attribute.
    pub fn touched_end(&self) -> i64 {
        self.node.env.fast_end() + self.delta
    }

    /// The absolute input span `[base, base + input_len)` this node was
    /// asked to describe.
    pub fn span(&self) -> (usize, usize) {
        (self.node.base, self.node.base + self.node.input_len)
    }

    /// Absolute offset of this node's local input slice.
    pub fn base(&self) -> usize {
        self.node.base
    }

    /// Length of this node's local input slice (`EOI`).
    pub fn input_len(&self) -> usize {
        self.node.input_len
    }

    /// Index of the alternative that succeeded (0-based).
    pub fn alt_index(&self) -> usize {
        self.node.alt_index as usize
    }

    /// Children in written term order.
    pub fn children(&self) -> impl Iterator<Item = TreeRef<'a>> + use<'a> {
        let arena = self.arena;
        arena.child_ids(self.node.children).iter().map(move |id| arena.view(*id))
    }

    /// The first direct child node parsed with nonterminal `nt` (the
    /// pre-resolved fast path; see [`crate::check::Grammar::nt_id`]).
    pub fn child_node_nt(&self, nt: NtId) -> Option<NodeRef<'a>> {
        self.children().find_map(|c| c.as_node().filter(|n| n.node.nt == nt))
    }

    /// The first direct child array of `nt` elements.
    pub fn child_array_nt(&self, nt: NtId) -> Option<ArrayRef<'a>> {
        self.children().find_map(|c| c.as_array().filter(|a| a.arr.nt == nt))
    }

    /// The first direct blackbox child parsed with nonterminal `nt`.
    pub fn child_blackbox_nt(&self, nt: NtId) -> Option<BlackboxRef<'a>> {
        self.children().find_map(|c| c.as_blackbox().filter(|b| b.bb.nt == nt))
    }
}

impl<'a> ArrayRef<'a> {
    /// The element nonterminal.
    pub fn nt(&self) -> NtId {
        self.arr.nt
    }

    /// The element nonterminal's name.
    pub fn name(&self) -> &'a str {
        self.arena.nt_name(self.arr.nt)
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.arr.elems.len as usize
    }

    /// Whether the array is empty.
    pub fn is_empty(&self) -> bool {
        self.arr.elems.len == 0
    }

    /// Element `i` as a node.
    pub fn node(&self, i: usize) -> Option<NodeRef<'a>> {
        let id = *self.arena.child_ids(self.arr.elems).get(i)?;
        self.arena.view(id).as_node()
    }

    /// Iterates over elements.
    pub fn elems(&self) -> impl Iterator<Item = TreeRef<'a>> + use<'a> {
        let arena = self.arena;
        arena.child_ids(self.arr.elems).iter().map(move |id| arena.view(*id))
    }

    /// Iterates over elements as nodes.
    pub fn nodes(&self) -> impl Iterator<Item = NodeRef<'a>> + use<'a> {
        self.elems().filter_map(|t| t.as_node())
    }
}

impl<'a> BlackboxRef<'a> {
    /// The nonterminal whose rule is the blackbox.
    pub fn nt(&self) -> NtId {
        self.bb.nt
    }

    /// Its name.
    pub fn name(&self) -> &'a str {
        self.arena.nt_name(self.bb.nt)
    }

    /// Decoded output (e.g. decompressed bytes).
    pub fn data(&self) -> &'a [u8] {
        &self.bb.data
    }

    /// Looks up a declared attribute by name.
    pub fn attr(&self, grammar: &crate::check::Grammar, name: &str) -> Option<i64> {
        let sym = grammar.attr_sym(name)?;
        let v = self.bb.env.get(sym)?;
        if self.delta != 0 && (sym == wellknown::START || sym == wellknown::END) {
            Some(v + self.delta)
        } else {
            Some(v)
        }
    }

    /// The absolute input span the blackbox was confined to.
    pub fn span(&self) -> (usize, usize) {
        (self.bb.base, self.bb.base + self.bb.input_len)
    }
}
