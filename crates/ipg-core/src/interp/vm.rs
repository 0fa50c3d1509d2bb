//! The bytecode VM: IPG parsing over a compiled [`Program`] with an
//! explicit work stack and arena-allocated parse trees.
//!
//! This engine implements exactly the parsing semantics of the
//! tree-walking interpreter in [`crate::interp`] (Fig. 8 and Fig. 15 of
//! the paper) — biased choice, `start`/`end` bookkeeping, per-`(A, base,
//! len)` memoization, local-rule environment inheritance — but differs in
//! *how* it runs:
//!
//! * **check → lower → bytecode**: [`crate::bytecode::compile`] flattens
//!   the checked grammar into dense instruction/expression pools once per
//!   grammar, so the parse loop follows `u32` ids instead of chasing
//!   `Rc<Expr>` pointers and never hashes a name.
//! * **Explicit work stack**: nonterminal calls push `Frame`s onto a
//!   `Vec` instead of recursing, so deeply nested inputs cannot overflow
//!   the native stack and frame storage (environments, result slots) is
//!   recycled across calls.
//! * **Arena trees**: results go into a [`TreeArena`] — one bump
//!   allocation per node, children as contiguous `u32` ranges, memoized
//!   subtrees shared by id (see [`crate::arena`]).
//!
//! The two engines are kept observably identical — same trees (node for
//! node, attribute for attribute), same deepest-failure errors, same
//! [`ParseStats`] step counts — and the repository's differential tests
//! enforce it. (Memo statistics are engine policy: the VM re-executes
//! builtin leaf rules instead of caching them, which never changes steps,
//! trees, or errors.)
//! The interpreter stays as the executable reference semantics; this VM is
//! the production path (`ipg-formats` parses through it).
//!
//! ```
//! use ipg_core::frontend::parse_grammar;
//! use ipg_core::interp::vm::VmParser;
//!
//! let g = parse_grammar(
//!     r#"
//!     S -> H[0, 8] Data[H.offset, H.offset + H.length];
//!     H -> Int[0, 4] {offset = Int.val} Int[4, 8] {length = Int.val};
//!     Int := u32le;
//!     Data := bytes;
//!     "#,
//! )?;
//! let parser = VmParser::new(&g);
//! let mut input = vec![8u8, 0, 0, 0, 4, 0, 0, 0];
//! input.extend_from_slice(b"DATA");
//! let tree = parser.parse(&input)?;
//! let h = tree.root().child_node_nt(g.nt_id("H").expect("H is a rule")).expect("header parsed");
//! assert_eq!(h.attr(&g, "offset"), Some(8));
//! assert_eq!(h.attr(&g, "length"), Some(4));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use super::{eval_binop, ParseStats};
use crate::analysis::{anchor_requirement, AnchorRequirement};
use crate::arena::{Entry, TreeArena, TreeId, TreeRef};
use crate::builtin::run_builtin;
use crate::bytecode::{compile, BExpr, ExprId, Instr, LitSpan, PRuleKind, Program, SizeHints};
use crate::check::{Grammar, NtId};
use crate::env::{wellknown, Env};
use crate::error::{Error, ParseError, Result};
use crate::intern::Sym;
use crate::ipgc::CachedProgram;
use crate::profile::{ProfSink, ProfileReport, Profiler};
use crate::syntax::Builtin;
use fxhash::{FxHashMap, FxHashSet};
use std::borrow::Cow;
use std::sync::Arc;

/// A configured bytecode parser for one grammar. The API mirrors
/// [`crate::interp::Parser`]; results come back as arena-backed
/// [`ParseTree`]s instead of `Rc<Tree>`.
///
/// The grammar, its compiled program and the precomputed analyses live in
/// one shared core, so cloning a parser costs one reference-count
/// increment. `'g` is how long the grammar is borrowed: [`VmParser::new`]
/// borrows it, while a parser built by [`VmParser::from_compiled`] owns
/// everything and is a self-contained `VmParser<'static>`.
#[derive(Clone)]
pub struct VmParser<'g> {
    core: Arc<Core<'g>>,
    memoize: bool,
    max_steps: Option<u64>,
}

/// What every clone of a [`VmParser`] shares.
struct Core<'g> {
    grammar: Cow<'g, Grammar>,
    program: Program,
    /// Pre-sizing hints derived from the program (frame nesting, pool
    /// sizes), computed once at compile time.
    hints: SizeHints,
    /// What a streaming [`Session`] must hold back (see
    /// [`crate::analysis::anchor_requirement`]).
    anchor: AnchorRequirement,
}

impl std::fmt::Debug for VmParser<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VmParser")
            .field("start", &self.core.grammar.start_nt_name())
            .field("memoize", &self.memoize)
            .field("max_steps", &self.max_steps)
            .finish_non_exhaustive()
    }
}

/// The result of a successful VM parse: the arena plus the root id.
#[derive(Debug)]
pub struct ParseTree {
    arena: TreeArena,
    root: TreeId,
}

impl ParseTree {
    /// A view of the root (always a node for grammars whose start rule has
    /// alternatives).
    pub fn root(&self) -> TreeRef<'_> {
        self.arena.view(self.root)
    }

    /// The arena holding every node of this parse.
    pub fn arena(&self) -> &TreeArena {
        &self.arena
    }

    /// The root's arena id.
    pub fn root_id(&self) -> TreeId {
        self.root
    }
}

impl<'g> VmParser<'g> {
    /// Compiles `grammar` and creates a parser with memoization enabled
    /// and no step limit. The parser borrows `grammar`.
    pub fn new(grammar: &'g Grammar) -> Self {
        let program = compile(grammar);
        let hints = program.size_hints();
        let anchor = anchor_requirement(grammar);
        Self::with_core(Core { grammar: Cow::Borrowed(grammar), program, hints, anchor })
    }

    /// Wraps an already-compiled program — freshly compiled, or
    /// deserialized from a persisted [`crate::ipgc`] artifact (see
    /// [`crate::ipgc::Artifact::rebind`]) together with its precomputed
    /// anchor classification and size hints — skipping the compile step.
    /// The parser takes ownership of the grammar.
    pub fn from_compiled(compiled: CachedProgram) -> VmParser<'static> {
        let CachedProgram { grammar, program, anchor, hints, .. } = compiled;
        VmParser::with_core(Core { grammar: Cow::Owned(grammar), program, hints, anchor })
    }

    fn with_core(core: Core<'g>) -> Self {
        VmParser { core: Arc::new(core), memoize: true, max_steps: None }
    }

    /// The checked grammar the program was compiled from.
    pub fn grammar(&self) -> &Grammar {
        &self.core.grammar
    }

    /// The compiled program (e.g. for [`Program::disassemble`]).
    pub fn program(&self) -> &Program {
        &self.core.program
    }

    /// The grammar's [`AnchorRequirement`]: what a [`Session`] must hold
    /// back before the parse can run to completion.
    pub fn anchor(&self) -> AnchorRequirement {
        self.core.anchor
    }

    /// Enables or disables memoization (mirror of
    /// [`crate::interp::Parser::memoize`]).
    pub fn memoize(mut self, on: bool) -> Self {
        self.memoize = on;
        self
    }

    /// Limits the number of term evaluations (mirror of
    /// [`crate::interp::Parser::max_steps`]).
    pub fn max_steps(mut self, steps: u64) -> Self {
        self.max_steps = Some(steps);
        self
    }

    /// Parses `input` from the grammar's start nonterminal.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Parse`] with the deepest failure observed when the
    /// input does not match — the same error the reference interpreter
    /// reports.
    pub fn parse(&self, input: &[u8]) -> Result<ParseTree> {
        self.parse_from(self.core.program.start_nt(), input)
    }

    /// Parses `input` from an explicit start nonterminal.
    ///
    /// # Errors
    ///
    /// As [`VmParser::parse`]; additionally [`Error::Grammar`] if `name`
    /// is not a nonterminal of the grammar.
    pub fn parse_from_name(&self, name: &str, input: &[u8]) -> Result<ParseTree> {
        let nt = self
            .grammar()
            .nt_id(name)
            .ok_or_else(|| Error::Grammar(format!("unknown nonterminal `{name}`")))?;
        self.parse_from(nt, input)
    }

    /// Parses `input` from nonterminal `nt`.
    ///
    /// # Errors
    ///
    /// As [`VmParser::parse`].
    pub fn parse_from(&self, nt: NtId, input: &[u8]) -> Result<ParseTree> {
        self.run_one_shot(self.fresh_session(input), nt, FuelMsg::Verbose).0
    }

    /// Like [`VmParser::parse`], but also reports [`ParseStats`]. The
    /// `steps` count matches [`crate::interp::Parser::parse_with_stats`]
    /// exactly (both engines tick at the same evaluation points, which is
    /// what makes steps/s comparisons apples-to-apples); the memo fields
    /// reflect each engine's own policy — the VM does not memoize builtin
    /// leaf rules.
    pub fn parse_with_stats(&self, input: &[u8]) -> (Result<ParseTree>, ParseStats) {
        self.run_one_shot(self.fresh_session(input), self.core.program.start_nt(), FuelMsg::Short)
    }

    /// Opens a streaming [`Session`]: input arrives incrementally via
    /// [`Session::feed`], the parse runs as far as the buffered prefix
    /// allows, and [`Session::finish`] signals end-of-input. The session
    /// holds its own clone of this parser.
    pub fn streaming(&self) -> Session<'g> {
        Session::new(self)
    }

    /// One-shot parse with a per-call step budget, overriding the
    /// parser's own. This is what lets a service share one compiled
    /// parser across workers (the builder-style [`VmParser::max_steps`]
    /// consumes the parser) while still bounding hostile inputs.
    pub fn parse_bounded(&self, input: &[u8], max_steps: u64) -> (Result<ParseTree>, ParseStats) {
        let mut sess = self.fresh_session(input);
        sess.m.max_steps = max_steps;
        self.run_one_shot(sess, self.core.program.start_nt(), FuelMsg::Verbose)
    }

    /// Like [`VmParser::parse`], but runs with the [`crate::profile`]
    /// instrumentation enabled and additionally returns the aggregated
    /// [`ProfileReport`] (per-rule cycle attribution, memo hit/miss,
    /// pc-indexed instruction hits, folded stacks).
    ///
    /// Only this entry point pays the instrumentation cost: the plain
    /// `parse*` family monomorphizes with the no-op sink and is
    /// unaffected.
    pub fn parse_profiled(&self, input: &[u8]) -> (Result<ParseTree>, ParseStats, ProfileReport) {
        let p = self.program();
        let mut prof = Profiler::new(p.rule_count(), p.instr_count());
        let sess = self.fresh_session_with(input, &mut prof);
        let (result, stats) = self.run_one_shot(sess, p.start_nt(), FuelMsg::Verbose);
        let report = ProfileReport::build(self.grammar(), p, prof);
        (result, stats, report)
    }

    /// Drives a one-shot session from `nt` and packages result + stats.
    /// `fuel_msg` selects this entry point's fuel-exhaustion wording —
    /// `parse`/`parse_from` diagnose verbosely, `parse_with_stats`
    /// tersely, each mirroring the interpreter's corresponding entry
    /// point (the differential tests compare errors per entry point).
    fn run_one_shot<I: AsRef<[u8]>, PS: ProfSink>(
        &self,
        mut sess: VmSession<'_, I, PS>,
        nt: NtId,
        fuel_msg: FuelMsg,
    ) -> (Result<ParseTree>, ParseStats) {
        let result = match sess.run_root(nt) {
            Ok(Some(root)) => {
                let stats = sess.m.stats();
                return (Ok(ParseTree { arena: sess.m.arena, root }), stats);
            }
            Ok(None) => Err(Error::Parse(sess.m.deepest.clone())),
            Err(Abort::FuelExhausted) => Err(Error::Parse(sess.m.fuel_error(fuel_msg))),
            Err(Abort::Suspend) => unreachable!("one-shot sessions never suspend"),
        };
        let stats = sess.m.stats();
        (result, stats)
    }

    fn fresh_session<I: AsRef<[u8]>>(&self, input: I) -> VmSession<'_, I> {
        self.fresh_session_with(input, ())
    }

    /// A one-shot machine over `input`, borrowing this parser's grammar
    /// and program for the duration of the parse.
    fn fresh_session_with<I: AsRef<[u8]>, PS: ProfSink>(
        &self,
        input: I,
        prof: PS,
    ) -> VmSession<'_, I, PS> {
        VmSession { g: self.grammar(), p: self.program(), m: self.machine(input, prof) }
    }

    /// Fresh machine state over `input`.
    fn machine<I: AsRef<[u8]>, PS: ProfSink>(&self, input: I, prof: PS) -> Machine<I, PS> {
        let core = &*self.core;
        // Memo mirror of the interpreter's pre-sizing heuristic; arena and
        // frame stack are pre-sized from compile-time program statistics
        // (instruction counts, static call-graph nesting).
        let memo_capacity = if self.memoize { 8 * core.grammar.nt_count() } else { 0 };
        Machine {
            input,
            arena: TreeArena::with_hints(core.program.nt_table(), &core.hints),
            memo: FxHashMap::with_capacity_and_hasher(memo_capacity, Default::default()),
            builtin_failures: FxHashSet::default(),
            memoize: self.memoize,
            steps: 0,
            memo_hits: 0,
            max_steps: self.max_steps.unwrap_or(u64::MAX),
            deepest: ParseError { offset: 0, nonterminal: None, msg: "no progress".into() },
            frames: Vec::with_capacity(core.hints.frames),
            depth: 0,
            scratch: Vec::new(),
            complete: true,
            root_open: false,
            suspend: None,
            suspend_count: 0,
            resume: ResumeKind::Exec,
            prof,
        }
    }
}

/// Which fuel-exhaustion wording an entry point reports (see
/// [`VmParser::run_one_shot`]).
#[derive(Clone, Copy)]
enum FuelMsg {
    /// `parse` / `parse_from` / `parse_bounded` / `Session`.
    Verbose,
    /// `parse_with_stats`.
    Short,
}

impl FuelMsg {
    fn render(self, max_steps: u64) -> String {
        match self {
            FuelMsg::Verbose => {
                format!("step limit of {max_steps} exhausted (possible non-terminating grammar)")
            }
            FuelMsg::Short => "step limit exhausted".into(),
        }
    }
}

/// Hard abort of the whole parse (mirror of the interpreter's `Abort`),
/// plus the streaming machine's suspension signal.
#[derive(Clone, Copy, Debug)]
enum Abort {
    FuelExhausted,
    /// A streaming session must wait for more input. The machine state is
    /// left exactly at the blocked operation (any step ticks the retried
    /// operation will re-pay have been rewound); the [`Hint`] is parked in
    /// [`VmSession::suspend`].
    Suspend,
}

type PResult<T> = std::result::Result<T, Abort>;

/// How a suspended machine re-enters execution (see [`Abort::Suspend`]).
#[derive(Clone, Copy, Debug)]
enum ResumeKind {
    /// Re-execute the top frame's current instruction (also covers a
    /// blocked root completion).
    Exec,
    /// Re-enter a `for` iteration whose state was stashed in
    /// [`Pending::Loop`].
    LoopIter,
}

const NO_PARENT: u32 = u32::MAX;

/// What the main loop does next.
enum Flow {
    /// Execute instructions of the top frame.
    Exec,
    /// A call completed; deliver its result to the top frame's pending
    /// term.
    Deliver(Option<TreeId>),
    /// The stack is empty; the parse is finished.
    Done(Option<TreeId>),
}

/// Outcome of [`VmSession::begin_call`].
enum CallOutcome {
    /// The result is already available (memo hit, builtin, or blackbox).
    Done(Option<TreeId>),
    /// A frame was pushed; the result will arrive via [`Flow::Deliver`].
    Pushed,
}

/// In-flight state of a `for` term (the VM analogue of the interpreter's
/// array loop locals).
struct LoopSt {
    slot: u16,
    var: Sym,
    k: i64,
    j: i64,
    nt: NtId,
    lo: ExprId,
    hi: ExprId,
    /// Left endpoint of the *current* iteration's interval.
    l: i64,
    elems: Vec<TreeId>,
}

/// In-flight state of a `star` term.
struct StarSt {
    slot: u16,
    nt: NtId,
    l: i64,
    star_base: usize,
    star_len: usize,
    pos: usize,
    elems: Vec<TreeId>,
}

/// A term whose nonterminal call is waiting for a child frame.
enum Pending {
    None,
    /// A `B[..]` symbol term or a selected switch case.
    Call {
        slot: u16,
        l: i64,
    },
    Loop(LoopSt),
    Star(StarSt),
}

/// One activation of a rule: the VM analogue of the interpreter's
/// `parse_alt` stack frame plus its `AltCtx`.
struct Frame {
    nt: NtId,
    base: usize,
    len: usize,
    /// Index of the rule's first alternative in the program's alt array.
    alts_first: u32,
    /// One past the rule's last alternative.
    alts_end: u32,
    /// The alternative currently being tried.
    alt_cursor: u32,
    /// Next instruction, and one past the current alternative's last.
    ip: u32,
    ip_end: u32,
    env: Env,
    /// Result slots, indexed by written term position.
    results: Vec<Option<TreeId>>,
    /// Frame index of the invoking alternative (local rules only);
    /// [`NO_PARENT`] otherwise.
    parent: u32,
    memoizable: bool,
    pending: Pending,
}

impl Default for Frame {
    fn default() -> Self {
        Frame {
            nt: NtId(0),
            base: 0,
            len: 0,
            alts_first: 0,
            alts_end: 0,
            alt_cursor: 0,
            ip: 0,
            ip_end: 0,
            env: Env::default(),
            results: Vec::new(),
            parent: NO_PARENT,
            memoizable: false,
            pending: Pending::None,
        }
    }
}

/// A running machine: the state of one parse plus the grammar and
/// program it executes, borrowed for the duration of the run. One-shot
/// parses build it in place; a streaming [`Session`] re-assembles it
/// around its parked [`Machine`] for each call.
struct VmSession<'p, I, PS: ProfSink = ()> {
    g: &'p Grammar,
    p: &'p Program,
    m: Machine<I, PS>,
}

/// The owned state of one parse: everything a [`VmSession`] mutates.
struct Machine<I, PS: ProfSink = ()> {
    /// The input bytes: a borrowed slice for one-shot parses, an owned
    /// growing buffer for streaming [`Session`]s.
    input: I,
    arena: TreeArena,
    memo: FxHashMap<(NtId, usize, usize), Option<TreeId>>,
    /// Builtin invocations that already recorded their failure. The VM
    /// re-executes builtins instead of memoizing them; this set keeps the
    /// *deepest-failure* bookkeeping identical to the interpreter, where a
    /// repeated failing builtin is a silent memo hit. Touched only on the
    /// (rare) builtin failure path.
    builtin_failures: FxHashSet<(NtId, usize, usize)>,
    memoize: bool,
    steps: u64,
    memo_hits: u64,
    max_steps: u64,
    deepest: ParseError,
    /// The frame stack: `frames[..depth]` are live. Slots above `depth`
    /// are dead but keep their allocations (result vectors, environment
    /// spill) for reuse, so pushing a frame never moves one by value.
    frames: Vec<Frame>,
    depth: usize,
    /// Scratch buffer for collecting a completing frame's children.
    scratch: Vec<TreeId>,
    /// Whether the whole input is present. One-shot parses are always
    /// complete; a streaming session flips this in `finish`. While
    /// `false`, operations that read past the buffered prefix or consult
    /// the total length suspend instead of failing.
    complete: bool,
    /// Whether the root frame's input length is still open (streaming
    /// session over an alternatives rule, before end-of-input). The root
    /// frame then carries `len == 0` and an [`Env::initial_open`]
    /// placeholder environment until sealed.
    root_open: bool,
    /// Parked suspension hint: set by a gated evaluation just before it
    /// returns "undefined", examined by the instruction handlers to
    /// distinguish "wait for input" from a genuine failure.
    suspend: Option<Hint>,
    /// Number of suspensions taken (service telemetry).
    suspend_count: u64,
    /// How to re-enter after [`Abort::Suspend`].
    resume: ResumeKind,
    /// Profiling hooks: `()` (disabled — every call compiles away) for
    /// all plain entry points, `&mut Profiler` under
    /// [`VmParser::parse_profiled`].
    prof: PS,
}

impl<I: AsRef<[u8]>, PS: ProfSink> Machine<I, PS> {
    fn stats(&self) -> ParseStats {
        ParseStats { steps: self.steps, memo_hits: self.memo_hits, memo_entries: self.memo.len() }
    }

    /// The buffered input bytes.
    #[inline]
    fn bytes(&self) -> &[u8] {
        self.input.as_ref()
    }

    /// Seals the open root frame once the total input length is known:
    /// the placeholder length and environment become real, and every
    /// suspension gate turns off (`complete` flips in the caller).
    fn seal_root(&mut self) {
        if !self.root_open || self.depth == 0 {
            return;
        }
        let len = self.bytes().len();
        let f = &mut self.frames[0];
        f.len = len;
        f.env.seal(len as i64);
    }

    /// The fuel-exhaustion error, located at the deepest failure so far.
    fn fuel_error(&self, fuel_msg: FuelMsg) -> ParseError {
        ParseError {
            offset: self.deepest.offset,
            nonterminal: self.deepest.nonterminal.clone(),
            msg: fuel_msg.render(self.max_steps),
        }
    }
}

impl<I: AsRef<[u8]>, PS: ProfSink> VmSession<'_, I, PS> {
    #[inline]
    fn tick(&mut self) -> PResult<()> {
        self.m.steps += 1;
        if self.m.steps > self.m.max_steps {
            Err(Abort::FuelExhausted)
        } else {
            Ok(())
        }
    }

    fn record_failure(&mut self, offset: usize, nt: NtId, msg: impl FnOnce(&Grammar) -> String) {
        if offset >= self.m.deepest.offset {
            let g = self.g;
            self.m.deepest =
                ParseError { offset, nonterminal: Some(g.nt_name(nt).to_owned()), msg: msg(g) };
        }
    }

    /// Drives the machine from a root invocation of `nt` to completion.
    fn run_root(&mut self, nt: NtId) -> PResult<Option<TreeId>> {
        let len = self.m.bytes().len();
        let flow = match self.begin_call(nt, 0, len, NO_PARENT)? {
            CallOutcome::Done(r) => return Ok(r),
            CallOutcome::Pushed => Flow::Exec,
        };
        self.drive(flow)
    }

    /// Runs the machine until it finishes (or aborts/suspends).
    fn drive(&mut self, mut flow: Flow) -> PResult<Option<TreeId>> {
        loop {
            flow = match flow {
                Flow::Exec => self.exec_top()?,
                Flow::Deliver(r) => self.resolve_top(r)?,
                Flow::Done(r) => return Ok(r),
            };
        }
    }

    /// Pushes the root frame of a streaming session over an
    /// open-length input (counterpart of [`VmSession::begin_call`]'s
    /// `Alts` arm; builtin/blackbox/empty roots are handled by the
    /// [`Session`] driver, which defers them to end-of-input). Returns
    /// `false` when the rule has no alternatives (immediate failure,
    /// matching the one-shot machine's behavior after its initial tick).
    fn push_open_root(&mut self, nt: NtId) -> PResult<bool> {
        self.tick()?;
        let p = self.p;
        let PRuleKind::Alts { first, count } = p.rules[nt.0 as usize].kind else {
            unreachable!("open roots are only pushed for alternatives rules")
        };
        if count == 0 {
            return Ok(false);
        }
        let alt = p.alts[first as usize];
        if self.m.depth == self.m.frames.len() {
            self.m.frames.push(Frame::default());
        }
        let f = &mut self.m.frames[self.m.depth];
        f.nt = nt;
        f.base = 0;
        f.len = 0; // placeholder until sealed; gated reads suspend instead
        f.alts_first = first;
        f.alts_end = first + count;
        f.alt_cursor = first;
        f.ip = alt.first;
        f.ip_end = alt.first + alt.count;
        f.env = Env::initial_open();
        f.results.clear();
        f.results.resize(alt.n_slots as usize, None);
        f.parent = NO_PARENT;
        f.memoizable = self.m.memoize && !p.rules[nt.0 as usize].is_local;
        f.pending = Pending::None;
        self.m.depth += 1;
        self.m.root_open = true;
        self.m.prof.enter(nt);
        Ok(true)
    }

    /// `s ⊢ A ⇓ R` at `(base, len)`: memo lookup, then direct evaluation
    /// (builtin/blackbox) or a frame push (rules with alternatives).
    fn begin_call(
        &mut self,
        nt: NtId,
        base: usize,
        len: usize,
        parent: u32,
    ) -> PResult<CallOutcome> {
        self.tick()?;
        self.m.prof.call(nt);
        let p = self.p;
        let rule = &p.rules[nt.0 as usize];
        // Builtins are never memoized by the VM: re-decoding a fixed-width
        // integer costs less than a memo insert, hits are rare, and the
        // step count is identical either way (a builtin has no internal
        // ticks). The interpreter memoizes them; only the two engines'
        // memo statistics differ, never steps, trees, or errors.
        if let PRuleKind::Builtin(b) = rule.kind {
            let memoizable = self.m.memoize && !rule.is_local;
            self.m.prof.enter(nt);
            let r = self.builtin_result(nt, b, base, len, memoizable);
            self.m.prof.exit(nt, r.is_some());
            return Ok(CallOutcome::Done(r));
        }
        let memoizable = self.m.memoize && !rule.is_local;
        if memoizable {
            if let Some(cached) = self.m.memo.get(&(nt, base, len)) {
                let cached = *cached;
                self.m.memo_hits += 1;
                self.m.prof.memo(nt, true);
                return Ok(CallOutcome::Done(cached));
            }
            self.m.prof.memo(nt, false);
        }
        match rule.kind {
            PRuleKind::Builtin(_) => unreachable!("handled above"),
            PRuleKind::Blackbox(idx) => {
                self.m.prof.enter(nt);
                let r = self.blackbox_result(nt, idx as usize, base, len);
                self.m.prof.exit(nt, r.is_some());
                if memoizable {
                    self.m.memo.insert((nt, base, len), r);
                }
                Ok(CallOutcome::Done(r))
            }
            PRuleKind::Alts { first, count } => {
                if count == 0 {
                    self.m.prof.enter(nt);
                    self.m.prof.exit(nt, false);
                    if memoizable {
                        self.m.memo.insert((nt, base, len), None);
                    }
                    return Ok(CallOutcome::Done(None));
                }
                let alt = p.alts[first as usize];
                if self.m.depth == self.m.frames.len() {
                    self.m.frames.push(Frame::default());
                }
                let f = &mut self.m.frames[self.m.depth];
                f.nt = nt;
                f.base = base;
                f.len = len;
                f.alts_first = first;
                f.alts_end = first + count;
                f.alt_cursor = first;
                f.ip = alt.first;
                f.ip_end = alt.first + alt.count;
                f.env = Env::initial(len);
                f.results.clear();
                f.results.resize(alt.n_slots as usize, None);
                f.parent = parent;
                f.memoizable = memoizable;
                f.pending = Pending::None;
                self.m.depth += 1;
                self.m.prof.enter(nt);
                Ok(CallOutcome::Pushed)
            }
        }
    }

    fn builtin_result(
        &mut self,
        nt: NtId,
        b: Builtin,
        base: usize,
        len: usize,
        memoizable: bool,
    ) -> Option<TreeId> {
        let local = &self.m.input.as_ref()[base..base + len];
        match run_builtin(b, local) {
            Some((val, consumed)) => {
                let mut env = Env::initial(len);
                env.fast_upd_start_end(0, consumed as i64, consumed > 0);
                // `val` is absent from the fresh environment; append it
                // without the membership scan `set` would do.
                env.push_scope(wellknown::VAL, val);
                let leaf = self.m.arena.alloc_leaf(base, base + consumed);
                Some(self.m.arena.alloc_node(nt, env, &[leaf], base, len, 0))
            }
            None => {
                // Where the interpreter's memo would make a repeated
                // failure a silent hit, suppress the duplicate recording
                // so the deepest-failure error stays identical.
                if !memoizable || self.m.builtin_failures.insert((nt, base, len)) {
                    self.record_failure(base, nt, |_| format!("builtin `{b}` failed"));
                }
                None
            }
        }
    }

    fn blackbox_result(&mut self, nt: NtId, idx: usize, base: usize, len: usize) -> Option<TreeId> {
        let g = self.g;
        let bb = &g.blackboxes()[idx];
        let local = &self.m.input.as_ref()[base..base + len];
        match (bb.run)(local) {
            Ok(res) => {
                let mut env = Env::initial(len);
                let consumed = res.consumed.min(len);
                env.fast_upd_start_end(0, consumed as i64, consumed > 0);
                for (name, value) in bb.attrs.iter().zip(&res.attr_values) {
                    if let Some(sym) = g.attr_sym(name) {
                        env.set(sym, *value);
                    }
                }
                Some(self.m.arena.alloc_blackbox(nt, env, res.data.into(), base, len))
            }
            Err(msg) => {
                self.record_failure(base, nt, |_| format!("blackbox failed: {msg}"));
                None
            }
        }
    }

    /// Executes instructions of the top frame until it blocks on a child
    /// call, completes, or fails.
    fn exec_top(&mut self) -> PResult<Flow> {
        loop {
            let fi = self.m.depth - 1;
            let (ip, ip_end) = {
                let f = &self.m.frames[fi];
                (f.ip, f.ip_end)
            };
            let flow = if ip == ip_end {
                self.complete_top()?
            } else {
                self.tick()?;
                self.m.prof.instr(ip);
                match self.p.code[ip as usize] {
                    Instr::Match { lit, lo, hi, slot } => self.exec_match(fi, lit, lo, hi, slot)?,
                    Instr::Call { nt, lo, hi, slot } => self.dispatch_call(fi, nt, lo, hi, slot)?,
                    Instr::Set { attr, expr } => self.exec_set(fi, attr, expr)?,
                    Instr::Guard { expr } => self.exec_guard(fi, expr)?,
                    Instr::Loop { var, from, to, nt, lo, hi, slot } => {
                        self.exec_loop(fi, var, from, to, nt, lo, hi, slot)?
                    }
                    Instr::Star { nt, lo, hi, slot } => self.exec_star(fi, nt, lo, hi, slot)?,
                    Instr::Switch { first, count, slot } => {
                        self.exec_switch(fi, first, count, slot)?
                    }
                }
            };
            match flow {
                // Either the same frame continues (next instruction or
                // next alternative) or a child frame was pushed — both
                // mean "execute the current top frame".
                Flow::Exec => continue,
                other => return Ok(other),
            }
        }
    }

    /// The current alternative failed: try the next one, or fail the rule.
    fn fail_alt(&mut self, fi: usize) -> Flow {
        let p = self.p;
        let open = fi == 0 && self.m.root_open && !self.m.complete;
        let f = &mut self.m.frames[fi];
        f.alt_cursor += 1;
        if f.alt_cursor < f.alts_end {
            let alt = p.alts[f.alt_cursor as usize];
            f.ip = alt.first;
            f.ip_end = alt.first + alt.count;
            f.env = if open { Env::initial_open() } else { Env::initial(f.len) };
            f.results.clear();
            f.results.resize(alt.n_slots as usize, None);
            f.pending = Pending::None;
            Flow::Exec
        } else {
            self.m.depth -= 1;
            let f = &mut self.m.frames[self.m.depth];
            f.pending = Pending::None;
            if f.memoizable {
                let key = (f.nt, f.base, f.len);
                self.m.memo.insert(key, None);
            }
            let failed = self.m.frames[self.m.depth].nt;
            self.m.prof.exit(failed, false);
            if self.m.depth == 0 {
                Flow::Done(None)
            } else {
                Flow::Deliver(None)
            }
        }
    }

    /// All terms of the current alternative succeeded: build the node.
    ///
    /// An open root may not complete before end-of-input: its node would
    /// freeze a placeholder `EOI`/`start`, and a longer input could still
    /// arrive. The caller sees this as a suspension (no step to rewind —
    /// completion does not tick).
    fn complete_top(&mut self) -> PResult<Flow> {
        if self.m.depth == 1 && self.m.root_open && !self.m.complete {
            return self.suspended(Hint::UntilEnd, 0, ResumeKind::Exec);
        }
        self.m.depth -= 1;
        let f = &mut self.m.frames[self.m.depth];
        let env = std::mem::take(&mut f.env);
        let (nt, base, len) = (f.nt, f.base, f.len);
        let alt_index = f.alt_cursor - f.alts_first;
        let memoizable = f.memoizable;
        f.pending = Pending::None;
        self.m.prof.exit(nt, true);
        self.m.scratch.clear();
        let f = &self.m.frames[self.m.depth];
        self.m.scratch.extend(f.results.iter().flatten().copied());
        let id = self.m.arena.alloc_node(nt, env, &self.m.scratch, base, len, alt_index);
        if memoizable {
            self.m.memo.insert((nt, base, len), Some(id));
        }
        if self.m.depth == 0 {
            Ok(Flow::Done(Some(id)))
        } else {
            Ok(Flow::Deliver(Some(id)))
        }
    }

    /// Finalizes a suspension: rewinds the `rewind` step ticks the
    /// retried operation will pay again on resume, counts it, and
    /// remembers how to re-enter. The hint must already be parked in
    /// [`VmSession::suspend`] (gated evaluations do that themselves).
    #[cold]
    fn suspend_here(&mut self, rewind: u64, resume: ResumeKind) -> Abort {
        debug_assert!(self.m.suspend.is_some());
        self.m.steps -= rewind;
        self.m.suspend_count += 1;
        if self.m.depth > 0 {
            let pc = self.m.frames[self.m.depth - 1].ip;
            self.m.prof.suspend(pc);
        }
        self.m.resume = resume;
        Abort::Suspend
    }

    /// Suspension with an explicit hint (sites that block without going
    /// through a gated evaluation, e.g. a blocked root completion).
    #[cold]
    fn suspended(&mut self, hint: Hint, rewind: u64, resume: ResumeKind) -> PResult<Flow> {
        self.m.suspend = Some(hint);
        Err(self.suspend_here(rewind, resume))
    }

    /// Instruction-level suspension after a gated evaluation returned
    /// "undefined": the current instruction re-executes on resume, so its
    /// `exec_top` tick is rewound.
    #[cold]
    fn suspend_instr(&mut self) -> PResult<Flow> {
        Err(self.suspend_here(1, ResumeKind::Exec))
    }

    /// A child call finished; resume the pending term of the top frame.
    fn resolve_top(&mut self, ret: Option<TreeId>) -> PResult<Flow> {
        let fi = self.m.depth - 1;
        match std::mem::replace(&mut self.m.frames[fi].pending, Pending::None) {
            Pending::Call { slot, l } => self.finish_call(fi, slot, l, ret),
            Pending::Loop(mut st) => match ret {
                Some(sub) => {
                    self.loop_push(fi, &mut st, sub);
                    self.loop_next(fi, st)
                }
                None => {
                    self.m.frames[fi].env.pop_scope();
                    Ok(self.fail_alt(fi))
                }
            },
            Pending::Star(mut st) => match ret {
                Some(sub) => {
                    if self.star_push(&mut st, sub) {
                        self.star_next(fi, st)
                    } else {
                        Ok(self.finish_star(fi, st))
                    }
                }
                None => Ok(self.finish_star(fi, st)),
            },
            Pending::None => unreachable!("result delivered with no pending term"),
        }
    }

    fn exec_match(
        &mut self,
        fi: usize,
        lit: LitSpan,
        lo: ExprId,
        hi: ExprId,
        slot: u16,
    ) -> PResult<Flow> {
        let (base, nt) = {
            let f = &self.m.frames[fi];
            (f.base, f.nt)
        };
        let Some((l, r)) = self.eval_interval(lo, hi, fi) else {
            if self.m.suspend.is_some() {
                return self.suspend_instr();
            }
            self.record_failure(base, nt, |_| "invalid terminal interval".into());
            return Ok(self.fail_alt(fi));
        };
        let blen = lit.len as usize;
        // T-Ter: 0 ≤ l ≤ r ≤ |s|, r − l ≥ |s1|, s[l, l+|s1|] = s1.
        if r - l < blen as i64 {
            self.record_failure(base + l as usize, nt, |_| {
                format!("interval too short for terminal of length {blen}")
            });
            return Ok(self.fail_alt(fi));
        }
        let al = base + l as usize;
        let bytes = &self.p.lits[lit.start as usize..lit.start as usize + blen];
        if self.m.bytes()[al..al + blen] != *bytes {
            self.record_failure(al, nt, |_| {
                format!("terminal mismatch (expected {})", super::preview(bytes))
            });
            return Ok(self.fail_alt(fi));
        }
        let leaf = self.m.arena.alloc_leaf(al, al + blen);
        let f = &mut self.m.frames[fi];
        f.env.fast_upd_start_end(l, r, blen != 0);
        f.results[slot as usize] = Some(leaf);
        f.ip += 1;
        Ok(Flow::Exec)
    }

    fn exec_set(&mut self, fi: usize, attr: Sym, expr: ExprId) -> PResult<Flow> {
        match self.eval(expr, fi) {
            Some(v) => {
                let f = &mut self.m.frames[fi];
                f.env.set(attr, v);
                f.ip += 1;
                Ok(Flow::Exec)
            }
            None => {
                if self.m.suspend.is_some() {
                    return self.suspend_instr();
                }
                let (base, nt) = {
                    let f = &self.m.frames[fi];
                    (f.base, f.nt)
                };
                self.record_failure(base, nt, |g| {
                    format!("attribute `{}` evaluation failed", g.attr_name(attr))
                });
                Ok(self.fail_alt(fi))
            }
        }
    }

    fn exec_guard(&mut self, fi: usize, expr: ExprId) -> PResult<Flow> {
        let (base, nt) = {
            let f = &self.m.frames[fi];
            (f.base, f.nt)
        };
        match self.eval(expr, fi) {
            Some(v) if v != 0 => {
                self.m.frames[fi].ip += 1;
                Ok(Flow::Exec)
            }
            Some(_) => {
                self.record_failure(base, nt, |_| "predicate failed".into());
                Ok(self.fail_alt(fi))
            }
            None => {
                if self.m.suspend.is_some() {
                    return self.suspend_instr();
                }
                self.record_failure(base, nt, |_| "predicate evaluation failed".into());
                Ok(self.fail_alt(fi))
            }
        }
    }

    /// T-NTSucc / T-NTFail for a symbol term or selected switch case:
    /// evaluate the interval and invoke the callee.
    fn dispatch_call(
        &mut self,
        fi: usize,
        callee: NtId,
        lo: ExprId,
        hi: ExprId,
        slot: u16,
    ) -> PResult<Flow> {
        let (base, nt) = {
            let f = &self.m.frames[fi];
            (f.base, f.nt)
        };
        let Some((l, r)) = self.eval_interval(lo, hi, fi) else {
            if self.m.suspend.is_some() {
                return self.suspend_instr();
            }
            self.record_failure(base, nt, |g| {
                format!("invalid interval for `{}`", g.nt_name(callee))
            });
            return Ok(self.fail_alt(fi));
        };
        let parent = if self.p.rules[callee.0 as usize].is_local { fi as u32 } else { NO_PARENT };
        match self.begin_call(callee, base + l as usize, (r - l) as usize, parent)? {
            CallOutcome::Pushed => {
                self.m.frames[fi].pending = Pending::Call { slot, l };
                Ok(Flow::Exec)
            }
            CallOutcome::Done(res) => self.finish_call(fi, slot, l, res),
        }
    }

    /// Caller-side completion of a symbol/switch call: re-base the
    /// callee's `start`/`end` and widen the caller's touched region.
    fn finish_call(&mut self, fi: usize, slot: u16, l: i64, ret: Option<TreeId>) -> PResult<Flow> {
        match ret {
            Some(sub) => {
                let (cs, ce) = self.m.arena.start_end(sub);
                let adjusted = self.m.arena.adjust(sub, l);
                let f = &mut self.m.frames[fi];
                f.env.fast_upd_start_end(l + cs, l + ce, ce != 0);
                f.results[slot as usize] = Some(adjusted);
                f.ip += 1;
                Ok(Flow::Exec)
            }
            None => Ok(self.fail_alt(fi)),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn exec_loop(
        &mut self,
        fi: usize,
        var: Sym,
        from: ExprId,
        to: ExprId,
        nt: NtId,
        lo: ExprId,
        hi: ExprId,
        slot: u16,
    ) -> PResult<Flow> {
        let (base, len, caller) = {
            let f = &self.m.frames[fi];
            (f.base, f.len, f.nt)
        };
        let (i, j) = match (self.eval(from, fi), self.eval(to, fi)) {
            (Some(i), Some(j)) => (i, j),
            _ => {
                if self.m.suspend.is_some() {
                    return self.suspend_instr();
                }
                self.record_failure(base, caller, |_| "array bounds evaluation failed".into());
                return Ok(self.fail_alt(fi));
            }
        };
        let mut elems = Vec::new();
        if j > i {
            elems.reserve((j - i).min(len as i64 + 1) as usize);
        }
        self.m.frames[fi].env.push_scope(var, i);
        self.loop_next(fi, LoopSt { slot, var, k: i, j, nt, lo, hi, l: 0, elems })
    }

    /// One iteration step of a `for` term (entered fresh and after every
    /// delivered element).
    fn loop_next(&mut self, fi: usize, mut st: LoopSt) -> PResult<Flow> {
        loop {
            if st.k >= st.j {
                self.m.frames[fi].env.pop_scope();
                let id = self.m.arena.alloc_array(st.nt, &st.elems);
                let f = &mut self.m.frames[fi];
                f.results[st.slot as usize] = Some(id);
                f.ip += 1;
                return Ok(Flow::Exec);
            }
            self.tick()?;
            self.m.frames[fi].env.set_top(st.var, st.k);
            let (base, caller) = {
                let f = &self.m.frames[fi];
                (f.base, f.nt)
            };
            let Some((l, r)) = self.eval_interval(st.lo, st.hi, fi) else {
                if self.m.suspend.is_some() {
                    // Stash the iteration state; resume re-enters this
                    // loop step (re-paying the iteration tick rewound
                    // here). The pushed loop-variable scope stays.
                    self.m.frames[fi].pending = Pending::Loop(st);
                    return Err(self.suspend_here(1, ResumeKind::LoopIter));
                }
                self.record_failure(base, caller, |g| {
                    format!("invalid interval for `{}`", g.nt_name(st.nt))
                });
                self.m.frames[fi].env.pop_scope();
                return Ok(self.fail_alt(fi));
            };
            st.l = l;
            let parent =
                if self.p.rules[st.nt.0 as usize].is_local { fi as u32 } else { NO_PARENT };
            match self.begin_call(st.nt, base + l as usize, (r - l) as usize, parent)? {
                CallOutcome::Pushed => {
                    self.m.frames[fi].pending = Pending::Loop(st);
                    return Ok(Flow::Exec);
                }
                CallOutcome::Done(Some(sub)) => self.loop_push(fi, &mut st, sub),
                CallOutcome::Done(None) => {
                    self.m.frames[fi].env.pop_scope();
                    return Ok(self.fail_alt(fi));
                }
            }
        }
    }

    /// Accept one delivered loop element (mirror of the interpreter's
    /// per-iteration `call_nt_on_interval` tail).
    fn loop_push(&mut self, fi: usize, st: &mut LoopSt, sub: TreeId) {
        let (cs, ce) = self.m.arena.start_end(sub);
        let adjusted = self.m.arena.adjust(sub, st.l);
        let f = &mut self.m.frames[fi];
        f.env.fast_upd_start_end(st.l + cs, st.l + ce, ce != 0);
        st.elems.push(adjusted);
        st.k += 1;
    }

    fn exec_star(
        &mut self,
        fi: usize,
        nt: NtId,
        lo: ExprId,
        hi: ExprId,
        slot: u16,
    ) -> PResult<Flow> {
        let (base, caller) = {
            let f = &self.m.frames[fi];
            (f.base, f.nt)
        };
        let Some((l, r)) = self.eval_interval(lo, hi, fi) else {
            if self.m.suspend.is_some() {
                return self.suspend_instr();
            }
            self.record_failure(base, caller, |_| "invalid star interval".into());
            return Ok(self.fail_alt(fi));
        };
        let st = StarSt {
            slot,
            nt,
            l,
            star_base: base + l as usize,
            star_len: (r - l) as usize,
            pos: 0,
            elems: Vec::new(),
        };
        self.star_next(fi, st)
    }

    /// One repetition step of a `star` term: the next repetition starts
    /// where the previous one ended.
    fn star_next(&mut self, fi: usize, mut st: StarSt) -> PResult<Flow> {
        loop {
            self.tick()?;
            if st.pos > st.star_len {
                return Ok(self.finish_star(fi, st));
            }
            let parent =
                if self.p.rules[st.nt.0 as usize].is_local { fi as u32 } else { NO_PARENT };
            match self.begin_call(st.nt, st.star_base + st.pos, st.star_len - st.pos, parent)? {
                CallOutcome::Pushed => {
                    self.m.frames[fi].pending = Pending::Star(st);
                    return Ok(Flow::Exec);
                }
                CallOutcome::Done(Some(sub)) => {
                    if !self.star_push(&mut st, sub) {
                        return Ok(self.finish_star(fi, st));
                    }
                }
                CallOutcome::Done(None) => return Ok(self.finish_star(fi, st)),
            }
        }
    }

    /// Accept one delivered repetition; returns `false` when the
    /// repetition made no progress (which ends the star after it).
    fn star_push(&mut self, st: &mut StarSt, sub: TreeId) -> bool {
        let (_, ce) = self.m.arena.start_end(sub);
        let adjusted = self.m.arena.adjust(sub, st.pos as i64 + st.l);
        st.elems.push(adjusted);
        if ce == 0 {
            return false;
        }
        st.pos += ce as usize;
        true
    }

    fn finish_star(&mut self, fi: usize, st: StarSt) -> Flow {
        let caller = self.m.frames[fi].nt;
        if st.elems.is_empty() {
            self.record_failure(st.star_base, caller, |g| {
                format!("star needs at least one `{}`", g.nt_name(st.nt))
            });
            return self.fail_alt(fi);
        }
        let id = self.m.arena.alloc_array(st.nt, &st.elems);
        let f = &mut self.m.frames[fi];
        f.env.fast_upd_start_end(st.l, st.l + st.pos as i64, st.pos > 0);
        f.results[st.slot as usize] = Some(id);
        f.ip += 1;
        Flow::Exec
    }

    fn exec_switch(&mut self, fi: usize, first: u32, count: u16, slot: u16) -> PResult<Flow> {
        let (base, nt) = {
            let f = &self.m.frames[fi];
            (f.base, f.nt)
        };
        let p = self.p;
        let mut selected = None;
        for case in &p.cases[first as usize..first as usize + count as usize] {
            match case.cond {
                Some(c) => match self.eval(c, fi) {
                    Some(0) => continue,
                    Some(_) => {
                        selected = Some(*case);
                        break;
                    }
                    None => break,
                },
                None => {
                    selected = Some(*case);
                    break;
                }
            }
        }
        match selected {
            Some(case) => self.dispatch_call(fi, case.nt, case.lo, case.hi, slot),
            None => {
                if self.m.suspend.is_some() {
                    return self.suspend_instr();
                }
                self.record_failure(base, nt, |_| "switch guard evaluation failed".into());
                Ok(self.fail_alt(fi))
            }
        }
    }

    /// Evaluates an interval, valid only when `0 ≤ l ≤ r ≤ len`.
    ///
    /// In the open root frame of a streaming session the total length is
    /// not known yet: `0 ≤ l ≤ r` is still decidable, but `r ≤ len` is
    /// not. An `r` within the buffered prefix is guaranteed valid (the
    /// final length can only be larger); an `r` beyond it parks a
    /// byte-count hint and reads as "undefined" so the instruction
    /// handler suspends instead of failing.
    fn eval_interval(&mut self, lo: ExprId, hi: ExprId, fi: usize) -> Option<(i64, i64)> {
        let l = self.eval(lo, fi)?;
        let r = self.eval(hi, fi)?;
        if fi == 0 && self.m.root_open && !self.m.complete {
            if !(0 <= l && l <= r) {
                return None;
            }
            let avail = self.m.bytes().len() as i64;
            if r > avail {
                self.m.suspend = Some(Hint::Bytes((r - avail) as usize));
                return None;
            }
            return Some((l, r));
        }
        let len = self.m.frames[fi].len;
        if 0 <= l && l <= r && r <= len as i64 {
            Some((l, r))
        } else {
            None
        }
    }

    /// `σ(E, Tr, e)` over the flat expression pool; `None` when undefined.
    /// The leaf cases inline into the interval-evaluation hot path; the
    /// recursive cases live in [`VmSession::eval_complex`].
    #[inline]
    fn eval(&mut self, e: ExprId, fi: usize) -> Option<i64> {
        match self.p.exprs[e.0 as usize] {
            BExpr::Num(n) => Some(n),
            BExpr::Eoi => self.eval_eoi(fi),
            BExpr::Local(sym) => self.lookup_local(fi, sym),
            BExpr::NtAttr { slot, nt, attr } => {
                let id = self.m.frames[fi].results[slot as usize]?;
                self.m.arena.node_attr(id, nt, attr)
            }
            other => self.eval_complex(other, fi),
        }
    }

    fn eval_complex(&mut self, e: BExpr, fi: usize) -> Option<i64> {
        match e {
            BExpr::Num(n) => Some(n),
            BExpr::Eoi => self.eval_eoi(fi),
            BExpr::Local(sym) => self.lookup_local(fi, sym),
            BExpr::Bin(op, a, b) => {
                let a = self.eval(a, fi)?;
                let b = self.eval(b, fi)?;
                eval_binop(op, a, b)
            }
            BExpr::Cond(c, t, f) => {
                if self.eval(c, fi)? != 0 {
                    self.eval(t, fi)
                } else {
                    self.eval(f, fi)
                }
            }
            BExpr::NtAttr { slot, nt, attr } => {
                let id = self.m.frames[fi].results[slot as usize]?;
                self.m.arena.node_attr(id, nt, attr)
            }
            BExpr::ElemAttr { slot, nt, index, attr } => {
                let k = self.eval(index, fi)?;
                let id = self.m.frames[fi].results[slot as usize]?;
                let Entry::Array(a) = self.m.arena.entry(id) else { return None };
                if a.nt != nt || k < 0 {
                    return None;
                }
                let elem = *self.m.arena.child_ids(a.elems).get(k as usize)?;
                self.m.arena.node_attr(elem, nt, attr)
            }
            BExpr::OuterAttr { nt, attr } => {
                let id = self.lookup_outer_node(fi, nt)?;
                self.m.arena.node_attr(id, nt, attr)
            }
            BExpr::OuterElem { nt, index, attr } => {
                let k = self.eval(index, fi)?;
                if k < 0 {
                    return None;
                }
                let arr = self.lookup_outer_array(fi, nt)?;
                let Entry::Array(a) = self.m.arena.entry(arr) else { return None };
                let elem = *self.m.arena.child_ids(a.elems).get(k as usize)?;
                self.m.arena.node_attr(elem, nt, attr)
            }
            BExpr::Exists { var, slot, nt, cond, then, els } => {
                // Only the element *count* is needed up front, as in the
                // interpreter.
                let n = match slot {
                    Some(sl) => {
                        let id = self.m.frames[fi].results[sl as usize]?;
                        match self.m.arena.entry(id) {
                            Entry::Array(a) if a.nt == nt => a.elems.len as usize,
                            _ => return None,
                        }
                    }
                    None => {
                        let id = self.lookup_outer_array(fi, nt)?;
                        match self.m.arena.entry(id) {
                            Entry::Array(a) => a.elems.len as usize,
                            _ => return None,
                        }
                    }
                };
                let mut found: Option<i64> = None;
                self.m.frames[fi].env.push_scope(var, 0);
                for k in 0..n {
                    self.m.frames[fi].env.set_top(var, k as i64);
                    match self.eval(cond, fi) {
                        Some(0) => continue,
                        Some(_) => {
                            found = Some(k as i64);
                            break;
                        }
                        None => {
                            self.m.frames[fi].env.pop_scope();
                            return None;
                        }
                    }
                }
                match found {
                    Some(k) => {
                        self.m.frames[fi].env.set_top(var, k);
                        let v = self.eval(then, fi);
                        self.m.frames[fi].env.pop_scope();
                        v
                    }
                    None => {
                        self.m.frames[fi].env.pop_scope();
                        self.eval(els, fi)
                    }
                }
            }
        }
    }

    /// `EOI` of the frame's own input. The open root's length is not
    /// known before end-of-input: park an until-end hint and read as
    /// "undefined" so the caller suspends.
    #[inline]
    fn eval_eoi(&mut self, fi: usize) -> Option<i64> {
        if fi == 0 && self.m.root_open && !self.m.complete {
            self.m.suspend = Some(Hint::UntilEnd);
            return None;
        }
        Some(self.m.frames[fi].env.fast_eoi())
    }

    /// Current environment, falling through to the invoking alternative's
    /// environment for local rules (mirror of `AltCtx::lookup_local`).
    ///
    /// Every frame's environment carries its own `EOI`/`start`, so those
    /// two symbols never fall through to an outer frame — which means the
    /// open-root gate below can only fire for the root's own terms
    /// (`fi == 0`), where the placeholders must not be read before
    /// sealing.
    fn lookup_local(&mut self, fi: usize, sym: Sym) -> Option<i64> {
        if fi == 0
            && self.m.root_open
            && !self.m.complete
            && (sym == wellknown::EOI || sym == wellknown::START)
        {
            self.m.suspend = Some(Hint::UntilEnd);
            return None;
        }
        let mut i = fi as u32;
        loop {
            let f = &self.m.frames[i as usize];
            if let Some(v) = f.env.get(sym) {
                return Some(v);
            }
            if f.parent == NO_PARENT {
                return None;
            }
            i = f.parent;
        }
    }

    /// Most recently written completed node/blackbox of `nt` in the
    /// context chain (mirror of `AltCtx::lookup_outer_node`).
    fn lookup_outer_node(&self, fi: usize, nt: NtId) -> Option<TreeId> {
        let mut i = fi as u32;
        loop {
            let f = &self.m.frames[i as usize];
            for id in f.results.iter().rev().flatten() {
                match self.m.arena.entry(*id) {
                    Entry::Node(n) if n.nt == nt => return Some(*id),
                    Entry::Blackbox(b) if b.nt == nt => return Some(*id),
                    _ => {}
                }
            }
            if f.parent == NO_PARENT {
                return None;
            }
            i = f.parent;
        }
    }

    /// Mirror of `AltCtx::lookup_outer_array`.
    fn lookup_outer_array(&self, fi: usize, nt: NtId) -> Option<TreeId> {
        let mut i = fi as u32;
        loop {
            let f = &self.m.frames[i as usize];
            for id in f.results.iter().rev().flatten() {
                if let Entry::Array(a) = self.m.arena.entry(*id) {
                    if a.nt == nt {
                        return Some(*id);
                    }
                }
            }
            if f.parent == NO_PARENT {
                return None;
            }
            i = f.parent;
        }
    }
}

/// What a suspended [`Session`] is waiting for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Hint {
    /// At least this many more bytes beyond the current buffer.
    Bytes(usize),
    /// Only end-of-input unlocks progress — the parse is consulting `EOI`
    /// (see [`AnchorRequirement`]); call [`Session::finish`].
    UntilEnd,
}

/// Three-way outcome of [`Session::feed`] / [`Session::finish`].
#[derive(Debug)]
pub enum Outcome {
    /// The parse completed; the tree is handed over exactly once.
    Done(ParseTree),
    /// The parse failed (or the session was misused); terminal.
    Error(Error),
    /// The machine is suspended waiting for more input.
    NeedInput {
        /// What would unlock progress.
        hint: Hint,
    },
}

impl Outcome {
    /// The error, if this outcome is one.
    pub fn err(&self) -> Option<&Error> {
        match self {
            Outcome::Error(e) => Some(e),
            _ => None,
        }
    }
}

/// Where a session is in its lifecycle.
enum Phase {
    /// Machine not started; the next feed starts it.
    Fresh,
    /// Machine suspended in place. `need` is the buffered size at which a
    /// retry can make progress (`None`: only `finish` resumes).
    Suspended { need: Option<usize>, hint: Hint },
    /// The root rule is a builtin/blackbox over the whole input: nothing
    /// can run before end-of-input, so feeds only buffer.
    Deferred,
    /// Result delivered or session poisoned; terminal.
    Closed,
}

/// A streaming-resumable VM parse: input arrives incrementally via
/// [`Session::feed`], the machine runs exactly as far as the buffered
/// prefix determines, and [`Session::finish`] signals end-of-input.
///
/// The contract mirrored by `tests/streaming.rs`: for *any* chunking of
/// the input, the resulting tree, step count, and error are identical to
/// [`VmParser::parse`] over the whole buffer (and therefore to the
/// reference interpreter). The machine suspends in place — frame stack,
/// arena, and memo intact — whenever an instruction would read past the
/// buffered prefix or consult the not-yet-known total length, and resumes
/// from the exact blocked operation.
///
/// How much can run before `finish` is grammar-dependent; see
/// [`VmParser::anchor`] and [`crate::analysis::anchor_requirement`]. An
/// EOI-anchored grammar (e.g. ZIP's end-of-central-directory) suspends
/// with [`Hint::UntilEnd`] almost immediately and does its work at
/// `finish`; a grammar with computed intervals streams record by record.
///
/// ```
/// use ipg_core::frontend::parse_grammar;
/// use ipg_core::interp::vm::{Hint, Outcome, VmParser};
///
/// let g = parse_grammar(
///     r#"
///     S -> Len[0, 2] {n = Len.val} Body[2, 2 + n];
///     Len := u16be;
///     Body := bytes;
///     "#,
/// )?;
/// let parser = VmParser::new(&g);
/// let mut session = parser.streaming();
/// // Feed the header; the machine asks for the body bytes it now knows
/// // it needs.
/// match session.feed(&[0, 4]) {
///     Outcome::NeedInput { hint: Hint::Bytes(n) } => assert_eq!(n, 4),
///     other => panic!("{other:?}"),
/// }
/// session.feed(b"data");
/// let Outcome::Done(tree) = session.finish() else { panic!() };
/// assert_eq!(tree.root().child_node_nt(g.nt_id("Body").unwrap()).unwrap().span(), (2, 6));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct Session<'g> {
    /// This session's own clone of its parser; every call re-borrows its
    /// grammar and program.
    parser: VmParser<'g>,
    /// The machine state, parked by value between calls. `None` only
    /// while [`Session::pump`] runs it.
    machine: Option<Machine<Vec<u8>>>,
    phase: Phase,
    max_bytes: Option<usize>,
    /// Parked terminal error, replayed on any use after close.
    err: Option<Error>,
}

impl<'g> Session<'g> {
    /// Opens a session on `parser` (see also [`VmParser::streaming`]).
    pub fn new(parser: &VmParser<'g>) -> Self {
        let mut machine = parser.machine(Vec::new(), ());
        machine.complete = false;
        let p = parser.program();
        let phase = match p.rules[p.start_nt().0 as usize].kind {
            PRuleKind::Alts { .. } => Phase::Fresh,
            // A builtin/blackbox root consumes "its interval" — the whole
            // input — so nothing can run early.
            _ => Phase::Deferred,
        };
        Session {
            parser: parser.clone(),
            machine: Some(machine),
            phase,
            max_bytes: None,
            err: None,
        }
    }

    fn m(&self) -> &Machine<Vec<u8>> {
        self.machine.as_ref().expect("the machine is parked between calls")
    }

    fn m_mut(&mut self) -> &mut Machine<Vec<u8>> {
        self.machine.as_mut().expect("the machine is parked between calls")
    }

    /// Caps the total buffered bytes; exceeding the cap poisons the
    /// session with a clean [`Error::Session`].
    pub fn max_bytes(mut self, cap: usize) -> Self {
        self.max_bytes = Some(cap);
        self
    }

    /// Overrides the parser's step fuel for this session only.
    pub fn max_steps(mut self, steps: u64) -> Self {
        self.m_mut().max_steps = steps;
        self
    }

    /// The grammar's anchor requirement (see [`VmParser::anchor`]).
    pub fn anchor(&self) -> AnchorRequirement {
        self.parser.anchor()
    }

    /// Bytes buffered so far.
    pub fn buffered(&self) -> usize {
        self.m().input.len()
    }

    /// Number of suspensions taken so far (service telemetry).
    pub fn suspends(&self) -> u64 {
        self.m().suspend_count
    }

    /// Engine statistics so far (steps are comparable with the one-shot
    /// engines at completion).
    pub fn stats(&self) -> ParseStats {
        self.m().stats()
    }

    /// Whether the session has delivered its result (or was poisoned).
    pub fn is_closed(&self) -> bool {
        matches!(self.phase, Phase::Closed)
    }

    /// Appends `chunk` and runs the machine as far as the buffered prefix
    /// determines. Never returns [`Outcome::Done`]: even a fully-consumed
    /// input could be extended, so completion is only decided by
    /// [`Session::finish`]. An [`Outcome::Error`] is a *determined*
    /// rejection: every input with this prefix fails identically.
    pub fn feed(&mut self, chunk: &[u8]) -> Outcome {
        if let Phase::Closed = self.phase {
            return Outcome::Error(self.closed_error());
        }
        if let Some(cap) = self.max_bytes {
            if self.buffered().saturating_add(chunk.len()) > cap {
                return self.poison(Error::Session(format!(
                    "input exceeds the session byte budget of {cap}"
                )));
            }
        }
        self.m_mut().input.extend_from_slice(chunk);
        match self.phase {
            Phase::Deferred => Outcome::NeedInput { hint: Hint::UntilEnd },
            Phase::Fresh => self.pump(),
            Phase::Suspended { need, hint } => {
                // Skip the re-attempt while the known byte shortfall is
                // still unmet (the common 1-byte-chunk path), restating
                // the hint against the *current* buffer so partial feeds
                // see the remaining shortfall, not the original one.
                match need {
                    Some(n) if self.buffered() >= n => self.pump(),
                    Some(n) => Outcome::NeedInput { hint: Hint::Bytes(n - self.buffered()) },
                    None => Outcome::NeedInput { hint },
                }
            }
            Phase::Closed => unreachable!("handled above"),
        }
    }

    /// Signals end-of-input: the total length becomes known, every
    /// suspension gate opens, and the machine runs to completion.
    /// Returns [`Outcome::Done`] or [`Outcome::Error`], never
    /// [`Outcome::NeedInput`].
    pub fn finish(&mut self) -> Outcome {
        if let Phase::Closed = self.phase {
            return Outcome::Error(self.closed_error());
        }
        let m = self.m_mut();
        m.complete = true;
        m.seal_root();
        self.pump()
    }

    /// Starts or resumes the machine and classifies how it stopped. The
    /// parked machine runs against this session's own parser for the
    /// length of the call and is parked again before returning.
    fn pump(&mut self) -> Outcome {
        let core = &*self.parser.core;
        let m = self.machine.take().expect("the machine is parked between calls");
        let mut vm = VmSession { g: &core.grammar, p: &core.program, m };
        let resume = matches!(self.phase, Phase::Suspended { .. });
        let step = vm.step(resume, core.program.start_nt());
        let outcome = match step {
            Ok(Some(root)) => {
                let arena = std::mem::replace(&mut vm.m.arena, TreeArena::empty(vm.p.nt_table()));
                // `err` stays `None`: the misuse error for feeding a
                // delivered session is built lazily in `closed_error`.
                self.phase = Phase::Closed;
                Outcome::Done(ParseTree { arena, root })
            }
            Ok(None) => Outcome::Error(Error::Parse(vm.m.deepest.clone())),
            Err(Abort::FuelExhausted) => {
                Outcome::Error(Error::Parse(vm.m.fuel_error(FuelMsg::Verbose)))
            }
            Err(Abort::Suspend) => {
                debug_assert!(!vm.m.complete, "no suspension can fire after end-of-input");
                let hint = vm.m.suspend.take().expect("suspension parks a hint");
                let need = match hint {
                    Hint::Bytes(n) => Some(vm.m.bytes().len() + n),
                    Hint::UntilEnd => None,
                };
                self.phase = Phase::Suspended { need, hint };
                Outcome::NeedInput { hint }
            }
        };
        self.machine = Some(vm.m);
        match outcome {
            Outcome::Error(e) => self.poison(e),
            other => other,
        }
    }

    fn poison(&mut self, e: Error) -> Outcome {
        self.phase = Phase::Closed;
        self.err = Some(e.clone());
        Outcome::Error(e)
    }

    fn closed_error(&self) -> Error {
        self.err
            .clone()
            .unwrap_or_else(|| Error::Session("session already delivered its result".into()))
    }
}

impl VmSession<'_, Vec<u8>> {
    /// One streaming driver step: start the root, or with `resume`
    /// re-enter the suspended operation, then drive until
    /// done/suspended/aborted.
    fn step(&mut self, resume: bool, start_nt: NtId) -> PResult<Option<TreeId>> {
        if !resume {
            if self.m.complete {
                // Nothing ran before end-of-input: plain one-shot parse
                // over the whole buffer (also the builtin/blackbox-root
                // path).
                return self.run_root(start_nt);
            }
            return match self.push_open_root(start_nt)? {
                true => self.drive(Flow::Exec),
                false => Ok(None), // zero-alternative root: immediate failure
            };
        }
        let flow = match self.m.resume {
            ResumeKind::Exec => Flow::Exec,
            ResumeKind::LoopIter => {
                let fi = self.m.depth - 1;
                match std::mem::replace(&mut self.m.frames[fi].pending, Pending::None) {
                    Pending::Loop(st) => self.loop_next(fi, st)?,
                    _ => unreachable!("LoopIter resume requires a stashed loop"),
                }
            }
        };
        self.drive(flow)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontend::parse_grammar;
    use crate::interp::Parser;

    fn fig2() -> Grammar {
        parse_grammar(
            r#"
            S -> H[0, 8] Data[H.offset, H.offset + H.length];
            H -> Int[0, 4] {offset = Int.val} Int[4, 8] {length = Int.val};
            Int := u32le;
            Data := bytes;
            "#,
        )
        .unwrap()
    }

    #[test]
    fn repeated_builtin_failure_reports_the_interpreter_error() {
        // A failing builtin invoked twice at the same slice: the
        // interpreter's second invocation is a silent memo hit, so the
        // terminal failure of `T` (recorded in between, at the same
        // offset) survives as the deepest error. The VM re-executes the
        // builtin; without failure-dedup it would re-record
        // "builtin u32le failed" and report a different error.
        let g = parse_grammar(
            r#"
            S -> A[0, EOI] / T[0, EOI] / B[0, EOI];
            A -> Int[0, EOI];
            T -> "abc"[0, EOI];
            B -> Int[0, EOI];
            Int := u32le;
            "#,
        )
        .unwrap();
        let input = [0u8, 1]; // two bytes: u32le and "abc" both fail
        let err_i = Parser::new(&g).parse(&input).unwrap_err();
        let err_v = VmParser::new(&g).parse(&input).unwrap_err();
        assert_eq!(err_i, err_v);

        // With memoization off, *both* engines re-record the builtin
        // failure; they must still agree.
        let err_i = Parser::new(&g).memoize(false).parse(&input).unwrap_err();
        let err_v = VmParser::new(&g).memoize(false).parse(&input).unwrap_err();
        assert_eq!(err_i, err_v);
    }

    fn fig2_input() -> Vec<u8> {
        let mut input = vec![8u8, 0, 0, 0, 4, 0, 0, 0];
        input.extend_from_slice(b"DATA");
        input
    }

    #[test]
    fn vm_and_interpreter_build_identical_trees() {
        let g = fig2();
        let input = fig2_input();
        let reference = Parser::new(&g).parse(&input).unwrap();
        let vm_tree = VmParser::new(&g).parse(&input).unwrap();
        assert_eq!(vm_tree.root().to_tree(), reference);
    }

    #[test]
    fn vm_and_interpreter_report_identical_stats_and_errors() {
        let g = fig2();
        let mut input = fig2_input();
        let vm = VmParser::new(&g);

        let (ok_i, stats_i) = Parser::new(&g).parse_with_stats(&input);
        let (ok_v, stats_v) = vm.parse_with_stats(&input);
        assert!(ok_i.is_ok() && ok_v.is_ok());
        // Steps are tick-for-tick identical; memo statistics are engine
        // policy (the VM skips builtin memoization).
        assert_eq!(stats_i.steps, stats_v.steps);

        input.truncate(6); // header cut short
        let err_i = Parser::new(&g).parse(&input).unwrap_err();
        let err_v = vm.parse(&input).unwrap_err();
        assert_eq!(err_i, err_v);
    }

    #[test]
    fn views_mirror_the_node_accessors() {
        let g = fig2();
        let input = fig2_input();
        let tree = VmParser::new(&g).parse(&input).unwrap();
        let root = tree.root();
        let h = root.child_node_nt(g.nt_id("H").unwrap()).unwrap();
        assert_eq!(h.name(), "H");
        assert_eq!(h.attr(&g, "offset"), Some(8));
        assert_eq!(h.attr(&g, "length"), Some(4));
        assert_eq!(h.span(), (0, 8));
        assert!(root.as_node().unwrap().children().all(|c| c.as_array().is_none()));
        let data = root.child_node_nt(g.nt_id("Data").unwrap()).unwrap();
        assert_eq!(data.span(), (8, 12));
        assert_eq!(&input[data.span().0..data.span().1], b"DATA");
    }

    #[test]
    fn memoization_toggle_and_fuel_mirror_the_interpreter() {
        let g = fig2();
        let input = fig2_input();
        let (r, no_memo) = VmParser::new(&g).memoize(false).parse_with_stats(&input);
        r.unwrap();
        assert_eq!(no_memo.memo_entries, 0);
        assert_eq!(no_memo.memo_hits, 0);

        let err = VmParser::new(&g).max_steps(3).parse(&input).unwrap_err();
        let err_i = Parser::new(&g).max_steps(3).parse(&input).unwrap_err();
        assert_eq!(err, err_i);
    }

    #[test]
    fn feed_restates_the_byte_shortfall_against_the_current_buffer() {
        let g = parse_grammar(
            r#"
            S -> Len[0, 2] {n = Len.val} Body[2, 2 + n];
            Len := u16be;
            Body := bytes;
            "#,
        )
        .unwrap();
        let parser = VmParser::new(&g);
        let mut session = parser.streaming();
        // Header says a 100-byte body follows.
        let Outcome::NeedInput { hint: Hint::Bytes(100) } = session.feed(&[0, 100]) else {
            panic!("expected a 100-byte shortfall")
        };
        // A partial feed must shrink the stated shortfall, not replay it.
        let Outcome::NeedInput { hint: Hint::Bytes(n) } = session.feed(&[0u8; 60]) else {
            panic!("expected a byte hint")
        };
        assert_eq!(n, 40);
    }

    #[test]
    fn star_and_arrays_agree_with_interpreter() {
        let g = parse_grammar(
            r#"
            S -> star Item[0, EOI];
            Item -> Len[0, 1] Byte[1, 1 + Len.val];
            Len := u8;
            Byte := bytes;
            "#,
        )
        .unwrap();
        let input = [2u8, 0xaa, 0xbb, 1, 0xcc, 0, 3, 1, 2, 3];
        let reference = Parser::new(&g).parse(&input).unwrap();
        let vm_tree = VmParser::new(&g).parse(&input).unwrap();
        assert_eq!(vm_tree.root().to_tree(), reference);
        let arr = vm_tree.root().child_array_nt(g.nt_id("Item").unwrap()).unwrap();
        assert_eq!(arr.len(), 4);
    }
}
