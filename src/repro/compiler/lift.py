"""Loop lifting: compile steady kernels into replayable block plans.

The dispatcher (:mod:`repro.compiler.dispatcher`) wants to skip the
generator machinery entirely for kernels whose *control flow* does not
depend on the values they read — the "steady" kernels that dominate the
paper's characterization sweeps.  This module provides the two halves
of that bet:

* **Purity analysis** (:func:`kernel_purity`): a conservative AST
  whitelist proving a kernel generator touches nothing outside its
  thread context, its closure cells, the module globals it loads
  (:func:`_global_load_names`), and the interpreter's memory requests.
  Only pure kernels may be memoized or lifted — an impure kernel could
  consult ambient state the cache key cannot see.  Cells and globals
  are admitted because the dispatcher freezes their current values
  into every key; annotations are ignored.
* **Symbolic capture** (:func:`capture_block_plan`): run one block of
  the kernel once with :class:`Sym` placeholders fed back for every
  value a read/atomic would produce.  Arithmetic on a ``Sym`` builds an
  expression tree; *using* one where a concrete value is required — a
  branch, an index, an ``int()``/``bool()`` conversion — raises
  :class:`CaptureEscape`, proving the kernel is *not* steady, and the
  dispatcher falls back to the batched fast tier.  A capture that runs
  to completion yields a :class:`BlockPlan`: the pass schedule is
  static, so per-warp clocks, stats, step charges, and the ordered list
  of memory effects are recorded once and replayed against fresh data
  with no generator stepping at all.

Every replayed effect reproduces the exact numpy operation sequence of
:func:`repro.cuda.fastpath.run_block_fast` (gathers via ``take``,
duplicate-target writes in lane order, the three atomic serialization
modes), so plan execution is byte-identical to the fast tier — which is
itself pinned byte-identical to the scalar reference by the
differential-fuzz harness.
"""

from __future__ import annotations

import ast
import builtins
import dis
import enum
import inspect
import operator
import textwrap
import types
from dataclasses import fields as _dc_fields

import numpy as np


class CaptureEscape(Exception):
    """Capture met behaviour it cannot prove steady (not an error)."""


# --------------------------------------------------------------------- #
# Symbolic values
# --------------------------------------------------------------------- #

_BINFN = {
    "+": operator.add, "-": operator.sub, "*": operator.mul,
    "/": operator.truediv, "//": operator.floordiv, "%": operator.mod,
    "**": operator.pow, "&": operator.and_, "|": operator.or_,
    "^": operator.xor, "<<": operator.lshift, ">>": operator.rshift,
    "==": operator.eq, "!=": operator.ne, "<": operator.lt,
    "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}
_UNFN = {
    "neg": operator.neg, "pos": operator.pos,
    "invert": operator.invert, "abs": operator.abs,
}


class Sym:
    """A placeholder for one lane's yet-unknown read/atomic result.

    Arithmetic builds an expression tree (evaluated per lane with exact
    Python semantics at plan execution); any conversion that would let
    the value steer control flow or indexing raises
    :class:`CaptureEscape`.
    """

    __slots__ = ("node",)

    def __init__(self, node: tuple) -> None:
        self.node = node

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Sym({self.node!r})"


def _make_binop(opname: str):
    def fwd(self, other):
        other_node = other.node if type(other) is Sym else ("k", other)
        return Sym(("b", opname, self.node, other_node))

    def rev(self, other):
        return Sym(("b", opname, ("k", other), self.node))

    return fwd, rev


for _op, (_fname, _rname) in {
        "+": ("__add__", "__radd__"), "-": ("__sub__", "__rsub__"),
        "*": ("__mul__", "__rmul__"), "/": ("__truediv__", "__rtruediv__"),
        "//": ("__floordiv__", "__rfloordiv__"),
        "%": ("__mod__", "__rmod__"), "**": ("__pow__", "__rpow__"),
        "&": ("__and__", "__rand__"), "|": ("__or__", "__ror__"),
        "^": ("__xor__", "__rxor__"),
        "<<": ("__lshift__", "__rlshift__"),
        ">>": ("__rshift__", "__rrshift__")}.items():
    _f, _r = _make_binop(_op)
    setattr(Sym, _fname, _f)
    setattr(Sym, _rname, _r)
for _op, _fname in {"==": "__eq__", "!=": "__ne__", "<": "__lt__",
                    "<=": "__le__", ">": "__gt__", ">=": "__ge__"}.items():
    setattr(Sym, _fname, _make_binop(_op)[0])


def _make_unop(opname: str):
    def un(self):
        return Sym(("u", opname, self.node))
    return un


Sym.__neg__ = _make_unop("neg")
Sym.__pos__ = _make_unop("pos")
Sym.__invert__ = _make_unop("invert")
Sym.__abs__ = _make_unop("abs")


def _make_escape(name: str):
    def escape(self, *args, **kwargs):
        raise CaptureEscape(f"data-dependent value used via {name}")
    return escape


for _name in ("__bool__", "__index__", "__int__", "__float__",
              "__complex__", "__iter__", "__len__", "__hash__",
              "__getitem__", "__setitem__", "__contains__", "__str__",
              "__format__", "__round__", "__trunc__", "__floor__",
              "__ceil__", "__bytes__", "__divmod__", "__rdivmod__",
              "__getattr__"):
    setattr(Sym, _name, _make_escape(_name))


def _eval_node(node: tuple, env: list):
    """Evaluate a ``Sym`` expression tree against the slot environment.

    Integer arithmetic runs with exact Python semantics (no int64
    wraparound), which is precisely what the reference interpreter's
    per-lane Python expressions produce.
    """
    tag = node[0]
    if tag == "k":
        return node[1]
    if tag == "s":
        return env[node[1]][node[2]]
    if tag == "b":
        return _BINFN[node[1]](_eval_node(node[2], env),
                               _eval_node(node[3], env))
    return _UNFN[node[1]](_eval_node(node[2], env))


def _value_spec(values: list) -> tuple:
    """Encode one pass's per-lane values: constants stay materialized."""
    if any(type(v) is Sym for v in values):
        return ("E", tuple(v.node if type(v) is Sym else ("k", v)
                           for v in values))
    return ("C", list(values))


def _eval_spec(spec: tuple, env: list) -> list:
    if spec[0] == "C":
        return spec[1]
    return [_eval_node(node, env) for node in spec[1]]


# --------------------------------------------------------------------- #
# Purity analysis
# --------------------------------------------------------------------- #

#: Builtins a pure kernel may call: all value-level, effect-free.
PURE_BUILTINS = frozenset({
    "range", "len", "min", "max", "abs", "int", "float", "bool", "round",
    "sum", "any", "all", "enumerate", "zip", "sorted", "reversed",
    "divmod", "tuple", "list", "set", "dict", "frozenset", "str", "repr",
    "pow", "True", "False", "None",
})
_BUILTIN_NAMES = frozenset(dir(builtins))

_ALLOWED_STMTS = (
    ast.Return, ast.Assign, ast.AugAssign, ast.AnnAssign, ast.For,
    ast.While, ast.If, ast.Expr, ast.Pass, ast.Break, ast.Continue,
)
_ALLOWED_EXPRS = (
    ast.BoolOp, ast.NamedExpr, ast.BinOp, ast.UnaryOp, ast.Lambda,
    ast.IfExp, ast.Dict, ast.Set, ast.ListComp, ast.SetComp, ast.DictComp,
    ast.GeneratorExp, ast.Yield, ast.YieldFrom, ast.Compare, ast.Call,
    ast.FormattedValue, ast.JoinedStr, ast.Constant, ast.Attribute,
    ast.Subscript, ast.Starred, ast.Name, ast.List, ast.Tuple, ast.Slice,
)
_ALLOWED_MISC = (
    ast.Load, ast.Store, ast.comprehension, ast.arguments, ast.arg,
    ast.keyword, ast.expr_context, ast.boolop, ast.operator,
    ast.unaryop, ast.cmpop, ast.withitem,
)

_purity_cache: dict = {}


def _collect_bound_names(tree: ast.AST) -> set[str]:
    """Every name the function itself binds (stores, args, targets)."""
    bound: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
        elif isinstance(node, (ast.Lambda, ast.FunctionDef)):
            args = node.args
            for a in (args.posonlyargs + args.args + args.kwonlyargs):
                bound.add(a.arg)
            if args.vararg:
                bound.add(args.vararg.arg)
            if args.kwarg:
                bound.add(args.kwarg.arg)
    return bound


def _strip_annotations(func: ast.FunctionDef) -> None:
    """Drop every annotation: a generator never evaluates them (its
    parameters' are evaluated once at ``def`` time, its locals' never),
    so they cannot make a kernel impure."""
    func.returns = None
    for node in ast.walk(func):
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            node.annotation = None


def _analyze(fn) -> tuple[bool, str]:
    try:
        source = textwrap.dedent(inspect.getsource(fn))
        tree = ast.parse(source)
    except (OSError, TypeError, SyntaxError, IndentationError):
        return False, "source unavailable"
    if not tree.body or not isinstance(tree.body[0], ast.FunctionDef):
        return False, "not a plain function definition"
    func = tree.body[0]
    if func.decorator_list:
        return False, "decorated function"
    if not (func.args.posonlyargs + func.args.args):
        return False, "no context parameter"
    ctx_param = (func.args.posonlyargs + func.args.args)[0].arg
    _strip_annotations(func)

    code = fn.__code__
    allowed_names = (_collect_bound_names(func)
                     | set(code.co_varnames) | set(code.co_freevars)
                     | set(code.co_cellvars) | PURE_BUILTINS)

    for node in ast.walk(func):
        if node is func:
            continue
        if isinstance(node, ast.Attribute):
            if not (isinstance(node.ctx, ast.Load)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == ctx_param):
                return False, (f"attribute access outside the context "
                               f"parameter at line {node.lineno}")
        elif isinstance(node, ast.Name):
            # Any other free name is a module global: admitted, because
            # the dispatcher's function signature freezes its value.
            if node.id not in allowed_names and node.id in _BUILTIN_NAMES:
                return False, f"builtin {node.id!r} referenced"
        elif isinstance(node, ast.Compare):
            for op in node.ops:
                if isinstance(op, (ast.Is, ast.IsNot)):
                    return False, "identity comparison"
        elif isinstance(node, (_ALLOWED_STMTS + _ALLOWED_EXPRS
                               + _ALLOWED_MISC)):
            continue
        elif not isinstance(node, (ast.Index, ast.ExtSlice)
                            if hasattr(ast, "Index") else ()):
            return False, f"disallowed construct {type(node).__name__}"
    return True, ""


def kernel_purity(fn) -> tuple[bool, str]:
    """Prove (conservatively) that ``fn`` is a pure kernel generator.

    Pure means: the only names reachable are the context parameter,
    locally bound names, closure cells, module globals, and a whitelist
    of effect-free builtins; the only attribute accesses (and method
    calls) are on the context parameter; no imports, try/except,
    global/nonlocal, nested ``def``, or identity comparisons.
    Annotations are ignored.  The proof is static and cached per code
    object; the *values* of closure cells and globals are checked per
    launch by :func:`repro.compiler.dispatcher.function_signature`.
    """
    code = fn.__code__
    cached = _purity_cache.get(code)
    if cached is None:
        cached = _analyze(fn)
        _purity_cache[code] = cached
    return cached


_IMMUTABLE_SCALARS = (bool, int, float, complex, str, bytes, type(None))


def immutable_value(v, depth: int = 0) -> bool:
    """True when ``v`` is deeply immutable (safe as a closure cell or
    module global of a memoized kernel: the kernel cannot mutate it
    between launches)."""
    if depth > 4:
        return False
    if isinstance(v, _IMMUTABLE_SCALARS) or isinstance(v, enum.Enum):
        return True
    if isinstance(v, (np.integer, np.floating, np.bool_)) \
            or isinstance(v, np.dtype):
        return True
    if isinstance(v, (tuple, frozenset)):
        return all(immutable_value(x, depth + 1) for x in v)
    return False


_global_loads_cache: dict = {}


def _global_load_names(code) -> tuple[str, ...]:
    """Names the code object (and nested codes) loads as globals,
    sorted."""
    names = _global_loads_cache.get(code)
    if names is None:
        out: set[str] = set()
        stack = [code]
        while stack:
            c = stack.pop()
            for ins in dis.get_instructions(c):
                if ins.opname == "LOAD_GLOBAL":
                    out.add(ins.argval)
            for const in c.co_consts:
                if isinstance(const, types.CodeType):
                    stack.append(const)
        names = tuple(sorted(out))
        _global_loads_cache[code] = names
    return names


# --------------------------------------------------------------------- #
# Compiled block plans
# --------------------------------------------------------------------- #

class BlockPlan:
    """One block's precompiled pass schedule.

    Attributes:
        cycles: The block's modeled runtime (static for steady kernels).
        steps: Interpreter step charges the block consumes.
        n_slots: Value-slot count for the effect environment.
        effects: Ordered memory effects (tuples; see the executor).
        stats: Nonzero ``LaunchStats`` field deltas as (name, delta).
    """

    __slots__ = ("cycles", "steps", "n_slots", "effects", "stats", "fp")

    def __init__(self, cycles: float, steps: int, n_slots: int,
                 effects: list, stats: tuple) -> None:
        self.cycles = cycles
        self.steps = steps
        self.n_slots = n_slots
        self.effects = effects
        self.stats = stats
        self.fp = None

    def __getstate__(self):
        return (self.cycles, self.steps, self.n_slots, self.effects,
                self.stats)

    def __setstate__(self, state):
        (self.cycles, self.steps, self.n_slots, self.effects,
         self.stats) = state
        self.fp = None

    def footprint(self):
        """The plan's global-memory footprint (memoized).

        Effect index lists are static, so the
        :class:`~repro.cuda.race.BlockFootprint` the fast tier would
        record per block is derivable without executing anything — that
        is what lets the pool verify chunk disjointness *before*
        dispatching plans to workers.  Atomics count as writes (their
        returned old value makes overlap order-visible), matching
        :meth:`BlockFootprint.record_pass`.
        """
        fp = self.fp
        if fp is None:
            from repro.cuda.race import BlockFootprint
            fp = BlockFootprint()
            for eff in self.effects:
                tag = eff[0]
                if tag == "r":
                    _, in_shared, var, idx_np, _ = eff
                    if not in_shared:
                        fp.reads.setdefault(var, set()).update(
                            idx_np.tolist())
                elif tag == "w":
                    if not eff[1]:
                        fp.writes.setdefault(eff[2], set()).update(eff[4])
                else:  # "a"
                    if not eff[2]:
                        fp.writes.setdefault(eff[3], set()).update(eff[5])
            self.fp = fp
        return fp

    def execute(self, memory: dict[str, np.ndarray],
                shared_decls: dict[str, tuple[int, np.dtype]],
                stats) -> float:
        """Replay the recorded effects against live memory.

        Mirrors the fast tier's numpy operation sequence exactly, so the
        resulting bytes match a generator-stepped execution.
        """
        shared = {name: np.zeros(size, dtype=dt)
                  for name, (size, dt) in shared_decls.items()}
        gflats: dict[str, np.ndarray] = {}
        sflats: dict[str, np.ndarray] = {}
        env: list = [None] * self.n_slots

        def flat_of(in_shared: bool, var: str) -> np.ndarray:
            flats = sflats if in_shared else gflats
            flat = flats.get(var)
            if flat is None:
                flat = (shared[var] if in_shared
                        else memory[var]).reshape(-1)
                flats[var] = flat
            return flat

        for eff in self.effects:
            tag = eff[0]
            if tag == "r":  # read (global or shared)
                _, in_shared, var, idx_np, slot = eff
                env[slot] = flat_of(in_shared, var).take(idx_np).tolist()
            elif tag == "w":  # write (global or shared)
                _, in_shared, var, idx_np, idx_list, vspec, distinct = eff
                flat = flat_of(in_shared, var)
                values = _eval_spec(vspec, env)
                if distinct:
                    np.put(flat, idx_np, values)
                else:
                    # Duplicate targets: lane order decides the survivor.
                    for i, v in zip(idx_list, values):
                        flat[i] = v
            else:  # "a": atomic
                self._execute_atomic(eff, env, flat_of)
        for name, delta in self.stats:
            setattr(stats, name, getattr(stats, name) + delta)
        return self.cycles

    @staticmethod
    def _execute_atomic(eff, env, flat_of) -> None:
        (_, token, in_shared, var, idx_np, idx_list, slot, vspec,
         cspec, mode) = eff
        flat = flat_of(in_shared, var)
        values = _eval_spec(vspec, env)
        if mode == "d":
            # All-distinct targets: gather, vectorized update, scatter.
            old_arr = flat[idx_np]
            olds = old_arr.tolist()
            if token == "cas":
                varr = np.asarray(values)
                carr = np.asarray(_eval_spec(cspec, env))
                new = np.where(old_arr == carr, varr, old_arr)
            elif token == "exch":
                new = np.asarray(values)
            else:
                varr = np.asarray(values)
                if token == "add":
                    new = old_arr + varr
                elif token == "sub":
                    new = old_arr - varr
                elif token == "max":
                    new = np.maximum(old_arr, varr)
                elif token == "min":
                    new = np.minimum(old_arr, varr)
                elif token == "and":
                    new = old_arr & varr
                elif token == "or":
                    new = old_arr | varr
                elif token == "xor":
                    new = old_arr ^ varr
                elif token == "inc":
                    new = np.where(old_arr >= varr, 0, old_arr + 1)
                else:  # dec
                    new = np.where((old_arr == 0) | (old_arr > varr),
                                   varr, old_arr - 1)
            flat[idx_np] = new
            env[slot] = olds
        elif mode == "i":
            # Colliding integer add/sub: one load/store per address.
            running: dict[int, int] = {}
            get = running.get
            olds = []
            if token == "add":
                for i, v in zip(idx_list, values):
                    old = get(i)
                    if old is None:
                        old = flat[i].item()
                    olds.append(old)
                    running[i] = old + v
            else:
                for i, v in zip(idx_list, values):
                    old = get(i)
                    if old is None:
                        old = flat[i].item()
                    olds.append(old)
                    running[i] = old - v
            for i, value in running.items():
                flat[i] = value
            env[slot] = olds
        else:
            # Colliding targets: lane order is the serialization order.
            olds = []
            if token == "cas":
                compares = _eval_spec(cspec, env)
                for i, v, c in zip(idx_list, values, compares):
                    old = flat[i].item()
                    olds.append(old)
                    if old == c:
                        flat[i] = v
            else:
                for i, v in zip(idx_list, values):
                    old = flat[i].item()
                    olds.append(old)
                    if token == "add":
                        flat[i] = old + v
                    elif token == "sub":
                        flat[i] = old - v
                    elif token == "max":
                        flat[i] = max(old, v)
                    elif token == "min":
                        flat[i] = min(old, v)
                    elif token == "and":
                        flat[i] = old & v
                    elif token == "or":
                        flat[i] = old | v
                    elif token == "xor":
                        flat[i] = old ^ v
                    elif token == "inc":
                        flat[i] = 0 if old >= v else old + 1
                    elif token == "dec":
                        flat[i] = v if (old == 0 or old > v) else old - 1
                    else:  # exch
                        flat[i] = v
            env[slot] = olds


# --------------------------------------------------------------------- #
# Symbolic capture of one block
# --------------------------------------------------------------------- #

#: Per-block effect ceiling: plans beyond this are not worth the memory.
EFFECT_CAP = 150_000


def _concrete_index(idx) -> int:
    if type(idx) is Sym:
        raise CaptureEscape("data-dependent memory index")
    if not isinstance(idx, (int, np.integer)):
        raise CaptureEscape(f"non-integer index {type(idx).__name__}")
    return int(idx)


def capture_block_plan(cuda, kernel, launch, ctx, block_idx: int,
                       mem_info: dict[str, tuple[int, np.dtype]],
                       shared_decls: dict[str, tuple[int, np.dtype]],
                       step_cap: int) -> BlockPlan:
    """Dry-run one block with symbolic values and record its plan.

    Raises:
        CaptureEscape: when the kernel is not steady (control flow,
            indices, variants, or collectives depend on data), goes out
            of bounds, or exceeds ``step_cap``/:data:`EFFECT_CAP` — the
            caller falls back to the ordinary fast tier.
    """
    from repro.common.datatypes import DTYPES, INT
    from repro.compiler.ops import Op, PrimitiveKind, Scope
    from repro.cuda import requests as rq
    from repro.cuda.interpreter import (
        _ATOMIC_KIND_OF, _BARRIER_KIND_OF, _COLLECTIVE_KIND_OF,
        _FENCE_KIND_OF, KernelThread, LaunchStats, _Lane, _LaneState)
    from repro.gpu.spec import WARP_SIZE
    from repro.mem.layout import SharedScalar

    _ATOMIC_TOKEN = {
        rq.AtomicAdd: "add", rq.AtomicSub: "sub", rq.AtomicMax: "max",
        rq.AtomicMin: "min", rq.AtomicAnd: "and", rq.AtomicOr: "or",
        rq.AtomicXor: "xor", rq.AtomicInc: "inc", rq.AtomicDec: "dec",
        rq.AtomicCas: "cas", rq.AtomicExch: "exch",
    }

    device = cuda.device
    params = device.params
    alu_cycles = params.alu_cycles
    global_load_cycles = params.global_load_cycles
    uncoalesced = params.uncoalesced_penalty_cycles

    shared_info = {name: (size, np.dtype(dt))
                   for name, (size, dt) in shared_decls.items()}
    stats = LaunchStats()
    effects: list = []
    n_slots = 0
    steps_total = 0

    n = launch.block_threads
    warps: list[list] = []
    for wstart in range(0, n, WARP_SIZE):
        lanes = []
        for t in range(wstart, min(wstart + WARP_SIZE, n)):
            kt = KernelThread(t, block_idx, n, launch.grid_blocks)
            lanes.append(_Lane(gen=kernel(kt), lane_id=t - wstart))
        warps.append(lanes)
    warp_clocks = [0.0] * len(warps)
    issuing_warps: dict[tuple, set[int]] = {}
    resident_blocks = min(
        launch.grid_blocks,
        ctx.occ.active_sms * ctx.occ.blocks_per_sm_resident)

    RUNNING = _LaneState.RUNNING
    DONE = _LaneState.DONE
    BARRIER = _LaneState.BARRIER

    total_lanes = sum(len(lanes) for lanes in warps)
    done_lanes = 0
    barrier_waiting = False

    op_cost_cache: dict = {}
    atomic_cost_cache: dict = {}

    def op_cost(kind) -> float:
        c = op_cost_cache.get(kind)
        if c is None:
            c = device.op_cost(Op(kind=kind), ctx)
            op_cost_cache[kind] = c
        return c

    def atomic_cost(kind, np_dtype, scope, n_addresses, n_lanes,
                    n_warps) -> float:
        key = (kind, np_dtype, scope, n_addresses, n_lanes, n_warps)
        c = atomic_cost_cache.get(key)
        if c is None:
            dtype = INT
            for dt in DTYPES:
                if dt.np_dtype == np_dtype:
                    dtype = dt
                    break
            op = Op(kind=kind, dtype=dtype, target=SharedScalar(dtype),
                    scope=scope)
            c = device.atomic_issue_cost(
                op, ctx, n_addresses=n_addresses, n_lanes=n_lanes,
                issuing_warps=n_warps, resident_blocks=resident_blocks)
            atomic_cost_cache[key] = c
        return c

    def new_slot() -> int:
        nonlocal n_slots
        slot = n_slots
        n_slots += 1
        return slot

    def bind_results(glanes, slot: int) -> None:
        for pos, lane in enumerate(glanes):
            lane.pending = Sym(("s", slot, pos))

    def var_and_indices(reqs, info):
        var = reqs[0].var
        if type(var) is Sym or not isinstance(var, str):
            raise CaptureEscape("data-dependent variable name")
        entry = info.get(var)
        if entry is None:
            raise CaptureEscape(f"undeclared variable {var!r}")
        size, dtype = entry
        idx = []
        for r in reqs:
            if r.var != var:
                raise CaptureEscape("mixed-variable memory pass")
            i = _concrete_index(r.idx)
            if not 0 <= i < size:
                raise CaptureEscape("out-of-bounds access")
            idx.append(i)
        return var, dtype, idx

    def sector_cost(idx, itemsize) -> float:
        sectors = {i * itemsize // 32 for i in idx}
        cost = global_load_cycles
        if len(sectors) > 1:
            cost += uncoalesced * (len(sectors) - 1)
        return cost

    def handle_pass(warp_id, lanes, glanes, reqs) -> float:
        """Record one uniform pass; returns its cost."""
        nonlocal barrier_waiting
        cls = reqs[0].__class__
        for r in reqs:
            if r.__class__ is not cls:
                raise CaptureEscape("divergent (mixed-class) pass")

        if cls is rq.Alu:
            return alu_cycles * max([r.n for r in reqs])
        if cls is rq.GlobalRead or cls is rq.SharedRead:
            in_shared = cls is rq.SharedRead
            info = shared_info if in_shared else mem_info
            var, dtype, idx = var_and_indices(reqs, info)
            slot = new_slot()
            effects.append(("r", in_shared, var,
                            np.array(idx, dtype=np.intp), slot))
            bind_results(glanes, slot)
            if in_shared:
                stats.shared_accesses += len(idx)
                return alu_cycles
            stats.global_accesses += len(idx)
            return sector_cost(idx, dtype.itemsize)
        if cls is rq.GlobalWrite or cls is rq.SharedWrite:
            in_shared = cls is rq.SharedWrite
            info = shared_info if in_shared else mem_info
            var, dtype, idx = var_and_indices(reqs, info)
            distinct = len(set(idx)) == len(idx)
            effects.append(("w", in_shared, var,
                            np.array(idx, dtype=np.intp), idx,
                            _value_spec([r.value for r in reqs]),
                            distinct))
            if in_shared:
                stats.shared_accesses += len(idx)
                return alu_cycles
            stats.global_accesses += len(idx)
            return sector_cost(idx, dtype.itemsize)
        if cls is rq.Syncwarp:
            stats.syncwarps += len(reqs)
            return op_cost(PrimitiveKind.SYNCWARP)
        if cls is rq.Threadfence:
            stats.fences += len(reqs)
            cost = 0.0
            for r in reqs:
                c = op_cost(_FENCE_KIND_OF[r.scope])
                if c > cost:
                    cost = c
            return cost
        if cls is rq.Activemask:
            mask = 0
            for other in lanes:
                if other.state is not DONE:
                    mask |= 1 << other.lane_id
            for lane in glanes:
                lane.pending = mask
            return alu_cycles
        if cls is rq.Syncthreads:
            for lane, r in zip(glanes, reqs):
                lane.state = BARRIER
                lane.barrier_request = r
            barrier_waiting = True
            return 0.0
        if cls in _BARRIER_KIND_OF or cls in _COLLECTIVE_KIND_OF:
            raise CaptureEscape(
                f"unsupported primitive {cls.__name__} in steady capture")
        if cls in _ATOMIC_TOKEN:
            return handle_atomic(warp_id, glanes, reqs, cls)
        raise CaptureEscape(f"unknown request class {cls.__name__}")

    def handle_atomic(warp_id, glanes, reqs, cls) -> float:
        first = reqs[0]
        scope = first.scope
        for r in reqs:
            if r.scope is not scope:
                raise CaptureEscape("mixed-scope atomic pass")
        var = first.var
        if type(var) is Sym or not isinstance(var, str):
            raise CaptureEscape("data-dependent variable name")
        in_shared = var in shared_info
        info = shared_info if in_shared else mem_info
        var, dtype, idx = var_and_indices(reqs, info)
        n_lanes = len(idx)
        effective_scope = Scope.BLOCK if in_shared else scope
        if effective_scope is Scope.BLOCK:
            stats.block_atomics += n_lanes
        else:
            stats.global_atomics += n_lanes
        n_addresses = len(set(idx))
        token = _ATOMIC_TOKEN[cls]
        if n_addresses == n_lanes:
            mode = "d"
        elif token in ("add", "sub") and dtype.kind in "iu":
            mode = "i"
        else:
            mode = "s"
        vspec = _value_spec([r.value for r in reqs])
        cspec = _value_spec([r.compare for r in reqs]) \
            if cls is rq.AtomicCas else None
        slot = new_slot()
        effects.append(("a", token, in_shared, var,
                        np.array(idx, dtype=np.intp), idx, slot, vspec,
                        cspec, mode))
        bind_results(glanes, slot)
        kind = _ATOMIC_KIND_OF[cls]
        seen = issuing_warps.setdefault((kind, var), set())
        seen.add(warp_id)
        return atomic_cost(kind, dtype, effective_scope, n_addresses,
                           n_lanes, len(seen))

    while done_lanes < total_lanes:
        progressed = False
        for warp_id, lanes in enumerate(warps):
            glanes = []
            reqs = []
            n_steps = 0
            for lane in lanes:
                if lane.state is not RUNNING:
                    continue
                n_steps += 1
                try:
                    request = lane.gen.send(lane.pending)
                except StopIteration:
                    lane.state = DONE
                    done_lanes += 1
                    continue
                lane.pending = None
                glanes.append(lane)
                reqs.append(request)
            if n_steps:
                steps_total += n_steps
                if steps_total > step_cap:
                    raise CaptureEscape("step budget reached in capture")
                progressed = True
            if not reqs:
                continue
            if len(effects) > EFFECT_CAP:
                raise CaptureEscape("plan too large")
            cost = handle_pass(warp_id, lanes, glanes, reqs)
            if cost > 0:
                warp_clocks[warp_id] += cost
        if barrier_waiting:
            waiting = []
            n_live = 0
            n_total = 0
            for lanes in warps:
                for lane in lanes:
                    n_total += 1
                    state = lane.state
                    if state is BARRIER:
                        waiting.append(lane)
                        n_live += 1
                    elif state is not DONE:
                        n_live += 1
            if waiting and len(waiting) == n_live:
                if n_live < n_total:
                    raise CaptureEscape("barrier with returned threads")
                stats.syncthreads += 1
                cost = op_cost(_BARRIER_KIND_OF[rq.Syncthreads])
                sync_time = max(warp_clocks) + cost
                for w in range(len(warp_clocks)):
                    warp_clocks[w] = sync_time
                for lane in waiting:
                    lane.state = RUNNING
                    lane.pending = None
                    lane.barrier_request = None
                barrier_waiting = False
                progressed = True
        if not progressed:
            raise CaptureEscape("deadlock during capture")

    stat_deltas = tuple(
        (f.name, getattr(stats, f.name)) for f in _dc_fields(stats)
        if getattr(stats, f.name))
    return BlockPlan(
        cycles=max(warp_clocks) if warp_clocks else 0.0,
        steps=steps_total,
        n_slots=n_slots,
        effects=effects,
        stats=stat_deltas,
    )


# --------------------------------------------------------------------- #
# Compiled OpenMP region plans
# --------------------------------------------------------------------- #

#: Values a captured OpenMP effect may materialize as a constant.
_PLAN_SCALARS = (bool, int, float, np.integer, np.floating, np.bool_)


def _plan_value_node(v) -> tuple:
    if type(v) is Sym:
        return v.node
    if isinstance(v, _PLAN_SCALARS):
        return ("k", v)
    raise CaptureEscape(
        f"unsupported value type {type(v).__name__} in region capture")


class RegionPlan:
    """One OpenMP parallel region's precompiled schedule.

    The capture proves the region *steady* — request order, indices,
    lock/barrier structure, and costs independent of shared-memory
    content — so everything but the data values is static: per-thread
    clocks, the elapsed time, barrier/request counts, and the ordered
    effect list.  :meth:`execute` replays the effects against fresh
    arrays with the exact scalar operation sequence of the reference
    scheduler (``.item()`` loads, Python-semantics arithmetic via the
    ``Sym`` expression trees, element stores), so results are
    byte-identical to a generator-stepped region.

    Effects (store-buffer drains are already serialized into plain
    writes at their flush points, in buffer insertion order):

    * ``("r", var, idx, slot)`` — load ``var[idx]`` into ``slot``
      (plain reads that hit the thread's own store buffer at capture
      time never become effects: their value is forwarded
      symbolically);
    * ``("w", var, idx, node)`` — store an expression to ``var[idx]``;
    * ``("au", var, idx, slot, node)`` — atomic read-modify-write:
      load the old value into ``slot``, store the update expression.
    """

    __slots__ = ("thread_times", "elapsed", "barriers", "requests",
                 "steps", "n_slots", "effects")

    def __init__(self, thread_times: tuple, elapsed: float,
                 barriers: int, requests: int, steps: int,
                 n_slots: int, effects: list) -> None:
        self.thread_times = thread_times
        self.elapsed = elapsed
        self.barriers = barriers
        self.requests = requests
        self.steps = steps
        self.n_slots = n_slots
        self.effects = effects

    def __getstate__(self):
        return (self.thread_times, self.elapsed, self.barriers,
                self.requests, self.steps, self.n_slots, self.effects)

    def __setstate__(self, state):
        (self.thread_times, self.elapsed, self.barriers, self.requests,
         self.steps, self.n_slots, self.effects) = state

    def execute(self, memory: dict[str, np.ndarray]) -> None:
        """Replay the recorded effects against live shared arrays."""
        flats: dict[str, np.ndarray] = {}
        env: list = [None] * self.n_slots

        def flat_of(var: str) -> np.ndarray:
            flat = flats.get(var)
            if flat is None:
                flat = memory[var].reshape(-1)
                flats[var] = flat
            return flat

        for eff in self.effects:
            tag = eff[0]
            if tag == "r":
                _, var, idx, slot = eff
                env[slot] = (flat_of(var)[idx].item(),)
            elif tag == "w":
                _, var, idx, node = eff
                flat_of(var)[idx] = _eval_node(node, env)
            else:  # "au"
                _, var, idx, slot, node = eff
                flat = flat_of(var)
                env[slot] = (flat[idx].item(),)
                flat[idx] = _eval_node(node, env)


def capture_region_plan(omp, body,
                        shared_info: dict[str, tuple[int, np.dtype]],
                        step_cap: int) -> RegionPlan:
    """Dry-run one parallel region with symbolic values and record it.

    Mirrors the reference scheduler's interleaved sweep (which the
    batched rounds of :func:`repro.openmp.fastpath.parallel_fast` are
    equivalent to) with :class:`Sym` placeholders fed back for every
    read/atomic result: store-buffer forwarding, lock
    acquisition/waiting order, and barrier releases all resolve
    concretely for a steady region, while atomic-update functions are
    applied to symbols so their expression trees replay with exact
    Python semantics.

    Raises:
        CaptureEscape: when the region is not steady (data steers
            control flow, indices, or lock names), uses a construct that
            runs arbitrary code against memory (``single``,
            ``critical``), raises, goes out of bounds, or exceeds
            ``step_cap``/:data:`EFFECT_CAP` — the caller falls back to
            the batched fast tier.
    """
    from repro.compiler.ops import PrimitiveKind
    from repro.common.datatypes import DTYPES, INT
    from repro.openmp import requests as rq
    from repro.openmp.fastpath import make_cost_model
    from repro.openmp.interpreter import ThreadContext

    machine = omp.machine
    ctx = omp._ctx
    n = omp.n_threads
    relaxed = omp.relaxed_consistency
    mem_cost, plain_cost = make_cost_model(machine, ctx)

    PLAIN_READ = PrimitiveKind.PLAIN_READ
    PLAIN_UPDATE = PrimitiveKind.PLAIN_UPDATE
    ATOMIC_READ = PrimitiveKind.OMP_ATOMIC_READ
    ATOMIC_WRITE = PrimitiveKind.OMP_ATOMIC_WRITE
    ATOMIC_UPDATE = PrimitiveKind.OMP_ATOMIC_UPDATE
    ATOMIC_CAPTURE = PrimitiveKind.OMP_ATOMIC_CAPTURE

    dtype_by_var: dict[str, object] = {}

    def var_dtype(var: str):
        dt = dtype_by_var.get(var)
        if dt is None:
            dt = INT
            np_dt = shared_info[var][1]
            for d in DTYPES:
                if d.np_dtype == np_dt:
                    dt = d
                    break
            dtype_by_var[var] = dt
        return dt

    effects: list = []
    n_slots = 0

    def new_slot() -> int:
        nonlocal n_slots
        slot = n_slots
        n_slots += 1
        return slot

    gens = [body(ThreadContext(tid, n)) for tid in range(n)]
    clocks = [0.0] * n
    pending: list[object] = [None] * n
    arrival: list[tuple[str, str] | None] = [None] * n
    done = [False] * n
    barriers = 0
    steps = 0
    location_threads: dict[tuple[str, int], set[int]] = {}
    lock_holder: dict[str, int] = {}
    held_locks: list[set[str]] = [set() for _ in range(n)]
    lock_wait: dict[int, str] = {}
    buffers: list[dict[tuple[str, int], object]] = [{} for _ in range(n)]

    def drain(tid: int) -> None:
        buf = buffers[tid]
        if buf:
            for (var, idx), v in buf.items():
                effects.append(("w", var, idx, _plan_value_node(v)))
            buf.clear()

    def charge_mem(tid: int, kind, var: str, idx: int, dtype) -> None:
        touched = location_threads.setdefault((var, idx), set())
        touched.add(tid)
        clocks[tid] += mem_cost(kind, dtype, len(touched) > 1)

    def validate(tid: int, var, idx) -> int:
        if type(var) is Sym or not isinstance(var, str):
            raise CaptureEscape("data-dependent variable name")
        entry = shared_info.get(var)
        if entry is None:
            raise CaptureEscape(f"undeclared shared variable {var!r}")
        i = _concrete_index(idx)
        if not 0 <= i < entry[0]:
            raise CaptureEscape("out-of-bounds access")
        return i

    def lock_name_of(request) -> str:
        name = request.name
        if type(name) is Sym or not isinstance(name, str):
            raise CaptureEscape("data-dependent lock name")
        return name

    def release_arrivals() -> None:
        nonlocal barriers
        barriers += 1
        for t in range(n):
            drain(t)
        sync_time = max(clocks) + plain_cost(PrimitiveKind.OMP_BARRIER)
        for t in range(n):
            clocks[t] = sync_time
            arrival[t] = None
        location_threads.clear()

    while not all(done):
        progressed = False
        if len(effects) > EFFECT_CAP:
            raise CaptureEscape("plan too large")
        for tid in range(n):
            if done[tid] or arrival[tid] is not None:
                continue
            if tid in lock_wait:
                name = lock_wait[tid]
                if name in lock_holder:
                    continue
                del lock_wait[tid]
                lock_holder[name] = tid
                held_locks[tid].add(name)
                clocks[tid] += plain_cost(PrimitiveKind.OMP_LOCK_ACQUIRE)
                progressed = True
                continue
            steps += 1
            if steps > step_cap:
                raise CaptureEscape("step budget reached in capture")
            try:
                request = gens[tid].send(pending[tid])
            except StopIteration:
                if held_locks[tid]:
                    raise CaptureEscape("thread finished holding a lock")
                done[tid] = True
                progressed = True
                continue
            except CaptureEscape:
                raise
            except Exception as exc:
                # The body raised — possibly only because a Sym reached
                # code that needed a concrete value.  The fast tier
                # re-runs with real values and reproduces any genuine
                # error exactly.
                raise CaptureEscape(
                    f"body raised {type(exc).__name__} during capture"
                ) from exc
            pending[tid] = None
            progressed = True
            cls = request.__class__
            if cls is rq.Barrier:
                arrival[tid] = ("barrier", "")
                if any(done):
                    raise CaptureEscape("barrier with finished threads")
                if all(arrival[t] is not None for t in range(n)):
                    release_arrivals()
                continue
            if cls is rq.Single or cls is rq.Critical:
                raise CaptureEscape(
                    f"{cls.__name__} executes arbitrary code on memory")
            if cls is rq.LockAcquire:
                name = lock_name_of(request)
                drain(tid)
                if name in lock_holder:
                    lock_wait[tid] = name
                else:
                    lock_holder[name] = tid
                    held_locks[tid].add(name)
                    clocks[tid] += plain_cost(
                        PrimitiveKind.OMP_LOCK_ACQUIRE)
                continue
            if cls is rq.LockRelease:
                name = lock_name_of(request)
                if lock_holder.get(name) != tid:
                    raise CaptureEscape("release of a lock not held")
                drain(tid)
                del lock_holder[name]
                held_locks[tid].discard(name)
                clocks[tid] += plain_cost(PrimitiveKind.OMP_LOCK_RELEASE)
                continue
            if cls is rq.Read:
                var = request.var
                i = validate(tid, var, request.idx)
                charge_mem(tid, PLAIN_READ, var, i, var_dtype(var))
                buf = buffers[tid]
                if relaxed and (var, i) in buf:
                    pending[tid] = buf[(var, i)]
                else:
                    slot = new_slot()
                    effects.append(("r", var, i, slot))
                    pending[tid] = Sym(("s", slot, 0))
                continue
            if cls is rq.Write:
                var = request.var
                i = validate(tid, var, request.idx)
                charge_mem(tid, PLAIN_UPDATE, var, i, var_dtype(var))
                node = _plan_value_node(request.value)
                if relaxed:
                    buffers[tid][(var, i)] = request.value
                else:
                    effects.append(("w", var, i, node))
                continue
            # Atomics and flushes are flush points under relaxed
            # consistency, exactly as in the reference sweep.
            if relaxed:
                drain(tid)
            if cls is rq.Flush:
                clocks[tid] += plain_cost(PrimitiveKind.OMP_FLUSH)
                continue
            if cls is rq.AtomicRead:
                var = request.var
                i = validate(tid, var, request.idx)
                dtype = request.dtype if request.dtype is not None \
                    else var_dtype(var)
                charge_mem(tid, ATOMIC_READ, var, i, dtype)
                slot = new_slot()
                effects.append(("r", var, i, slot))
                pending[tid] = Sym(("s", slot, 0))
                continue
            if cls is rq.AtomicWrite:
                var = request.var
                i = validate(tid, var, request.idx)
                dtype = request.dtype if request.dtype is not None \
                    else var_dtype(var)
                charge_mem(tid, ATOMIC_WRITE, var, i, dtype)
                effects.append(("w", var, i,
                                _plan_value_node(request.value)))
                continue
            if cls is rq.AtomicCapture or cls is rq.AtomicUpdate:
                var = request.var
                i = validate(tid, var, request.idx)
                dtype = request.dtype if request.dtype is not None \
                    else var_dtype(var)
                is_capture = cls is rq.AtomicCapture
                charge_mem(tid,
                           ATOMIC_CAPTURE if is_capture else ATOMIC_UPDATE,
                           var, i, dtype)
                slot = new_slot()
                old = Sym(("s", slot, 0))
                try:
                    new = request.func(old)
                except CaptureEscape:
                    raise
                except Exception as exc:
                    raise CaptureEscape(
                        "atomic update function is not steady") from exc
                effects.append(("au", var, i, slot,
                                _plan_value_node(new)))
                pending[tid] = (old if request.capture_old else new) \
                    if is_capture else None
                continue
            raise CaptureEscape(
                f"unknown request class {cls.__name__}")
        if not progressed:
            raise CaptureEscape("deadlock during capture")

    for t in range(n):
        drain(t)
    if len(effects) > EFFECT_CAP:
        raise CaptureEscape("plan too large")
    elapsed = max(clocks) if clocks else 0.0
    elapsed += plain_cost(PrimitiveKind.OMP_BARRIER)
    return RegionPlan(
        thread_times=tuple(clocks),
        elapsed=elapsed,
        barriers=barriers,
        requests=steps,
        steps=steps,
        n_slots=n_slots,
        effects=effects,
    )
