"""Purity analysis for the dispatcher's content-replay tier.

The dispatcher (:mod:`repro.compiler.dispatcher`) memoizes whole
launches and regions by their inputs.  That is only sound when the
kernel cannot consult state the key does not see, so this module
proves it statically:

* :func:`kernel_purity`: a conservative AST whitelist proving a kernel
  generator touches nothing outside its thread context, its closure
  cells, the module globals it loads (:func:`_global_load_names`), and
  the interpreter's memory requests.  Cells and globals are admitted
  because the dispatcher freezes their current values into every key;
  annotations are ignored.
* :func:`immutable_value`: which cell/global values the dispatcher may
  freeze by value (deeply immutable ones, and read-only arrays, which
  it digests at every launch); a kernel holding any other value falls
  back to the interpreter.
"""

from __future__ import annotations

import ast
import builtins
import dis
import enum
import inspect
import textwrap
import types

import numpy as np


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
    between launches).

    A read-only plain ndarray of a non-object dtype counts: a kernel's
    write into it raises, so a launch that writes never records, and
    the dispatcher digests its bytes at every launch, so re-enabling
    writes and changing it between launches keys a different entry.  A
    subclass is refused, because the byte digest would not see its
    extra state (a masked array's mask).
    """
    if depth > 4:
        return False
    if isinstance(v, _IMMUTABLE_SCALARS) or isinstance(v, enum.Enum):
        return True
    if isinstance(v, (np.integer, np.floating, np.bool_)) \
            or isinstance(v, np.dtype):
        return True
    if type(v) is np.ndarray:
        return not v.flags.writeable and not v.dtype.hasobject
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
