"""Vector emitter: lower a :class:`~repro.kernelc.ir.KernelIR` to a
batched NumPy kernel.

The generated function is the cross-element SIMD form of the paper's
Section 4 (and of Sun et al.'s cross-element batching study): every
lane-carrying parameter gains a leading ``lanes`` axis — ``(dim,)``
becomes ``(lanes, dim)``, an ``IDX_ALL`` vector argument ``(arity, dim)``
becomes ``(lanes, arity, dim)`` — and the body is rewritten so each
scalar operation becomes one whole-array NumPy operation over all lanes.
READ globals keep their scalar shape (they are broadcast constants, like
the paper's splatted registers).

Lowering rules
--------------
* Subscripts of batched arrays gain a leading full slice:
  ``q[0] -> q[:, 0]``, ``x[k][1] -> x[:, k][:, 1]``.
* A call or operator over lane arrays becomes the lane form of its op
  in :mod:`repro.kernelc.lower`'s table — the call as written
  (``np.sqrt``, ``select``, helpers made only of such ops), or a
  reserved ``_kc_<op>`` (builtin ``min``/``max`` with Python's tie and
  NaN rule, ``**`` as C ``pow()``); an op without one at the loop's
  compute dtype raises :class:`UnvectorizableKernel`.  A call over lane-free operands stays
  the interpreter's own scalar call.  Conditional expressions become
  ``_kc_select`` masks.
* A lane-free select or ``min``/``max`` operand is cast to the compute
  dtype (:class:`~repro.kernelc.lower.Literals`).
* Branches are lowered to mask arithmetic: each ``if`` computes a lane
  mask, branch-local assignments get fresh names that are
  ``select``-merged at the join, and stores inside a branch become
  masked read-modify-writes ``a[:, i] = select(m, new, a[:, i])`` —
  lanes outside the mask keep their value *bitwise*, so results are
  exactly the scalar path's (stronger than the classic
  ``+= select(m, v, 0.0)`` rewrite, which perturbs ``-0.0``).
* Bounded ``range`` loops over a dim are *fused* into one whole-slice
  statement (``for n in range(4): qold[n] = q[n]`` becomes
  ``qold[:, :] = q[:, :]``) when every statement is elementwise in the
  loop variable — the loop then carries no cross-iteration dependency,
  so statement-major and element-major orders are the same sequence of
  per-element operations and results stay bitwise identical.  Loops
  outside that pattern (index arithmetic like ``x[(k+1) % 4]``,
  loop-carried locals, reductions into a fixed slot) are kept as
  (short, lane-free) Python loops preserving the scalar operation
  order exactly.

Every statement is emitted through :func:`ast.unparse`, so operator
precedence is always parenthesized correctly and the output is
deterministic — golden-source tests diff it as text.
"""

from __future__ import annotations

import ast
import copy
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .ir import SAssign, SAug, SFor, SIf, KernelIR
from .lower import (
    AS_WRITTEN, BINOPS, LANE_FORMS, Literals, UnvectorizableKernel, callee,
    helper, op_for, runs_as_written,
)


def _lane_select(mask, if_true, if_false):
    """Lane-wise select whose mask broadcasts over trailing axes.

    Same blend semantics as :func:`repro.simd.select` (``np.where``),
    but a ``(lanes,)`` mask is expanded to ``(lanes, 1, ...)`` when the
    operands carry trailing component axes — the case of joining
    branch-local *array* values (``w = x[1]`` vs ``w = x[0] * 0.5``,
    both ``(lanes, dim)``).
    """
    m = np.asarray(mask)
    ndim = max(np.ndim(if_true), np.ndim(if_false))
    if m.ndim and ndim > m.ndim:
        m = m.reshape(m.shape + (1,) * (ndim - m.ndim))
    return np.where(m, if_true, if_false)


#: Reserved names the generated source resolves against (injected into
#: the exec namespace; user code never sees them).
_RESERVED = {"_kc_np": np, "_kc_select": _lane_select, **LANE_FORMS}

_INDENT = "    "


def _load(node: ast.expr) -> ast.expr:
    """A Load-context copy of a (possibly Store-context) target."""
    dup = copy.deepcopy(node)
    for sub in ast.walk(dup):
        if hasattr(sub, "ctx"):
            sub.ctx = ast.Load()
    return dup


def _name(ident: str) -> ast.Name:
    return ast.Name(id=ident, ctx=ast.Load())


def _call(func: str, args: Sequence[ast.expr]) -> ast.Call:
    return ast.Call(func=_name(func), args=list(args), keywords=[])


def _unparse(node: ast.AST) -> str:
    return ast.unparse(ast.fix_missing_locations(node))


def _normalize_shapes(shapes) -> List[Tuple[bool, Optional[int]]]:
    """Accept plain batched flags or (batched, fuse_dim) pairs."""
    out = []
    for s in shapes:
        if isinstance(s, tuple):
            out.append((bool(s[0]), s[1]))
        else:
            out.append((bool(s), None))
    return out


class VectorEmitter:
    """One emission of one kernel IR for one argument-shape signature.

    ``shapes`` gives one entry per kernel parameter: either a plain
    batched flag, or a ``(batched, fuse_dim)`` pair where ``fuse_dim``
    is the trailing-axis extent a dim-loop may be fused over (the Dat's
    ``dim`` for plain data arguments, ``None`` for vector arguments and
    READ globals).  ``dtype`` is the loop's floating compute dtype
    (:func:`~repro.kernelc.cache.compute_dtype`), the type lane-free
    select operands are cast to.
    """

    def __init__(self, ir: KernelIR, shapes, dtype: str = "float64") -> None:
        shapes = _normalize_shapes(shapes)
        if len(shapes) != len(ir.params):
            raise UnvectorizableKernel(
                f"kernel {ir.name!r} takes {len(ir.params)} parameters but "
                f"the loop supplies {len(shapes)} arguments"
            )
        self.ir = ir
        self.lit = Literals(dtype)
        #: Original names currently known to carry the lane axis:
        #: parameters, view aliases (``x1 = x[k]``), and any local
        #: computed from lane-carrying operands.  Deliberately
        #: conservative — a lane-scalar local marked batched is harmless
        #: because valid scalar kernels never subscript scalars.
        self.batched = {
            p for p, (flag, _) in zip(ir.params, shapes) if flag
        }
        #: Parameter -> trailing-axis extent usable for dim-loop fusion.
        self.fuse_dim = {
            p: dim
            for p, (flag, dim) in zip(ir.params, shapes)
            if flag and dim is not None
        }
        #: Loop variables currently lowered to a full slice (fused loops).
        self._fuse_vars: set = set()
        self._counter = 0
        self.lines: List[str] = []
        self.depth = 1

    # -- plumbing ------------------------------------------------------
    def _fresh(self, base: str) -> str:
        self._counter += 1
        return f"{base}__{self._counter}"

    def _emit(self, text: str) -> None:
        self.lines.append(_INDENT * self.depth + text)

    def _typed(self, operand: ast.expr, batched: bool) -> ast.expr:
        """A select operand: lane arrays as they are, lane-free values
        cast to the compute dtype (see the module docstring)."""
        return operand if batched else self.lit.cast(operand)

    def _lanes(self, op, operands) -> ast.expr:
        """``op`` over ``(node, batched)`` operands, one of them lane
        arrays: its reserved lane form."""
        if op.lanes is None or self.lit.dtype not in op.lane_dtypes:
            raise UnvectorizableKernel(
                f"{self.ir.name}: {op.name} has no bitwise NumPy lane "
                f"form at {self.lit.dtype}"
            )
        return _call(f"_kc_{op.name}", [
            self._typed(n, b) if op.typed else n for n, b in operands
        ])

    def _typed_name(self, ident: str, batched: bool) -> str:
        return _unparse(self._typed(_name(ident), batched))

    # -- expression rewriting -----------------------------------------
    def _rx(self, node: ast.expr, env: Dict[str, str]) -> Tuple[ast.expr, bool]:
        """Rewrite one expression; returns (new node, is lane-batched)."""
        if isinstance(node, ast.Name):
            new = env.get(node.id, node.id)
            return _name(new), node.id in self.batched
        if isinstance(node, ast.Constant):
            return node, False
        if isinstance(node, ast.Subscript):
            value, vb = self._rx(node.value, env)
            index = self._rx_index(node.slice, env)
            if vb:
                index = self._prepend_lane(index)
            return (
                ast.Subscript(value=value, slice=index, ctx=ast.Load()),
                vb,
            )
        if isinstance(node, ast.BinOp):
            left, lb = self._rx(node.left, env)
            right, rb = self._rx(node.right, env)
            op = BINOPS[type(node.op)]
            if (lb or rb) and op.lanes is not AS_WRITTEN:
                return self._lanes(op, [(left, lb), (right, rb)]), True
            return ast.BinOp(left=left, op=node.op, right=right), lb or rb
        if isinstance(node, ast.UnaryOp):
            operand, ob = self._rx(node.operand, env)
            return ast.UnaryOp(op=node.op, operand=operand), ob
        if isinstance(node, ast.Compare):
            left, lb = self._rx(node.left, env)
            right, rb = self._rx(node.comparators[0], env)
            return (
                ast.Compare(left=left, ops=list(node.ops),
                            comparators=[right]),
                lb or rb,
            )
        if isinstance(node, ast.IfExp):
            test, tb = self._rx(node.test, env)
            body, bb = self._rx(node.body, env)
            orelse, ob = self._rx(node.orelse, env)
            return _call("_kc_select", [
                test, self._typed(body, bb), self._typed(orelse, ob),
            ]), tb or bb or ob
        if isinstance(node, ast.Tuple):
            pairs = [self._rx(e, env) for e in node.elts]
            return (
                ast.Tuple(elts=[p[0] for p in pairs], ctx=ast.Load()),
                any(p[1] for p in pairs),
            )
        if isinstance(node, ast.Call):
            args = [self._rx(a, env) for a in node.args]
            flag = any(a[1] for a in args)
            fn = callee(node.func, self.ir.namespace)
            op = op_for(fn)
            if flag and op is None and not runs_as_written(helper(fn)):
                raise UnvectorizableKernel(
                    f"{self.ir.name}: helper {fn.__name__} is not the "
                    f"same on lane arrays"
                )
            if flag and op is not None and op.lanes is not AS_WRITTEN:
                return self._lanes(op, args), True
            return (
                ast.Call(func=copy.deepcopy(node.func),
                         args=[a[0] for a in args], keywords=[]),
                flag,
            )
        raise UnvectorizableKernel(
            f"unsupported expression in {self.ir.name}: {ast.unparse(node)!r}"
        )

    def _rx_index(self, node: ast.expr, env: Dict[str, str]) -> ast.expr:
        """Rewrite a subscript index (lane-invariant by validation)."""
        if isinstance(node, ast.Name) and node.id in self._fuse_vars:
            # Fused dim loop: the loop variable becomes a full slice.
            return ast.Slice(lower=None, upper=None, step=None)
        if isinstance(node, ast.Tuple):
            return ast.Tuple(
                elts=[self._rx_index(e, env) for e in node.elts],
                ctx=ast.Load(),
            )
        dup = copy.deepcopy(node)
        for sub in ast.walk(dup):
            if isinstance(sub, ast.Name):
                sub.id = env.get(sub.id, sub.id)
        return dup

    @staticmethod
    def _prepend_lane(index: ast.expr) -> ast.expr:
        lane = ast.Slice(lower=None, upper=None, step=None)
        if isinstance(index, ast.Tuple):
            return ast.Tuple(elts=[lane] + list(index.elts), ctx=ast.Load())
        return ast.Tuple(elts=[lane, index], ctx=ast.Load())

    # -- statement lowering -------------------------------------------
    def emit_block(
        self,
        stmts: Sequence,
        env: Dict[str, str],
        mask: Optional[str],
    ) -> None:
        for stmt in stmts:
            if isinstance(stmt, SAssign):
                self._stmt_assign(stmt, env, mask)
            elif isinstance(stmt, SAug):
                self._stmt_aug(stmt, env, mask)
            elif isinstance(stmt, SFor):
                self._stmt_for(stmt, env, mask)
            elif isinstance(stmt, SIf):
                self._stmt_if(stmt, env, mask)
            else:  # pragma: no cover - builder emits only the above
                raise UnvectorizableKernel(f"unknown IR statement {stmt!r}")

    def _bind_local(
        self, name: str, env: Dict[str, str], mask: Optional[str]
    ) -> str:
        if mask is None:
            env[name] = name
            return name
        fresh = self._fresh(name)
        env[name] = fresh
        return fresh

    def _stmt_assign(self, s: SAssign, env, mask) -> None:
        target = s.targets[0]
        if isinstance(target, ast.Subscript):
            self._store(target, s.value, None, env, mask)
            return
        value, vb = self._rx(s.value, env)
        if isinstance(target, ast.Name):
            bound = self._bind_local(target.id, env, mask)
            # Any value derived from a batched operand carries the lane
            # axis.  Over-marking lane-scalar locals is harmless: a
            # subscript of a local only occurs in valid scalar kernels
            # when the local is an array per element — exactly the case
            # that needs the lane prefix.
            self._mark_batched(target.id, vb)
            self._emit(f"{bound} = {_unparse(value)}")
            return
        # Tuple of plain names.
        names = [t.id for t in target.elts]
        if (
            isinstance(s.value, ast.Tuple)
            and len(s.value.elts) == len(names)
        ):
            flags = [self._rx(e, env)[1] for e in s.value.elts]
        else:
            # Opaque multi-value RHS (a helper call): propagate the
            # whole expression's flag to every target.
            flags = [vb] * len(names)
        bounds = [self._bind_local(n, env, mask) for n in names]
        for n, flag in zip(names, flags):
            self._mark_batched(n, flag)
        self._emit(f"{', '.join(bounds)} = {_unparse(value)}")

    def _mark_batched(self, name: str, flag: bool) -> None:
        if flag:
            self.batched.add(name)
        else:
            self.batched.discard(name)

    def _stmt_aug(self, s: SAug, env, mask) -> None:
        if isinstance(s.target, ast.Subscript):
            self._store(s.target, s.value, s.op, env, mask)
            return
        # Name target: scalar-local accumulation; lower to a rebind so
        # the join machinery masks it like any other local.
        name = s.target.id
        old = env.get(name, name)
        value, vb = self._rx(s.value, env)
        combined = ast.BinOp(left=_name(old), op=s.op, right=value)
        was_batched = name in self.batched
        bound = self._bind_local(name, env, mask)
        self._mark_batched(name, was_batched or vb)
        self._emit(f"{bound} = {_unparse(combined)}")

    def _store(self, target, value, op, env, mask) -> None:
        """Subscript store, plain or masked read-modify-write."""
        new_target, _ = self._rx(_load(target), env)
        value_rx, _ = self._rx(value, env)
        tgt = _unparse(new_target)
        if mask is None:
            if op is None:
                self._emit(f"{tgt} = {_unparse(value_rx)}")
            else:
                aug = ast.AugAssign(target=new_target, op=op, value=value_rx)
                self._emit(_unparse(aug))
            return
        if op is None:
            merged = _call("_kc_select", [_name(mask), value_rx, new_target])
        else:
            updated = ast.BinOp(left=_load(new_target), op=op, right=value_rx)
            merged = _call("_kc_select", [_name(mask), updated, new_target])
        self._emit(f"{tgt} = {_unparse(merged)}")

    def _stmt_for(self, s: SFor, env, mask) -> None:
        env[s.var] = s.var
        if mask is None and self._fusable(s):
            # Dim-loop fusion: every statement is elementwise in the
            # loop variable, so statement-major whole-slice execution
            # performs the same per-element operations as the scalar
            # element-major loop — one NumPy statement per line instead
            # of one per (line, iteration).
            self._fuse_vars.add(s.var)
            self.emit_block(s.body, env, None)
            self._fuse_vars.discard(s.var)
            return
        if s.start == 0 and s.step == 1:
            rng = f"range({s.stop})"
        elif s.step == 1:
            rng = f"range({s.start}, {s.stop})"
        else:
            rng = f"range({s.start}, {s.stop}, {s.step})"
        self._emit(f"for {s.var} in {rng}:")
        self.depth += 1
        self.emit_block(s.body, env, mask)
        self.depth -= 1

    # -- dim-loop fusion ----------------------------------------------
    def _fusable(self, s: SFor) -> bool:
        """Whether the loop can be fused into whole-slice statements.

        Conservative pattern: ``range(d)`` from zero with unit step,
        every statement a subscript store ``P[var] (op)= expr`` where
        ``P`` is a batched data parameter of trailing extent exactly
        ``d``, and every use of ``var`` in ``expr`` is as the bare sole
        index of such a parameter.  Loop-invariant operands must be
        lane-free (constants, or subscripts of non-batched names such
        as READ globals and closure arrays) so no broadcasting mismatch
        can arise.  Everything else keeps the faithful Python loop.
        """
        if s.start != 0 or s.step != 1:
            return False
        for stmt in s.body:
            if isinstance(stmt, SAssign):
                if len(stmt.targets) != 1:
                    return False
                target, value = stmt.targets[0], stmt.value
            elif isinstance(stmt, SAug):
                target, value = stmt.target, stmt.value
            else:
                return False
            if not self._fuse_store_ok(target, s.var, s.stop):
                return False
            if not self._fuse_expr_ok(value, s.var, s.stop):
                return False
        return True

    def _fuse_store_ok(self, target, var: str, stop: int) -> bool:
        return (
            isinstance(target, ast.Subscript)
            and isinstance(target.value, ast.Name)
            and isinstance(target.slice, ast.Name)
            and target.slice.id == var
            and self.fuse_dim.get(target.value.id) == stop
        )

    def _fuse_expr_ok(self, node, var: str, stop: int) -> bool:
        if isinstance(node, ast.Constant):
            return True
        if isinstance(node, ast.Subscript):
            if (
                isinstance(node.value, ast.Name)
                and isinstance(node.slice, ast.Name)
                and node.slice.id == var
            ):
                return self.fuse_dim.get(node.value.id) == stop
            # Loop-invariant subscript: must not mention the loop
            # variable and must be lane-free (non-batched root).
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and sub.id == var:
                    return False
            root = node.value
            while isinstance(root, ast.Subscript):
                root = root.value
            return isinstance(root, ast.Name) and root.id not in self.batched
        if isinstance(node, ast.BinOp):
            return (
                self._fuse_expr_ok(node.left, var, stop)
                and self._fuse_expr_ok(node.right, var, stop)
            )
        if isinstance(node, ast.UnaryOp):
            return self._fuse_expr_ok(node.operand, var, stop)
        if isinstance(node, ast.Call):
            return all(
                self._fuse_expr_ok(a, var, stop) for a in node.args
            )
        return False

    def _stmt_if(self, s: SIf, env, mask) -> None:
        test, _ = self._rx(s.test, env)
        tname = self._fresh("_kc_t")
        self._emit(f"{tname} = {_unparse(test)}")
        if mask is None:
            m_true = tname
            m_false = self._fresh("_kc_f")
            self._emit(f"{m_false} = _kc_np.logical_not({tname})")
        else:
            m_true = self._fresh("_kc_m")
            self._emit(
                f"{m_true} = _kc_np.logical_and({mask}, {tname})"
            )
            m_false = self._fresh("_kc_m")
            self._emit(
                f"{m_false} = _kc_np.logical_and"
                f"({mask}, _kc_np.logical_not({tname}))"
            )
        env_t = dict(env)
        env_f = dict(env)
        # Batched classification is branch-scoped: each branch starts
        # from the pre-branch set, and the join takes the union (a
        # select() of lane-carrying values carries lanes; over-marking
        # is safe, order-dependence is not).
        pre_batched = set(self.batched)
        self.emit_block(s.body, env_t, m_true)
        batched_t = self.batched
        self.batched = set(pre_batched)
        self.emit_block(s.orelse, env_f, m_false)
        batched_f = set(self.batched)
        self.batched |= batched_t
        # Join: merge branch-local rebinds back into the parent scope.
        assigned: List[str] = []
        for branch_env in (env_t, env_f):
            for key, val in branch_env.items():
                if val != env.get(key) and key not in assigned:
                    assigned.append(key)
        for name in assigned:
            pre = env.get(name)
            v_t = env_t.get(name)
            v_f = env_f.get(name)
            in_t = v_t != pre
            in_f = v_f != pre
            if pre is None and not (in_t and in_f):
                # Bound in one branch only, and not before: no join.
                env[name] = v_t if in_t else v_f
                continue
            v_t = self._typed_name(v_t, name in batched_t)
            v_f = self._typed_name(v_f, name in batched_f)
            if pre is None:
                expr = f"_kc_select({tname}, {v_t}, {v_f})"
            else:
                pre = self._typed_name(pre, name in pre_batched)
                if in_t and in_f:
                    expr = (
                        f"_kc_select({m_true}, {v_t}, "
                        f"_kc_select({m_false}, {v_f}, {pre}))"
                    )
                elif in_t:
                    expr = f"_kc_select({m_true}, {v_t}, {pre})"
                else:
                    expr = f"_kc_select({m_false}, {v_f}, {pre})"
            joined = self._fresh(name)
            self._emit(f"{joined} = {expr}")
            env[name] = joined

    # -- entry ---------------------------------------------------------
    def emit(self) -> str:
        header = (
            f"def {self.ir.name}__kcvec({', '.join(self.ir.params)}):"
        )
        doc = (
            '    """Generated batched kernel — repro.kernelc vector '
            'emitter; do not edit."""'
        )
        env = {p: p for p in self.ir.params}
        self.emit_block(self.ir.body, env, None)
        body = self.lines if self.lines else [_INDENT + "pass"]
        return "\n".join([header, doc] + body) + "\n"


def emit_vector_source(ir: KernelIR, shapes, dtype: str = "float64") -> str:
    """Generated source of the batched kernel for one shape signature.

    ``shapes`` is one entry per parameter: a plain batched flag or a
    ``(batched, fuse_dim)`` pair; ``dtype`` is the loop's compute dtype
    (see :class:`VectorEmitter`).
    """
    return VectorEmitter(ir, shapes, dtype).emit()


def compile_vector(ir: KernelIR, shapes, dtype: str = "float64"):
    """Emit and compile the batched kernel, returning the callable.

    The function executes against the scalar kernel's own namespace
    (globals + closure constants) plus the reserved ``_kc_*`` lowering
    helpers, so free names (flow constants, ``np``, ``select``, helper
    functions) resolve exactly as they did in the scalar source.
    """
    source = emit_vector_source(ir, shapes, dtype)
    namespace = dict(ir.namespace)
    namespace.update(_RESERVED)
    code = compile(source, f"<kernelc vector {ir.name}>", "exec")
    exec(code, namespace)
    fn = namespace[f"{ir.name}__kcvec"]
    fn.__source__ = source  # type: ignore[attr-defined]
    fn.__kernelc__ = True  # type: ignore[attr-defined]
    return fn
