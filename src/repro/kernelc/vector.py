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
* ``min``/``max`` builtins become the :func:`repro.simd.vmin` /
  :func:`~repro.simd.vmax` intrinsics; conditional expressions become
  :func:`~repro.simd.select` — the generated code speaks the same
  branchless vocabulary the hand-written kernels did.
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

from ..simd import intrinsics as _intrinsics
from .ir import SAssign, SAug, SFor, SIf, KernelIR, UnvectorizableKernel

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


def _lane_pow(base, exp):
    """Lane-wise power matching numpy *scalar* ``**`` bitwise.

    The scalar interpreter (the bitwise oracle) evaluates ``a ** b`` on
    ``np.float64`` scalars, which is plain C ``pow()``.  Array ``**``
    instead fast-paths small exponents (``np.square``, ``sqrt``,
    reciprocal), which rounds differently by one ulp on some inputs.
    ``np.float_power`` takes the ``pow()`` path elementwise, so it is
    the faithful vectorization for float64 operands; other dtypes keep
    plain ``**`` (float32 has no pow-path vector primitive, and integer
    ``**`` must stay integer).
    """
    if np.result_type(base, exp) == np.float64:
        return np.float_power(base, exp)
    return base ** exp


#: Reserved names the generated source resolves against (injected into
#: the exec namespace; user code never sees them).
_RESERVED = {
    "_kc_np": np,
    "_kc_select": _lane_select,
    "_kc_vmin": _intrinsics.vmin,
    "_kc_vmax": _intrinsics.vmax,
    "_kc_pow": _lane_pow,
}

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
    READ globals).
    """

    def __init__(self, ir: KernelIR, shapes) -> None:
        shapes = _normalize_shapes(shapes)
        if len(shapes) != len(ir.params):
            raise UnvectorizableKernel(
                f"kernel {ir.name!r} takes {len(ir.params)} parameters but "
                f"the loop supplies {len(shapes)} arguments"
            )
        self.ir = ir
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
            if isinstance(node.op, ast.Pow) and (lb or rb):
                # Lane-batched ``**`` must reproduce the *scalar*
                # interpreter's pow (C pow()), not the array fast paths.
                return _call("_kc_pow", [left, right]), True
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
            return _call("_kc_select", [test, body, orelse]), tb or bb or ob
        if isinstance(node, ast.Tuple):
            pairs = [self._rx(e, env) for e in node.elts]
            return (
                ast.Tuple(elts=[p[0] for p in pairs], ctx=ast.Load()),
                any(p[1] for p in pairs),
            )
        if isinstance(node, ast.Call):
            args = [self._rx(a, env) for a in node.args]
            flag = any(a[1] for a in args)
            func = node.func
            if (
                isinstance(func, ast.Name)
                and func.id in ("min", "max")
                and func.id not in self.ir.namespace
            ):
                # Builtin min/max only — a name resolving in the kernel's
                # namespace (e.g. ``from numpy import min``) keeps its own
                # (already validated) semantics.
                name = "_kc_vmin" if func.id == "min" else "_kc_vmax"
                return _call(name, [a[0] for a in args]), flag
            return (
                ast.Call(func=copy.deepcopy(func),
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
                aug = ast.AugAssign(
                    target=_store_ctx(new_target), op=op, value=value_rx
                )
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
            if in_t and in_f:
                if pre is None:
                    expr = (
                        f"_kc_select({tname}, {v_t}, {v_f})"
                    )
                else:
                    expr = (
                        f"_kc_select({m_true}, {v_t}, "
                        f"_kc_select({m_false}, {v_f}, {pre}))"
                    )
            elif in_t:
                if pre is None:
                    env[name] = v_t
                    continue
                expr = f"_kc_select({m_true}, {v_t}, {pre})"
            else:
                if pre is None:
                    env[name] = v_f
                    continue
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


def _store_ctx(node: ast.expr) -> ast.expr:
    dup = copy.deepcopy(node)
    dup.ctx = ast.Store()
    return dup


def emit_vector_source(ir: KernelIR, shapes) -> str:
    """Generated source of the batched kernel for one shape signature.

    ``shapes`` is one entry per parameter: a plain batched flag or a
    ``(batched, fuse_dim)`` pair (see :class:`VectorEmitter`).
    """
    return VectorEmitter(ir, shapes).emit()


def compile_vector(ir: KernelIR, shapes):
    """Emit and compile the batched kernel, returning the callable."""
    return compile_vector_source(ir, emit_vector_source(ir, shapes))


def compile_vector_source(ir: KernelIR, source: str):
    """Compile already-emitted batched-kernel source to a callable.

    Split from :func:`compile_vector` so the persistent kernelc store
    can replay a generated source without re-running the emitter.  The
    function executes against the scalar kernel's own namespace
    (globals + closure constants) plus the reserved ``_kc_*`` lowering
    helpers, so free names (flow constants, ``np``, ``select``, helper
    functions) resolve exactly as they did in the scalar source.
    """
    namespace = dict(ir.namespace)
    namespace.update(_RESERVED)
    code = compile(source, f"<kernelc vector {ir.name}>", "exec")
    exec(code, namespace)
    fn = namespace[f"{ir.name}__kcvec"]
    fn.__source__ = source  # type: ignore[attr-defined]
    fn.__kernelc__ = True  # type: ignore[attr-defined]
    return fn
