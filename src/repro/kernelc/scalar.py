"""Scalar emitter: specialized per-shape loop stubs (paper Fig 2b).

OP2 is not an interpreter — a source-to-source translator turns every
``op_par_loop`` call site into a *specialized* stub with the argument
handling unrolled: indirection indices become named locals, pointer
arithmetic is inlined, conditionals and loops over the argument list
disappear.  Section 5 credits exactly this specialization (replacing the
generic function-pointer dispatcher) with enabling the compiler
optimizations their baseline numbers rely on.

This module is that mechanism's scalar half:
:func:`generate_loop_source` emits the text of a specialized loop
function for one loop *shape* (iteration set + argument descriptors),
:func:`compile_loop` ``exec``-s it, and
:class:`~repro.backends.codegen.CodegenBackend` caches the compiled
stubs per shape.

The generator covers every argument form of Fig 2b — direct, single-slot
indirect, vector arguments (including **INC** vector arguments, which get
a hoisted private accumulator zeroed per element and applied with
``np.add.at``, exactly the generic interpreter's operation sequence) and
global reductions.  Only writing non-commutative vector arguments
(``WRITE``/``RW`` through ``IDX_ALL``) still fall back to the generic
interpreter, mirroring OP2's own fallback for unsupported shapes.
"""

from __future__ import annotations

from typing import Callable, Dict, Sequence, Tuple

import numpy as np

from ..core.access import Access, Arg


def loop_shape_key(kernel_name: str, args: Sequence[Arg]) -> Tuple:
    """Hashable description of a loop's argument structure."""
    shape = []
    for arg in args:
        if arg.is_global:
            shape.append(("gbl", arg.dat.dim, arg.access.name))
        else:
            shape.append(
                (
                    "dat",
                    arg.dat.dim,
                    arg.index,
                    arg.map.arity if arg.map is not None else 0,
                    arg.access.name,
                )
            )
    return (kernel_name,) + tuple(shape)


def supports(args: Sequence[Arg]) -> bool:
    """Can a specialized stub be generated for this argument list?

    Writing vector (``IDX_ALL``) arguments are supported only for INC
    (private accumulator + ``np.add.at``); WRITE/RW/MIN/MAX vector
    arguments need the generic interpreter's gathered-copy writeback
    machinery and fall back to it.
    """
    for arg in args:
        if arg.is_vector and arg.access not in (Access.READ, Access.INC):
            return False
    return True


def generate_loop_source(kernel_name: str, args: Sequence[Arg]) -> str:
    """Emit the specialized stub's source (the Fig 2b transformation).

    The generated function has signature::

        op_par_loop_<kernel>(start, end, user_kernel, data, maps, red)

    where ``data[i]`` is argument *i*'s array, ``maps[i]`` its map values
    (or None) and ``red[i]`` its reduction accumulator (globals only).
    """
    name = f"op_par_loop_{kernel_name}"
    lines = [
        f"def {name}(start, end, user_kernel, data, maps, red):",
        '    """Generated specialized stub — do not edit by hand."""',
    ]
    # Hoist every per-argument lookup out of the element loop.
    call_operands = []
    pre_element = []   # per-element statements before the kernel call
    post_element = []  # per-element statements after the kernel call
    for i, arg in enumerate(args):
        if arg.is_global:
            if arg.access.is_reduction:
                lines.append(f"    arg{i} = red[{i}]")
            else:
                lines.append(f"    arg{i} = data[{i}]")
            call_operands.append(f"arg{i}")
        elif arg.is_direct:
            lines.append(f"    dat{i} = data[{i}]")
            call_operands.append(f"dat{i}[n]")
        elif arg.is_vector:
            lines.append(f"    dat{i} = data[{i}]")
            lines.append(f"    map{i} = maps[{i}]")
            if arg.access is Access.INC:
                # Private per-element accumulator (OP2's arg*_l locals),
                # zeroed per element and applied serially afterwards —
                # operation-for-operation the generic interpreter's
                # sequence, so results stay bitwise identical.
                arity, dim = arg.map.arity, arg.dat.dim
                lines.append(
                    f"    buf{i} = np.zeros(({arity}, {dim}), "
                    f"dat{i}.dtype)"
                )
                pre_element.append(f"buf{i}[...] = 0.0")
                post_element.append(f"np.add.at(dat{i}, map{i}[n], buf{i})")
                call_operands.append(f"buf{i}")
            else:
                call_operands.append(f"dat{i}[map{i}[n]]")
        else:
            lines.append(f"    dat{i} = data[{i}]")
            lines.append(f"    map{i}_col = maps[{i}][:, {arg.index}]")
            call_operands.append(f"dat{i}[map{i}_col[n]]")
    lines.append("    for n in range(start, end):")
    for stmt in pre_element:
        lines.append(f"        {stmt}")
    lines.append(f"        user_kernel({', '.join(call_operands)})")
    for stmt in post_element:
        lines.append(f"        {stmt}")
    return "\n".join(lines) + "\n"


def compile_loop(kernel_name: str, args: Sequence[Arg]) -> Callable:
    """Compile the generated stub and return the callable."""
    source = generate_loop_source(kernel_name, args)
    namespace: Dict[str, object] = {"np": np}
    exec(compile(source, f"<generated op_par_loop_{kernel_name}>", "exec"),
         namespace)
    fn = namespace[f"op_par_loop_{kernel_name}"]
    fn.__source__ = source  # type: ignore[attr-defined]
    return fn
