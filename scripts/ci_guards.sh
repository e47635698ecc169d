#!/usr/bin/env bash
# Source-level grep guards of the CI `tests` job, one function each.
#
#   bash scripts/ci_guards.sh            # run every guard
#   bash scripts/ci_guards.sh NAME...    # run the named guards
#
# Runs from the repository root whatever the caller's directory.  Exits
# non-zero, after printing the offending lines, if any guard matches.
# tests/test_ci_guards.py runs the whole script in tier-1.

cd "$(dirname "$0")/.." || exit 1

no_vec_kernels_under_apps() {
  # Applications write scalar kernels only; batched forms are
  # generated by repro.kernelc.  A reappearing *_vec definition
  # means duplicated physics — delete it and let the emitter work.
  bad=$(grep -rnE 'def [A-Za-z0-9_]+_vec\(' src/repro/apps/ || true)
  if [ -n "$bad" ]; then
    echo "Hand-written *_vec kernels are retired; use the kernelc"
    echo "generated forms (python -m repro.bench --dump-kernel NAME):"
    echo "$bad"
    exit 1
  fi
}

no_csr_in_aero() {
  # The sparse-matrix format is core/mat.py's concern: aero kernels
  # see only element-local (flat 16-entry) blocks, and the solver
  # consumes the padded row view.  indptr/indices/searchsorted
  # appearing in the app means format internals leaked out.
  bad=$(grep -rnE '\bindptr\b|\bindices\b|searchsorted|\bcsr\b' \
        src/repro/apps/aero/ || true)
  if [ -n "$bad" ]; then
    echo "CSR internals belong in core/mat.py, not in the aero app:"
    echo "$bad"
    exit 1
  fi
}

no_assembly_in_matfree() {
  # operator="matfree" exists to keep Mat.assemble() (and the
  # staging scatter it folds) out of the per-Picard-step path;
  # tests pin assemble_calls == 0, and this guard catches the
  # source-level reintroduction directly: no .assemble( call may
  # appear in solve/matfree.py or inside the driver's
  # _matfree_system body (_assemble_system legitimately keeps it).
  # Doc mentions (backtick-quoted) and comments are fine; a
  # bare .assemble( call expression is not.
  bad=$(grep -nE '\.assemble\(' src/repro/solve/matfree.py \
        | grep -vE '``|#' || true)
  body=$(awk '/def _matfree_system/{f=1;next} f&&/^    def /{f=0} f' \
         src/repro/apps/aero/driver.py)
  bad2=$(printf '%s\n' "$body" | grep -nE '\.assemble\(' \
         | grep -vE '``|#' || true)
  if [ -n "$bad$bad2" ]; then
    echo "The matrix-free hot path must never assemble the CSR:"
    echo "$bad"
    echo "$bad2"
    exit 1
  fi
}

no_host_reads_in_cg_trip() {
  # A CG solve is one loop chain with a back edge, replayed inside
  # one native call: its dot products are Global reductions
  # inside the chain and its scalar algebra is a scalar loop.  An
  # np.dot anywhere in solve/cg.py, or a .data / .value / NumPy
  # read inside the trip body, puts the host back between the
  # loops — the trip stops being capturable and every solve falls
  # back to one Python call per iteration.
  bad=$(grep -nE 'np\.dot\b' src/repro/solve/cg.py \
        | grep -vE '``|#' || true)
  body=$(awk '/^    def trip\(\):/{f=1;next} f&&/^    [^ ]/{f=0} f' \
         src/repro/solve/cg.py)
  if [ -z "$body" ]; then
    echo "solve/cg.py no longer defines the trip body this guard reads"
    exit 1
  fi
  bad2=$(printf '%s\n' "$body" \
         | grep -nE '\.data\b|\.value\b|\bnp\.' \
         | grep -vE '``|#' || true)
  if [ -n "$bad$bad2" ]; then
    echo "The CG trip must stay par_loops only (solve/cg.py):"
    echo "$bad"
    echo "$bad2"
    exit 1
  fi
}

no_backend_literals_in_examples() {
  # The examples run on Runtime("auto"), the runtime's stated rule
  # (native, else its vectorized tier; SoA; chained).  A hard-coded
  # backend name in an example would show a configuration the rule
  # does not pick (benchmark sweeps that iterate over backend
  # *variables* are fine and do not match).
  bad=$(grep -rnE 'Runtime\(\s*"(sequential|vectorized|native)"|backend\s*=\s*"(sequential|vectorized|native)"' examples/ || true)
  if [ -n "$bad" ]; then
    echo "Examples must use Runtime(\"auto\") instead of a"
    echo "hand-picked backend literal (Runtime(\"auto\") is the rule):"
    echo "$bad"
    exit 1
  fi
}

no_adhoc_persistence() {
  # Every on-disk cache goes through src/repro/store (atomic
  # writes, versioned schemas, corrupt tolerance, LRU bound,
  # uniform counters).  A direct open()/pickle call elsewhere
  # under src/repro/ is a cache bypass waiting to corrupt:
  # route it through repro.store instead.  CLI entry points
  # (__main__.py) may open() user-requested output files.
  bad=$(grep -rnE '\bopen\(|import pickle|\bpickle\.' \
        src/repro/ --include='*.py' \
        | grep -v '^src/repro/store/' \
        | grep -v '__main__\.py' || true)
  if [ -n "$bad" ]; then
    echo "Direct file/pickle persistence belongs in repro.store:"
    echo "$bad"
    exit 1
  fi
}

one_strip_executor() {
  # The vectorized backend has one gather -> kernel -> scatter
  # implementation: backends/base.py's StripProgram, which eager,
  # chained and tiled dispatch (and gather_batch / scatter_batch)
  # all run.  An np.take( / .scatter( / .scatter_add( call anywhere
  # else under backends/ is a second copy that can drift out of
  # bitwise step with it: prepare a StripProgram instead.
  bad=$(awk '
    FNR == 1 { inside = 0 }
    FILENAME ~ /\/base\.py$/ && /^class StripProgram[(:]/ { inside = 1; next }
    inside && /^[^ \t]/ { inside = 0 }
    !inside && /np\.take\(|\.scatter(_add)?\(/ { print FILENAME ":" FNR ": " $0 }
  ' src/repro/backends/*.py | grep -vE '``|#' || true)
  if [ -n "$bad" ]; then
    echo "Gathers and scatters under backends/ belong in StripProgram"
    echo "(backends/base.py):"
    echo "$bad"
    exit 1
  fi
}

one_op_table() {
  # What a kernel's calls, literals and ** mean is decided once, in
  # kernelc/lower.py's op table, which the C and NumPy printers (and
  # the flop prices) consume.  Naming np.minimum / np.maximum /
  # np.sqrt or a repro.simd intrinsic anywhere else under kernelc/ is
  # a printer deciding for itself again: add the op to the table.
  # (Doc mentions, comments and the C preamble's comments are fine.)
  bad=$(grep -rnE 'np\.(minimum|maximum|sqrt)\b|_intrinsics\.' \
        src/repro/kernelc/ --include='*.py' \
        | grep -v '^src/repro/kernelc/lower\.py:' \
        | grep -vE '``|#|/\*' || true)
  if [ -n "$bad" ]; then
    echo "Kernel operations are looked up in kernelc/lower.py's op table:"
    echo "$bad"
    exit 1
  fi
}

GUARDS="no_vec_kernels_under_apps no_csr_in_aero no_assembly_in_matfree
no_host_reads_in_cg_trip no_backend_literals_in_examples no_adhoc_persistence
one_strip_executor one_op_table"

status=0
for guard in ${@:-$GUARDS}; do
  # A subshell per guard: its `exit 1` fails that guard, and the
  # others still run and report.
  if ! ( "$guard" ); then
    echo "FAILED: $guard"
    status=1
  fi
done
exit $status
