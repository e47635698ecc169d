"""Generators for every table of the paper's evaluation (I-IX).

Each function returns a :class:`~repro.bench.harness.ReportTable` whose
rows put our reproduced value next to the published one.  Tables I-IV
derive from specifications and the API itself; Tables V-IX come from the
calibrated performance model at paper scale.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..mesh import airfoil_paper_dims, volna_paper_dims
from ..perfmodel import (
    AUTOVEC_OPENMP,
    CUDA,
    MACHINES,
    OPENCL,
    SCALAR_MPI,
    SCALAR_OPENMP,
    VEC_MPI,
    VEC_OPENMP,
    airfoil_workload,
    predict_app,
    table1_rows,
    volna_workload,
)
from . import paper_data
from .harness import ReportTable

_WORKLOADS: Dict[str, object] = {}


def _workload(name: str):
    """Cached workloads — profile analysis builds meshes once."""
    if name not in _WORKLOADS:
        if name == "airfoil-large":
            _WORKLOADS[name] = airfoil_workload("large")
        elif name == "airfoil-small":
            _WORKLOADS[name] = airfoil_workload("small")
        elif name == "volna":
            _WORKLOADS[name] = volna_workload()
        else:
            raise KeyError(name)
    return _WORKLOADS[name]


AIRFOIL_KERNELS = ("save_soln", "adt_calc", "res_calc", "bres_calc", "update")
VOLNA_KERNELS = ("RK_1", "RK_2", "compute_flux", "numerical_flux",
                 "space_disc")


# ----------------------------------------------------------------------
def table1() -> ReportTable:
    """Table I: benchmark systems specifications."""
    t = ReportTable("Table I - Benchmark systems specifications")
    for row in table1_rows():
        t.add(**row)
    t.note("Transcribed Table I values; FLOP/byte = GEMM / STREAM.")
    return t


# ----------------------------------------------------------------------
def _kernel_properties_table(title, workload, kernels, paper, itemsize_dp,
                             sp_col=True) -> ReportTable:
    t = ReportTable(title)
    for name in kernels:
        p = workload.profile(name)
        lt = p.transfer
        row = {
            "Kernel": name,
            "DirRd": lt.direct_read, "DirWr": lt.direct_write,
            "IndRd": lt.indirect_read, "IndWr": lt.indirect_write,
            "FLOP": p.flops,
            "F/B": round(lt.flop_per_byte(p.flops, itemsize_dp), 2),
        }
        if sp_col:
            row["F/B(SP)"] = round(
                lt.flop_per_byte(p.flops, itemsize_dp // 2), 2
            )
        pap = paper.get(name)
        if pap:
            row["paper DirRd"] = pap[0]
            row["paper DirWr"] = pap[1]
            row["paper IndRd"] = pap[2]
            row["paper IndWr"] = pap[3]
            row["paper FLOP"] = pap[4]
            row["paper F/B"] = pap[5]
        t.add(**row)
    t.note(
        "Our transfer counts are derived from the par_loop argument "
        "lists; INC counts as read+write (paper convention)."
    )
    return t


def table2() -> ReportTable:
    """Table II: Airfoil kernel properties."""
    return _kernel_properties_table(
        "Table II - Airfoil kernel properties",
        _workload("airfoil-large"), AIRFOIL_KERNELS,
        paper_data.TABLE2_AIRFOIL, itemsize_dp=8,
    )


def table3() -> ReportTable:
    """Table III: Volna kernel properties (single precision)."""
    return _kernel_properties_table(
        "Table III - Volna kernel properties",
        _workload("volna"), VOLNA_KERNELS + ("sim_1",),
        paper_data.TABLE3_VOLNA, itemsize_dp=8, sp_col=False,
    )


# ----------------------------------------------------------------------
def table4() -> ReportTable:
    """Table IV: mesh sizes and memory footprints."""
    t = ReportTable("Table IV - Test mesh sizes and memory footprint")
    ni, nj = airfoil_paper_dims(720_000)
    entries = [
        ("Airfoil small", ni * nj, ni * (nj + 1), 2 * ni * nj - ni,
         {"nodes": 2, "cells": 13, "bedges": 1}, 8),
        ("Airfoil large", 4 * ni * nj, 2 * ni * (2 * nj + 1),
         2 * (2 * ni) * (2 * nj) - 2 * ni,
         {"nodes": 2, "cells": 13, "bedges": 1}, 8),
    ]
    nx, ny = volna_paper_dims()
    entries.append(
        ("Volna", 2 * nx * ny, (nx + 1) * (ny + 1), 3 * nx * ny + nx + ny,
         {"cells": 17, "edges": 10, "nodes": 0}, 4)
    )
    for name, cells, nodes, edges, dat_dims, itemsize in entries:
        sizes = {"cells": cells, "nodes": nodes, "edges": edges,
                 "bedges": max(1, int(0.002 * cells))}
        data_mb = sum(
            sizes[s] * d * itemsize for s, d in dat_dims.items()
        ) / 2**20
        pap = paper_data.TABLE4_MESHES[name]
        t.add(
            Mesh=name, cells=cells, nodes=nodes, edges=edges,
            **{"data MB": round(data_mb, 1),
               "paper cells": pap[0], "paper nodes": pap[1],
               "paper edges": pap[2],
               "paper MB": pap[3] if pap[3] is not None else pap[4]},
        )
    t.note(
        "Generated-mesh sizes from the O-mesh/triangulation formulas; "
        "paper footprints include one int32 connectivity map on top of "
        "our data-only figure (see EXPERIMENTS.md)."
    )
    return t


# ----------------------------------------------------------------------
def _breakdown_rows(t, pred, kernels, paper_col, dtype_label=""):
    for name in kernels:
        kp = pred.kernels[name]
        row = {
            "Kernel": name,
            "time s": round(kp.time_s, 2),
            "BW GB/s": round(kp.bandwidth_gbs, 1),
            "GFLOP/s": round(kp.gflops, 1),
            "bound": kp.bound,
        }
        if paper_col and name in paper_col:
            row["paper t"] = paper_col[name][0]
            row["paper BW"] = paper_col[name][1]
        t.add(**row)


def table5() -> ReportTable:
    """Table V: baseline (non-vectorized MPI / CUDA) breakdowns."""
    t = ReportTable(
        "Table V - Baseline per-kernel breakdowns "
        "(Airfoil DP 2.8M + Volna SP)"
    )
    awl, vwl = _workload("airfoil-large"), _workload("volna")
    awl_small = _workload("airfoil-small")
    combos = [
        ("MPI CPU 1", MACHINES["CPU 1"], SCALAR_MPI, awl, np.float64,
         AIRFOIL_KERNELS),
        ("MPI CPU 2", MACHINES["CPU 2"], SCALAR_MPI, awl, np.float64,
         AIRFOIL_KERNELS),
        ("CUDA K40", MACHINES["K40"], CUDA, awl_small, np.float64,
         AIRFOIL_KERNELS),
        ("MPI CPU 1", MACHINES["CPU 1"], SCALAR_MPI, vwl, np.float32,
         VOLNA_KERNELS),
        ("MPI CPU 2", MACHINES["CPU 2"], SCALAR_MPI, vwl, np.float32,
         VOLNA_KERNELS),
        ("CUDA K40", MACHINES["K40"], CUDA, vwl, np.float32,
         VOLNA_KERNELS),
    ]
    for label, machine, cfg, wl, dtype, kernels in combos:
        pred = predict_app(wl, machine, cfg, dtype)
        paper_col = paper_data.TABLE5_BASELINE.get(label, {})
        for name in kernels:
            kp = pred.kernels[name]
            pap = paper_col.get(name, (None, None, None))
            t.add(
                Config=label, App=wl.name, Kernel=name,
                **{"time s": round(kp.time_s, 2),
                   "BW GB/s": round(kp.bandwidth_gbs, 1),
                   "GFLOP/s": round(kp.gflops, 1),
                   "bound": kp.bound,
                   "paper t": pap[0], "paper BW": pap[1],
                   "paper GF": pap[2]},
            )
    t.note(
        "Airfoil CUDA uses the 720k mesh — the paper's own byte "
        "accounting shows the published CUDA column did too."
    )
    return t


def table6() -> ReportTable:
    """Table VI: OpenCL breakdowns on CPU 1 and the Xeon Phi."""
    t = ReportTable("Table VI - OpenCL per-kernel breakdowns")
    awl, vwl = _workload("airfoil-large"), _workload("volna")
    for mname in ("CPU 1", "Xeon Phi"):
        machine = MACHINES[mname]
        paper_col = paper_data.TABLE6_OPENCL[mname]
        for wl, dtype, kernels in (
            (awl, np.float64, AIRFOIL_KERNELS),
            (vwl, np.float32, VOLNA_KERNELS),
        ):
            pred = predict_app(wl, machine, OPENCL, dtype)
            for name in kernels:
                kp = pred.kernels[name]
                pap = paper_col.get(name, (None, None))
                vec_paper = (
                    name in paper_data.TABLE6_VECTORIZED_CPU
                    if mname == "CPU 1"
                    else True
                )
                t.add(
                    Device=mname, Kernel=name,
                    **{"time s": round(kp.time_s, 2),
                       "BW GB/s": round(kp.bandwidth_gbs, 1),
                       "vectorized": kp.vectorized,
                       "paper t": pap[0], "paper BW": pap[1],
                       "paper vec": vec_paper},
                )
    t.note(
        "OpenCL vectorizes whole kernels or not at all; the AVX device "
        "refuses the scatter/direct kernels, IMCI accepts everything."
    )
    return t


def table7() -> ReportTable:
    """Table VII: vectorized pure-MPI breakdowns on CPU 1 / CPU 2."""
    t = ReportTable("Table VII - Vectorized (intrinsics) MPI breakdowns")
    awl, vwl = _workload("airfoil-large"), _workload("volna")
    for mname in ("CPU 1", "CPU 2"):
        machine = MACHINES[mname]
        paper_col = paper_data.TABLE7_VECTORIZED[mname]
        for wl, dtype, kernels in (
            (awl, np.float64, AIRFOIL_KERNELS),
            (vwl, np.float32, VOLNA_KERNELS),
        ):
            pred = predict_app(wl, machine, VEC_MPI, dtype)
            for name in kernels:
                kp = pred.kernels[name]
                pap = paper_col.get(name, (None, None))
                t.add(
                    Device=mname, Kernel=name,
                    **{"time s": round(kp.time_s, 2),
                       "BW GB/s": round(kp.bandwidth_gbs, 1),
                       "bound": kp.bound,
                       "paper t": pap[0], "paper BW": pap[1]},
                )
    return t


def table8() -> ReportTable:
    """Table VIII: Xeon Phi scalar / auto-vectorized / intrinsics."""
    t = ReportTable("Table VIII - Xeon Phi per-kernel breakdowns")
    awl, vwl = _workload("airfoil-large"), _workload("volna")
    phi = MACHINES["Xeon Phi"]
    for label, cfg in (
        ("Scalar", SCALAR_OPENMP),
        ("Auto-vectorized", AUTOVEC_OPENMP),
        ("Intrinsics", VEC_OPENMP),
    ):
        paper_col = paper_data.TABLE8_PHI[label]
        for wl, dtype, kernels in (
            (awl, np.float64, AIRFOIL_KERNELS),
            (vwl, np.float32, VOLNA_KERNELS),
        ):
            pred = predict_app(wl, phi, cfg, dtype)
            for name in kernels:
                kp = pred.kernels[name]
                pap = paper_col.get(name, (None, None))
                t.add(
                    Version=label, Kernel=name,
                    **{"time s": round(kp.time_s, 2),
                       "BW GB/s": round(kp.bandwidth_gbs, 1),
                       "paper t": pap[0], "paper BW": pap[1]},
                )
    return t


def table9() -> ReportTable:
    """Table IX: relative per-kernel improvement over CPU 1."""
    t = ReportTable("Table IX - Relative performance vs CPU 1 (best config)")
    awl, vwl = _workload("airfoil-large"), _workload("volna")
    best = {
        "CPU 1": (MACHINES["CPU 1"], VEC_MPI),
        "CPU 2": (MACHINES["CPU 2"], VEC_MPI),
        "Xeon Phi": (MACHINES["Xeon Phi"], VEC_OPENMP),
        "K40": (MACHINES["K40"], CUDA),
    }
    preds = {}
    for mname, (machine, cfg) in best.items():
        preds[mname] = {
            "airfoil": predict_app(awl, machine, cfg, np.float64),
            "volna": predict_app(vwl, machine, cfg, np.float32),
        }
    for name in AIRFOIL_KERNELS + VOLNA_KERNELS:
        if name == "bres_calc":
            continue
        app = "airfoil" if name in AIRFOIL_KERNELS else "volna"
        base = preds["CPU 1"][app].kernels[name].time_s
        row = {"Kernel": name}
        for i, mname in enumerate(paper_data.TABLE9_COLUMNS):
            ours = base / preds[mname][app].kernels[name].time_s
            row[mname] = round(ours, 2)
            row[f"paper {mname}"] = paper_data.TABLE9_RELATIVE[name][i]
        t.add(**row)
    return t


ALL_TABLES = {
    "table1": table1, "table2": table2, "table3": table3,
    "table4": table4, "table5": table5, "table6": table6,
    "table7": table7, "table8": table8, "table9": table9,
}
