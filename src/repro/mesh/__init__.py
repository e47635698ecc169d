"""Mesh substrate: containers, generators, renumbering and I/O."""

from .airfoil_mesh import make_airfoil_mesh
from .airfoil_mesh import paper_mesh_dims as airfoil_paper_dims
from .io import load_mesh, save_mesh
from .renumber import (
    bandwidth,
    permute_set_numbering,
    rcm_renumber_cells,
    scramble,
)
from .structures import UnstructuredMesh
from .tri_mesh import make_tri_mesh
from .tri_mesh import paper_mesh_dims as volna_paper_dims

__all__ = [
    "UnstructuredMesh",
    "airfoil_paper_dims",
    "bandwidth",
    "load_mesh",
    "make_airfoil_mesh",
    "make_tri_mesh",
    "permute_set_numbering",
    "rcm_renumber_cells",
    "save_mesh",
    "scramble",
    "volna_paper_dims",
]
