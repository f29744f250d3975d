"""Which qlert modules may read what.

The per-element region labels belong to the mesh, and the conductor split
that decides which regions a solve evaluates to ``fem.Assembler``: every
other module asks them (``Mesh.region_mask``, ``Mesh.region_elements``,
``Assembler.kept_regions``, ``Assembler.kept``) instead of classifying
elements by label itself."""

import ast
from pathlib import Path

import qlert

PACKAGE = Path(qlert.__file__).resolve().parent

#: the modules that read ``Mesh.element_region``
LABEL_READERS = {"mesh.py", "fem.py"}


def test_only_mesh_and_fem_read_element_labels():
    readers = sorted(
        path.name for path in PACKAGE.glob("*.py")
        if any(isinstance(node, ast.Attribute)
               and node.attr == "element_region"
               for node in ast.walk(ast.parse(path.read_text("utf-8")))))
    assert set(readers) <= LABEL_READERS, (
        f"element_region read outside mesh and fem: "
        f"{sorted(set(readers) - LABEL_READERS)}")
