"""Writes the stored references under perfbench/refs from the library at hand.

The references pin today's outputs: exact polynomials as ``to_text``
files and fixed-grid meshes as OBJ sha256 hashes.  Regenerate them only
for a reviewed, intended change of output.  From the repository root:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 perfbench/make_refs.py
"""

import json
import sys
import tempfile
from pathlib import Path

import cliffordspec as cs
from cliffordspec import gallery

sys.path.insert(0, str(Path(__file__).resolve().parent))
from gate import sha256_hex  # noqa: E402
from workloads import MESHES, REFS, grid_spec  # noqa: E402

EXACT = {
    "pauli_char_poly": lambda: cs.char_poly(gallery.pauli()),
    "lemniscate_char_poly": lambda: cs.char_poly(gallery.lemniscate()),
    "bad_plot_char_poly": lambda: cs.char_poly(gallery.direct_sum_sphere()),
    "fuzzy_sphere_5_char_poly": lambda: cs.char_poly(gallery.fuzzy_sphere_5()),
    "sykora_two_torus_char_poly": lambda: cs.char_poly(gallery.sykora_two_torus()),
    "even_odd_reduced_char_poly": lambda: cs.reduced_char_poly(gallery.even_odd()),
    "torus_quadruple4_reduced_char_poly": lambda: cs.reduced_char_poly(
        gallery.torus_quadruple(4, exact=True)
    ),
}


def main() -> None:
    (REFS / "exact").mkdir(parents=True, exist_ok=True)
    for name, build in EXACT.items():
        (REFS / "exact" / f"{name}.txt").write_text(cs.to_text(build()))
        print("wrote", name)
    shas = {}
    with tempfile.TemporaryDirectory(dir=Path.cwd()) as tmp:
        for name, (ex, axes, indicator, _) in MESHES.items():
            grid = cs.sample(cs.named_example(ex).tuple, grid_spec(cs, axes), indicator)
            path = Path(tmp) / f"{name}.obj"
            cs.export_mesh_obj(cs.extract_isosurface(grid), path)
            shas[name] = sha256_hex(path.read_bytes())
            print("hashed", name)
    (REFS / "obj_sha256.json").write_text(json.dumps(shas, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
