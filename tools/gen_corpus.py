"""Regenerate the bundled example corpus under src/injgen/corpus/.

Each JSON file is the canonical document for one object, provenance
included, named by its label.  manifest.json fixes the load order so
provenance inputs always resolve.  Run from the repository root:

    python3 tools/gen_corpus.py            # rewrite src/injgen/corpus/
    python3 tools/gen_corpus.py --check    # exit 1 unless it is byte-identical
"""

import argparse
import json
import pathlib
import sys
import tempfile

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from injgen.algebra import GradedBimodule
from injgen.constructions import Built, construct, split_positively_graded
from injgen.field import PrimeField
from injgen.groups import FiniteAbelianGroup
from injgen.quiver import path_algebra
from injgen.samples import (group_algebra, product_field_algebra,
                            truncated_polynomial)
from injgen.serialize import content_hash, to_json

OUT = pathlib.Path(__file__).resolve().parents[1] / "src" / "injgen" / "corpus"

F5 = PrimeField(5)
F3 = PrimeField(3)
Z2 = FiniteAbelianGroup((2,))
Z4 = FiniteAbelianGroup((4,))
Z8 = FiniteAbelianGroup((8,))


def generate(out):
    """Write every corpus object and the manifest into the directory out."""
    out.mkdir(parents=True, exist_ok=True)
    order = []
    hashes = {}
    objs = {}

    def put(label, obj, provenance=None):
        doc = to_json(obj, provenance)
        hashes[label] = content_hash(doc)
        objs[label] = obj
        (out / f"{label}.json").write_text(
            json.dumps(doc, sort_keys=True, separators=(",", ":")))
        order.append(label)

    def put_built(label, built, inputs):
        put(label, built.obj, built.provenance([hashes[i] for i in inputs]))

    def build(label, name, inputs, params=None):
        put_built(label, construct(name, [objs[i] for i in inputs], params), inputs)

    ONE = F5.one()

    kk = product_field_algebra(F5, 2)
    put("kxk", kk)
    put("kxk-arrow", GradedBimodule(kk, kk, ["b"], [()],
                                    [[{0: ONE}, {}]], [[{}, {0: ONE}]]))
    put("kxk-zero-bim", GradedBimodule(kk, kk, [], [], [], []))
    build("a2-tensor", "tensor_ring", ["kxk", "kxk-arrow"], {"nilpotency_index": 2})
    build("triv-a2", "trivial_extension", ["kxk", "kxk-arrow"])
    build("morita-demo", "morita_ring", ["kxk", "kxk", "kxk-zero-bim", "kxk-arrow"])

    k3 = product_field_algebra(F5, 3)
    put("kxkxk", k3)
    put("a3-chain", GradedBimodule(
        k3, k3, ["a", "b"], [(), ()],
        [[{0: ONE}, {}, {}], [{}, {1: ONE}, {}]],
        [[{}, {0: ONE}, {}], [{}, {}, {1: ONE}]]))

    put("a3-graded", path_algebra(F5, ["1", "2", "3"],
                                  [("a", "1", "2"), ("b", "2", "3")],
                                  group=Z8, degrees={"a": (1,), "b": (1,)}).algebra)
    td, _perm = split_positively_graded(objs["a3-graded"])
    put("a3-r0", td.base)
    put("a3-pos", td.bim)
    put_built("theta-a3", Built("theta_extension", td), ["a3-r0", "a3-pos"])

    put("kz2", group_algebra(F5, Z2))
    build("kz2-cover", "covering_ring", ["kz2"])

    put("dualnumbers-z2", truncated_polynomial(F5, 2, Z2, (1,)))
    build("dualnumbers-cover", "covering_ring", ["dualnumbers-z2"])

    put("kx2-z4", truncated_polynomial(F5, 2, Z4, (1,)))

    put("kx3-z8", truncated_polynomial(F5, 3, Z8, (1,)))
    build("beil-ext", "beilinson", ["kx3-z8"], {"level": 2})

    put("kz2-f3", group_algebra(F3, Z2))
    build("twisted-f3", "twisted_tensor", ["kz2-f3", "kz2-f3"], {"t": {"values": [[2]]}})

    (out / "manifest.json").write_text(
        json.dumps({"order": order}, indent=1))
    return order, hashes


def differences(fresh, bundled):
    """Names of the files that differ between two corpus directories."""
    names = sorted({p.name for p in fresh.glob("*.json")}
                   | {p.name for p in bundled.glob("*.json")})
    return [n for n in names
            if not ((fresh / n).is_file() and (bundled / n).is_file()
                    and (fresh / n).read_bytes() == (bundled / n).read_bytes())]


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--check", action="store_true",
                   help="regenerate into a temporary directory and exit 1 "
                        "if any file differs from the bundled corpus")
    args = p.parse_args(argv)
    if args.check:
        with tempfile.TemporaryDirectory() as tmp:
            generate(pathlib.Path(tmp))
            diff = differences(pathlib.Path(tmp), OUT)
        for name in diff:
            print(f"differs: {name}")
        print(f"corpus {'differs' if diff else 'is byte-identical'} ({OUT})")
        return 1 if diff else 0
    order, hashes = generate(OUT)
    print(f"wrote {len(order)} objects + manifest to {OUT}")
    for label in order:
        print(f"  {label:18s} {hashes[label][:12]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
