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
from injgen.constructions import (Bicharacter, covering_ring, morita_ring,
                                  beilinson, split_positively_graded,
                                  tensor_ring, trivial_extension,
                                  twisted_tensor)
from injgen.field import PrimeField
from injgen.groups import FiniteAbelianGroup
from injgen.quiver import path_algebra
from injgen.samples import (group_algebra, product_field_algebra,
                            truncated_polynomial)
from injgen.serialize import (content_hash, matrix_to_json, provenance_record,
                              to_json)

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

    def put(label, obj, provenance=None):
        doc = to_json(obj, provenance)
        hashes[label] = content_hash(doc)
        (out / f"{label}.json").write_text(
            json.dumps(doc, sort_keys=True, separators=(",", ":")))
        order.append(label)
        return hashes[label]

    ONE = F5.one()

    kk = product_field_algebra(F5, 2)
    hk = put("kxk", kk)

    arrow = GradedBimodule(kk, kk, ["b"], [()],
                           [[{0: ONE}, {}]], [[{}, {0: ONE}]])
    ha = put("kxk-arrow", arrow)

    zb = GradedBimodule(kk, kk, [], [], [], [])
    hz = put("kxk-zero-bim", zb)

    trd = tensor_ring(kk, arrow, 2)
    put("a2-tensor", trd.algebra,
        provenance_record("tensor_ring", [hk, ha], {"nilpotency_index": 2}))

    put("triv-a2", trivial_extension(kk, arrow).algebra,
        provenance_record("trivial_extension", [hk, ha]))

    ctx = morita_ring(kk, kk, zb, arrow)
    put("morita-demo", ctx.assembled,
        provenance_record("morita_ring", [hk, hk, hz, ha],
                          {"zero_context": True}))

    k3 = product_field_algebra(F5, 3)
    h3 = put("kxkxk", k3)
    chain = GradedBimodule(
        k3, k3, ["a", "b"], [(), ()],
        [[{0: ONE}, {}, {}], [{}, {1: ONE}, {}]],
        [[{}, {0: ONE}, {}], [{}, {}, {1: ONE}]])
    put("a3-chain", chain)

    a3 = path_algebra(F5, ["1", "2", "3"],
                      [("a", "1", "2"), ("b", "2", "3")],
                      group=Z8, degrees={"a": (1,), "b": (1,)}).algebra
    h_a3 = put("a3-graded", a3)
    td, _perm = split_positively_graded(a3)
    hb = put("a3-r0", td.base)
    hp = put("a3-pos", td.bim)
    put("theta-a3", td.algebra,
        provenance_record("theta_extension", [hb, hp],
                          {"theta": matrix_to_json(F5, td.theta_raw)}))

    kz2 = group_algebra(F5, Z2)
    hkz = put("kz2", kz2)
    put("kz2-cover", covering_ring(kz2).algebra,
        provenance_record("covering_ring", [hkz]))

    dn = truncated_polynomial(F5, 2, Z2, (1,))
    hd = put("dualnumbers-z2", dn)
    put("dualnumbers-cover", covering_ring(dn).algebra,
        provenance_record("covering_ring", [hd]))

    put("kx2-z4", truncated_polynomial(F5, 2, Z4, (1,)))

    kx3 = truncated_polynomial(F5, 3, Z8, (1,))
    hx3 = put("kx3-z8", kx3)
    bd = beilinson(kx3, 2)
    put("beil-ext", trivial_extension(bd.algebra, bd.bim).algebra,
        provenance_record("beilinson", [hx3], {"level": 2}))

    az = group_algebra(F3, Z2)
    haz = put("kz2-f3", az)
    t = Bicharacter(F3, Z2, Z2, [[F3.of_int(2)]])
    put("twisted-f3", twisted_tensor(az, az, t),
        provenance_record("twisted_tensor", [haz, haz], {"t": t.to_json()}))

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
