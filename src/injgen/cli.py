"""Command line front end.

Objects live in a content-addressed store; commands accept a label, a
full hash, a unique hash prefix, or a path to a JSON document (which is
registered on the spot).  Exit codes: 0 success, 1 mathematical failure
or refutation, 2 malformed input (including a corrupt store and any object
that violates its axioms), 3 inconclusive outcome under --strict.
"""

from __future__ import annotations

import json
import pathlib
import sys

import click

from .algebra import (AlgebraError, ConstructionError, GradedAlgebra,
                      GradedBimodule, check_axioms)
from .bundled import load_corpus
from .constructions import Built, construct, reconstruct, split_covering
from .field import FieldError, field_from_spec
from .homology import (DEFAULT_NIL_CUTOFF, DEFAULT_PD_CUTOFF,
                       left_perfect_check, nilpotency_index,
                       projective_dimension, tor)
from .quiver import path_algebra_from_json
from .registry import Registry, RegistryError
from .reduction import (ESTABLISHED, ReductionError,
                        derive, emit_certificate, validate_cert)
from .serialize import (SerializeError, content_hash, from_json, object_hash,
                        object_kind)
from .verify import check_names, run_suite

EXIT_MATH = 1
EXIT_INPUT = 2
EXIT_INCONCLUSIVE = 3


class Options:
    def __init__(self, store, pd_cutoff, nil_cutoff, seed, strict, field):
        self.store = store
        # None when not given: validate-cert then uses the certificate's own
        self.given_cutoffs = {"pd_cutoff": pd_cutoff, "nil_cutoff": nil_cutoff}
        self.pd_cutoff = DEFAULT_PD_CUTOFF if pd_cutoff is None else pd_cutoff
        self.nil_cutoff = DEFAULT_NIL_CUTOFF if nil_cutoff is None else nil_cutoff
        self.seed = seed
        self.strict = strict
        self.field = field
        self._reg = None

    @property
    def reg(self):
        if self._reg is None:
            try:
                self._reg = Registry(self.store)
            except RegistryError as e:
                _fail(EXIT_INPUT, str(e))
        return self._reg


def _fail(code, msg):
    click.echo(f"error: {msg}", err=True)
    sys.exit(code)


def _read_json(path):
    try:
        return json.loads(pathlib.Path(path).read_text())
    except OSError as e:
        _fail(EXIT_INPUT, f"cannot read {path}: {e}")
    except ValueError as e:
        _fail(EXIT_INPUT, f"{path} is not JSON: {e}")
    except RecursionError:
        _fail(EXIT_INPUT, f"{path} is nested too deeply to read")


def _is_file(spec):
    """Whether the string names an existing path; one the file system
    cannot take as a name (too long, say) names none."""
    try:
        return pathlib.Path(spec).exists()
    except OSError:
        return False


def _load_ref(opts, ref):
    """Resolve a store reference or register a JSON file; returns the hash
    of an object the store admits."""
    p = pathlib.Path(ref)
    try:
        if p.suffix == ".json" or _is_file(ref):
            return opts.reg.store(_read_json(p), label=p.stem)
        h = opts.reg.resolve(ref)
        opts.reg.load(h)
        return h
    except (RegistryError, SerializeError) as e:
        _fail(EXIT_INPUT, str(e))


def _obj(opts, ref):
    return opts.reg.load(_load_ref(opts, ref))


def _emit(doc, out):
    text = json.dumps(doc, indent=1, sort_keys=True)
    if out:
        pathlib.Path(out).write_text(text + "\n")
    else:
        click.echo(text)


def _register(opts, obj, label, provenance=None, out=None):
    h = opts.reg.store_object(obj, label=label, provenance=provenance)
    click.echo(f"{h}  {label or ''}".rstrip())
    if out:
        _emit(opts.reg.load_doc(h), out)
    return h


@click.group()
@click.option("--store", default=".injgen-store", show_default=True,
              envvar="INJGEN_STORE", help="object store directory")
@click.option("--pd-cutoff", type=click.IntRange(min=1), default=None,
              help=f"[default: {DEFAULT_PD_CUTOFF}; validate-cert: the certificate's]")
@click.option("--nil-cutoff", type=click.IntRange(min=1), default=None,
              help=f"[default: {DEFAULT_NIL_CUTOFF}; validate-cert: the certificate's]")
@click.option("--seed", default=17, show_default=True,
              help="seed for verify-theorems only")
@click.option("--strict", is_flag=True,
              help="exit 3 when the outcome is only inconclusive")
@click.option("--field", default=None, metavar="fp:<p>|q",
              help="field for constructions that need one")
@click.pass_context
def main(ctx, store, pd_cutoff, nil_cutoff, seed, strict, field):
    f = None
    if field is not None:
        try:
            f = field_from_spec(field)
        except FieldError as e:
            _fail(EXIT_INPUT, str(e))
    ctx.obj = Options(store, pd_cutoff, nil_cutoff, seed, strict, f)


@main.command()
@click.argument("path")
@click.pass_obj
def check(opts, path):
    """Validate the axioms of the object in a JSON document."""
    doc = _read_json(path)
    try:
        kind = object_kind(doc)
        obj = from_json(doc)
    except SerializeError as e:
        _fail(EXIT_INPUT, str(e))
    rep = check_axioms(obj)
    click.echo(json.dumps({"kind": kind, "hash": content_hash(doc),
                           **rep.to_json()}, indent=1))
    if not rep.passed:
        sys.exit(EXIT_MATH)


@main.group()
def build():
    """Run a construction and register the result."""


def _construct(fn):
    """Map construction failures to the mathematical-failure exit code."""
    try:
        return fn()
    except (ConstructionError, AlgebraError) as e:
        _fail(EXIT_MATH, str(e))
    except (SerializeError, RegistryError) as e:
        _fail(EXIT_INPUT, str(e))


def _record(opts, name, hashes, label, out, params=None, ins=None):
    """Run the construction recorded as name on the stored inputs (or on
    ins, their loaded form) and register its object with its provenance."""
    if ins is None:
        ins = [opts.reg.load(h) for h in hashes]
    built = _construct(lambda: construct(name, ins, params))
    _register(opts, built.obj, label, built.provenance(hashes), out)


def _json_opt(spec):
    """The JSON an option gives inline or names as a file; None for 'zero'."""
    if spec is None or spec == "zero":
        return None
    try:
        return json.loads(pathlib.Path(spec).read_text() if _is_file(spec) else spec)
    except (ValueError, OSError) as e:
        _fail(EXIT_INPUT, f"bad JSON option: {e}")


@build.command()
@click.argument("ring")
@click.option("--label", default=None)
@click.option("--out", default=None)
@click.pass_obj
def covering(opts, ring, label, out):
    """Covering ring of a graded algebra."""
    h = _load_ref(opts, ring)
    _record(opts, "covering_ring", [h], label or opts.reg.label_of(h) + ":cover", out)


def _covering_of(opts, ref):
    h = _load_ref(opts, ref)
    prov = opts.reg.entry(h).get("provenance") or {}
    if prov.get("construction") != "covering_ring":
        _fail(EXIT_INPUT, "reference is not a registered covering ring")
    built = _construct(lambda: reconstruct(prov, opts.reg.load))
    if object_hash(built.obj) != h:
        _fail(EXIT_MATH, "stored covering does not match its base ring")
    return h, built.data


@build.command("module-cover")
@click.argument("module")
@click.argument("cover")
@click.option("--label", default=None)
@click.option("--out", default=None)
@click.pass_obj
def module_cover(opts, module, cover, label, out):
    """View a graded module over the covering ring."""
    hm = _load_ref(opts, module)
    hc, cov = _covering_of(opts, cover)
    _record(opts, "covering_module", [hm, hc],
            label or opts.reg.label_of(hm) + ":covered", out,
            ins=[opts.reg.load(hm), cov])


@build.command("module-uncover")
@click.argument("module")
@click.argument("cover")
@click.option("--label", default=None)
@click.option("--out", default=None)
@click.pass_obj
def module_uncover(opts, module, cover, label, out):
    """Recover the graded module from a covering-ring module."""
    hm = _load_ref(opts, module)
    hc, cov = _covering_of(opts, cover)
    _record(opts, "covering_module_inverse", [hm, hc],
            label or opts.reg.label_of(hm) + ":uncovered", out,
            ins=[opts.reg.load(hm), cov])


@build.command()
@click.argument("a")
@click.argument("b")
@click.argument("n")
@click.argument("m")
@click.option("--phi", default=None, help="matrix JSON (file or inline) or 'zero'")
@click.option("--psi", default=None, help="matrix JSON (file or inline) or 'zero'")
@click.option("--label", default=None)
@click.option("--out", default=None)
@click.pass_obj
def morita(opts, a, b, n, m, phi, psi, label, out):
    """Context ring of two corners and two glueing bimodules."""
    hashes = [_load_ref(opts, ref) for ref in (a, b, n, m)]
    _record(opts, "morita_ring", hashes, label or "morita", out,
            {"phi": _json_opt(phi), "psi": _json_opt(psi)})


@build.command()
@click.argument("cover")
@click.option("-k", "--split-index", default=None, type=int)
@click.option("--label", default=None)
@click.option("--out", default=None)
@click.pass_obj
def split(opts, cover, split_index, label, out):
    """Cut a covering ring into a Morita context and register the pieces."""
    hc, cov = _covering_of(opts, cover)
    ctx = _construct(lambda: split_covering(cov, split_index))
    stem = label or opts.reg.label_of(hc) + ":split"
    hashes = [opts.reg.store_object(getattr(ctx, piece), label=f"{stem}:{piece}")
              for piece in "ABNM"]
    for piece, h in zip("ABNM", hashes):
        click.echo(f"{h}  {stem}:{piece}")
    _register(opts, ctx.assembled, stem,
              Built("morita_ring", ctx).provenance(hashes), out)


@build.command("tensor-ring")
@click.argument("ring")
@click.argument("bimodule")
@click.option("-k", "--index", required=True, type=int,
              help="verified nilpotency index of the bimodule")
@click.option("--label", default=None)
@click.option("--out", default=None)
@click.pass_obj
def tensor_ring_cmd(opts, ring, bimodule, index, label, out):
    """Tensor ring of a nilpotent bimodule."""
    hashes = [_load_ref(opts, ring), _load_ref(opts, bimodule)]
    _record(opts, "tensor_ring", hashes, label or "tensor-ring", out,
            {"nilpotency_index": index})


@build.command()
@click.argument("ring")
@click.argument("bimodule")
@click.option("--theta", default="zero",
              help="matrix JSON (file or inline) or 'zero'")
@click.option("--label", default=None)
@click.option("--out", default=None)
@click.pass_obj
def theta(opts, ring, bimodule, theta, label, out):
    """Extension of a ring by a bimodule along a pairing."""
    hashes = [_load_ref(opts, ring), _load_ref(opts, bimodule)]
    _record(opts, "theta_extension", hashes, label or "theta-ext", out,
            {"theta": _json_opt(theta)})


@build.command("trivial-ext")
@click.argument("ring")
@click.argument("bimodule")
@click.option("--label", default=None)
@click.option("--out", default=None)
@click.pass_obj
def trivial_ext(opts, ring, bimodule, label, out):
    """Square-zero extension of a ring by a bimodule."""
    hashes = [_load_ref(opts, ring), _load_ref(opts, bimodule)]
    _record(opts, "trivial_extension", hashes, label or "trivial-ext", out)


@build.command()
@click.argument("a")
@click.argument("b")
@click.option("--t", "tvals", default="one",
              help="generator value matrix as JSON, or 'one'")
@click.option("--label", default=None)
@click.option("--out", default=None)
@click.pass_obj
def twisted(opts, a, b, tvals, label, out):
    """Twisted tensor product along a bicharacter."""
    hashes = [_load_ref(opts, a), _load_ref(opts, b)]
    params = None if tvals == "one" else {"t": {"values": _json_opt(tvals)}}
    _record(opts, "twisted_tensor", hashes, label or "twisted", out, params)


@build.command("beilinson")
@click.argument("ring")
@click.option("--level", required=True, type=int)
@click.option("--label", default=None)
@click.option("--out", default=None)
@click.pass_obj
def beilinson_cmd(opts, ring, level, label, out):
    """Pattern extension of a positively, finitely graded algebra."""
    h = _load_ref(opts, ring)
    _record(opts, "beilinson", [h], label or opts.reg.label_of(h) + ":pattern",
            out, {"level": level})


@build.command("path-algebra")
@click.argument("path")
@click.option("--label", default=None)
@click.option("--out", default=None)
@click.pass_obj
def path_algebra_cmd(opts, path, label, out):
    """Path algebra of an acyclic quiver described in a JSON file."""
    doc = _read_json(path)
    data = _construct(lambda: path_algebra_from_json(doc, field=opts.field))
    _register(opts, data.algebra, label or pathlib.Path(path).stem, None, out)


@build.command()
@click.argument("ring")
@click.option("--label", default=None)
@click.option("--out", default=None)
@click.pass_obj
def deg0(opts, ring, label, out):
    """Degree-zero subalgebra of a graded algebra."""
    h = _load_ref(opts, ring)
    _record(opts, "degree_zero_subalgebra", [h],
            label or opts.reg.label_of(h) + ":deg0", out)


def _as_module(opts, ref, side):
    obj = _obj(opts, ref)
    if isinstance(obj, GradedBimodule):
        obj = obj.as_left_module() if side == "left" else obj.as_right_module()
    elif isinstance(obj, GradedAlgebra):
        _fail(EXIT_INPUT, "expected a module or bimodule reference")
    elif side and obj.side != side:
        _fail(EXIT_INPUT, f"module is {obj.side}-sided, not {side}")
    return obj


@main.command()
@click.argument("module")
@click.option("--side", default=None, type=click.Choice(["left", "right"]))
@click.pass_obj
def pd(opts, module, side):
    """Projective dimension of a stored module."""
    M = _as_module(opts, module, side)
    v = projective_dimension(M, cutoff=opts.pd_cutoff)
    click.echo(json.dumps({"pd": v.to_json()}))
    if not v.is_conclusive and opts.strict:
        sys.exit(EXIT_INCONCLUSIVE)


@main.command("tor")
@click.argument("x")
@click.argument("y")
@click.option("--imax", default=4, show_default=True)
@click.pass_obj
def tor_cmd(opts, x, y, imax):
    """Torsion pairing dimensions of a right and a left module."""
    X = _as_module(opts, x, "right")
    Y = _as_module(opts, y, "left")
    try:
        dims = tor(X, Y, imax)
    except (AlgebraError, ConstructionError) as e:
        _fail(EXIT_INPUT, str(e))
    click.echo(json.dumps({"tor": dims}))


@main.command()
@click.argument("bimodule")
@click.pass_obj
def nilpotency(opts, bimodule):
    """Nilpotency index of a stored bimodule."""
    W = _obj(opts, bimodule)
    if not isinstance(W, GradedBimodule):
        _fail(EXIT_INPUT, "expected a bimodule reference")
    if W.left_algebra != W.right_algebra:
        _fail(EXIT_INPUT, "nilpotency needs one ring on both sides")
    v = nilpotency_index(W, cutoff=opts.nil_cutoff)
    click.echo(json.dumps({"nilpotency": v.to_json()}))
    if not v.is_conclusive and opts.strict:
        sys.exit(EXIT_INCONCLUSIVE)


@main.command()
@click.argument("bimodule")
@click.pass_obj
def perfect(opts, bimodule):
    """Left perfectness report of a stored bimodule."""
    W = _obj(opts, bimodule)
    if not isinstance(W, GradedBimodule):
        _fail(EXIT_INPUT, "expected a bimodule reference")
    if W.left_algebra != W.right_algebra:
        _fail(EXIT_INPUT, "perfectness needs one ring on both sides")
    rep = left_perfect_check(W.left_algebra, W, pd_cutoff=opts.pd_cutoff,
                             nil_cutoff=opts.nil_cutoff)
    click.echo(json.dumps(rep.to_json(), indent=1))
    if rep.verdict == "NotLeftPerfect":
        sys.exit(EXIT_MATH)
    if rep.verdict == "Inconclusive" and opts.strict:
        sys.exit(EXIT_INCONCLUSIVE)


@main.command("derive")
@click.argument("target")
@click.option("--out", default=None, help="write the certificate here")
@click.pass_obj
def derive_cmd(opts, target, out):
    """Derive the injective-generation property for a stored algebra."""
    h = _load_ref(opts, target)
    try:
        tree = derive(opts.reg, h, pd_cutoff=opts.pd_cutoff, nil_cutoff=opts.nil_cutoff)
    except (RegistryError, ReductionError) as e:
        _fail(EXIT_INPUT, str(e))
    cert = emit_certificate(tree)
    _emit(cert, out)
    if out:
        click.echo(f"{tree.status}  {tree.claim['label']}")
    if tree.status != ESTABLISHED and opts.strict:
        sys.exit(EXIT_INCONCLUSIVE)


@main.command("validate-cert")
@click.argument("path")
@click.pass_obj
def validate_cert_cmd(opts, path):
    """Recheck every step of a stored certificate."""
    cert = _read_json(path)
    ok, status, problems = validate_cert(cert, opts.reg, **opts.given_cutoffs)
    click.echo(json.dumps({"valid": ok, "recomputed_status": status,
                           "problems": problems}, indent=1))
    if not ok:
        sys.exit(EXIT_MATH)


@main.command("verify-theorems")
@click.option("--only", multiple=True,
              help="run only the named checks (repeatable)")
@click.option("--out", default=None, help="write the full report here")
@click.pass_obj
def verify_theorems(opts, only, out):
    """Run the structural identity suite on the bundled corpus."""
    try:
        reports = run_suite(only=list(only) or None, seed=opts.seed)
    except ValueError as e:
        _fail(EXIT_INPUT, f"{e}; available: {', '.join(check_names())}")
    failed = 0
    for rep in reports:
        word = {True: "pass", False: "FAIL", None: "inconclusive"}[rep.ok]
        click.echo(f"{rep.name:20s} {word}")
        if rep.ok is not True:
            failed += 1
    if out:
        _emit([r.to_json() for r in reports], out)
    if failed:
        sys.exit(EXIT_MATH)


@main.command("corpus-load")
@click.pass_obj
def corpus_load(opts):
    """Register the bundled example corpus in the store."""
    for label, h in load_corpus(opts.reg).items():
        click.echo(f"{h}  {label}")


if __name__ == "__main__":
    main()
